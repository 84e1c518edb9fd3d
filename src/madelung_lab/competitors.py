"""Competitor couples sharing the endpoint densities of a base couple.

Given a base couple (rho, v) and a compactly supported density bump
g(x, t) that vanishes at t = 0 and t = 1 and has zero spatial mean at
every time, the family

    rho_y = rho + y g,    v_y = v + X_y,    y in [-1, 1]

stays inside the admissible class provided X_y restores the continuity
equation. In one dimension that correction integrates exactly:

    d(u)/dx = -(dg/dt + d(g v)/dx),   X_y = y u / (rho + y g),

with u vanishing outside the support of g because the right hand side
has zero spatial mean. A family is just (base, g): it solves u once
at construction, and ``CompetitorFamily.member_rows(y)``, the one member
builder, builds the member at y where it differs from the base. The member
at y = 0 is the base couple itself, so ``evaluate_family`` builds ten
members, not eleven. Evaluating the quantum action at the fixed probe
points ``Y_GRID`` then probes whether the base couple is the minimizer among
couples with the same endpoint densities: for a wave field couple the
derivative at y = 0 vanishes (to quadrature accuracy) and the profile
is convex.

Construction notes. The recipe is fixed, so a perturbation is its
seed: ``MODES`` random bumps inside ``SPACE_SUPPORT``, Gaussians cut
off at 6.5 widths and shifted to zero at the cut, times a window
(4 tau (1 - tau))^4 in time rescaled to ``TIME_WINDOW``, scaled to
peak at ``AMPLITUDE``. So g is exactly zero outside that space-time
support and smooth enough that spectral operations resolve it to
rounding. The correction u is obtained by a spectral antiderivative,
which keeps the constructed couple's continuity residual at the same
level as the base couple's.

A family records its hull: the rows and the columns outside which g
and u are exactly zero (u reaches one row past g on each side, through
the time difference of g). A member is built, checked and integrated on
the hull rows alone, at full width, since its log density gradient
differs there; ``spliced_report`` fills the other rows with the base's
row integrals. A zero row transforms to zeros, so the hull rows are the
ones a whole-lattice build gives, value for value, while masking the
transform's ringing off the support columns would move the error radii.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .action_functionals import ActionReport, row_series, series_report, spliced_report
from .errors import AmplitudeInfeasible, FieldRefused, MadelungLabError, SupportLeak
from .grid_fields import (ScalarField, ensure_finite, fd_dt, spectral_antiderivative,
                          spectral_dx, taper)
from .madelung import FluidCouple, action_integrand, ensure_couple_rows, ensure_positive

Y_GRID = (-1.0, -0.75, -0.5, -0.25, -0.125, 0.0,
          0.125, 0.25, 0.5, 0.75, 1.0)
VIOLATION_RADII = 6.0  # 3 combined radii: a margin takes two actions

SPACE_SUPPORT = (-4.0, 4.0)
TIME_WINDOW = (0.1, 0.9)
AMPLITUDE = 0.08
MODES = 3
_CUT_RADIUS = 6.5
_TAPER_WIDTH = 1.5
_SAFETY_FLOOR = 0.1


@dataclass(frozen=True)
class PerturbationSpec:
    """One random density perturbation: the seed of its bumps."""

    seed: int


def _window(t: np.ndarray) -> np.ndarray:
    t0, t1 = TIME_WINDOW
    tau = np.clip((t - t0) / (t1 - t0), 0.0, 1.0)
    return (4.0 * tau * (1.0 - tau)) ** 4


def _space_profile(seed: int, x: np.ndarray) -> np.ndarray:
    """Derivative of a random sum of smoothly cut off Gaussian bumps.

    A hard cut leaves a value jump of order exp(-CUT^2/2) whose spectral
    ringing spreads over the whole box; the taper keeps the profile C^2
    and exactly zero outside the cut radius.
    """
    a, b = SPACE_SUPPORT
    rng = np.random.default_rng(seed)
    scale = (b - a) / 8.0
    out = np.zeros_like(x)
    for _ in range(MODES):
        width = rng.uniform(0.35, 0.6) * scale
        radius = _CUT_RADIUS * width
        centre = rng.uniform(a + radius, b - radius)
        coef = rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
        arg = (x - centre) / width
        ramp = (np.abs(arg) - (_CUT_RADIUS - _TAPER_WIDTH)) / _TAPER_WIDTH
        out += coef * (-arg / width) * np.exp(-0.5 * arg**2) * taper(ramp)
    return out


def raw_perturbation(spec: PerturbationSpec, grid) -> np.ndarray:
    """Space profile times window, scaled so max |g| = AMPLITUDE."""
    a, b = SPACE_SUPPORT
    if not (grid.x_min < a and b < grid.x_max):
        raise FieldRefused(f"space support {SPACE_SUPPORT} must sit strictly "
                           f"inside the box [{grid.x_min}, {grid.x_max}]")
    g = (_space_profile(spec.seed, grid.x)[np.newaxis, :]
         * _window(grid.t)[:, np.newaxis])
    peak = float(np.max(np.abs(g)))
    if peak == 0.0:
        raise FieldRefused("perturbation degenerated to zero")
    return g * (AMPLITUDE / peak)


def positivity_head_room(g: np.ndarray, rho_values: np.ndarray, grid) -> float:
    """Largest factor the realized g tolerates before breaking positivity.

    Values below 1 mean the recipe's amplitude would be rescaled at
    build time; the safety floor is 10% of the density's minimum over
    the space support.
    """
    a, b = SPACE_SUPPORT
    support = (grid.x >= a) & (grid.x <= b)
    rho_floor = float(rho_values[:, support].min())
    budget = rho_values - _SAFETY_FLOOR * rho_floor
    mask = np.abs(g) > 0.0
    head_room = float(np.min(budget[mask] / np.abs(g[mask])))
    if not np.isfinite(head_room) or head_room <= 0.0:
        raise AmplitudeInfeasible(
            f"no positive rescaling keeps the density above "
            f"{_SAFETY_FLOOR:.0%} of its support minimum {rho_floor:.3e}")
    return head_room


def make_perturbation(spec: PerturbationSpec, rho: ScalarField) -> ScalarField:
    """g on the grid of the density ``rho``: max |g| is AMPLITUDE, scaled by
    just under the positivity head room when that is < 1, so rho + y g stays
    >= 10% of rho's support minimum for y in [-1, 1]. ValueError: the grid
    cannot hold or sample the bumps; AmplitudeInfeasible: rho has no budget."""
    grid = rho.grid
    g = raw_perturbation(spec, grid)
    head_room = positivity_head_room(g, rho.values, grid)
    if head_room < 1.0:
        g = g * (head_room * (1.0 - 1e-12))
    return ScalarField(grid, g)


def check_perturbation(g: np.ndarray, grid) -> None:
    """Refuse a perturbation with mass at some time or values at t = 0, 1.

    The zero-mass tolerance is 1e-10 on the Riemann sum dx * sum(g); on a
    coarse grid the sampled bumps can miss it.
    """
    mass = float(np.max(np.abs(grid.dx * g.sum(axis=-1))))
    if mass > 1e-10:
        raise FieldRefused(f"perturbation must have zero mass at every time, "
                           f"largest |mass| {mass:.3e}")
    if np.any(g[0] != 0.0) or np.any(g[-1] != 0.0):
        raise FieldRefused("perturbation must vanish at both endpoints")


def _span(live: np.ndarray) -> slice:
    """From the first to the last True entry of a 1-D mask; empty if none is."""
    index = np.flatnonzero(live)
    return slice(index[0], index[-1] + 1) if index.size else slice(0, 0)


def _correction_at_one(base: FluidCouple, g: ScalarField) -> np.ndarray:
    """Solve the divergence equation at y = 1 and clamp it to the support.

    Only live rows are transformed: the flux g v on the rows where g is
    nonzero, the antiderivative on the rows where the continuity data is.
    Every other row of both transforms would come out zero.
    """
    grid = base.rho.grid
    rhs = fd_dt(g.values, grid)
    rows = _span(g.values.any(axis=1))
    rhs[rows] += spectral_dx(g.values[rows] * base.v.values[rows], grid,
                             "perturbation flux")

    # The continuity data vanishes off the bump support, the hull of the
    # columns where g is ever nonzero; what the spectral flux derivative
    # leaves there is ringing, gated at the correction's relative level.
    cols = _span(g.values.any(axis=0))
    supported = np.zeros(grid.n_x, dtype=bool)
    supported[cols] = True
    scale = float(np.max(np.abs(rhs)))
    stray = float(np.max(np.abs(rhs[:, ~supported]))) if (~supported).any() else 0.0
    if scale > 0.0 and stray > 1e-8 * scale:
        raise SupportLeak(f"continuity data leaks {stray:.3e} past the "
                          f"support (peak {scale:.3e})")
    rhs = np.where(supported[np.newaxis, :], rhs, 0.0)
    u = np.zeros_like(rhs)
    rows = _span(rhs.any(axis=1))
    u[rows] = -spectral_antiderivative(rhs[rows], grid, "divergence data")

    if supported.any():
        peak = float(np.max(np.abs(u)))
        right_of = u[:, cols.stop:]
        leak = float(np.max(np.abs(right_of))) if right_of.size else 0.0
        if peak > 0.0 and leak > 1e-8 * peak:
            raise SupportLeak(f"correction leaks {leak:.3e} past the support "
                              f"(peak {peak:.3e}); perturbation mass is off")
    u = np.where(supported[np.newaxis, :], u, 0.0)
    return u


@dataclass(frozen=True)
class CompetitorFamily:
    """The couples (rho + y g, v + X_y), y in [-1, 1], around a base couple.

    Built from the base couple and the perturbation g alone: after the
    zero-mass and endpoint checks on g, the correction u at y = 1 is
    solved here, so every member satisfies the continuity equation.
    """

    base: FluidCouple
    g: ScalarField
    u: ScalarField = field(init=False)
    # (rows, columns) of the block outside which g and u are exactly zero
    hull: tuple[slice, slice] = field(init=False)

    def __post_init__(self) -> None:
        grid = self.base.rho.grid
        if self.g.grid != grid:
            raise ValueError("perturbation lives on a different grid")
        check_perturbation(self.g.values, grid)
        u = _correction_at_one(self.base, self.g)
        live = (self.g.values != 0.0) | (u != 0.0)
        object.__setattr__(self, "u", ScalarField(grid, u))
        object.__setattr__(self, "hull",
                           (_span(live.any(axis=1)), _span(live.any(axis=0))))

    def member_rows(self, y: float) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                             np.ndarray]:
        """rho + y g, v + y u / (rho + y g) and d(log(rho + y g))/dx on the hull
        rows at full width, checked by the couple's rules, positivity first
        (before the log), and the quantum action integrand of those rows.
        The other rows are the base's, which obey the rules, so a failing
        rule reports the whole member's worst value."""
        if abs(y) > 1.0:
            raise ValueError(f"y must lie in [-1, 1], got {y}")
        base = self.base
        grid = base.rho.grid
        rows, cols = self.hull
        rho, g = base.rho.values[rows, cols], self.g.values[rows, cols]
        bumped = rho + y * g
        ensure_positive(bumped, "density")
        rho_y = base.rho.values[rows].copy()
        rho_y[:, cols] = bumped
        v_y = base.v.values[rows].copy()
        v_y[:, cols] += y * self.u.values[rows, cols] / bumped

        # d(log rho_y)/dx splits into the base part plus a compactly
        # supported spectral part, of log1p(y g / rho) where g is nonzero and
        # +0.0 elsewhere; plain differences on log(rho + y g) lose two
        # orders of stationarity accuracy.
        log_bump = np.zeros_like(rho_y)
        np.log1p(y * g / rho, out=log_bump[:, cols], where=g != 0.0)
        log_grad = spectral_dx(log_bump, grid, "log density bump")
        del log_bump
        log_grad += base.log_density_gradient.values[rows]
        # off the hull columns rho_y and v_y are the base's finite rows
        for values in (rho_y[:, cols], v_y[:, cols], log_grad):
            ensure_finite(values, "scalar field")
        ensure_couple_rows(rho_y, v_y, log_grad, grid)
        return rho_y, v_y, log_grad, action_integrand(rho_y, v_y, log_grad, -1.0)


def make_family(base: FluidCouple, spec: PerturbationSpec) -> CompetitorFamily:
    return CompetitorFamily(base, make_perturbation(spec, base.rho))


def evaluate_family(fam: CompetitorFamily) -> list[tuple[float, ActionReport]]:
    """Quantum action at the probe points ``Y_GRID`` of the family: each
    member's hull rows, spliced into the base's row series, give the
    quantum action of the whole member bit for bit."""
    grid = fam.base.rho.grid
    series = row_series(fam.base, -1.0)
    first_row = fam.hull[0].start
    return [(y, spliced_report("quantum", grid, series, fam.member_rows(y)[-1], first_row)
             if y else series_report("quantum", grid, *series))
            for y in Y_GRID]


def _profile_stats(profile: dict[float, ActionReport]) -> dict:
    radius = max(rep.error_radius for rep in profile.values())
    base_rep = profile[0.0]
    min_margin = min(rep.value - base_rep.value
                     for y, rep in profile.items() if y != 0.0)
    coarse = (profile[0.25].value - profile[-0.25].value) / 0.5
    fine = (profile[0.125].value - profile[-0.125].value) / 0.25
    # second differences on the equally spaced quarter points of Y_GRID
    steps = [y for y in Y_GRID if (y * 4.0) == round(y * 4.0)]
    second = [profile[steps[j + 1]].value - 2.0 * profile[steps[j]].value
              + profile[steps[j - 1]].value
              for j in range(1, len(steps) - 1)]
    return {"min_margin": float(min_margin), "error_radius": float(radius),
            "derivative_coarse": float(coarse), "derivative_at_0": float(fine),
            "derivative_ratio": float(coarse / fine) if fine != 0.0 else float("inf"),
            "second_diff_min": float(min(second))}


def verify_theorem1(base: FluidCouple, specs) -> dict:
    """Stationarity, minimality and convexity of the y-profiles.

    Verdict per spec: 'violated' only when the minimum margin falls
    below 3 combined error radii (``VIOLATION_RADII`` radii: a margin is
    the difference of two actions); smaller dips are 'inconclusive'.
    Construction failures (a lab error, the recipe's ``FieldRefused``
    among them) are reported as such, never as violations; any other
    exception, a plain ValueError too, is a bug and propagates.

    The minimization claim is expected to hold only for wave field
    derived bases; other couples run fine (that is the negative
    control) and the report records which case it was.
    """
    results = []
    for spec in specs:
        entry = {"seed": spec.seed}
        try:
            fam = make_family(base, spec)
            profile = dict(evaluate_family(fam))
        except MadelungLabError as exc:
            entry.update(verdict="failed-to-construct", error=str(exc))
            results.append(entry)
            continue
        stats = _profile_stats(profile)
        entry["y_profile"] = [[y, profile[y].value, profile[y].error_radius]
                              for y in Y_GRID]
        entry.update(stats)

        tol = VIOLATION_RADII * stats["error_radius"]
        convex_tol = 3.0 * 4.0 * stats["error_radius"]
        if stats["min_margin"] < -tol:
            entry["verdict"] = "violated"
        elif stats["second_diff_min"] < -convex_tol:
            entry["verdict"] = "inconclusive"
        else:
            entry["verdict"] = "pass"
        results.append(entry)

    verdicts = [r["verdict"] for r in results]
    return {
        "base_provenance": base.provenance,
        "specs": results,
        "n_specs": len(results),
        "n_pass": verdicts.count("pass"),
        "n_violated": verdicts.count("violated"),
        "n_inconclusive": verdicts.count("inconclusive"),
        "n_failed": verdicts.count("failed-to-construct"),
        "all_pass": all(v == "pass" for v in verdicts),
    }
