"""Hydrodynamic decomposition of wave fields and the associated drifts.

A node free wave field factors as sqrt(rho) * exp(i S). The couple
(rho, dS/dx) obeys the continuity equation, and S itself obeys a
Hamilton-Jacobi equation with the curvature of sqrt(rho) as potential.
``madelung_residuals`` measures how well sampled fields satisfy both,
which is the certificate that a couple really came from a wave field.

Derivative conventions: rho weighted fluxes decay at the box edges and
are differentiated spectrally. Phases and log densities grow
polynomially across the box, so they use the open boundary finite
difference rule (exact on quadratics, hence on every Gaussian case).

A :class:`FluidCouple` is three fields on one grid, rho, v and
d(log rho)/dx; each constructor, ``decompose`` of a wave field or
``gaussian_couple`` of closed forms, attaches the last by its best route.
``ensure_couple_rows`` checks any block of a couple's rows, and
``action_integrand`` forms their (v^2 + w u^2) rho for one Fisher
weight w, u = (1/2) d(log rho)/dx. The drift b = v + u is a
:class:`DriftField`, a scalar field that steers the diffusion ensembles
in :mod:`madelung_lab.nelson_sde`; off the lattice it is read by
:meth:`ScalarField.at`, the rule the path estimators share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldRefused, UnwrapInconsistent
from .grid_fields import (GridSpec, ScalarField, cleared_rows, ensure_decaying,
                          ensure_normalized, fd_dt, fd_dx, guard_columns, spectral_dx)
from .schrodinger import (GaussianPacketSpec, WaveField, normal_density, packet_mean,
                          packet_sigma_sq)

# Post-unwrap neighbour increments above this (in radians) mean the grid
# cannot distinguish a fast phase from a wrap; just below pi.
UNWRAP_STEP_LIMIT = 2.8


@dataclass(frozen=True)
class FluidCouple:
    """A normalized positive density, its velocity and d(log rho)/dx.

    Construction refuses a couple whose finite action integrand
    (v^2 + u^2) rho does not decay at the box edges; the integral itself,
    with an error radius, is ``finite_action_norm``.
    """

    rho: ScalarField
    v: ScalarField
    log_density_gradient: ScalarField
    provenance: str = "synthetic"

    def __post_init__(self) -> None:
        grid = self.rho.grid
        if self.v.grid != grid or self.log_density_gradient.grid != grid:
            raise ValueError("couple fields live on different grids")
        ensure_positive(self.rho.values, "density")
        ensure_couple_rows(self.rho.values, self.v.values,
                           self.log_density_gradient.values, grid)


def action_integrand(rho: np.ndarray, v: np.ndarray, log_density_gradient: np.ndarray,
                     weight: float) -> np.ndarray:
    """(v^2 + w u^2) rho, u = (1/2) d(log rho)/dx, for the weight w of -1, 0
    or +1, on any block of a couple's rows: -1 gives the quantum action's
    integrand, 0 the classical and +1 the finite action's. It is formed in
    place on v^2, with u^2 only when w is not 0, and is bit for bit
    (v**2 + w * (0.5 * log_density_gradient)**2) * rho."""
    integrand = v**2
    if weight:
        fisher = 0.5 * log_density_gradient
        fisher *= fisher
        if weight > 0.0:
            integrand += fisher
        else:
            integrand -= fisher
    integrand *= rho
    return integrand


def ensure_positive(density: np.ndarray, what: str) -> None:
    """Refuse a density with an entry <= 0 or NaN (an empty block has none),
    naming the density ``what`` and its minimum."""
    low = density.min(initial=np.inf)
    if not low > 0.0:
        raise FieldRefused(f"{what} must be strictly positive, min = {low:.3e}")


def ensure_couple_rows(rho: np.ndarray, v: np.ndarray, log_density_gradient: np.ndarray,
                       grid: GridSpec) -> None:
    """A couple's rules past positivity, on any block of its rows: a finite,
    normalized density and a decaying finite action integrand. The
    integrand is formed on the ``guard_columns`` first, elementwise so bit
    for bit, and on the rows those do not clear only when there are such
    rows; for a finite v and d(log rho)/dx the refusal is the one of the
    whole integrand, and a non-finite entry on a row the columns clear is
    left to the row sums of the caller's integrand."""
    ensure_normalized(rho, grid, "density")
    columns = guard_columns(grid)
    uncleared = ~cleared_rows(action_integrand(rho[:, columns], v[:, columns],
                                               log_density_gradient[:, columns], 1.0))
    if uncleared.any():
        ensure_decaying(action_integrand(rho[uncleared], v[uncleared],
                                         log_density_gradient[uncleared], 1.0),
                        grid, "finite action integrand")


class DriftField(ScalarField):
    """A drift: a scalar field, read off the lattice by ``evaluate`` (``at``)."""

    evaluate = ScalarField.at

    def divergence(self) -> ScalarField:
        """d(b)/dx by open boundary differences (drifts grow linearly)."""
        return ScalarField(self.grid, fd_dx(self.values, self.grid))


def drift(couple: FluidCouple) -> DriftField:
    """Forward drift b = v + (1/2) d(log rho)/dx of the couple."""
    return DriftField(couple.rho.grid,
                      couple.v.values + 0.5 * couple.log_density_gradient.values)


def constant_drift(grid: GridSpec, value: float) -> DriftField:
    return DriftField(grid, np.full((grid.n_t + 1, grid.n_x), float(value)))


def ensure_resolved_phase(phase: np.ndarray) -> None:
    """Refuse a phase, continuous along x, whose largest step between
    adjacent samples exceeds ``UNWRAP_STEP_LIMIT``: there the grid cannot
    tell the phase from a wrap."""
    step = float(np.max(np.abs(np.diff(phase, axis=-1))))
    if step > UNWRAP_STEP_LIMIT:
        raise UnwrapInconsistent(
            f"phase increment {step:.3f} rad between adjacent samples; "
            f"the grid cannot resolve this phase (limit {UNWRAP_STEP_LIMIT})")


def decompose(psi: WaveField):
    """Split a wave field into (rho, S, couple) with v = dS/dx.

    The phase comes from unwrapping the principal argument along x for
    every time slice, then shifting whole slices by multiples of 2 pi so
    the centre column is continuous in time (it is anchored to the
    principal value at t = 0). Only the gradient of S is contractual;
    the couple's velocity is that gradient; the field's floor keeps log rho finite.
    """
    grid = psi.grid
    dens = psi.density()

    raw = np.angle(psi.values)
    phase = np.unwrap(raw, axis=-1)
    ensure_resolved_phase(phase)

    centre = grid.n_x // 2
    phase += raw[0, centre] - phase[0, centre]
    column = phase[:, centre]
    phase -= (column - np.unwrap(column))[:, np.newaxis]

    rho = ScalarField(grid, dens)
    s_field = ScalarField(grid, phase)
    v = ScalarField(grid, fd_dx(phase, grid))
    log_grad = ScalarField(grid, fd_dx(np.log(dens), grid))
    return rho, s_field, FluidCouple(rho, v, log_grad, provenance="schrodinger")


def continuity_residual(rho: ScalarField, v: ScalarField) -> float:
    """Sup norm of d(rho)/dt + d(rho v)/dx over interior time nodes."""
    grid = rho.grid
    flux = spectral_dx(rho.values * v.values, grid, "density flux")
    return float(np.max(np.abs((fd_dt(rho.values, grid) + flux)[1:-1])))


def madelung_residuals(rho: ScalarField, phase: ScalarField) -> tuple[float, float]:
    """Sup norms of the two fluid equation residuals on interior time nodes.

    r1 checks d(rho)/dt + d(rho v)/dx with v = dS/dx (mass transport),
    r2 checks dS/dt + v^2/2 - (1/2) (d^2 sqrt(rho)/dx^2) / sqrt(rho).
    The curvature term is evaluated through log rho, which keeps it
    exact for Gaussian slices:

        (d^2 sqrt(rho)/dx^2) / sqrt(rho)
            = (1/2) L'' + (1/4) (L')^2,   L = log rho.

    Time derivatives are centered; endpoints are excluded from the sup.
    """
    if rho.grid != phase.grid:
        raise ValueError("fields live on different grids")
    grid = rho.grid

    v = fd_dx(phase.values, grid)
    r1 = continuity_residual(rho, ScalarField(grid, v))

    log_rho = np.log(rho.values)
    lx = fd_dx(log_rho, grid)
    lxx = fd_dx(lx, grid)
    curvature = 0.5 * lxx + 0.25 * lx**2
    hj = fd_dt(phase.values, grid) + 0.5 * v**2 - 0.5 * curvature
    r2 = float(np.max(np.abs(hj[1:-1])))
    return r1, r2


def gaussian_couple(grid: GridSpec, mean, variance, v, provenance: str) -> FluidCouple:
    """N(mean, variance) slices (mean and variance are columns over t), the
    velocity v broadcast to the lattice and d(log rho)/dx in closed form."""
    x = grid.x[np.newaxis, :]
    v = np.broadcast_to(v, (grid.n_t + 1, grid.n_x)).copy()
    return FluidCouple(ScalarField(grid, normal_density(x, mean, variance)),
                       ScalarField(grid, v),
                       ScalarField(grid, -(x - mean) / variance), provenance)


# ---------------------------------------------------------------------------
# The negative control of theorem1-verify's mismatched base.

def spreading_mismatched_couple(spec: GaussianPacketSpec, grid: GridSpec) -> FluidCouple:
    """Packet density paired with the constant velocity v = p.

    The density spreads but the velocity ignores that, so continuity
    fails by construction. Deliberate negative control: it is not the
    hydrodynamic couple of any wave field evolution.
    """
    t = grid.t[:, np.newaxis]
    return gaussian_couple(grid, packet_mean(spec, t), packet_sigma_sq(spec, t),
                           float(spec.p), "synthetic")
