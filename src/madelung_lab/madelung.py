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

The drift b = v + (1/2) d(log rho)/dx steers the diffusion ensembles in
:mod:`madelung_lab.nelson_sde`; off the lattice it is read by
:meth:`ScalarField.at`, the rule the path estimators share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NodeDetected, NormDrift, UnwrapInconsistent
from .grid_fields import (GridSpec, ScalarField, ensure_decaying, fd_dt, fd_dx,
                          spectral_dx)
from .schrodinger import (NODE_FLOOR, GaussianPacketSpec, WaveField,
                          normal_density, packet_density, packet_osmotic)

MASS_TOL = 1e-8

# Post-unwrap neighbour increments above this (in radians) mean the grid
# cannot distinguish a fast phase from a wrap; just below pi.
UNWRAP_STEP_LIMIT = 2.8


@dataclass(frozen=True)
class FluidCouple:
    """A normalized positive density and its current velocity field.

    ``log_density_gradient`` optionally carries a higher quality sampling
    of d(log rho)/dx than the default finite difference one; constructors
    attach it when they know a better route (analytic or spectral).
    Construction refuses a couple whose finite action integrand
    (v^2 + u^2) rho does not decay at the box edges; the integral itself,
    with an error radius, is ``finite_action_norm``.
    """

    rho: ScalarField
    v: ScalarField
    provenance: str = "synthetic"
    log_density_gradient: ScalarField | None = None

    def __post_init__(self) -> None:
        if self.rho.grid != self.v.grid:
            raise ValueError("density and velocity live on different grids")
        if self.log_density_gradient is not None \
                and self.log_density_gradient.grid != self.rho.grid:
            raise ValueError("log density gradient on a different grid")
        grid = self.rho.grid
        dens = self.rho.values
        if dens.min() <= 0.0:
            raise ValueError(f"density must be strictly positive, "
                             f"min = {dens.min():.3e}")
        mass = grid.dx * dens.sum(axis=-1)
        worst = float(np.max(np.abs(mass - 1.0)))
        if worst > MASS_TOL:
            raise NormDrift(f"density mass off by {worst:.3e} at some time node")
        u = 0.5 * self.log_gradient_values()
        ensure_decaying((self.v.values**2 + u**2) * dens, grid,
                        "finite action integrand")

    def log_gradient_values(self) -> np.ndarray:
        """Samples of d(log rho)/dx, preferring the attached field."""
        if self.log_density_gradient is not None:
            return self.log_density_gradient.values
        return fd_dx(np.log(self.rho.values), self.rho.grid)


@dataclass(frozen=True)
class DriftField:
    """A named drift field."""

    b: ScalarField
    name: str = "drift"

    def evaluate(self, positions: np.ndarray, t: float) -> np.ndarray:
        """Drift at arbitrary positions by :meth:`ScalarField.at`."""
        return self.b.at(positions, t)

    def divergence(self) -> ScalarField:
        """d(b)/dx by open boundary differences (drifts grow linearly)."""
        grid = self.b.grid
        return ScalarField(grid, fd_dx(self.b.values, grid))


def drift(couple: FluidCouple) -> DriftField:
    """Forward drift b = v + (1/2) d(log rho)/dx of the couple."""
    b = couple.v.values + 0.5 * couple.log_gradient_values()
    return DriftField(ScalarField(couple.rho.grid, b),
                      name=f"drift[{couple.provenance}]")


def constant_drift(grid: GridSpec, value: float, name: str | None = None) -> DriftField:
    values = np.full((grid.n_t + 1, grid.n_x), float(value))
    return DriftField(ScalarField(grid, values),
                      name=name or f"constant({value:g})")


def decompose(psi: WaveField, node_floor: float = NODE_FLOOR):
    """Split a wave field into (rho, S, couple) with v = dS/dx.

    The phase comes from unwrapping the principal argument along x for
    every time slice, then shifting whole slices by multiples of 2 pi so
    the centre column is continuous in time (it is anchored to the
    principal value at t = 0). Only the gradient of S is contractual;
    the couple's velocity is that gradient.
    """
    grid = psi.grid
    dens = psi.density()
    floor = float(dens.min())
    if floor < node_floor:
        raise NodeDetected(f"min |psi|^2 = {floor:.3e} below floor {node_floor:.1e}")

    raw = np.angle(psi.values)
    phase = np.unwrap(raw, axis=-1)
    step = float(np.max(np.abs(np.diff(phase, axis=-1))))
    if step > UNWRAP_STEP_LIMIT:
        raise UnwrapInconsistent(
            f"phase increment {step:.3f} rad between adjacent samples; "
            f"the grid cannot resolve this phase (limit {UNWRAP_STEP_LIMIT})")

    centre = grid.n_x // 2
    phase += raw[0, centre] - phase[0, centre]
    column = phase[:, centre]
    phase -= (column - np.unwrap(column))[:, np.newaxis]

    rho = ScalarField(grid, dens)
    s_field = ScalarField(grid, phase)
    v = ScalarField(grid, fd_dx(phase, grid))
    log_grad = ScalarField(grid, fd_dx(np.log(dens), grid))
    couple = FluidCouple(rho, v, provenance="schrodinger",
                         log_density_gradient=log_grad)
    return rho, s_field, couple


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


# ---------------------------------------------------------------------------
# Synthetic couples used as fixtures and negative controls.

def translating_gaussian_couple(grid: GridSpec, speed: float,
                                variance: float = 1.0,
                                start: float = 0.0) -> FluidCouple:
    """Rigidly moving normal density with the matching constant velocity.

    Solves the continuity equation exactly, so it is a legitimate couple;
    it is not a wave field couple unless the width also spreads. At speed
    0 it is the static density with zero velocity.
    """
    means = (start + speed * grid.t)[:, np.newaxis]
    x = grid.x[np.newaxis, :]
    rho = normal_density(x, means, variance)
    log_grad = -(x - means) / variance
    v = np.full((grid.n_t + 1, grid.n_x), float(speed))
    return FluidCouple(ScalarField(grid, rho), ScalarField(grid, v),
                       provenance="synthetic",
                       log_density_gradient=ScalarField(grid, log_grad))


def spreading_mismatched_couple(spec: GaussianPacketSpec, grid: GridSpec) -> FluidCouple:
    """Packet density paired with the constant velocity v = p.

    The density spreads but the velocity ignores that, so continuity
    fails by construction. Deliberate negative control: it is not the
    hydrodynamic couple of any wave field evolution.
    """
    x = grid.x[np.newaxis, :]
    t = grid.t[:, np.newaxis]
    rho = packet_density(spec, x, t)
    log_grad = 2.0 * packet_osmotic(spec, x, t)
    v = np.full((grid.n_t + 1, grid.n_x), float(spec.p))
    return FluidCouple(ScalarField(grid, rho), ScalarField(grid, v),
                       provenance="synthetic",
                       log_density_gradient=ScalarField(grid, log_grad))


def plateau_density(grid: GridSpec, center: float = 0.0,
                    top_half_width: float = 2.0,
                    ramp_width: float = 2.0,
                    pedestal: float = 1e-13) -> ScalarField:
    """Normalized flat top profile, constant in time.

    Quintic smoothstep ramps join the plateau to a tiny uniform pedestal
    (strict positivity everywhere without tripping the boundary guard).
    On the plateau itself log rho is constant, so the osmotic velocity
    vanishes there identically.
    """
    if top_half_width <= 0.0 or ramp_width <= 0.0:
        raise ValueError("plateau widths must be positive")
    u = (np.abs(grid.x - center) - top_half_width) / ramp_width
    u = np.clip(u, 0.0, 1.0)
    ramp = 1.0 - u**3 * (u * (6.0 * u - 15.0) + 10.0)
    profile = pedestal + (1.0 - pedestal) * ramp
    profile = profile / (grid.dx * profile.sum())
    values = np.broadcast_to(profile, (grid.n_t + 1, grid.n_x)).copy()
    return ScalarField(grid, values)


def plateau_couple(grid: GridSpec, speed: float = 0.0, **kwargs) -> FluidCouple:
    rho = plateau_density(grid, **kwargs)
    v = np.full((grid.n_t + 1, grid.n_x), float(speed))
    return FluidCouple(rho, ScalarField(grid, v), provenance="synthetic")
