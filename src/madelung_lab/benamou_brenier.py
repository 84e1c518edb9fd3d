"""Quadratic optimal transport in one dimension and its fluid geodesics.

For measures on the line the optimal map for quadratic cost is the
quantile coupling T = F1^{-1} o F0 (monotone, the gradient of a convex
potential). Between Gaussians everything is explicit: the squared
transport distance is (m0 - m1)^2 + (s0 - s1)^2 and the displacement
interpolation stays Gaussian with linearly interpolated mean and
standard deviation. Its velocity field

    v(x, t) = (m1 - m0) + (s1 - s0) (x - mean_t) / std_t

is spatially affine and satisfies the pressureless Euler equation
dv/dt + v dv/dx = 0 exactly, which is what ``euler_residual`` probes.
The kinetic action of this couple reproduces the squared transport
distance (the dynamic formulation of the distance), giving the
classical benchmark against which the wave field couples are compared.

Map inversion: the grid CDFs come from the spectral antiderivative
plus the mean-mode ramp, and F1 is inverted per query by Newton on a
monotone cubic Hermite model of each CDF cell (value and density data),
clipped to the cell. This keeps the map accurate to ~1e-7 where plain
linear inversion of a discrete CDF would lose three digits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .action_functionals import classical_action, quantum_action
from .errors import OrderingViolated
from .grid_fields import (GridSpec, cumulative_trapezoid, ensure_normalized, fd_dt, fd_dx,
                          row_integrals, spectral_antiderivative)
from .madelung import FluidCouple, ensure_positive, gaussian_couple
from .schrodinger import GaussianPacketSpec, normal_density, packet_mean, packet_sigma_sq

_NEWTON_ITERATIONS = 30


@dataclass(frozen=True)
class GaussianMeasure:
    mean: float
    variance: float

    def __post_init__(self) -> None:
        if not self.variance > 0.0:
            raise ValueError(f"variance must be positive, got {self.variance}")

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))

    def density(self, x: np.ndarray) -> np.ndarray:
        return normal_density(x, self.mean, self.variance)


@dataclass(frozen=True)
class TransportPlan1D:
    """Sampled monotone map and its convex potential on the grid.

    The potential is the cumulative trapezoid of the map, so the
    defining relation is (phi[j+1] - phi[j]) / dx = (T[j] + T[j+1]) / 2:
    the difference quotient of phi returns the map averaged to cell
    midpoints. The constructor verifies that relation and monotonicity.
    """

    grid: GridSpec
    map_samples: np.ndarray
    potential_samples: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.map_samples, dtype=float)
        phi = np.asarray(self.potential_samples, dtype=float)
        if t.shape != (self.grid.n_x,) or phi.shape != (self.grid.n_x,):
            raise ValueError("plan samples must match the spatial grid")
        scale = float(np.max(np.abs(t))) or 1.0
        if np.min(np.diff(t)) < -1e-12 * scale:
            raise ValueError("transport map must be nondecreasing")
        quotient = np.diff(phi) / self.grid.dx
        midpoint = 0.5 * (t[1:] + t[:-1])
        if np.max(np.abs(quotient - midpoint)) > 1e-8 * max(scale, 1.0):
            raise ValueError("potential is not the primitive of the map")
        object.__setattr__(self, "map_samples", t)
        object.__setattr__(self, "potential_samples", phi)


def gaussian_w2(g0: GaussianMeasure, g1: GaussianMeasure) -> float:
    """Squared quadratic transport distance between two Gaussians."""
    return float((g0.mean - g1.mean) ** 2 + (g0.std - g1.std) ** 2)


def _grid_cdf(rho: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Cumulative mass from x_min, spectrally accurate for decaying rho."""
    mean_ramp = (rho.mean()) * (grid.x - grid.x_min)
    tail = spectral_antiderivative(rho[np.newaxis, :], grid, "density")[0]
    return tail + mean_ramp


def _invert_cdf(cdf1: np.ndarray, rho1: np.ndarray, grid: GridSpec,
                quantiles: np.ndarray) -> np.ndarray:
    """Newton inversion of a grid CDF on its monotone cubic Hermite model."""
    flat = np.maximum.accumulate(cdf1)
    q = np.clip(quantiles, flat[0], flat[-1])
    j = np.clip(np.searchsorted(flat, q, side="right") - 1, 0, grid.n_x - 2)
    f_lo, f_hi = flat[j], flat[j + 1]
    d_lo, d_hi = rho1[j], rho1[j + 1]
    h = grid.dx
    gap = np.where(f_hi - f_lo > 0.0, f_hi - f_lo, 1.0)
    s = np.clip((q - f_lo) / gap, 0.0, 1.0)
    for _ in range(_NEWTON_ITERATIONS):
        h00 = 2.0 * s**3 - 3.0 * s**2 + 1.0
        h10 = s**3 - 2.0 * s**2 + s
        h01 = -2.0 * s**3 + 3.0 * s**2
        h11 = s**3 - s**2
        value = f_lo * h00 + h * d_lo * h10 + f_hi * h01 + h * d_hi * h11
        slope = (f_lo * (6.0 * s**2 - 6.0 * s)
                 + h * d_lo * (3.0 * s**2 - 4.0 * s + 1.0)
                 + f_hi * (6.0 * s - 6.0 * s**2)
                 + h * d_hi * (3.0 * s**2 - 2.0 * s))
        step = np.where(np.abs(slope) > 0.0,
                        (value - q) / np.where(slope == 0.0, 1.0, slope), 0.0)
        s = np.clip(s - step, 0.0, 1.0)
    return grid.x[j] + s * h


def monge_map_1d(rho0: np.ndarray, rho1: np.ndarray,
                 grid: GridSpec) -> TransportPlan1D:
    """Quantile coupling between two positive normalized grid densities."""
    rho0 = np.asarray(rho0, dtype=float)
    rho1 = np.asarray(rho1, dtype=float)
    for name, dens in (("source", rho0), ("target", rho1)):
        if dens.shape != (grid.n_x,):
            raise ValueError(f"{name} density has shape {dens.shape}")
        ensure_positive(dens, f"{name} density")
        ensure_normalized(dens, grid, f"{name} density")
    cdf0 = _grid_cdf(rho0, grid)
    cdf1 = _grid_cdf(rho1, grid)
    raw = _invert_cdf(cdf1, rho1, grid, cdf0)

    # Far in the tails both CDFs sit in roundoff ripple around 0 or 1
    # and the inversion wanders; flatten it there, but refuse to touch
    # any point carrying real source mass.
    t_map = np.maximum.accumulate(raw)
    moved = np.abs(t_map - raw) > 1e-9 * (grid.x_max - grid.x_min)
    if np.any(moved & (rho0 > 1e-12 * rho0.max())):
        raise ValueError("transport map decreases inside the bulk of the "
                         "source density")
    phi = cumulative_trapezoid(t_map, grid)
    return TransportPlan1D(grid, t_map, phi)


def transport_cost(plan: TransportPlan1D, rho0: np.ndarray) -> float:
    """Quadratic cost of the plan against the source density."""
    grid = plan.grid
    integrand = (plan.map_samples - grid.x) ** 2 * np.asarray(rho0, dtype=float)
    return float(row_integrals(integrand, grid, "transport cost integrand"))


def displacement_couple(g0: GaussianMeasure, g1: GaussianMeasure,
                        grid: GridSpec) -> FluidCouple:
    """The transport geodesic between two Gaussians as a fluid couple."""
    t = grid.t[:, np.newaxis]
    x = grid.x[np.newaxis, :]
    mean_t = (1.0 - t) * g0.mean + t * g1.mean
    std_t = (1.0 - t) * g0.std + t * g1.std
    v = (g1.mean - g0.mean) + (g1.std - g0.std) * (x - mean_t) / std_t
    return gaussian_couple(grid, mean_t, std_t**2, v, "classical-ot")


def euler_residual(couple: FluidCouple) -> float:
    """Sup of |dv/dt + v dv/dx| over interior time nodes.

    Velocities grow across the box, so both derivatives use the open
    boundary difference rule.
    """
    grid = couple.rho.grid
    v = couple.v.values
    residual = fd_dt(v, grid) + v * fd_dx(v, grid)
    return float(np.max(np.abs(residual[1:-1])))


def packet_endpoint_measures(spec: GaussianPacketSpec) -> tuple[GaussianMeasure,
                                                                GaussianMeasure]:
    """The packet's marginal Gaussians at t = 0 and t = 1."""
    return (GaussianMeasure(spec.mu0, spec.sigma0**2),
            GaussianMeasure(float(packet_mean(spec, 1.0)),
                            float(packet_sigma_sq(spec, 1.0))))


def packet_curvature_term_sup(spec: GaussianPacketSpec, grid: GridSpec) -> float:
    """Analytic sup of the term separating the packet from a geodesic.

    For the packet, dv/dt + v dv/dx equals (x - mean_t) / (4 s_t^4) in
    closed form; its sup over the grid's interior time nodes is the
    value ``euler_residual`` converges to as the grid refines.
    """
    t = grid.t[1:-1, np.newaxis]
    moving = grid.x[np.newaxis, :] - packet_mean(spec, t)
    return float(np.max(np.abs(moving) / (4.0 * packet_sigma_sq(spec, t) ** 2)))


def quantum_vs_classical(g0: GaussianMeasure, g1: GaussianMeasure,
                         schrodinger_couple: FluidCouple) -> dict:
    """Transport benchmark report for a wave field couple.

    Checks the two orderings that must hold up to quadrature error:
    the squared transport distance is a lower bound for the couple's
    kinetic action, and removing the Fisher term can only lower an
    action. Raises OrderingViolated with the values if either fails.
    """
    grid = schrodinger_couple.rho.grid
    for name, measure, row in (("initial", g0, 0), ("final", g1, grid.n_t)):
        mismatch = float(np.max(np.abs(
            schrodinger_couple.rho.values[row] - measure.density(grid.x))))
        if mismatch > 1e-6:
            raise ValueError(f"{name} endpoint density differs from the stated "
                             f"measure by {mismatch:.3e}")

    tau2 = gaussian_w2(g0, g1)
    geodesic = displacement_couple(g0, g1, grid)
    classical_geo = classical_action(geodesic)
    classical_wave = classical_action(schrodinger_couple)
    quantum_wave = quantum_action(schrodinger_couple)

    lower_bound_margin = classical_wave.value - tau2
    fisher_margin = classical_wave.value - quantum_wave.value
    slack = classical_wave.error_radius + 1e-12
    if lower_bound_margin < -slack:
        raise OrderingViolated(f"transport distance {tau2} exceeds kinetic "
                               f"action {classical_wave.value}")
    if fisher_margin < -1e-10:
        raise OrderingViolated(f"quantum action {quantum_wave.value} above "
                               f"classical {classical_wave.value}")

    return {
        "tau2": tau2,
        "classical_action_geodesic": classical_geo.as_dict(),
        "classical_action_wave": classical_wave.as_dict(),
        "quantum_action_wave": quantum_wave.as_dict(),
        "lower_bound_margin": lower_bound_margin,
        "fisher_margin": fisher_margin,
    }
