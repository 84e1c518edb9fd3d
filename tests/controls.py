"""Synthetic couples and closed-form packet fields that tests compare
the library against.

None of these is run by an experiment, so they live with the tests:
the translating Gaussian and the plateau are couples with closed-form
actions and drifts, the packet's velocity is an oracle of
``decompose`` (its phase, which ``validate`` reads, is
``schrodinger.packet_phase``), and the whole-lattice competitor member
is the oracle of the hull rows that the library builds. The reference
paths are the oracle of the Monte-Carlo stepping and its streams.
"""

import numpy as np

from madelung_lab import FluidCouple, GaussianPacketSpec, GridSpec, ScalarField
from madelung_lab.grid_fields import cumulative_trapezoid, fd_dx, spectral_dx, taper
from madelung_lab.madelung import gaussian_couple
from madelung_lab.nelson_sde import BLOCK
from madelung_lab.schrodinger import packet_sigma_sq


def translating_gaussian_couple(grid: GridSpec, speed: float,
                                variance: float = 1.0) -> FluidCouple:
    """Rigidly moving N(speed t, variance) with the matching constant velocity.

    Solves the continuity equation exactly, so it is a legitimate couple;
    it is not a wave field couple unless the width also spreads. At speed
    0 it is the static density with zero velocity.
    """
    means = (speed * grid.t)[:, np.newaxis]
    return gaussian_couple(grid, means, variance, float(speed), "synthetic")


def plateau_couple(grid: GridSpec, speed: float = 0.0) -> FluidCouple:
    """Flat top density on [-2, 2], constant in time, with velocity speed.

    Quintic smoothstep ramps of width 2 join the plateau to a uniform
    pedestal of 1e-13 (strict positivity everywhere without tripping the
    boundary guard). On the plateau itself log rho is constant, so the
    osmotic velocity vanishes there identically.
    """
    pedestal = 1e-13
    profile = pedestal + (1.0 - pedestal) * taper((np.abs(grid.x) - 2.0) / 2.0)
    profile = profile / (grid.dx * profile.sum())
    rho = np.broadcast_to(profile, (grid.n_t + 1, grid.n_x)).copy()
    v = np.full((grid.n_t + 1, grid.n_x), float(speed))
    return FluidCouple(ScalarField(grid, rho), ScalarField(grid, v),
                       ScalarField(grid, fd_dx(np.log(rho), grid)))


def packet_velocity(spec: GaussianPacketSpec, x, t):
    """Gradient of the phase: current velocity of the density flow."""
    t = np.asarray(t, dtype=float)
    var = packet_sigma_sq(spec, t)
    moving = np.asarray(x, dtype=float) - spec.mu0 - spec.p * t
    return moving * t / (4.0 * spec.sigma0**2 * var) + spec.p


def full_lattice_member(fam, y: float) -> FluidCouple:
    """The member at y of a competitor family with every field formed on the
    whole lattice: the oracle of ``CompetitorFamily.member_rows``, which
    builds only the hull rows."""
    base, g, u = fam.base, fam.g.values, fam.u.values
    grid = base.rho.grid
    rho_y = base.rho.values + y * g
    v_y = base.v.values + y * u / rho_y
    ratio = np.where(np.abs(g) > 0.0, y * g / base.rho.values, 0.0)
    log_grad = base.log_density_gradient.values + spectral_dx(
        np.log1p(ratio), grid, "log density bump")
    return FluidCouple(ScalarField(grid, rho_y), ScalarField(grid, v_y),
                       ScalarField(grid, log_grad), provenance="competitor")


def _generator(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64([seed, stream]))


def reference_paths(drifts, weights, rho0, grid: GridSpec, N: int, n: int,
                    substeps: int, seed: int) -> np.ndarray:
    """The (N, n + 1) recorded positions at the partition nodes, stepped
    without the library's stepper: the oracle of ``nelson_sde``'s paths.

    The initial samples invert the trapezoid CDF of ``rho0`` on uniforms
    of stream (seed, 1). Each block of ``BLOCK`` trajectories draws its
    whole noise in one call from stream (seed, 2 + block) and scales it
    by sqrt(h). Every drift is read by ``np.interp`` on the grid row of
    the time node at or before the substep's left end, and the
    arithmetic follows the kernel's order: a component steps by
    pull * h + dW, and a mixture's recorded track steps by beta * h + dW
    with beta formed before the components move.
    """
    h = 1.0 / (n * substeps)
    if rho0 is None:
        x0 = np.zeros(N)
    else:
        cdf = cumulative_trapezoid(np.asarray(rho0, dtype=float), grid)
        x0 = np.interp(_generator(seed, 1).random(N), cdf / cdf[-1], grid.x)
    mixing = len(drifts) > 1
    paths = np.empty((N, n + 1))
    paths[:, 0] = x0
    for block, start in enumerate(range(0, N, BLOCK)):
        rows = slice(start, min(start + BLOCK, N))
        noise = _generator(seed, 2 + block).standard_normal(
            (n * substeps, rows.stop - start))
        noise *= np.sqrt(h)
        components = [x0[rows].copy() for _ in drifts]
        recorded = x0[rows].copy() if mixing else components[0]
        for sub, dw in enumerate(noise):
            t = sub * h
            node = min(int(t * grid.n_t + 1e-9), grid.n_t)
            pulls = [np.interp(q, grid.x, b.values[node])
                     for b, q in zip(drifts, components)]
            if mixing:
                beta = sum(w * pull for w, pull in zip(weights, pulls))
                recorded += beta * h + dw
            for q, pull in zip(components, pulls):
                q += pull * h + dw
            if (sub + 1) % substeps == 0:
                paths[rows, (sub + 1) // substeps] = recorded
    return paths
