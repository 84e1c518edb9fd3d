"""Quantile transport on the line and the kinetic-action comparison.

Gaussian pairs have closed-form maps and costs (shift, dilation); the
non-Gaussian case is pinned to a scipy oracle: the quantile-coupling
integral for a two-bump mixture against the standard normal, computed
with scipy.integrate.quad and scipy.special.ndtri to 1e-12.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import madelung_lab
from madelung_lab import (GaussianMeasure, GaussianPacketSpec, GridSpec,
                          NormDrift, TransportPlan1D, classical_action,
                          displacement_couple, euler_residual, gaussian_w2,
                          monge_map_1d, quantum_action, quantum_vs_classical,
                          transport_cost)
from madelung_lab.benamou_brenier import (packet_curvature_term_sup,
                                          packet_endpoint_measures)

from controls import translating_gaussian_couple

# a couple carrying a rigidly translating density N(t, 1) but no
# velocity: its kinetic action 0 sits below the transport distance 1
STILL_COUPLE_SCRIPT = """
import numpy as np
from madelung_lab import (FluidCouple, GaussianMeasure, GridSpec,
                          OrderingViolated, ScalarField, quantum_vs_classical)
from madelung_lab.madelung import gaussian_couple
grid = GridSpec(-12.0, 12.0, 256, 16)
moving = gaussian_couple(grid, grid.t[:, np.newaxis], 1.0, 1.0, "synthetic")
still = FluidCouple(moving.rho, ScalarField(grid, np.zeros((17, 256))),
                    log_density_gradient=moving.log_density_gradient)
try:
    quantum_vs_classical(GaussianMeasure(0.0, 1.0), GaussianMeasure(1.0, 1.0),
                         still)
except OrderingViolated as exc:
    print("OrderingViolated:", exc)
"""

# quantile-coupling cost of 0.5 N(-1, 0.5^2) + 0.5 N(1.5, 0.8^2) against
# N(0, 1), frozen from the scipy oracle
MIXTURE_COST_ORACLE = 0.31929667552320734


def normalized(values, grid):
    return values / (grid.dx * values.sum())


def gaussian_on(grid, mean, variance):
    rho = np.exp(-(grid.x - mean) ** 2 / (2.0 * variance)) \
        / np.sqrt(2.0 * np.pi * variance)
    return normalized(rho, grid)


@pytest.fixture(scope="module")
def flat_grid():
    # time direction is irrelevant for static transport
    return GridSpec(-12.0, 12.0, 512, 2)


class TestGaussianW2:
    def test_identical_measures(self):
        g = GaussianMeasure(1.0, 2.0)
        assert gaussian_w2(g, g) == 0.0

    def test_pure_shift(self):
        assert gaussian_w2(GaussianMeasure(0.0, 1.0),
                           GaussianMeasure(3.0, 1.0)) == 9.0

    def test_pure_dilation(self):
        assert gaussian_w2(GaussianMeasure(0.0, 1.0),
                           GaussianMeasure(0.0, 4.0)) == 1.0

    def test_measure_validation(self):
        with pytest.raises(ValueError):
            GaussianMeasure(0.0, 0.0)
        with pytest.raises(ValueError):
            GaussianMeasure(0.0, -1.0)


class TestMongeMap:
    def test_translation_pair(self, flat_grid):
        rho0 = gaussian_on(flat_grid, 0.0, 1.0)
        rho1 = gaussian_on(flat_grid, 3.0, 1.0)
        plan = monge_map_1d(rho0, rho1, flat_grid)
        bulk = np.abs(flat_grid.x) <= 4.0
        assert np.max(np.abs(plan.map_samples[bulk] - (flat_grid.x[bulk] + 3.0))) < 1e-6
        assert abs(transport_cost(plan, rho0) - 9.0) < 1e-6

    def test_dilation_pair(self):
        # variance 4 needs a wider box to satisfy the spectral decay gate
        wide = GridSpec(-24.0, 24.0, 1024, 2)
        rho0 = gaussian_on(wide, 0.0, 1.0)
        rho1 = gaussian_on(wide, 0.0, 4.0)
        plan = monge_map_1d(rho0, rho1, wide)
        bulk = np.abs(wide.x) <= 4.0
        assert np.max(np.abs(plan.map_samples[bulk] - 2.0 * wide.x[bulk])) < 1e-5
        assert abs(transport_cost(plan, rho0) - 1.0) < 1e-5

    def test_identity_pair(self, flat_grid):
        rho = gaussian_on(flat_grid, 0.0, 1.0)
        plan = monge_map_1d(rho, rho, flat_grid)
        assert transport_cost(plan, rho) < 1e-10

    def test_mixture_pair_matches_scipy_oracle(self, flat_grid):
        x = flat_grid.x
        rho0 = normalized(
            0.5 * np.exp(-(x + 1.0) ** 2 / (2.0 * 0.25)) / np.sqrt(2.0 * np.pi * 0.25)
            + 0.5 * np.exp(-(x - 1.5) ** 2 / (2.0 * 0.64)) / np.sqrt(2.0 * np.pi * 0.64),
            flat_grid)
        rho1 = gaussian_on(flat_grid, 0.0, 1.0)
        plan = monge_map_1d(rho0, rho1, flat_grid)
        assert abs(transport_cost(plan, rho0) - MIXTURE_COST_ORACLE) < 1e-7

    def test_matches_closed_form_cost_for_gaussians(self, flat_grid):
        g0 = GaussianMeasure(-1.0, 0.7)
        g1 = GaussianMeasure(2.0, 1.4)
        plan = monge_map_1d(gaussian_on(flat_grid, -1.0, 0.7),
                            gaussian_on(flat_grid, 2.0, 1.4), flat_grid)
        cost = transport_cost(plan, gaussian_on(flat_grid, -1.0, 0.7))
        assert abs(cost - gaussian_w2(g0, g1)) < 1e-5

    def test_input_validation(self, flat_grid):
        rho = gaussian_on(flat_grid, 0.0, 1.0)
        with pytest.raises(ValueError):
            monge_map_1d(rho[:100], rho, flat_grid)
        with pytest.raises(ValueError):
            monge_map_1d(np.zeros_like(rho), rho, flat_grid)
        with pytest.raises(NormDrift):
            monge_map_1d(2.0 * rho, rho, flat_grid)

    @pytest.mark.xfail(strict=True, reason=(
        "the map's tails are set by roundoff: scaling the source density by "
        "1 + 2^-52 moves the map by 4.66 at |x| >= 6 (<= 7e-11 inside) and "
        "the potential by 6.26, while the transport cost moves by ~1e-14"))
    def test_last_bit_of_the_source_leaves_the_map(self, flat_grid):
        # bb-compare's first pair at transport.seed 7, whose map is the
        # shipped first_pair_map.csv
        rng = np.random.default_rng(7)
        g0 = GaussianMeasure(rng.uniform(-2.0, 2.0), rng.uniform(0.6, 1.3) ** 2)
        g1 = GaussianMeasure(rng.uniform(-2.0, 2.0), rng.uniform(0.6, 1.3) ** 2)
        rho0, rho1 = g0.density(flat_grid.x), g1.density(flat_grid.x)
        plan = monge_map_1d(rho0, rho1, flat_grid)
        nudged = monge_map_1d(rho0 * (1.0 + 2.0**-52), rho1, flat_grid)
        assert abs(transport_cost(plan, rho0) - transport_cost(nudged, rho0)) < 1e-12
        assert np.max(np.abs(nudged.map_samples - plan.map_samples)) < 1e-6
        assert np.max(np.abs(nudged.potential_samples - plan.potential_samples)) < 1e-6


class TestTransportPlan:
    def test_potential_is_primitive_of_map(self, flat_grid):
        plan = monge_map_1d(gaussian_on(flat_grid, 0.0, 1.0),
                            gaussian_on(flat_grid, 1.0, 1.0), flat_grid)
        quotient = np.diff(plan.potential_samples) / flat_grid.dx
        midpoint = 0.5 * (plan.map_samples[1:] + plan.map_samples[:-1])
        assert np.max(np.abs(quotient - midpoint)) < 1e-9

    def test_rejects_decreasing_map(self, flat_grid):
        t = -flat_grid.x
        phi = np.concatenate([[0.0], np.cumsum(
            0.5 * flat_grid.dx * (t[1:] + t[:-1]))])
        with pytest.raises(ValueError):
            TransportPlan1D(flat_grid, t, phi)

    def test_rejects_inconsistent_potential(self, flat_grid):
        t = flat_grid.x.copy()
        with pytest.raises(ValueError):
            TransportPlan1D(flat_grid, t, np.zeros_like(t))

    def test_rejects_samples_off_the_grid(self, flat_grid):
        t = flat_grid.x[:-1].copy()
        with pytest.raises(ValueError, match="match the spatial grid"):
            TransportPlan1D(flat_grid, t, np.zeros_like(t))


class TestDisplacementCouple:
    def test_endpoints_are_the_measures(self, grid):
        g0 = GaussianMeasure(-1.0, 0.64)
        g1 = GaussianMeasure(1.5, 1.44)
        couple = displacement_couple(g0, g1, grid)
        assert np.max(np.abs(couple.rho.values[0] - g0.density(grid.x))) < 1e-12
        assert np.max(np.abs(couple.rho.values[-1] - g1.density(grid.x))) < 1e-12

    def test_velocity_affine_in_x(self, grid):
        couple = displacement_couple(GaussianMeasure(-1.0, 0.64),
                                     GaussianMeasure(1.5, 1.44), grid)
        for row in (0, grid.n_t // 2, grid.n_t):
            v = couple.v.values[row]
            coeffs = np.polyfit(grid.x, v, 1)
            fit = np.polyval(coeffs, grid.x)
            assert np.max(np.abs(v - fit)) < 1e-8

    def test_static_geodesic_has_zero_velocity(self, grid):
        g = GaussianMeasure(0.0, 1.0)
        couple = displacement_couple(g, g, grid)
        assert np.all(couple.v.values == 0.0)
        assert euler_residual(couple) == 0.0

    def test_kinetic_action_is_the_transport_cost(self, grid):
        # constant-speed geodesic: action over unit time equals the
        # squared distance
        g0 = GaussianMeasure(-1.0, 0.64)
        g1 = GaussianMeasure(1.5, 1.44)
        couple = displacement_couple(g0, g1, grid)
        assert abs(classical_action(couple).value - gaussian_w2(g0, g1)) < 1e-4

    def test_euler_residual_second_order_small(self, grid):
        g0 = GaussianMeasure(-1.0, 0.64)
        g1 = GaussianMeasure(1.5, 1.44)
        fine = euler_residual(displacement_couple(g0, g1, grid))
        coarse_grid = GridSpec(-12.0, 12.0, 512, 128)
        coarse = euler_residual(displacement_couple(g0, g1, coarse_grid))
        assert fine < 1e-3 * max(abs(g1.mean - g0.mean), 1.0)
        assert 3.0 < coarse / fine < 5.0


class TestQuantumVsClassical:
    def test_packet_report(self, packet_spec, packet_couple):
        g0, g1 = packet_endpoint_measures(packet_spec)
        report = quantum_vs_classical(g0, g1, packet_couple)
        assert report["tau2"] == pytest.approx((np.sqrt(1.25) - 1.0) ** 2)
        assert report["lower_bound_margin"] >= 0.0
        assert report["fisher_margin"] >= 0.0
        assert report["classical_action_wave"]["value"] \
            == classical_action(packet_couple).value
        assert report["quantum_action_wave"]["value"] \
            == quantum_action(packet_couple).value

    def test_rigid_translation_attains_the_bound(self, grid):
        # for a rigid Gaussian translation the transport geodesic and
        # the couple coincide, so the kinetic action equals tau2
        couple = translating_gaussian_couple(grid, speed=2.0, variance=1.0)
        tau2 = gaussian_w2(GaussianMeasure(0.0, 1.0), GaussianMeasure(2.0, 1.0))
        assert abs(classical_action(couple).value - tau2) < 1e-10

    def test_ordering_check_survives_optimize_flag(self):
        # the violation must raise the typed error even under -O, where
        # an assert would vanish and the report would carry a negative
        # lower-bound margin as if the check had passed
        src = str(Path(madelung_lab.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-O", "-c", STILL_COUPLE_SCRIPT],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("OrderingViolated: transport distance")

    def test_endpoint_mismatch_rejected(self, packet_couple):
        with pytest.raises(ValueError):
            quantum_vs_classical(GaussianMeasure(0.0, 1.0),
                                 GaussianMeasure(0.5, 1.25), packet_couple)

    def test_curvature_term_matches_euler_residual(self, packet_spec, grid,
                                                   packet_couple):
        # the packet is not a transport geodesic; its Euler residual
        # converges to the analytic curvature term
        residual = euler_residual(packet_couple)
        analytic = packet_curvature_term_sup(packet_spec, grid)
        assert abs(residual - analytic) < 0.05 * analytic
