"""Fluid decomposition of wave fields and the drift construction.

The closed-form packet fields (phase and velocity from the test-side
``controls``, the osmotic velocity from the mismatched control) act
as oracles; the residual sup norms are pinned to frozen values measured
once on the default lattice plus the second-order refinement ratio.
"""

import numpy as np
import pytest

from madelung_lab import (BoundaryLeak, DriftField, FieldRefused, FluidCouple, GridSpec,
                          MadelungLabError, NormDrift, ScalarField,
                          UnwrapInconsistent, WaveField,
                          constant_drift, continuity_residual, decompose, drift,
                          gaussian_packet, madelung_residuals,
                          spreading_mismatched_couple)
from madelung_lab import grid_fields, madelung
from madelung_lab.grid_fields import (BOUNDARY_TOL, edge_leak, ensure_normalized,
                                      guard_columns)
from madelung_lab.madelung import action_integrand, ensure_couple_rows, ensure_positive
from madelung_lab.schrodinger import packet_phase

from controls import packet_velocity, plateau_couple, translating_gaussian_couple

# sup norms of the two fluid equation residuals for the default packet,
# measured on the 512 x 256 lattice (frozen)
RESIDUAL_MASS_256 = 2.4505248681638836e-07
RESIDUAL_ENERGY_256 = 6.83437863671088e-05


class TestDecompose:
    def test_density_is_squared_magnitude(self, psi, packet_parts):
        rho = packet_parts[0]
        assert np.array_equal(rho.values, psi.density())

    def test_phase_matches_closed_form(self, packet_spec, grid, packet_parts):
        phase = packet_parts[1]
        exact = packet_phase(packet_spec, grid.x[np.newaxis, :],
                             grid.t[:, np.newaxis])
        # anchoring to the principal value at (0, centre) reproduces the
        # closed form including its constant
        assert np.max(np.abs(phase.values - exact)) < 1e-10

    def test_velocity_is_phase_gradient(self, packet_spec, grid, packet_couple):
        exact = packet_velocity(packet_spec, grid.x[np.newaxis, :],
                                grid.t[:, np.newaxis])
        assert np.max(np.abs(packet_couple.v.values - exact)) < 1e-10

    def test_osmotic_velocity_closed_form(self, packet_spec, grid, packet_couple):
        # the mismatched control carries the packet density's log gradient
        # in closed form
        exact = 0.5 * spreading_mismatched_couple(
            packet_spec, grid).log_density_gradient.values
        got = 0.5 * packet_couple.log_density_gradient.values
        assert np.max(np.abs(got - exact)) < 1e-10

    def test_provenance_tagged(self, packet_couple):
        assert packet_couple.provenance == "schrodinger"

    def test_unresolvable_phase_rejected(self, grid):
        rho0 = np.exp(-grid.x**2 / 2.0) / np.sqrt(2.0 * np.pi)
        base = np.sqrt(rho0)[np.newaxis, :] * np.ones((grid.n_t + 1, 1))
        wild = base * np.exp(1j * 3.0 * np.arange(grid.n_x))
        with pytest.raises(UnwrapInconsistent):
            decompose(WaveField(grid, wild))


class TestResiduals:
    def test_packet_residuals_at_reference_resolution(self, packet_parts):
        r_mass, r_energy = madelung_residuals(packet_parts[0], packet_parts[1])
        assert r_mass == pytest.approx(RESIDUAL_MASS_256, rel=1e-6)
        assert r_energy == pytest.approx(RESIDUAL_ENERGY_256, rel=1e-6)

    def test_refinement_is_second_order(self, packet_spec, packet_parts):
        coarse = GridSpec(-12.0, 12.0, 512, 128)
        rho_c, phase_c, _ = decompose(gaussian_packet(packet_spec, coarse))
        r_mass_c, r_energy_c = madelung_residuals(rho_c, phase_c)
        r_mass, r_energy = madelung_residuals(packet_parts[0], packet_parts[1])
        assert 3.5 < r_mass_c / r_mass < 4.5
        assert 3.5 < r_energy_c / r_energy < 4.5

    def test_grid_mismatch_rejected(self, packet_parts):
        other = GridSpec(-12.0, 12.0, 512, 128)
        rho = ScalarField(other, np.ones((129, 512)) / 24.0)
        with pytest.raises(ValueError):
            madelung_residuals(rho, packet_parts[1])

    def test_mismatched_couple_fails_continuity(self, packet_spec, grid,
                                                packet_couple):
        # the negative control pairs a spreading density with a rigid
        # velocity; its mass residual must sit orders above the packet's
        bad = spreading_mismatched_couple(packet_spec, grid)
        assert continuity_residual(bad.rho, bad.v) > 0.01
        assert continuity_residual(packet_couple.rho, packet_couple.v) < 1e-6


class TestDriftField:
    def test_packet_drift_at_time_zero(self, grid, packet_drift):
        # b = v + u; at t = 0 the packet has v = 0 and u = -x/2
        got = packet_drift.values[0]
        assert np.max(np.abs(got + grid.x / 2.0)) < 1e-10

    def test_static_gaussian_drift(self, grid):
        couple = translating_gaussian_couple(grid, 0.0, variance=2.0)
        b = drift(couple).values
        expected = -grid.x / 4.0
        assert np.max(np.abs(b - expected[np.newaxis, :])) < 1e-12

    def test_plateau_drift_equals_speed_on_top(self, grid):
        couple = plateau_couple(grid, speed=0.75)
        b = drift(couple).values
        top = np.abs(grid.x) <= 2.0 - 2.0 * grid.dx
        assert np.max(np.abs(b[:, top] - 0.75)) == 0.0

    def test_evaluate_interpolates_linearly_in_x(self):
        g = GridSpec(-2.0, 2.0, 8, 4)
        values = np.broadcast_to(g.x**2, (5, 8)).copy()
        b = DriftField(g, values)
        mid = 0.5 * (g.x[2] + g.x[3])
        expected = 0.5 * (g.x[2]**2 + g.x[3]**2)
        assert b.evaluate(np.array([mid]), 0.0)[0] == pytest.approx(expected)

    def test_evaluate_freezes_at_left_time_node(self):
        g = GridSpec(-2.0, 2.0, 8, 4)
        values = np.arange(5.0)[:, np.newaxis] * np.ones((1, 8))
        b = DriftField(g, values)
        q = np.zeros(1)
        assert b.evaluate(q, 0.0)[0] == 0.0
        assert b.evaluate(q, 0.3)[0] == 1.0  # inside (1/4, 2/4): left node 1
        assert b.evaluate(q, 0.5)[0] == 2.0  # exactly on a node
        assert b.evaluate(q, 1.0)[0] == 4.0

    def test_evaluate_extends_constantly_outside_box(self):
        g = GridSpec(-2.0, 2.0, 8, 4)
        values = np.broadcast_to(g.x, (5, 8)).copy()
        b = DriftField(g, values)
        assert b.evaluate(np.array([-50.0]), 0.0)[0] == g.x[0]
        assert b.evaluate(np.array([50.0]), 0.0)[0] == g.x[-1]

    def test_divergence_exact_for_linear_field(self):
        g = GridSpec(-2.0, 2.0, 8, 4)
        values = np.broadcast_to(3.0 * g.x, (5, 8)).copy()
        div = DriftField(g, values).divergence()
        assert np.max(np.abs(div.values - 3.0)) < 1e-12

    def test_constant_drift(self):
        g = GridSpec(-2.0, 2.0, 8, 4)
        b = constant_drift(g, 3.0)
        assert b.evaluate(np.array([0.123, -7.0]), 0.4).tolist() == [3.0, 3.0]


class TestFluidCouple:
    def test_rejects_grid_mismatch(self, grid, packet_couple):
        other = ScalarField(GridSpec(-12.0, 12.0, 512, 128), np.zeros((129, 512)))
        with pytest.raises(ValueError):
            FluidCouple(packet_couple.rho, other, packet_couple.log_density_gradient)
        with pytest.raises(ValueError):
            FluidCouple(packet_couple.rho, packet_couple.v, other)

    def test_rejects_nonpositive_density(self, grid):
        values = np.full((grid.n_t + 1, grid.n_x), 1.0 / 24.0)
        values[0, 5] = 0.0
        zeros = ScalarField(grid, np.zeros_like(values))
        with pytest.raises(ValueError):
            FluidCouple(ScalarField(grid, values), zeros, zeros)

    def test_rejects_mass_drift(self, grid):
        rho = np.exp(-grid.x**2 / 2.0) / np.sqrt(2.0 * np.pi)
        values = np.broadcast_to(1.5 * rho, (grid.n_t + 1, grid.n_x)).copy()
        zeros = ScalarField(grid, np.zeros_like(values))
        with pytest.raises(NormDrift):
            FluidCouple(ScalarField(grid, values), zeros, zeros)

    def test_synthetic_builders_tag_provenance(self, grid):
        assert translating_gaussian_couple(grid, 0.0).provenance == "synthetic"
        assert plateau_couple(grid).provenance == "synthetic"


class TestEnsurePositive:
    # NaN <= 0 is False: only "not > 0" refuses a NaN minimum
    @pytest.mark.parametrize("entry, shown", [(0.0, "0.000e+00"), (-1e-9, "-1.000e-09"),
                                              (np.nan, "nan")], ids=["zero", "negative", "nan"])
    def test_refuses_an_entry_that_is_not_positive(self, entry, shown):
        density = np.full((2, 8), 0.125)
        density[1, 3] = entry
        with pytest.raises(FieldRefused) as caught:
            ensure_positive(density, "density")
        assert str(caught.value) == f"density must be strictly positive, min = {shown}"


def one_weight_formula(rho, v, lg, weight):
    return (v**2 + weight * (0.5 * lg)**2) * rho


def full_integrand_rule(rho, v, lg, grid, weights):
    """ensure_couple_rows as the scan of the whole finite integrand, then
    the formula's integrand of each of ``weights``."""
    finite = one_weight_formula(rho, v, lg, 1.0)
    ensure_normalized(rho, grid, "density")
    leak = edge_leak(finite, grid)
    if not leak <= BOUNDARY_TOL:
        raise BoundaryLeak(f"finite action integrand has relative boundary magnitude "
                           f"{leak:.3e}, above the tolerance {BOUNDARY_TOL:.1e}")
    return [one_weight_formula(rho, v, lg, weight) for weight in weights]


def checked_integrands(rho, v, lg, grid, weights):
    """What a caller of ensure_couple_rows forms once the rows pass: a
    couple nothing, a competitor member its quantum integrand, the three
    reports one integrand each."""
    assert ensure_couple_rows(rho, v, lg, grid) is None
    return [action_integrand(rho, v, lg, weight) for weight in weights]


def rule_outcome(rule, *args):
    """The integrands' bytes, or the refusal's type and text."""
    try:
        return [integrand.tobytes() for integrand in rule(*args)]
    except MadelungLabError as exc:
        return type(exc), str(exc)


class TestEnsureCoupleRows:
    """The finite integrand is formed on the guard columns first, and on
    the rows they cannot clear only when there are such rows."""

    @staticmethod
    def rows_at_rest(grid, widths):
        # normalized bells at rest: v = 0, and the log density gradient is
        # zero on the probe columns, so the finite integrand is too
        x = grid.x[np.newaxis, :]
        var = np.asarray(widths)[:, np.newaxis] ** 2
        rho = np.exp(-x**2 / (2.0 * var))
        rho /= grid.dx * rho.sum(axis=1, keepdims=True)
        lg = -x / var
        lg[:, guard_columns(grid)[1:-1]] = 0.0
        return rho, np.zeros_like(rho), lg

    # widths of the rows, rows given v = 0.3 (nowhere zero, so the probes
    # see them), rows scanned and the refusal: the rows of width 5 and 6
    # leak, the probes clear the v = 0.3 row of width 1, and a mass drift
    # is refused before the integrand is looked at
    CASES = {
        "uncleared": ([1.0, 1.1, 1.2, 1.3, 1.4], [], 5, None),
        "leaking": ([1.0, 1.1, 1.2, 1.3, 6.0], [], 5, BoundaryLeak),
        "mixed": ([1.0, 1.1, 5.0, 1.3, 6.0], [0, 2], 4, BoundaryLeak),
        "mass-drift": ([1.0, 1.1, 1.2, 1.3, 1.4], [], 0, NormDrift),
    }

    @pytest.mark.parametrize("weights", [(), (-1.0,), (-1.0, 0.0, 1.0)])
    @pytest.mark.parametrize("case", CASES)
    def test_matches_the_full_integrand_rule(self, case, weights, monkeypatch):
        widths, moving, scanned, refusal = self.CASES[case]
        grid = GridSpec(-12.0, 12.0, 64, 4)
        rho, v, lg = self.rows_at_rest(grid, widths)
        v[moving] = 0.3
        if case == "mass-drift":
            rho[3] *= 1.01
        scans = []
        monkeypatch.setattr(grid_fields, "edge_leak",
                            lambda values, grid: scans.append(len(values))
                            or edge_leak(values, grid))
        got = rule_outcome(checked_integrands, rho, v, lg, grid, weights)
        assert sum(scans) == scanned
        assert got == rule_outcome(full_integrand_rule, rho, v, lg, grid, weights)
        if refusal is None:
            assert len(got) == len(weights)
        else:
            assert got[0] is refusal

    def test_cleared_rows_form_only_the_guard_columns(self, packet_couple, monkeypatch):
        # the packet's rows are all cleared: the finite integrand is formed
        # on the five guard columns alone, and no row is scanned
        scans, formed = [], []
        monkeypatch.setattr(grid_fields, "edge_leak", lambda *args: scans.append(args))
        monkeypatch.setattr(madelung, "action_integrand",
                            lambda rho, *rest: formed.append(rho.shape)
                            or action_integrand(rho, *rest))
        fields = (packet_couple.rho, packet_couple.v, packet_couple.log_density_gradient)
        ensure_couple_rows(*(f.values for f in fields), packet_couple.rho.grid)
        assert (scans, formed) == ([], [(257, 5)])


class TestActionIntegrands:
    """Each call forms one weight's integrand, in place on v^2, and leaves
    its inputs as they were, so integrands of several weights can be
    formed from the same rows."""

    @pytest.mark.parametrize("weights", [(1.0,), (-1.0,), (0.0,), (1.0, -1.0),
                                         (-1.0, 0.0, 1.0)])
    def test_each_is_the_one_weight_formula_bit_for_bit(self, packet_couple, weights):
        rows = slice(40, 90)
        rho, v, lg = (f.values[rows] for f in (packet_couple.rho, packet_couple.v,
                                               packet_couple.log_density_gradient))
        v = v + 0.3  # a velocity that is nowhere zero
        inputs = [a.tobytes() for a in (rho, v, lg)]
        for weight in weights:
            got = action_integrand(rho, v, lg, weight)
            assert got.tobytes() == one_weight_formula(rho, v, lg, weight).tobytes(), weight
            assert [a.tobytes() for a in (rho, v, lg)] == inputs, weight
