"""Competitor families around a base couple and the minimization probe.

The construction invariants (zero mass, endpoint vanishing, positivity
budget, exact support) are checked directly on the built fields; the
verdict logic is exercised on the wave-derived base (expected to pass)
and on the deliberately broken couple (expected to be flagged).
"""

import hashlib
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from madelung_lab import (AmplitudeInfeasible, CompetitorFamily, FieldRefused,
                          FluidCouple, GaussianPacketSpec, GridSpec,
                          MadelungLabError, PerturbationSpec, ScalarField, SupportLeak,
                          continuity_residual, decompose, evaluate_family,
                          gaussian_packet, make_family, make_perturbation,
                          quantum_action, spreading_mismatched_couple,
                          verify_theorem1)
from madelung_lab import competitors
from madelung_lab.competitors import (AMPLITUDE, SPACE_SUPPORT, Y_GRID,
                                      positivity_head_room, raw_perturbation)
from madelung_lab.grid_fields import (fd_dt, guard_columns, spectral_antiderivative,
                                      spectral_dx)
from madelung_lab.madelung import action_integrand

from controls import full_lattice_member

# head room of the seed-1012 perturbation against the default packet
# density (frozen; the one seed in 1000..1019 that needs rescaling)
HEAD_ROOM_1012 = 0.9034
# sha256 of the raw perturbations of seeds 1000..1019 on the 512x256 box,
# concatenated, and of the built (rescaled) seed-1012 perturbation: the
# recipe's bytes, frozen
RAW_SHA256_1000_1019 = "34ea21dd35980333afd703a1d98e0da02be798677ab7461a3c8137765e238d65"
BUILT_SHA256_1012 = "567f66d479a3182b1f619a3e2919c43f05ad0899a2d61bbc246759328025d19d"
# sha256 of the seed-1012 family's y-profile rows [y, action, error radius]
# on the default packet, recorded when every member was built on the whole
# lattice: building on the hull keeps these bytes
PROFILE_SHA256_1012 = "e373396cfd0e3ec5942a060cfd1504593644a445ae3d2eb9b95a7a3fe4c4eab2"


def full_lattice_correction(base, g):
    """u at y = 1 with both transforms taken on every row (the oracle)."""
    grid = base.rho.grid
    rhs = fd_dt(g, grid) + spectral_dx(g * base.v.values, grid, "perturbation flux")
    nonzero = np.abs(g).max(axis=0) > 0.0
    supported = np.logical_or.accumulate(nonzero) \
        & np.logical_or.accumulate(nonzero[::-1])[::-1]
    rhs = np.where(supported[np.newaxis, :], rhs, 0.0)
    u = -spectral_antiderivative(rhs, grid, "divergence data")
    return np.where(supported[np.newaxis, :], u, 0.0)


@pytest.fixture(scope="module")
def default_family(packet_couple):
    return make_family(packet_couple, PerturbationSpec(seed=1000))


@pytest.fixture(scope="module")
def narrow_base():
    # a packet on a box whose left edge cuts into SPACE_SUPPORT
    grid = GridSpec(-3.5, 20.5, 512, 64)
    return decompose(gaussian_packet(GaussianPacketSpec(1.0, 6.0, 0.0), grid))[2]


@pytest.fixture(scope="module")
def sparse_base():
    # a uniform resting couple on a box whose 16 nodes miss every bump of
    # seed 1000: the nodes nearest SPACE_SUPPORT sit at -5 and 57.8
    grid = GridSpec(-5.0, 1000.0, 16, 8)
    rest = np.zeros((grid.n_t + 1, grid.n_x))
    return FluidCouple(ScalarField(grid, rest + 1.0 / 1005.0), ScalarField(grid, rest),
                       ScalarField(grid, rest))


class TestPerturbation:
    def test_zero_mass_at_every_time(self, packet_couple):
        g = make_perturbation(PerturbationSpec(seed=1000), packet_couple.rho)
        means = g.grid.dx * g.values.sum(axis=-1)
        # contractual bound (the family constructor enforces 1e-10)
        assert np.max(np.abs(means)) < 1e-10

    def test_vanishes_at_endpoints_exactly(self, packet_couple):
        g = make_perturbation(PerturbationSpec(seed=1001), packet_couple.rho)
        assert np.all(g.values[0] == 0.0)
        assert np.all(g.values[-1] == 0.0)

    def test_exactly_zero_off_support(self, grid, packet_couple):
        g = make_perturbation(PerturbationSpec(seed=1000), packet_couple.rho)
        a, b = SPACE_SUPPORT
        outside = (grid.x < a) | (grid.x > b)
        assert np.all(g.values[:, outside] == 0.0)

    def test_peak_is_requested_amplitude(self, packet_couple):
        g = make_perturbation(PerturbationSpec(seed=1000), packet_couple.rho)
        assert np.max(np.abs(g.values)) == pytest.approx(AMPLITUDE, rel=1e-12)

    def test_positivity_rescale_when_needed(self, grid, packet_couple):
        spec = PerturbationSpec(seed=1012)
        room = positivity_head_room(raw_perturbation(spec, grid),
                                    packet_couple.rho.values, grid)
        assert room == pytest.approx(HEAD_ROOM_1012, abs=0.003)
        g = make_perturbation(spec, packet_couple.rho)
        assert np.max(np.abs(g.values)) == pytest.approx(AMPLITUDE * room, rel=1e-9)
        # the budget: wherever the bump acts, the density minus the full
        # swing stays above 10% of its support minimum
        support = (grid.x >= SPACE_SUPPORT[0]) & (grid.x <= SPACE_SUPPORT[1])
        floor = packet_couple.rho.values[:, support].min()
        acting = np.abs(g.values) > 0.0
        slack = (packet_couple.rho.values - np.abs(g.values))[acting]
        assert np.min(slack) >= 0.1 * floor * (1.0 - 1e-9)

    def test_recipe_bytes_are_pinned(self, grid, packet_couple):
        raw = hashlib.sha256()
        for seed in range(1000, 1020):
            raw.update(raw_perturbation(PerturbationSpec(seed), grid).tobytes())
        assert raw.hexdigest() == RAW_SHA256_1000_1019
        built = make_perturbation(PerturbationSpec(1012), packet_couple.rho).values
        assert hashlib.sha256(built.tobytes()).hexdigest() == BUILT_SHA256_1012

    def test_deterministic(self, packet_couple):
        a = make_perturbation(PerturbationSpec(seed=1003), packet_couple.rho)
        b = make_perturbation(PerturbationSpec(seed=1003), packet_couple.rho)
        assert np.array_equal(a.values, b.values)

    def test_support_must_fit_inside_box(self, narrow_base):
        with pytest.raises(ValueError, match="space support"):
            make_perturbation(PerturbationSpec(seed=0), narrow_base.rho)

    def test_grid_that_samples_no_bump_is_refused(self, sparse_base):
        # a bad grid, like a box too small for the support: a ValueError,
        # not the AmplitudeInfeasible of a density with no budget
        with pytest.raises(ValueError, match="degenerated to zero") as caught:
            make_perturbation(PerturbationSpec(seed=1000), sparse_base.rho)
        assert not isinstance(caught.value, AmplitudeInfeasible)

    def test_density_without_budget_is_refused(self, grid):
        # a density of zeros on the support leaves no positive rescaling; a
        # density at or above the node floor there always leaves one
        zeros = np.zeros((grid.n_t + 1, grid.n_x))
        with pytest.raises(AmplitudeInfeasible):
            make_perturbation(PerturbationSpec(seed=1000), ScalarField(grid, zeros))


class TestVelocityCorrection:
    # X_y is read off a family member as its velocity minus the base's;
    # TestHull shows the whole-lattice member's hull rows are member_rows'
    def test_correction_restores_continuity(self, packet_couple, default_family):
        base_residual = continuity_residual(packet_couple.rho, packet_couple.v)
        for y in (-1.0, 0.5, 1.0):
            couple = full_lattice_member(default_family, y)
            assert continuity_residual(couple.rho, couple.v) < 10.0 * base_residual

    def test_flux_correction_linear_in_y(self, packet_couple, default_family):
        g = default_family.g
        couple_half = full_lattice_member(default_family, 0.5)
        x_half = couple_half.v.values - packet_couple.v.values
        x_one = full_lattice_member(default_family, 1.0).v.values - packet_couple.v.values
        flux_half = x_half * couple_half.rho.values
        flux_one = x_one * (packet_couple.rho.values + g.values)
        assert np.max(np.abs(flux_half - 0.5 * flux_one)) < 1e-14

    def test_correction_supported_with_the_bump(self, grid, packet_couple,
                                                default_family):
        # the support is the hull of the columns where g is ever nonzero
        x_one = full_lattice_member(default_family, 1.0).v.values - packet_couple.v.values
        columns = np.flatnonzero(np.abs(default_family.g.values).max(axis=0))
        outside = (np.arange(grid.n_x) < columns[0]) | (np.arange(grid.n_x) > columns[-1])
        assert outside.any()
        assert np.all(x_one[:, outside] == 0.0)

    def test_correction_on_a_column_where_g_vanishes(self, grid, packet_couple):
        # g = phi'(x) w(t) with phi = 0.05 exp(-x^2 / (2 l^2)) centred on
        # the node x = 0, where g is zero at every time; the flux
        # correction there is still u = -(phi w' + g v), as everywhere
        ell, (t0, t1) = 0.5, (0.1, 0.9)
        x, t = grid.x[np.newaxis, :], grid.t[:, np.newaxis]
        phi = 0.05 * np.exp(-x**2 / (2.0 * ell**2))
        tau = np.clip((t - t0) / (t1 - t0), 0.0, 1.0)
        w = (4.0 * tau * (1.0 - tau)) ** 4
        dw = 16.0 * (4.0 * tau * (1.0 - tau)) ** 3 * (1.0 - 2.0 * tau) / (t1 - t0)
        g = -x / ell**2 * phi * w
        assert np.all(g[:, grid.x == 0.0] == 0.0)
        fam = CompetitorFamily(packet_couple, ScalarField(grid, g))
        exact = -(phi * dw + g * packet_couple.v.values)
        assert np.max(np.abs(fam.u.values - exact)) < 1e-3

    def test_y_zero_returns_base_values(self, packet_couple, default_family):
        rows = default_family.hull[0]
        *blocks, _ = default_family.member_rows(0.0)
        for block, name in zip(blocks, ("rho", "v", "log_density_gradient")):
            assert np.array_equal(block, getattr(packet_couple, name).values[rows]), name

    def test_y_outside_range_rejected(self, default_family):
        # a caller's error, not a lab refusal that becomes a verdict
        with pytest.raises(ValueError, match="y must lie in") as caught:
            default_family.member_rows(1.5)
        assert not isinstance(caught.value, MadelungLabError)

    def test_leaking_continuity_data_rejected(self, packet_couple):
        # a hard-cut odd bump has a value jump at the cut whose spectral
        # flux derivative rings across the whole box
        grid = packet_couple.rho.grid
        h = np.where(np.abs(grid.x) <= 2.0, grid.x, 0.0) * 0.01
        w = (4.0 * grid.t * (1.0 - grid.t))[:, np.newaxis] ** 2
        with pytest.raises(SupportLeak):
            CompetitorFamily(packet_couple, ScalarField(grid, w * h[np.newaxis, :]))


class TestFamily:
    def test_profile_stationary_at_zero(self, packet_couple, default_family):
        # raw central differences carry an O(step^2) bias from the
        # profile's own curvature; eliminating it by extrapolation
        # leaves a derivative at the quadrature noise level
        profile = dict(evaluate_family(default_family))
        assert profile[0.0].value == quantum_action(packet_couple).value
        radius = max(rep.error_radius for rep in profile.values())
        fine = (profile[0.125].value - profile[-0.125].value) / 0.25
        coarse = (profile[0.25].value - profile[-0.25].value) / 0.5
        extrapolated = (4.0 * fine - coarse) / 3.0
        assert abs(extrapolated) < 10.0 * radius

    def test_y_zero_report_is_the_base_action(self, packet_couple, default_family):
        profile = dict(evaluate_family(default_family))
        assert profile[0.0] == quantum_action(packet_couple)

    def test_members_built_once_each_and_never_the_base(self, default_family,
                                                        monkeypatch):
        # member_rows differentiates one log density bump per member it
        # builds; the y = 0 point reuses the base and differentiates none
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[-1])
            return spectral_dx(*args, **kwargs)

        monkeypatch.setattr(competitors, "spectral_dx", counting)
        evaluate_family(default_family)
        assert len(calls) == len(Y_GRID) - 1 == 10
        assert set(calls) == {"log density bump"}

    def test_base_is_the_minimum(self, default_family):
        profile = dict(evaluate_family(default_family))
        base_value = profile[0.0].value
        radius = max(rep.error_radius for rep in profile.values())
        for y, rep in profile.items():
            assert rep.value >= base_value - 6.0 * radius, y

    def test_zero_perturbation_profile_is_flat(self, grid, packet_couple):
        zeros = np.zeros((grid.n_t + 1, grid.n_x))
        fam = CompetitorFamily(packet_couple, ScalarField(grid, zeros))
        values = {y: rep.value for y, rep in evaluate_family(fam)}
        assert len(set(values.values())) == 1

    def test_family_invariants_enforced(self, grid, packet_couple):
        good_g = np.zeros((grid.n_t + 1, grid.n_x))
        lopsided = good_g.copy()
        lopsided[5] = 0.01  # nonzero mass at one time
        with pytest.raises(FieldRefused, match="zero mass"):
            CompetitorFamily(packet_couple, ScalarField(grid, lopsided))
        endpoint = good_g.copy()
        endpoint[0] = np.exp(-grid.x**2) - np.exp(-grid.x**2).mean()
        with pytest.raises(FieldRefused, match="both endpoints"):
            CompetitorFamily(packet_couple, ScalarField(grid, endpoint))
        elsewhere = GridSpec(-12.0, 12.0, 512, 128)
        with pytest.raises(ValueError, match="different grid"):
            CompetitorFamily(packet_couple, ScalarField(elsewhere, np.zeros((129, 512))))


class TestVerdicts:
    def test_wave_base_passes(self, packet_couple):
        specs = [PerturbationSpec(seed=s) for s in range(1000, 1003)]
        report = verify_theorem1(packet_couple, specs)
        assert report["all_pass"]
        assert report["n_pass"] == 3
        assert report["base_provenance"] == "schrodinger"
        for entry in report["specs"]:
            assert entry["min_margin"] >= -6.0 * entry["error_radius"]
            # central differences of a smooth profile: halving the probe
            # step divides the derivative bias by four
            assert 3.0 < entry["derivative_ratio"] < 5.0

    def test_broken_base_is_flagged(self, packet_spec, grid):
        base = spreading_mismatched_couple(packet_spec, grid)
        specs = [PerturbationSpec(seed=s) for s in (2000, 2001, 2002)]
        report = verify_theorem1(base, specs)
        assert not report["all_pass"]
        assert report["n_violated"] >= 1
        for entry in report["specs"]:
            assert abs(entry["derivative_at_0"]) > 10.0 * entry["error_radius"]

    def test_concave_dip_within_the_margin_is_inconclusive(self, packet_couple):
        # seed 24: margin +1.2e-5 but a second difference of -5.1e-5,
        # beyond 12 error radii (6.1e-7) of concavity and not a violation
        report = verify_theorem1(packet_couple, [PerturbationSpec(seed=24)])
        entry = report["specs"][0]
        assert entry["verdict"] == "inconclusive"
        assert report["n_inconclusive"] == 1 and not report["all_pass"]
        assert entry["min_margin"] >= -6.0 * entry["error_radius"]
        assert entry["second_diff_min"] < -12.0 * entry["error_radius"]

    def test_construction_failure_is_accounted(self, narrow_base):
        report = verify_theorem1(narrow_base, [PerturbationSpec(seed=0)])
        assert report["n_failed"] == 1
        assert not report["all_pass"]
        assert "error" in report["specs"][0]

    def test_construction_refusals_are_lab_errors(self, narrow_base, sparse_base):
        # the recipe's refusals become verdicts as lab errors, and a caller
        # that catches ValueError still catches them
        assert issubclass(FieldRefused, MadelungLabError)
        assert issubclass(FieldRefused, ValueError)
        for base in (narrow_base, sparse_base):
            with pytest.raises(FieldRefused):
                make_family(base, PerturbationSpec(seed=1000))

    def test_grid_that_samples_no_bump_fails_to_construct(self, sparse_base):
        report = verify_theorem1(sparse_base, [PerturbationSpec(seed=1000)])
        assert report["specs"] == [{"seed": 1000, "verdict": "failed-to-construct",
                                    "error": "perturbation degenerated to zero"}]
        assert report["n_failed"] == 1 and not report["all_pass"]

    def test_code_bugs_propagate(self, packet_couple, monkeypatch):
        # only lab errors and bad recipes become verdicts; a TypeError
        # is a bug in the code and must surface
        def broken(*args, **kwargs):
            raise TypeError("'float' object cannot be interpreted as an integer")
        monkeypatch.setattr(competitors, "make_family", broken)
        with pytest.raises(TypeError):
            verify_theorem1(packet_couple, [PerturbationSpec(seed=1000)])

    def test_plain_value_errors_propagate(self, packet_couple, monkeypatch):
        # a numpy shape or broadcast bug raises a plain ValueError: a bug,
        # not a refusal of the recipe, so it is no verdict either
        def broken(self, y):
            raise ValueError("operands could not be broadcast together")
        monkeypatch.setattr(CompetitorFamily, "member_rows", broken)
        with pytest.raises(ValueError, match="broadcast") as caught:
            verify_theorem1(packet_couple, [PerturbationSpec(seed=1000)])
        assert not isinstance(caught.value, MadelungLabError)

    def test_no_specs_is_vacuously_true(self, packet_couple):
        report = verify_theorem1(packet_couple, [])
        assert report["all_pass"]
        assert report["n_specs"] == 0

    def test_profile_rows_sorted_and_complete(self, packet_couple):
        report = verify_theorem1(packet_couple, [PerturbationSpec(seed=1000)])
        rows = report["specs"][0]["y_profile"]
        ys = [row[0] for row in rows]
        assert ys == sorted(ys)
        assert len(ys) == 11


class TestHull:
    """Members are built on the block outside which g and u vanish."""

    @staticmethod
    def assert_members_match_the_oracle(fam):
        # member_rows' blocks are the oracle's hull rows, and off the hull
        # the oracle is the base
        assert np.array_equal(fam.u.values, full_lattice_correction(fam.base, fam.g.values))
        names = ("rho", "v", "log_density_gradient")
        rows = fam.hull[0]
        off_hull = np.ones(fam.g.values.shape[0], dtype=bool)
        off_hull[rows] = False
        for y in Y_GRID:
            if y == 0.0:
                continue
            *blocks, quantum = fam.member_rows(y)
            want = [getattr(full_lattice_member(fam, y), name).values for name in names]
            for name, block, values in zip(names, blocks, want):
                assert np.array_equal(block, values[rows]), (y, name)
                assert np.array_equal(values[off_hull],
                                      getattr(fam.base, name).values[off_hull]), (y, name)
            assert np.array_equal(quantum, action_integrand(
                *(values[rows] for values in want), -1.0)), y

    @staticmethod
    def assert_reports_match_the_oracle(fam):
        # the spliced row integrals give the full-lattice member's report
        for y, got in evaluate_family(fam):
            want = quantum_action(full_lattice_member(fam, y))
            assert (got.value.hex(), got.error_radius.hex(), got.kind, got.grid) \
                == (want.value.hex(), want.error_radius.hex(), want.kind, want.grid), y

    @pytest.mark.parametrize("seed", range(1000, 1020))
    def test_packet_members_equal_the_full_lattice_build(self, packet_couple, seed):
        self.assert_members_match_the_oracle(
            make_family(packet_couple, PerturbationSpec(seed)))

    @pytest.mark.parametrize("seed", range(1000, 1020))
    def test_packet_reports_equal_the_full_lattice_build(self, packet_couple, seed):
        fam = make_family(packet_couple, PerturbationSpec(seed))
        # the coarse series holds the even rows: here the member's start
        # at its second row, on the mismatched base at its first
        assert fam.hull[0].start % 2 == 1
        self.assert_reports_match_the_oracle(fam)

    def test_violating_spec_members_equal_the_full_lattice_build(self, packet_couple):
        fam = make_family(packet_couple, PerturbationSpec(453114006))
        self.assert_members_match_the_oracle(fam)
        self.assert_reports_match_the_oracle(fam)

    @pytest.mark.parametrize("seed", range(1000, 1003))
    def test_mismatched_members_equal_the_full_lattice_build(self, packet_spec, seed):
        base = spreading_mismatched_couple(packet_spec, GridSpec(-12.0, 12.0, 256, 128))
        fam = make_family(base, PerturbationSpec(seed))
        assert fam.hull[0].start % 2 == 0
        self.assert_members_match_the_oracle(fam)
        self.assert_reports_match_the_oracle(fam)

    def test_zero_perturbation_members_equal_the_full_lattice_build(self, grid,
                                                                     packet_couple):
        zeros = ScalarField(grid, np.zeros((grid.n_t + 1, grid.n_x)))
        fam = CompetitorFamily(packet_couple, zeros)
        self.assert_members_match_the_oracle(fam)
        self.assert_reports_match_the_oracle(fam)
        base = quantum_action(packet_couple)
        assert all(rep == base for _, rep in evaluate_family(fam))

    def test_member_with_a_negative_density_is_refused_as_such(self, packet_couple):
        # five times a perturbation that just fits: rho + y g < 0 at y = -1,
        # refused before its log is taken (no RuntimeWarning)
        grid = packet_couple.rho.grid
        g = make_family(packet_couple, PerturbationSpec(1000)).g.values
        fam = CompetitorFamily(packet_couple, ScalarField(grid, 5.0 * g))
        low = (packet_couple.rho.values - 5.0 * g).min()
        assert low < 0.0
        refusal = re.escape(f"density must be strictly positive, min = {low:.3e}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=refusal):
                evaluate_family(fam)
            with pytest.raises(FieldRefused, match=refusal):
                fam.member_rows(-1.0)

    def test_profile_bytes_are_pinned(self, packet_couple):
        fam = make_family(packet_couple, PerturbationSpec(1012))
        rows = np.array([[y, rep.value, rep.error_radius]
                         for y, rep in evaluate_family(fam)])
        assert hashlib.sha256(rows.tobytes()).hexdigest() == PROFILE_SHA256_1012

    def test_hull_is_the_tight_block_of_g_and_u(self, default_family):
        rows, cols = default_family.hull
        live = (default_family.g.values != 0.0) | (default_family.u.values != 0.0)
        outside = np.ones_like(live)
        outside[rows, cols] = False
        assert not live[outside].any()
        for edge in (live[rows.start], live[rows.stop - 1],
                     live[:, cols.start], live[:, cols.stop - 1]):
            assert edge.any()
        # fd_dt widens u one row past g on both sides
        g_rows = np.flatnonzero(default_family.g.values.any(axis=1))
        assert (rows.start, rows.stop) == (g_rows[0] - 1, g_rows[-1] + 2)

    @staticmethod
    def record_transformed_rows(monkeypatch):
        rows = []

        def recorder(transform):
            def recorded(values, grid, what):
                rows.append((what, values.shape[0]))
                return transform(values, grid, what)
            return recorded

        for name in ("spectral_dx", "spectral_antiderivative"):
            monkeypatch.setattr(competitors, name, recorder(getattr(competitors, name)))
        return rows

    def test_only_live_rows_are_transformed(self, grid, packet_couple, monkeypatch):
        rows = self.record_transformed_rows(monkeypatch)
        fam = make_family(packet_couple, PerturbationSpec(1000))
        assert [what for what, _ in rows] == ["perturbation flux", "divergence data"]
        evaluate_family(fam)
        assert len(rows) == 2 + len(Y_GRID) - 1
        assert all(0 < n < grid.n_t + 1 for _, n in rows)

    def test_zero_perturbation_transforms_nothing(self, grid, packet_couple,
                                                  monkeypatch):
        rows = self.record_transformed_rows(monkeypatch)
        zeros = ScalarField(grid, np.zeros((grid.n_t + 1, grid.n_x)))
        fam = CompetitorFamily(packet_couple, zeros)
        assert not fam.u.values.any()
        for y in Y_GRID:
            assert all(len(block) == 0 for block in fam.member_rows(y)), y
        assert sum(n for _, n in rows) == 0


class TestNonFiniteMembers:
    """A NaN or infinite entry that reaches a member's velocity (through u)
    or its log density gradient is refused as ``FieldRefused``: by the
    couple rule, which forms the finite integrand on the decay guard's
    columns, or by the row sums of the quantum integrand. ``verify_theorem1``
    reports the family as failed-to-construct. The entry sits in the
    middle hull row, on the centre probe or on a hull column off the
    probes of the seed-1000 family on the default packet."""

    @staticmethod
    def plant_in_u(monkeypatch, col, entry):
        build = CompetitorFamily.__post_init__

        def planted(self):
            build(self)
            rows, cols = self.hull
            assert cols.start <= col < cols.stop
            values = self.u.values.copy()
            values[(rows.start + rows.stop) // 2, col] = entry
            object.__setattr__(self, "u", SimpleNamespace(values=values))

        monkeypatch.setattr(CompetitorFamily, "__post_init__", planted)

    @staticmethod
    def plant_in_log_gradient(monkeypatch, col, entry):
        transform = competitors.spectral_dx

        def planted(values, grid, what):
            out = transform(values, grid, what)
            if what == "log density bump":
                out[len(out) // 2, col] = entry
            return out

        monkeypatch.setattr(competitors, "spectral_dx", planted)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf],
                             ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("col", [256, 200], ids=["probe", "off-the-probes"])
    @pytest.mark.parametrize("plant", ["plant_in_u", "plant_in_log_gradient"])
    def test_refused_and_failed_to_construct(self, grid, packet_couple, monkeypatch,
                                             plant, col, entry):
        assert (col in guard_columns(grid)) == (col == 256)
        getattr(self, plant)(monkeypatch, col, entry)
        fam = make_family(packet_couple, PerturbationSpec(1000))
        with pytest.raises(FieldRefused):
            evaluate_family(fam)
        report = verify_theorem1(packet_couple, [PerturbationSpec(1000)])
        assert report["specs"][0]["verdict"] == "failed-to-construct"
        assert report["n_failed"] == 1
