"""Diffusion ensembles and the renormalized path-space estimators.

Control cases with known expectations: zero drift renormalizes to 0,
constant drift c renormalizes to c^2, and the direct estimator is
bitwise exact for constant drifts. Statistical assertions use 4 sigma
windows around the analytic targets.
"""

import hashlib
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import madelung_lab
from madelung_lab import (Diverged, DriftField, GaussianPacketSpec,
                          GridSpec, MCEstimate, NormDrift, ScalarField,
                          constant_drift, decompose, discrete_action, drift,
                          estimate_I, gaussian_packet, marginal_l1,
                          mixture_ensemble, renormalized_action, sample_initial,
                          simulate_ensemble)
from madelung_lab.nelson_sde import (_JOB_VALUES, BLOCK, _check_inside,
                                     _initial_positions, _path_blocks,
                                     _summed_divergence, marginals)

CONTROL_N = 20_000
CONTROL_PARTITION = 64

# sha256 of the float64 (N, n + 1) path matrix in row-major order,
# recorded with the earlier kernel (drift read by np.interp's binary
# search, one noise draw per substep): the O(1) lookup and the one draw
# per partition interval keep both streams.
SINGLE_DRIFT_SHA256 = "987085e6a331c0740fb37702016aeb4a281d5c1d3029761436f4c91babd2d658"
MIXTURE_SHA256 = "45a441759b7a0ed0b884b33344046e1afc67edeebdcfa5495c94076b9c19a021"
# recorded with one noise draw per partition interval, before the draws
# were batched into jobs of several intervals run one job ahead: a
# sweep-sized block takes an 8-interval and a 4-interval job, and the
# two-block mixture's jobs cross the block boundary
SWEEP_SHA256 = "36c6ce0046a8704a7dd7dda4c19f06fdc507f8357da9d715aec2a039be5ad2cc"
MIXTURE_TWO_BLOCKS_SHA256 = \
    "ba0aeaf3dda2596a470762869930ee3d20370dc0477e2441071ebeb1fc3fc788"
# recorded with every track's pull read by the lookup and the noise drawn
# by normal(0, sqrt(h)): a constant track's pull is its scalar value and
# the noise is scaled standard normals, and both streams stay
CONSTANT_DRIFT_SHA256 = \
    "ee05147cabd048947d0a7829b1fc1c5f723a9f22ee2c7f850bbb924e7397fd91"
ZERO_DRIFT_SHA256 = \
    "4eb8a6c4a5c9fbd7233eb7670267634f5b777eb492c6146100d887786cb6ce58"


def path_matrix(drifts, weights, rho0, grid, N, n, substeps, seed) -> np.ndarray:
    """The (N, n + 1) positions at the partition nodes, which the library
    never holds at once, gathered from the per-node yields of the stepping
    as ``mixture_ensemble`` steps it."""
    x0 = _initial_positions(rho0, grid, N, seed)
    columns = {}
    for rows, i, q, _ in _path_blocks(drifts, np.asarray(weights, dtype=float), x0,
                                      grid, n, substeps, seed,
                                      _summed_divergence(drifts)):
        columns.setdefault(rows.start, [x0[rows]]).append(q.copy())
    return np.vstack([np.column_stack(block) for block in columns.values()])


def paths_sha256(*args) -> str:
    """The sha256 of :func:`path_matrix`'s float64 bytes in row-major order."""
    return hashlib.sha256(path_matrix(*args).astype("<f8").tobytes()).hexdigest()


def same_reductions(a, b) -> bool:
    """Whether two ensembles hold the same per-trajectory values, bit for bit."""
    return (np.array_equal(a.squared_increments, b.squared_increments)
            and a.positions.keys() == b.positions.keys()
            and all(np.array_equal(a.positions[t], b.positions[t]) for t in a.positions))


@pytest.fixture(scope="module")
def control_grid():
    return GridSpec(-12.0, 12.0, 512, 64)


@pytest.fixture(scope="module")
def packet(control_grid):
    _, _, couple = decompose(gaussian_packet(GaussianPacketSpec(), control_grid))
    return drift(couple), couple.rho.values[0]


@pytest.fixture(scope="module")
def zero_drift_ensemble(control_grid):
    return simulate_ensemble(constant_drift(control_grid, 0.0), None,
                             control_grid, CONTROL_N, CONTROL_PARTITION, 2, 42)


@pytest.fixture(scope="module")
def const3_ensemble(control_grid):
    return simulate_ensemble(constant_drift(control_grid, 3.0), None,
                             control_grid, CONTROL_N, CONTROL_PARTITION, 2, 43)


class TestSampling:
    def test_moments_of_packet_initial_density(self, grid, packet_couple):
        n = 200_000
        samples = sample_initial(packet_couple.rho.values[0], grid, n, 11)
        # CLT windows for N(0, 1) samples
        assert abs(samples.mean()) < 4.0 / np.sqrt(n)
        assert abs(samples.var() - 1.0) < 4.0 * np.sqrt(2.0 / n)
        assert samples.min() >= grid.x_min and samples.max() <= grid.x[-1]

    def test_deterministic_given_seed(self, grid, packet_couple):
        rho0 = packet_couple.rho.values[0]
        a = sample_initial(rho0, grid, 1000, 5)
        b = sample_initial(rho0, grid, 1000, 5)
        c = sample_initial(rho0, grid, 1000, 6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_shape_validation(self, grid):
        with pytest.raises(ValueError):
            sample_initial(np.ones(100), grid, 10, 0)

    def test_mass_validation(self, grid):
        rho = np.exp(-grid.x**2 / 2.0)  # not normalized
        with pytest.raises(NormDrift):
            sample_initial(rho, grid, 10, 0)

    def test_negative_density_refused(self, control_grid):
        # mass 1, but the dip makes the CDF non-monotone, where np.interp
        # is undefined
        rho = np.exp(-control_grid.x**2 / 2.0)
        rho[250:262] = -0.2
        rho /= control_grid.dx * rho.sum()
        with pytest.raises(ValueError, match="negative"):
            sample_initial(rho, control_grid, 100_000, 0)


class TestSimulation:
    def test_bitwise_deterministic(self, control_grid):
        b = constant_drift(control_grid, 1.0)
        args = ([b], [1.0], None, control_grid, 500, 16, 2, 9)
        assert np.array_equal(path_matrix(*args), path_matrix(*args))
        assert same_reductions(simulate_ensemble(b, None, control_grid, 500, 16, 2, 9),
                               simulate_ensemble(b, None, control_grid, 500, 16, 2, 9))

    def test_single_drift_mixture_is_the_plain_ensemble(self, control_grid):
        b = constant_drift(control_grid, 1.0)
        plain = simulate_ensemble(b, None, control_grid, 500, 16, 2, 9)
        mixed = mixture_ensemble([b], [1.0], None, control_grid, 500, 16, 2, 9)
        assert same_reductions(plain, mixed)

    def test_single_drift_matches_duplicated_mixture(self, grid, packet_drift,
                                                     packet_couple):
        # the one-drift ensemble steps its component track only; mixing
        # a drift with itself runs the general kernel on the same noise
        rho0 = packet_couple.rho.values[0]
        single = path_matrix([packet_drift], [1.0], rho0, grid, 300, 16, 2, 5)
        doubled = path_matrix([packet_drift, packet_drift], [0.5, 0.5],
                              rho0, grid, 300, 16, 2, 5)
        assert np.array_equal(single, doubled)
        assert same_reductions(
            simulate_ensemble(packet_drift, rho0, grid, 300, 16, 2, 5),
            mixture_ensemble([packet_drift, packet_drift], [0.5, 0.5],
                             rho0, grid, 300, 16, 2, 5))

    def test_increment_decomposition(self, control_grid):
        # on common noise a constant drift c moves every path by c * t
        # away from the driftless one, so the difference at node i is
        # c i / n up to rounding
        n = 16
        shifted = path_matrix([constant_drift(control_grid, 3.0)], [1.0], None,
                              control_grid, 500, n, 2, 9)
        free = path_matrix([constant_drift(control_grid, 0.0)], [1.0], None,
                           control_grid, 500, n, 2, 9)
        offset = 3.0 * np.arange(n + 1) / n
        residual = shifted - free - offset
        assert np.max(np.abs(residual)) < 1e-12

    def test_big_ensemble_end_moments(self, big_ensemble):
        q1 = big_ensemble.positions[1.0]
        n = big_ensemble.N
        # free packet at t = 1: mean 0, variance 1.25
        assert abs(q1.mean()) < 4.0 * np.sqrt(1.25 / n)
        assert abs(q1.var() - 1.25) < 4.0 * 1.25 * np.sqrt(2.0 / n)

    def test_divergence_guard(self, control_grid):
        with pytest.raises(Diverged):
            simulate_ensemble(constant_drift(control_grid, 40.0), None,
                              control_grid, 100, 8, 1, 3)

    def test_weight_validation(self, control_grid):
        b = constant_drift(control_grid, 0.0)
        with pytest.raises(ValueError):
            mixture_ensemble([], [], None, control_grid, 10, 4, 1, 0)
        with pytest.raises(ValueError):
            mixture_ensemble([b], [0.5], None, control_grid, 10, 4, 1, 0)
        with pytest.raises(ValueError, match="one weight per drift"):
            mixture_ensemble([b, b], [1.0], None, control_grid, 10, 4, 1, 0)
        with pytest.raises(ValueError):
            mixture_ensemble([b, b], [0.7, 0.7], None, control_grid, 10, 4, 1, 0)
        with pytest.raises(ValueError):
            mixture_ensemble([b, b], [-0.5, 1.5], None, control_grid, 10, 4, 1, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_weights_refused_before_stepping(self, grid, packet_drift,
                                                         bad, monkeypatch):
        # a NaN weight passes a sign check and a sum check that compare
        # with NaN; it must be refused before any block is stepped
        def no_stepping(*args):
            raise AssertionError("stepped with a non-finite weight")
        monkeypatch.setattr(GridSpec, "locate", no_stepping)
        b1 = constant_drift(grid, 0.5)
        with pytest.raises(ValueError, match="weights must be finite and convex"):
            mixture_ensemble([packet_drift, b1], [0.5, bad], None, grid, 100, 4, 1, 0)

    def test_grid_mismatch_rejected(self, control_grid, grid):
        b = constant_drift(grid, 0.0)
        with pytest.raises(ValueError):
            simulate_ensemble(b, None, control_grid, 10, 4, 1, 0)

    @pytest.mark.parametrize("N, n, substeps", [(0, 4, 1), (10, 0, 1), (10, 4, 0)],
                             ids=["no-paths", "no-partition", "no-substeps"])
    def test_sizes_must_be_positive(self, control_grid, N, n, substeps):
        b = constant_drift(control_grid, 0.0)
        with pytest.raises(ValueError, match="must be positive"):
            mixture_ensemble([b], [1.0], None, control_grid, N, n, substeps, 0)


class TestStreamFingerprint:
    def test_single_drift_over_two_blocks(self, control_grid, packet):
        # the second block is partial; three substeps per interval
        b, rho0 = packet
        assert paths_sha256([b], [1.0], rho0, control_grid, BLOCK + 37, 8, 3, 7) \
            == SINGLE_DRIFT_SHA256

    def test_two_drift_mixture(self, control_grid, packet):
        b, rho0 = packet
        assert paths_sha256([b, constant_drift(control_grid, 0.5)], [0.25, 0.75],
                            rho0, control_grid, 1000, 8, 3, 7) == MIXTURE_SHA256

    def test_sweep_sized_block(self, control_grid, packet):
        b, rho0 = packet
        assert paths_sha256([b], [1.0], rho0, control_grid, 1024, 12, 4, 7) \
            == SWEEP_SHA256

    def test_two_drift_mixture_over_two_blocks(self, control_grid, packet):
        b, rho0 = packet
        assert paths_sha256([b, constant_drift(control_grid, 0.5)], [0.25, 0.75],
                            rho0, control_grid, BLOCK + 37, 8, 3, 7) \
            == MIXTURE_TWO_BLOCKS_SHA256

    def test_constant_drift_over_two_blocks(self, control_grid, packet):
        _, rho0 = packet
        assert paths_sha256([constant_drift(control_grid, 3.0)], [1.0], rho0,
                            control_grid, BLOCK + 37, 8, 3, 7) == CONSTANT_DRIFT_SHA256

    def test_zero_drift_from_the_origin(self, control_grid):
        assert paths_sha256([constant_drift(control_grid, 0.0)], [1.0], None,
                            control_grid, BLOCK + 37, 8, 3, 7) == ZERO_DRIFT_SHA256


class TestConstantTracks:
    """A drift equal to one value everywhere is stepped without a lookup."""

    @staticmethod
    def _almost_constant(grid):
        # one x_min edge entry off 3.0: the field is not constant, so its
        # track takes the lookup, but centred paths never reach that segment
        values = np.full((grid.n_t + 1, grid.n_x), 3.0)
        values[0, 0] += 1e-9
        return DriftField(grid, values)

    @pytest.mark.parametrize("with_packet", [False, True],
                             ids=["single", "mixture"])
    def test_shortcut_equals_the_lookup(self, grid, packet_drift, packet_couple,
                                        with_packet):
        rho0 = packet_couple.rho.values[0]
        lead = [packet_drift] if with_packet else []
        weights = [0.25, 0.75] if with_packet else [1.0]

        def run(b):
            return path_matrix([*lead, b], weights, rho0, grid, 1000, 8, 3, 7)

        looked_up = run(self._almost_constant(grid))
        shortcut = run(constant_drift(grid, 3.0))
        assert np.array_equal(looked_up, shortcut)

    @pytest.fixture
    def locate_calls(self, monkeypatch):
        calls = []
        locate = GridSpec.locate

        def counting(self, positions):
            calls.append(positions.size)
            return locate(self, positions)

        monkeypatch.setattr(GridSpec, "locate", counting)
        return calls

    def test_constant_drift_makes_no_lookup(self, grid, packet_couple,
                                            locate_calls):
        simulate_ensemble(constant_drift(grid, 3.0), packet_couple.rho.values[0],
                          grid, 1000, 8, 3, 7)
        assert locate_calls == []

    def test_packet_drift_looks_up_every_substep(self, grid, packet_drift,
                                                 packet_couple, locate_calls):
        # per block: one lookup per substep, and one at t = 1 for the sums
        simulate_ensemble(packet_drift, packet_couple.rho.values[0],
                          grid, BLOCK + 37, 8, 3, 7)
        assert locate_calls == [BLOCK] * (8 * 3 + 1) + [37] * (8 * 3 + 1)

    def test_mixture_looks_up_each_track_every_substep(self, grid, packet_drift,
                                                       packet_couple, locate_calls):
        # a mixture records no sums, so it makes no lookup at t = 1
        mixture_ensemble([packet_drift, self._almost_constant(grid)], [0.25, 0.75],
                         packet_couple.rho.values[0], grid, BLOCK + 37, 8, 3, 7)
        assert locate_calls == [BLOCK] * (2 * 8 * 3) + [37] * (2 * 8 * 3)


class CountingDrift(DriftField):
    """A drift that records the live thread count at every read."""

    seen: list

    def read(self, located, t):
        self.seen.append(threading.active_count())
        return super().read(located, t)


class TestNoiseWorker:
    """The noise is drawn on a worker thread that lives only inside a call."""

    def _drift(self, grid, c):
        # not constant, so every substep looks it up
        b = CountingDrift(grid, np.broadcast_to(c + 1e-3 * grid.x,
                                                (grid.n_t + 1, grid.n_x)))
        object.__setattr__(b, "seen", [])
        return b

    def test_worker_runs_during_the_call_and_not_after(self, control_grid):
        before = threading.active_count()
        b = self._drift(control_grid, 1.0)
        simulate_ensemble(b, None, control_grid, 500, 16, 2, 9)
        assert max(b.seen) == before + 1
        assert threading.active_count() == before

    def test_worker_does_not_outlive_divergence(self, control_grid):
        before = threading.active_count()
        b = self._drift(control_grid, 40.0)
        with pytest.raises(Diverged):
            simulate_ensemble(b, None, control_grid, 100, 8, 1, 3)
        assert max(b.seen) == before + 1
        assert threading.active_count() == before

    def test_noise_buffers_survive_rapid_switching(self, control_grid, packet):
        # the sweep-sized block takes an 8- and a 4-interval job, and the
        # two-block mixture's jobs cross the block boundary: a noise buffer
        # refilled while one of its intervals is still being stepped
        # changes the pinned stream. Switching threads every microsecond
        # gives such a race every chance to show.
        b, rho0 = packet
        cases = {
            SWEEP_SHA256: ([b], [1.0], rho0, control_grid, 1024, 12, 4, 7),
            MIXTURE_TWO_BLOCKS_SHA256: ([b, constant_drift(control_grid, 0.5)],
                                        [0.25, 0.75], rho0, control_grid,
                                        BLOCK + 37, 8, 3, 7),
        }
        digests = {}

        def step():
            for pin, args in cases.items():
                digests[pin] = paths_sha256(*args)

        worker = threading.Thread(target=step, daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert digests == {pin: pin for pin in cases}

    def test_import_starts_no_thread(self):
        probe = ("import threading, madelung_lab.nelson_sde; "
                 "print(threading.active_count())")
        package_root = Path(madelung_lab.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-c", probe], cwd=package_root,
                              capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout.strip() == "1"


class TestEstimators:
    def test_zero_drift_renormalizes_to_zero(self, zero_drift_ensemble):
        est = renormalized_action(zero_drift_ensemble)
        assert abs(est.mean) < 4.0 * est.std_error
        # raw discrete action sits at n, far from zero
        raw = discrete_action(zero_drift_ensemble)
        assert abs(raw.mean - CONTROL_PARTITION) < 4.0 * raw.std_error

    def test_constant_drift_renormalizes_to_square(self, const3_ensemble):
        est = renormalized_action(const3_ensemble)
        assert abs(est.mean - 9.0) < 4.0 * est.std_error
        assert est.std_error < 0.15

    def test_renormalization_shifts_by_partition_size(self, const3_ensemble):
        raw = discrete_action(const3_ensemble)
        ren = renormalized_action(const3_ensemble)
        assert ren.mean == raw.mean - const3_ensemble.n
        assert ren.std_error == raw.std_error

    def test_direct_estimator_exact_for_constant_drift(self, control_grid):
        # 3.0 on every node the centred paths reach, so b^2 + div b reads
        # 9 + 0 at every partition node; the field is not constant, so its
        # track is looked up and the pathwise sums are recorded
        b = TestConstantTracks._almost_constant(control_grid)
        ens = simulate_ensemble(b, None, control_grid, CONTROL_N, CONTROL_PARTITION,
                                2, 43)
        est = estimate_I(ens, b, b.divergence())
        assert est.mean == 9.0
        assert est.std_error == 0.0

    def test_direct_estimator_reads_left_time_node(self):
        # b is constant in x, so div b = 0, but b differs at every time
        # node; partition times 0, 1/3, 2/3, 1 on n_t = 8 fall on or after
        # nodes 0, 2, 5, 8, and every other node carries a poison value.
        # One substep per interval: the stepping reads b only at those times.
        g = GridSpec(-8.0, 8.0, 8, 8)
        b_nodes = np.full(9, 100.0)
        b_nodes[[0, 2, 5, 8]] = [1.0, 2.0, 3.0, 4.0]
        b = DriftField(g, np.repeat(b_nodes[:, None], 8, axis=1))
        est = estimate_I(simulate_ensemble(b, None, g, 6, 3, 1, 0), b, b.divergence())
        # (1/3) * (1/2 + 4 + 9 + 16/2), b^2 at nodes 0, 2, 5, 8
        assert est.mean == (0.5 * 1.0 + 4.0 + 9.0 + 0.5 * 16.0) / 3
        assert est.std_error == 0.0

    def test_direct_estimator_is_the_two_lookup_formula(self, grid, packet_drift,
                                                        packet_couple):
        # reference: b and div b each looked up by ScalarField.at at the
        # partition times, which n = 12 puts between the time nodes of
        # n_t = 256; the stepping sums reuse each node's drift lookup
        rho0, n = packet_couple.rho.values[0], 12
        args = ([packet_drift], [1.0], rho0, grid, BLOCK + 37, n, 2, 5)
        paths = path_matrix(*args)
        div_b = packet_drift.divergence()
        totals = np.zeros(paths.shape[0])
        for i in range(n + 1):
            t_i = i / n
            q = paths[:, i]
            values = packet_drift.evaluate(q, t_i) ** 2 + div_b.at(q, t_i)
            totals += (0.5 if i in (0, n) else 1.0) * values
        totals /= n
        expected = np.array([totals.mean(), totals.std(ddof=1) / np.sqrt(totals.size)])
        est = estimate_I(simulate_ensemble(packet_drift, *args[2:]), packet_drift, div_b)
        got = np.array([est.mean, est.std_error])
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_direct_estimator_needs_the_recorded_sums(self, control_grid,
                                                      const3_ensemble):
        # a constant drift takes no lookup and a mixture follows no one
        # drift, so neither records the pathwise sums
        b = constant_drift(control_grid, 3.0)
        with pytest.raises(ValueError, match="records no pathwise sums"):
            estimate_I(const3_ensemble, b, b.divergence())
        tilted = DriftField(control_grid, np.broadcast_to(
            0.1 * control_grid.x, (control_grid.n_t + 1, control_grid.n_x)))
        mixed = mixture_ensemble([tilted, b], [0.5, 0.5], None, control_grid,
                                 100, 8, 1, 0)
        with pytest.raises(ValueError, match="records no pathwise sums"):
            estimate_I(mixed, tilted, tilted.divergence())

    def test_direct_estimator_checks_its_fields_by_value(self, control_grid):
        tilted = DriftField(control_grid, np.broadcast_to(
            0.1 * control_grid.x, (control_grid.n_t + 1, control_grid.n_x)))
        ens = simulate_ensemble(tilted, None, control_grid, 100, 8, 1, 0)
        # equal fields that are other objects pass
        copy = DriftField(control_grid, tilted.values.copy())
        assert estimate_I(ens, copy, copy.divergence()).N == 100
        other = DriftField(control_grid, 2.0 * tilted.values)
        with pytest.raises(ValueError, match="the ensemble's drift"):
            estimate_I(ens, other, tilted.divergence())
        with pytest.raises(ValueError, match="the ensemble's drift"):
            estimate_I(ens, tilted, other.divergence())

    def test_direct_estimator_grid_mismatch(self, grid, control_grid, const3_ensemble):
        b = constant_drift(grid, 3.0)
        with pytest.raises(ValueError):
            estimate_I(const3_ensemble, b, b.divergence())
        # the drift matches the ensemble, the divergence does not
        on_ensemble_grid = constant_drift(control_grid, 3.0)
        with pytest.raises(ValueError, match="divergence field"):
            estimate_I(const3_ensemble, on_ensemble_grid, b.divergence())

    def test_estimate_tracks_renormalized_action(self, big_ensemble,
                                                 packet_drift, packet_couple):
        # dual routes to the same path functional
        direct = estimate_I(big_ensemble, packet_drift,
                            packet_drift.divergence())
        ren = renormalized_action(big_ensemble)
        gap = abs(direct.mean - ren.mean)
        assert gap < 4.0 * np.hypot(direct.std_error, ren.std_error)


class TestMarginals:
    def test_histogram_mass_is_one(self, big_ensemble, packet_couple):
        histograms, _ = marginals(big_ensemble, packet_couple.rho)
        for est in histograms.values():
            assert est.sum() * big_ensemble.grid.dx == pytest.approx(1.0, abs=1e-12)

    def test_histogram_refuses_off_node_time(self):
        # t = 1/4 is a node of n_t = 4 but not of the n = 3 partition
        g = GridSpec(-8.0, 8.0, 8, 4)
        ens = simulate_ensemble(constant_drift(g, 0.0), None, g, 10, 3, 1, 0)
        rho = ScalarField(g, np.full((5, 8), 0.25))
        with pytest.raises(ValueError, match="t = 0.25 is not a node of 3 equal time steps"):
            marginals(ens, rho)

    def test_marginals_close_to_reference(self, big_ensemble, packet_couple):
        dist = marginal_l1(big_ensemble, packet_couple.rho)
        assert sorted(dist) == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert max(dist.values()) < 0.03

    @pytest.mark.xfail(strict=False, reason=(
        "the L1 statistic of a 100k-sample histogram on this lattice has "
        "a statistical floor near 0.027 at t = 1 (sqrt(2/pi) sum of "
        "sqrt(rho dx / N)); 0.02 is below what any seed typically reaches"))
    def test_documented_tight_tolerance(self, big_ensemble, packet_couple):
        dist = marginal_l1(big_ensemble, packet_couple.rho)
        assert dist[1.0] <= 0.02

    def test_reference_grid_must_match(self, control_grid, big_ensemble):
        rho = ScalarField(control_grid,
                          np.full((65, 512), 1.0 / 24.0))
        with pytest.raises(ValueError):
            marginal_l1(big_ensemble, rho)

    def test_marginal_times_must_be_grid_nodes(self):
        # t = 1/4 is a node of the n = 4 partition but not of n_t = 6
        g = GridSpec(-8.0, 8.0, 8, 6)
        ens = simulate_ensemble(constant_drift(g, 0.0), None, g, 10, 4, 1, 0)
        rho = ScalarField(g, np.full((7, 8), 0.25))
        with pytest.raises(ValueError, match="t = 0.25 is not a node of 6 equal time steps"):
            marginal_l1(ens, rho)


class TestContainers:
    def test_ensemble_shape_validation(self, control_grid, packet):
        # one value per trajectory in every field, over a partial second
        # block; the partition's nodes among MARGINAL_TIMES are the ones kept
        b, rho0 = packet
        ens = simulate_ensemble(b, rho0, control_grid, BLOCK + 37, 6, 1, 7)
        assert (ens.N, ens.n) == (BLOCK + 37, 6)
        assert sorted(ens.positions) == [0.0, 0.5, 1.0]
        for values in [ens.squared_increments, ens.pathwise, *ens.positions.values()]:
            assert values.shape == (BLOCK + 37,)

    def test_ensemble_rejects_nonfinite(self, control_grid, packet):
        # two drifts whose slope overflows between the nodes at x = 0 and
        # x = dx, with opposite signs: the paths starting in that segment
        # are pulled to +inf and -inf, so the mixed track is NaN there, and
        # the node check refuses it before any other track
        _, rho0 = packet
        values = np.zeros((control_grid.n_t + 1, control_grid.n_x))
        centre = control_grid.n_x // 2
        values[:, centre], values[:, centre + 1] = -1e308, 1e308
        up, down = DriftField(control_grid, values), DriftField(control_grid, -values)
        with np.errstate(all="ignore"), pytest.raises(Diverged, match="nan"):
            mixture_ensemble([up, down], [0.5, 0.5], rho0, control_grid, 1000, 4, 1, 7)

    @pytest.mark.parametrize("row, value", [(-1, np.nan), (0, np.inf)],
                             ids=["nan-in-last-row", "inf-in-row-0"])
    def test_every_chunk_is_checked(self, control_grid, row, value):
        # every trajectory of a block is checked at each partition node;
        # NaN counts as outside the box
        positions = np.zeros(BLOCK)
        positions[row] = value
        with pytest.raises(Diverged):
            _check_inside(positions, control_grid, 0.5)

    def test_mc_estimate_validation(self):
        with pytest.raises(ValueError):
            MCEstimate(1.0, -1e-9, 10)
        assert MCEstimate(1.0, 0.5, 10).as_dict() == {
            "mean": 1.0, "std_error": 0.5, "N": 10}

    def test_zero_drift_end_variance(self, zero_drift_ensemble):
        ens = zero_drift_ensemble
        assert ens.N == CONTROL_N
        assert ens.n == CONTROL_PARTITION
        assert ens.squared_increments.shape == (CONTROL_N,)
        # started at the origin, pure noise: variance t at t = 1
        assert np.all(ens.positions[0.0] == 0.0)
        assert abs(ens.positions[1.0].var() - 1.0) < 0.05


class TestChunkedScratch:
    """Each partition interval is reduced as soon as it is stepped, whatever
    the block and noise job sizes; the sizes straddle the widest block
    whose n intervals draw their noise in one job, and a block boundary."""

    @pytest.mark.parametrize("n", [1, 64, 512])
    @pytest.mark.parametrize("size", ["one", "rows-1", "rows", "rows+1", "blocks"])
    def test_discrete_action_is_the_one_block_formula(self, control_grid, n, size):
        rows = _JOB_VALUES // n  # the widest block drawn in one job
        N = {"one": 1, "rows-1": rows - 1, "rows": rows,
             "rows+1": rows + 1, "blocks": BLOCK + 37}[size]
        args = ([constant_drift(control_grid, 0.0)], [1.0], None, control_grid,
                N, n, 1, n)
        dq = np.diff(path_matrix(*args), axis=1)
        # n times each trajectory's squared increments, summed left to right
        total = np.zeros(N)
        for column in dq.T:
            total += column * column
        expected = MCEstimate.of_samples(n * total)
        got = discrete_action(mixture_ensemble(*args))
        assert np.array_equal(np.array([got.mean, got.std_error]).view(np.int64),
                              np.array([expected.mean, expected.std_error]
                                       ).view(np.int64))
        # einsum sums each row in an order of its own
        np.testing.assert_allclose(n * total, n * np.einsum("ij,ij->i", dq, dq),
                                   rtol=1e-13, atol=0.0)


def peak_bytes(call) -> int:
    """Peak traced allocation while ``call`` runs; numpy reports its
    buffers to tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestScratchMemory:
    """An ensemble holds under 16 values per trajectory, and the stepping
    and the estimators each add under 1 MiB to it, whatever n is: no
    buffer spans the partition nodes, and nothing is O(N n)."""

    N = 2 * BLOCK + 3

    @pytest.fixture(scope="class", params=[64, 512], ids=["n64", "n512"])
    def case(self, request):
        n = request.param
        grid = GridSpec(-12.0, 12.0, 512, 64)
        # not constant, so the stepping looks it up and records its sums
        b = DriftField(grid, np.broadcast_to(1.0 + 1e-3 * grid.x,
                                             (grid.n_t + 1, grid.n_x)))
        rho = ScalarField(grid, np.full((grid.n_t + 1, grid.n_x), 1.0 / 24.0))
        # a first small run imports numpy.random and caches the drift's
        # per-row flags, once per process, before any peak is measured
        simulate_ensemble(b, None, grid, 10, n, 1, 3)
        return n, grid, b, rho

    @pytest.mark.parametrize("kind", ["simulate_ensemble", "mixture_ensemble"])
    def test_stepping_holds_no_block_buffer(self, case, kind):
        n, grid, b, _ = case
        drifts = {"simulate_ensemble": [b],
                  "mixture_ensemble": [b, constant_drift(grid, 0.0)]}[kind]
        weights = np.full(len(drifts), 1.0 / len(drifts))
        peak = peak_bytes(lambda: mixture_ensemble(drifts, weights, None, grid,
                                                   self.N, n, 1, 3))
        assert peak < 16 * self.N * 8 + 2**20

    def test_ensemble_keeps_no_slope_table(self, case):
        # the divergence's reads built its slope table during the stepping
        n, grid, b, _ = case
        ens = simulate_ensemble(b, None, grid, 100, n, 1, 3)
        assert "_slopes" not in vars(ens.divergence)
        assert np.array_equal(ens.divergence.values, b.divergence().values)

    @pytest.mark.parametrize("estimator", ["renormalized_action", "estimate_I",
                                           "marginal_l1"])
    def test_peak_is_not_a_second_path_matrix(self, case, estimator):
        n, grid, b, rho = case
        ens = simulate_ensemble(b, None, grid, self.N, n, 1, 3)
        div_b = b.divergence()
        calls = {"renormalized_action": lambda: renormalized_action(ens),
                 "estimate_I": lambda: estimate_I(ens, b, div_b),
                 "marginal_l1": lambda: marginal_l1(ens, rho)}
        assert peak_bytes(calls[estimator]) < 16 * self.N * 8 + 2**20
