"""Lattice geometry, differentiation and quadrature.

Oracles: band-limited trigonometric fields that the spectral routines
must reproduce exactly, analytic Gaussians, and scipy quadrature for
the integral checks.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate as scipy_integrate

from madelung_lab import (BoundaryLeak, FieldRefused, GaussianPacketSpec, GridSpec,
                          PerturbationSpec, ScalarField, classical_action, decompose,
                          finite_action_norm, gaussian_packet, make_family,
                          quantum_action, verify_theorem1)
from madelung_lab import grid_fields
from madelung_lab.benamou_brenier import monge_map_1d
from madelung_lab.grid_fields import (BOUNDARY_TOL, edge_leak, ensure_decaying,
                                      fd_dt, fd_dx, row_integrals,
                                      spectral_antiderivative, spectral_dx,
                                      time_integrate)
from madelung_lab.madelung import action_integrand


@pytest.fixture()
def small_grid():
    return GridSpec(-12.0, 12.0, 512, 16)


def normal_density(x):
    return np.exp(-x**2 / 2.0) / np.sqrt(2.0 * np.pi)


class TestGridSpec:
    def test_spacing_and_nodes(self, small_grid):
        g = small_grid
        assert g.dx == 24.0 / 512
        assert g.dt == 1.0 / 16
        assert g.x[0] == -12.0
        # periodic convention: x_max aliases x_min and is excluded
        assert g.x[-1] == pytest.approx(12.0 - g.dx)
        assert g.t[0] == 0.0 and g.t[-1] == 1.0
        assert len(g.x) == 512 and len(g.t) == 17

    def test_wavenumbers_match_fftfreq(self, small_grid):
        k = small_grid.wavenumbers
        assert k[0] == 0.0
        assert k[1] == pytest.approx(2.0 * np.pi / 24.0)

    @pytest.mark.parametrize("kwargs", [
        dict(x_min=1.0, x_max=1.0, n_x=64, n_t=4),
        dict(x_min=-1.0, x_max=1.0, n_x=500, n_t=4),
        dict(x_min=-1.0, x_max=1.0, n_x=4, n_t=4),
        dict(x_min=-1.0, x_max=1.0, n_x=64, n_t=1),
        dict(x_min=1.0, x_max=-1.0, n_x=64, n_t=4),
    ])
    def test_rejects_bad_geometry(self, kwargs):
        with pytest.raises(ValueError):
            GridSpec(**kwargs)

    def test_coarsen_halves_both_directions(self, small_grid):
        c = small_grid.coarsen()
        assert (c.n_x, c.n_t) == (256, 8)
        assert np.array_equal(c.x, small_grid.x[::2])
        assert np.array_equal(c.t, small_grid.t[::2])

    def test_coarsen_refuses_tiny_grid(self):
        with pytest.raises(ValueError):
            GridSpec(-1.0, 1.0, 8, 4).coarsen()


class TestFields:
    def test_scalar_shape_checked(self, small_grid):
        with pytest.raises(ValueError):
            ScalarField(small_grid, np.zeros((3, 512)))

    def test_scalar_rejects_nan(self, small_grid):
        vals = np.zeros((17, 512))
        vals[0, 0] = np.nan
        with pytest.raises(ValueError):
            ScalarField(small_grid, vals)


# A grid whose nodes are exact binary fractions, one with awkward
# spacing, and the smallest allowed width; four time steps each.
LOOKUP_GRIDS = [GridSpec(-12.0, 12.0, 512, 4), GridSpec(-3.7, 5.1, 1024, 4),
                GridSpec(0.1, 0.3, 8, 4)]
# t in units of dt = 1/4: between nodes 2 and 3, on node 1 (which holds
# only -0.0 entries), and t = 1.
LOOKUP_TIMES = [2.5, 1.0, 4.0]


def bits(values: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


class TestLookup:
    """ScalarField.at reproduces np.interp on the time node bit for bit."""

    @staticmethod
    def field(grid: GridSpec) -> ScalarField:
        rng = np.random.default_rng(grid.n_x)
        values = rng.normal(size=(grid.n_t + 1, grid.n_x))
        values[:, ::5] = -0.0
        values[:, 3::7] = 0.0
        values[1] = -0.0
        return ScalarField(grid, values)

    def assert_matches_interp(self, grid, positions, steps):
        f = self.field(grid)
        given = positions.copy()
        got = f.at(positions, steps / grid.n_t)
        expected = np.interp(positions, grid.x, f.values[int(steps)])
        assert np.array_equal(bits(got), bits(expected))
        assert np.array_equal(bits(positions), bits(given))

    @pytest.mark.parametrize("steps", LOOKUP_TIMES, ids=["between", "on-node", "t=1"])
    @pytest.mark.parametrize("count", [1, 1024, 8192])
    @pytest.mark.parametrize("grid", LOOKUP_GRIDS, ids=lambda g: f"n_x={g.n_x}")
    def test_random_positions_inside_and_beyond_the_box(self, grid, count, steps):
        width = grid.x_max - grid.x_min
        rng = np.random.default_rng(count)
        positions = rng.uniform(grid.x_min - 0.5 * width, grid.x_max + 0.5 * width,
                                count)
        self.assert_matches_interp(grid, positions, steps)

    @pytest.mark.parametrize("steps", LOOKUP_TIMES, ids=["between", "on-node", "t=1"])
    @pytest.mark.parametrize("grid", LOOKUP_GRIDS, ids=lambda g: f"n_x={g.n_x}")
    def test_nodes_their_neighbours_and_the_edges(self, grid, steps):
        positions = np.concatenate([
            grid.x, np.nextafter(grid.x, -np.inf), np.nextafter(grid.x, np.inf),
            [grid.x_min, grid.x[-1], grid.x_max, -30.0, 30.0]])
        self.assert_matches_interp(grid, positions, steps)

    @pytest.mark.parametrize("row", ["single-negative-zero", "slope-overflow"])
    def test_rows_whose_nodes_need_the_entry_itself(self, row):
        # on a node slope * 0 + value is the value, except for a -0.0 entry
        # whose slope is not negative (it reads +0.0) and beside a slope
        # that overflows (it reads NaN); only the row holding one copies
        # the entries onto its nodes, and the other rows must not need it
        grid = LOOKUP_GRIDS[0]
        values = np.random.default_rng(5).uniform(0.5, 1.5, (grid.n_t + 1, grid.n_x))
        if row == "single-negative-zero":
            values[2, 100] = -0.0
        else:
            values[2, 100], values[2, 101] = -1e308, 1e308
        f = ScalarField(grid, values)
        positions = np.concatenate([grid.x, np.nextafter(grid.x, np.inf),
                                    np.nextafter(grid.x, -np.inf)])
        with np.errstate(over="ignore", invalid="ignore"):
            for node in range(grid.n_t + 1):
                got = f.at(positions, node / grid.n_t)
                expected = np.interp(positions, grid.x, values[node])
                assert np.array_equal(bits(got), bits(expected)), node

    def test_read_takes_the_prebuilt_slope_table(self):
        # the field builds its slopes once; read takes the node's row of
        # that table, so a substituted table moves every value off a node
        grid = LOOKUP_GRIDS[0]
        f = self.field(grid)
        table = np.arange(grid.n_t + 1.0)[:, None] * np.ones(grid.n_x - 1)
        object.__setattr__(f, "_slopes", table)
        positions = grid.x[:-1] + 0.5 * grid.dx
        j, offset = grid.locate(positions)
        got = f.at(positions, 2.5 / grid.n_t)
        expected = table[2].take(j) * offset + f.values[2].take(j)
        assert np.array_equal(bits(got), bits(expected))

    def test_time_before_the_first_node_is_refused(self):
        # row k holds k: a negative node would read a row near t = 1
        grid = GridSpec(-12.0, 12.0, 64, 16)
        f = ScalarField(grid, np.arange(grid.n_t + 1.0)[:, None] * np.ones(grid.n_x))
        positions = np.array([0.0, 1.0])
        assert np.array_equal(f.at(positions, -1e-12), [0.0, 0.0])
        assert np.array_equal(f.at(positions, 1.5), [16.0, 16.0])
        object.__setattr__(f, "values", None)  # no row may be read
        for t in (-0.1, -0.5, -1.0):
            with pytest.raises(ValueError, match=f"t = {t} lies before"):
                f.at(positions, t)


def complex_spectral_dx(values, grid):
    """The full complex-FFT derivative, Nyquist mode zeroed: the oracle
    for the real-input transform of ``spectral_dx``."""
    vhat = np.fft.fft(values, axis=-1)
    vhat *= 1j * grid.wavenumbers
    vhat[..., grid.n_x // 2] = 0.0
    return np.real(np.fft.ifft(vhat, axis=-1))


def gaussian_rows(grid):
    return np.exp(-grid.x**2 / 2.0) * np.ones((grid.n_t + 1, 1))


def bump_rows(grid, y):
    """log(1 + y g / rho) of the seed-1000 family around the default
    packet: the field ``CompetitorFamily.member_rows`` differentiates."""
    base = decompose(gaussian_packet(GaussianPacketSpec(), grid))[2]
    g = make_family(base, PerturbationSpec(seed=1000)).g.values
    return np.log1p(np.where(np.abs(g) > 0.0, y * g / base.rho.values, 0.0))


class TestSpectralDx:
    # Both routes round at eps of a slice's spectrum, and the derivative
    # multiplies the top modes by k_max = pi / dx, so they may differ by
    # about eps * k_max * peak|f| (1.5e-14 of the peak on these grids).
    @pytest.mark.parametrize("field", [
        gaussian_rows,
        lambda grid: bump_rows(grid, -1.0),
        lambda grid: bump_rows(grid, 1.0),
    ], ids=["gaussian", "bump-y=-1", "bump-y=1"])
    @pytest.mark.parametrize("n_t", [16, 256], ids=["small", "512x256"])
    def test_matches_the_complex_transform(self, field, n_t):
        grid = GridSpec(-12.0, 12.0, 512, n_t)
        values = field(grid)
        got = spectral_dx(values, grid)
        want = complex_spectral_dx(values, grid)
        peak = np.abs(values).max(axis=-1, keepdims=True)
        assert peak.max() > 0.0
        k_max = np.pi / grid.dx
        assert np.all(np.abs(got - want) <= np.finfo(float).eps * k_max * peak)

    def test_nyquist_cosine_maps_to_exactly_zero(self, small_grid, monkeypatch):
        # (-1)^j lives in the Nyquist bin alone; it cannot pass the decay
        # gate, so the gate is lifted to reach the transform
        monkeypatch.setattr(grid_fields, "ensure_decaying", lambda *args: None)
        nyquist = np.cos(np.pi * np.arange(small_grid.n_x)) * np.ones((3, 1))
        assert np.all(spectral_dx(nyquist, small_grid) == 0.0)

    def test_gaussian_derivative_matches_analytic(self, small_grid):
        x = small_grid.x
        f = np.exp(-x**2 / 2.0)
        expected = -x * f
        got = spectral_dx(f[np.newaxis, :], small_grid)[0]
        assert np.max(np.abs(got - expected)) < 1e-8

    def test_decaying_wave_packet_derivative(self, small_grid):
        x = small_grid.x
        k = 2.0 * np.pi * 5 / 24.0
        f = np.sin(k * x) * np.exp(-x**2 / 4.0)
        expected = k * np.cos(k * x) * np.exp(-x**2 / 4.0) - x / 2.0 * f
        got = spectral_dx(f[np.newaxis, :], small_grid)[0]
        assert np.max(np.abs(got - expected)) < 1e-9

    def test_constant_maps_to_zero(self, small_grid):
        # constants pass the decay gate only if zero; the zero field
        # must map to exactly zero
        got = spectral_dx(np.zeros((1, 512)), small_grid)
        assert np.all(got == 0.0)

    def test_linearity(self, small_grid):
        x = small_grid.x
        f = np.exp(-x**2 / 2.0)
        g = np.exp(-(x - 1.0)**2 / 3.0)
        lhs = spectral_dx((2.0 * f + 3.0 * g)[np.newaxis, :], small_grid)
        rhs = 2.0 * spectral_dx(f[np.newaxis, :], small_grid) \
            + 3.0 * spectral_dx(g[np.newaxis, :], small_grid)
        assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_boundary_leak_raises(self, small_grid):
        f = np.cosh(small_grid.x / 6.0)
        with pytest.raises(BoundaryLeak):
            spectral_dx(f[np.newaxis, :], small_grid)


class TestFiniteDifferences:
    def test_fd_dx_exact_on_quadratics(self, small_grid):
        x = small_grid.x
        f = 3.0 * x**2 - 2.0 * x + 1.0
        got = fd_dx(f[np.newaxis, :], small_grid)[0]
        assert np.max(np.abs(got - (6.0 * x - 2.0))) < 1e-10

    def test_fd_dt_exact_on_quadratics(self, small_grid):
        t = small_grid.t
        series = (t**2 - t)[:, np.newaxis] * np.ones((1, 512))
        got = fd_dt(series, small_grid)
        expected = (2.0 * t - 1.0)[:, np.newaxis]
        assert np.max(np.abs(got - expected)) < 1e-12



class TestIntegration:
    def test_normal_density_integrates_to_one(self, small_grid):
        # scipy oracle: quad of the same density over the box
        oracle, _ = scipy_integrate.quad(normal_density, -12.0, 12.0)
        got = float(row_integrals(normal_density(small_grid.x), small_grid, "integrand"))
        assert abs(got - 1.0) < 1e-9
        assert abs(got - oracle) < 1e-9

    def test_odd_integrand_vanishes(self, small_grid):
        f = small_grid.x * normal_density(small_grid.x)
        assert abs(float(row_integrals(f, small_grid, "integrand"))) < 1e-12

    def test_second_moment(self, small_grid):
        f = small_grid.x**2 * normal_density(small_grid.x)
        assert abs(float(row_integrals(f, small_grid, "integrand")) - 1.0) < 1e-9

    def test_refinement_converges(self):
        # doubling n_x changes the rectangle integral of a decaying
        # smooth density at rounding level only (spectral accuracy)
        coarse = GridSpec(-12.0, 12.0, 256, 4)
        fine = GridSpec(-12.0, 12.0, 512, 4)
        a = float(row_integrals(normal_density(coarse.x), coarse, "integrand"))
        b = float(row_integrals(normal_density(fine.x), fine, "integrand"))
        assert abs(a - b) < 1e-12

    def test_time_integrate_trapezoid_error_on_quadratic(self, small_grid):
        # trapezoid on t^2 has the exact error dt^2/6
        series = small_grid.t**2
        expected = 1.0 / 3.0 + small_grid.dt**2 / 6.0
        assert time_integrate(series, small_grid) == pytest.approx(expected, abs=1e-15)

    def test_time_integrate_shape_mismatch(self, small_grid):
        with pytest.raises(ValueError):
            time_integrate(np.ones(5), small_grid)


class TestRowIntegralsBitForBit:
    """``row_integrals`` scales the decay guard's row sums by dx; that is
    the rectangle rule ``grid.dx * values.sum(axis=-1)`` bit for bit, on
    every kind of array the lab integrates."""

    @staticmethod
    def assert_rectangle_rule(values, grid):
        got = row_integrals(values, grid, "integrand")
        want = grid.dx * values.sum(axis=-1)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_one_slice_second_moment(self, grid, packet_couple):
        self.assert_rectangle_rule(grid.x**2 * packet_couple.rho.values[-1], grid)

    def test_one_slice_transport_cost(self, grid):
        rho0 = normal_density(grid.x)
        rho1 = normal_density((grid.x - 1.0) / 1.3) / 1.3
        plan = monge_map_1d(rho0, rho1, grid)
        self.assert_rectangle_rule((plan.map_samples - grid.x) ** 2 * rho0, grid)

    def test_block_of_rows(self, grid, packet_couple):
        fields = (packet_couple.rho, packet_couple.v, packet_couple.log_density_gradient)
        block = action_integrand(*(f.values[40:90] for f in fields), -1.0)
        self.assert_rectangle_rule(block, grid)

    @pytest.mark.parametrize("first_row", [40, 41], ids=["even", "odd"])
    def test_strided_coarse_slice(self, grid, packet_couple, first_row):
        # what an action report integrates on the coarse grid: the even
        # rows of a block from first_row on, every second column
        fields = (packet_couple.rho, packet_couple.v, packet_couple.log_density_gradient)
        block = action_integrand(*(f.values[first_row:first_row + 51] for f in fields),
                                 -1.0)
        coarse = block[first_row % 2::2, ::2]
        assert not coarse.flags.c_contiguous
        self.assert_rectangle_rule(coarse, grid.coarsen())


class TestAntiderivative:
    def test_roundtrip_of_derivative(self, small_grid):
        x = small_grid.x
        f = np.exp(-x**2 / 2.0)
        df = spectral_dx(f[np.newaxis, :], small_grid)
        prim = spectral_antiderivative(df, small_grid)[0]
        # primitive anchored at x_min; f(x_min) is ~1e-32 here
        assert np.max(np.abs(prim - (f - f[0]))) < 1e-10

    def test_gradient_of_antiderivative(self, small_grid):
        x = small_grid.x
        # mass-zero input, the intended use
        f = -x * np.exp(-x**2 / 2.0)
        prim = spectral_antiderivative(f[np.newaxis, :], small_grid)
        back = spectral_dx(prim, small_grid)[0]
        assert np.max(np.abs(back - f)) < 1e-10

    def test_anchored_at_x_min(self, small_grid):
        f = -small_grid.x * np.exp(-small_grid.x**2 / 2.0)
        prim = spectral_antiderivative(f[np.newaxis, :], small_grid)[0]
        assert prim[0] == 0.0


class TestEdgeLeak:
    def test_zero_slice_contributes_zero(self, small_grid):
        assert edge_leak(np.zeros((3, 512)), small_grid) == 0.0

    def test_relative_to_slice_peak(self, small_grid):
        vals = np.zeros((2, 512))
        vals[0] = normal_density(small_grid.x)
        vals[1, 256] = 1.0
        vals[1, 0] = 0.5
        assert edge_leak(vals, small_grid) == pytest.approx(0.5)

    @staticmethod
    def abs_edge_leak(values, grid):
        # the formula that took |values| of the whole array first
        flat = np.abs(np.asarray(values, dtype=float)).reshape(-1, grid.n_x)
        peak = flat.max(axis=1)
        edge = np.maximum(flat[:, 0], flat[:, -1])
        safe = np.where(peak > 0.0, peak, 1.0)
        return float(np.max(np.where(peak > 0.0, edge / safe, 0.0)))

    @pytest.mark.parametrize("case", ["mixed-signs", "negative-zero-rows",
                                      "one-dimensional", "three-dimensional"])
    def test_equals_the_abs_formula_bit_for_bit(self, case, small_grid):
        rng = np.random.default_rng(7)
        mixed = rng.standard_normal((5, 512)) * np.exp(-small_grid.x**2 / 8.0)
        mixed[1] = -mixed[1]  # a row whose peak |value| is its minimum
        mixed[2, 0], mixed[2, -1] = -0.3, 0.2
        mixed[3, 0], mixed[3, -1] = 0.1, -0.4
        values = {
            "mixed-signs": mixed,
            "negative-zero-rows": np.vstack([np.full((2, 512), -0.0), np.zeros((1, 512)),
                                             mixed[2:3]]),
            "one-dimensional": mixed[3],
            "three-dimensional": mixed[:4].reshape(2, 2, 512),
        }[case]
        # the whole array, and each slice on its own so no slice hides
        # behind another's larger leak
        for part in [values, *np.reshape(values, (-1, 1, 512))]:
            got = edge_leak(part, small_grid)
            want = self.abs_edge_leak(part, small_grid)
            assert np.array([got]).tobytes() == np.array([want]).tobytes()
        assert edge_leak(values, small_grid) > 0.0

    def test_all_negative_zero_is_zero(self, small_grid):
        assert edge_leak(np.full((3, 512), -0.0), small_grid) == 0.0

    def test_empty_input_is_zero(self, small_grid):
        # the abs formula has no identity for the max of nothing
        empty = np.zeros((0, 512))
        assert edge_leak(empty, small_grid) == 0.0
        assert edge_leak(np.zeros(0), small_grid) == 0.0
        with pytest.raises(ValueError):
            self.abs_edge_leak(empty, small_grid)

    def test_boundary_leak_message_is_unchanged(self, small_grid):
        vals = np.zeros((2, 512))
        vals[1, 256], vals[1, 0] = -2.0, 0.5
        with pytest.raises(BoundaryLeak) as caught:
            spectral_dx(vals, small_grid, "probe field")
        assert str(caught.value) == ("probe field has relative boundary magnitude "
                                     "2.500e-01, above the tolerance 1.0e-12")


# eight nodes: the edges 0 and 7 around the probes 3, 4 and 5
GUARD_GRID = GridSpec(-1.0, 1.0, 8, 2)
PROBES = grid_fields.guard_columns(GUARD_GRID)[1:-1]
SPECIAL = (0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, -1e300)


@st.composite
def guard_rows(draw) -> np.ndarray:
    """One row of GUARD_GRID: arbitrary doubles, zeros, or random entries
    whose edges sit at chosen multiples of the largest probe, maybe with
    the peak on a probe, the probes zero or a special entry anywhere."""
    n_x = GUARD_GRID.n_x
    kind = draw(st.sampled_from(["any", "zero", "probed", "zero-probes"]))
    if kind == "any":
        entry = st.one_of(st.floats(), st.sampled_from(SPECIAL))
        return np.array(draw(st.lists(entry, min_size=n_x, max_size=n_x)))
    if kind == "zero":
        return np.array(draw(st.lists(st.sampled_from([0.0, -0.0]),
                                      min_size=n_x, max_size=n_x)))
    scale = draw(st.floats(1e-300, 1e300)) * draw(st.sampled_from([1.0, -1.0]))
    row = scale * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n_x,
                                         max_size=n_x)))
    if kind == "zero-probes":
        row[PROBES] = draw(st.sampled_from([0.0, -0.0]))
    elif draw(st.booleans()):
        row[draw(st.sampled_from(PROBES))] = scale  # a probe holds the peak
    probe = np.abs(row[PROBES]).max()
    for col in (0, n_x - 1):
        factor = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e3, 1e9]))
        edge = factor * (BOUNDARY_TOL * probe)
        row[col] = draw(st.sampled_from([edge, -edge, np.nextafter(edge, np.inf)]))
    if draw(st.booleans()):
        row[draw(st.integers(0, n_x - 1))] = draw(st.sampled_from(SPECIAL))
    return row


@st.composite
def guard_blocks(draw) -> np.ndarray:
    """Blocks of guard rows: none, one as a 1-D array, a 2-D block or a
    3-D stack."""
    rows = draw(st.lists(guard_rows(), max_size=6))
    values = np.array(rows).reshape(len(rows), GUARD_GRID.n_x)
    shape = draw(st.sampled_from(["1-D", "2-D", "3-D"]))
    if shape == "1-D" and len(rows) <= 1:
        return values.reshape(-1)
    if shape == "3-D" and len(rows) % 2 == 0:
        return values.reshape(2, -1, GUARD_GRID.n_x)
    return values


def leak_refusal(what: str, leak: float) -> str:
    return (f"{what} has relative boundary magnitude {leak:.3e}, "
            f"above the tolerance {BOUNDARY_TOL:.1e}")


def nonfinite_refusal(what: str) -> str:
    return f"{what} has a row whose sum is not finite"


def finite_row(row: np.ndarray) -> bool:
    """Every entry is finite and so is the row's own sum."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(row).all() and np.isfinite(row.sum()))


class TestDecayGuard:
    """``ensure_decaying`` refuses a row that is not finite, decides most
    rows from their edge and centre columns and refuses exactly what the
    scan of every row refuses."""

    @given(values=guard_blocks())
    @settings(max_examples=400, deadline=None, database=None)
    def test_refuses_exactly_what_the_scan_refuses(self, values):
        rows = np.reshape(values, (-1, GUARD_GRID.n_x))
        if not all(finite_row(row) for row in rows):
            with pytest.raises(FieldRefused) as caught:
                ensure_decaying(values, GUARD_GRID, "probe")
            assert str(caught.value) == nonfinite_refusal("probe")
            return
        leak = edge_leak(values, GUARD_GRID)
        if leak <= BOUNDARY_TOL:
            sums = ensure_decaying(values, GUARD_GRID, "probe")
            assert sums.tobytes() == np.array([row.sum() for row in rows]).tobytes()
        else:
            with pytest.raises(BoundaryLeak) as caught:
                ensure_decaying(values, GUARD_GRID, "probe")
            assert str(caught.value) == leak_refusal("probe", leak)

    def test_edges_that_round_above_the_tolerance_are_refused(self):
        # 1e-12 * 117 rounds up: over the peak it reads 1.0000000000000002e-12,
        # so the scan refuses the row, though the edges are <= 1e-12 * 117
        row = np.zeros(GUARD_GRID.n_x)
        row[4], row[0], row[-1] = 117.0, BOUNDARY_TOL * 117.0, -BOUNDARY_TOL * 117.0
        assert abs(row[0]) <= BOUNDARY_TOL * row[4]
        assert edge_leak(row, GUARD_GRID) > BOUNDARY_TOL
        with pytest.raises(BoundaryLeak) as caught:
            ensure_decaying(row, GUARD_GRID, "probe")
        assert str(caught.value) == leak_refusal("probe", edge_leak(row, GUARD_GRID))

    @staticmethod
    def assert_refused_as_not_finite(values, grid):
        # by the guard and by the quadrature, with no warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for guarded in (ensure_decaying, row_integrals):
                with pytest.raises(FieldRefused) as caught:
                    guarded(values, grid, "probe")
                assert str(caught.value) == nonfinite_refusal("probe")

    @pytest.mark.parametrize("col", range(1, 15))
    def test_a_nan_inside_a_row_is_refused(self, col):
        grid = GridSpec(-12.0, 12.0, 16, 2)
        values = np.vstack([normal_density(grid.x)] * 2)
        values[1, col] = np.nan
        self.assert_refused_as_not_finite(values, grid)

    @pytest.mark.parametrize("col", [0, -1])
    @pytest.mark.parametrize("edge", [np.inf, -np.inf])
    def test_an_infinite_edge_is_refused_without_a_warning(self, col, edge):
        values = np.vstack([normal_density(GUARD_GRID.x)] * 2)
        values[0, col] = edge
        self.assert_refused_as_not_finite(values, GUARD_GRID)

    @pytest.mark.parametrize("col", [5, 8], ids=["off-the-probes", "probe"])
    @pytest.mark.parametrize("entry", [np.inf, -np.inf])
    def test_an_infinite_entry_off_the_edges_is_refused(self, col, entry):
        # it is its row's peak, so the edges over it leak 0: the scan alone
        # passes the row, and its integral would read inf
        grid = GridSpec(-12.0, 12.0, 16, 2)
        assert (col in grid_fields.guard_columns(grid)) == (col == 8)
        values = np.vstack([normal_density(grid.x)] * 2)
        values[1, col] = entry
        assert edge_leak(values[:1], grid) <= BOUNDARY_TOL
        self.assert_refused_as_not_finite(values, grid)

    def test_a_row_whose_sum_overflows_is_refused(self):
        # finite entries, edges far below the tolerance, a sum past 1.8e308
        grid = GridSpec(-12.0, 12.0, 16, 2)
        values = np.vstack([normal_density(grid.x)] * 2)
        values[1] = 1.5e308 * np.exp(-grid.x**2 / 2.0)
        assert np.isfinite(values).all()
        assert edge_leak(values, grid) <= BOUNDARY_TOL
        self.assert_refused_as_not_finite(values, grid)

    @staticmethod
    def counted_scans(monkeypatch) -> list:
        scans = []
        scan = grid_fields.edge_leak

        def counted(values, grid):
            scans.append(np.shape(values))
            return scan(values, grid)

        monkeypatch.setattr(grid_fields, "edge_leak", counted)
        return scans

    def test_only_the_uncleared_rows_are_scanned(self, monkeypatch, small_grid):
        scans = self.counted_scans(monkeypatch)
        values = np.vstack([normal_density(small_grid.x)] * 4)
        ensure_decaying(values, small_grid, "bells")
        assert scans == []
        values[1:3, grid_fields.guard_columns(small_grid)[1:-1]] = 0.0  # zero probes
        ensure_decaying(values, small_grid, "bells")
        assert scans == [(2, small_grid.n_x)]

    def test_the_packet_pass_makes_no_full_scan(self, monkeypatch):
        # the shipped packet on the 512x256 box: its couple, five families
        # and the couple's three actions never scan a row for its peak
        scans = self.counted_scans(monkeypatch)
        grid = GridSpec(-12.0, 12.0, 512, 256)
        _, _, couple = decompose(gaussian_packet(GaussianPacketSpec(), grid))
        report = verify_theorem1(couple, [PerturbationSpec(seed)
                                          for seed in range(1000, 1005)])
        for action in (quantum_action, classical_action, finite_action_norm):
            action(couple)
        assert report["n_pass"] == 5
        assert scans == []
