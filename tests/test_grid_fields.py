"""Lattice geometry, differentiation and quadrature.

Oracles: band-limited trigonometric fields that the spectral routines
must reproduce exactly, analytic Gaussians, and scipy quadrature for
the integral checks.
"""

import numpy as np
import pytest
from scipy import integrate as scipy_integrate

from madelung_lab import (BoundaryLeak, GaussianPacketSpec, GridSpec,
                          PerturbationSpec, ScalarField, decompose,
                          gaussian_packet, make_family)
from madelung_lab import grid_fields
from madelung_lab.grid_fields import (box_integral, edge_leak, fd_dt, fd_dx,
                                      spectral_antiderivative, spectral_dx,
                                      time_integrate)


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
    packet: the field ``CompetitorFamily.couple`` differentiates."""
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
        got = box_integral(normal_density(small_grid.x), small_grid)
        assert abs(got - 1.0) < 1e-9
        assert abs(got - oracle) < 1e-9

    def test_odd_integrand_vanishes(self, small_grid):
        f = small_grid.x * normal_density(small_grid.x)
        assert abs(box_integral(f, small_grid)) < 1e-12

    def test_second_moment(self, small_grid):
        f = small_grid.x**2 * normal_density(small_grid.x)
        assert abs(box_integral(f, small_grid) - 1.0) < 1e-9

    def test_refinement_converges(self):
        # doubling n_x changes the rectangle integral of a decaying
        # smooth density at rounding level only (spectral accuracy)
        coarse = GridSpec(-12.0, 12.0, 256, 4)
        fine = GridSpec(-12.0, 12.0, 512, 4)
        a = box_integral(normal_density(coarse.x), coarse)
        b = box_integral(normal_density(fine.x), fine)
        assert abs(a - b) < 1e-12

    def test_time_integrate_trapezoid_error_on_quadratic(self, small_grid):
        # trapezoid on t^2 has the exact error dt^2/6
        series = small_grid.t**2
        expected = 1.0 / 3.0 + small_grid.dt**2 / 6.0
        assert time_integrate(series, small_grid) == pytest.approx(expected, abs=1e-15)

    def test_time_integrate_shape_mismatch(self, small_grid):
        with pytest.raises(ValueError):
            time_integrate(np.ones(5), small_grid)


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
