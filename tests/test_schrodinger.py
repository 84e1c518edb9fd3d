"""Free evolution: the spectral stepper against closed forms and an
independent quadrature oracle.

The frozen oracle triple below is the free propagator integral
(2 pi i t)^(-1/2) integral exp(i (x - y)^2 / (2 t)) psi0(y) dy
evaluated by adaptive quadrature (scipy.integrate.quad, abs/rel 1e-13)
at t = 0.5 for the default packet, at three lattice points.
"""

import numpy as np
import pytest

from madelung_lab import (BoundaryLeak, FieldRefused, GaussianPacketSpec, GridSpec,
                          NodeDetected, NormDrift, WaveField, free_propagate,
                          gaussian_packet, packet_density, packet_initial)
from madelung_lab.schrodinger import ensure_wave_density

# (node index on the 512-point default lattice, x, psi(0.5, x))
PROPAGATOR_ORACLE = [
    (256, 0.0, 0.617456860338829 - 0.07601241308392796j),
    (277, 0.984375, 0.49422221901918373 - 0.03241280476648638j),
    (310, 2.53125, 0.13333044702230076 + 0.03467136662026232j),
]


@pytest.fixture(scope="module")
def propagated(packet_spec, grid):
    return free_propagate(packet_initial(packet_spec, grid), grid)


class TestPropagator:
    def test_initial_slice_is_the_input(self, packet_spec, grid, propagated):
        psi0 = packet_initial(packet_spec, grid)
        assert np.array_equal(propagated.values[0], psi0)

    def test_matches_quadrature_oracle(self, grid, propagated):
        half = grid.n_t // 2
        assert grid.t[half] == 0.5
        for node, x, expected in PROPAGATOR_ORACLE:
            assert grid.x[node] == x
            assert abs(propagated.values[half, node] - expected) < 1e-10

    def test_matches_closed_form_everywhere(self, psi, propagated):
        assert np.max(np.abs(propagated.values - psi.values)) < 1e-8

    def test_norm_conserved_at_every_node(self, grid, propagated):
        norms = grid.dx * np.abs(propagated.values) ** 2 @ np.ones(grid.n_x)
        assert np.max(np.abs(norms - 1.0)) < 1e-10

    def test_group_property(self, packet_spec, grid, propagated):
        # restarting from the midpoint reproduces the second half and
        # continues consistently past t = 1
        half = grid.n_t // 2
        again = free_propagate(propagated.values[half], grid)
        overlap = again.values[:half + 1] - propagated.values[half:]
        assert np.max(np.abs(overlap)) < 1e-10
        final_density = np.abs(again.values[-1]) ** 2
        assert np.max(np.abs(final_density
                             - packet_density(packet_spec, grid.x, 1.5))) < 1e-10

    def test_moving_packet_mean_and_variance(self, grid):
        spec = GaussianPacketSpec(sigma0=1.0, p=2.0)
        wave = free_propagate(packet_initial(spec, grid), grid)
        dens = np.abs(wave.values[-1]) ** 2
        mean = grid.dx * np.sum(grid.x * dens)
        var = grid.dx * np.sum((grid.x - mean) ** 2 * dens)
        assert abs(mean - 2.0) < 1e-6
        assert abs(var - 1.25) < 1e-6

    def test_wide_packet_on_wide_box(self):
        # sigma0 = 4 spreads little but needs room; on this box the
        # propagated far tail stays above the node floor (min |psi|^2 is
        # ~5e-26), while a +-48 box of 2048 nodes leaves exact zeros of
        # fft roundoff there, which the floor refuses
        wide = GridSpec(-40.0, 40.0, 1024, 64)
        spec = GaussianPacketSpec(sigma0=4.0, p=2.0)
        closed = gaussian_packet(spec, wide)
        stepped = free_propagate(packet_initial(spec, wide), wide)
        assert np.max(np.abs(closed.values - stepped.values)) < 1e-8

    def test_rejects_unnormalized_input(self, packet_spec, grid):
        with pytest.raises(NormDrift):
            free_propagate(1.01 * packet_initial(packet_spec, grid), grid)

    def test_rejects_misshapen_input(self, packet_spec, grid):
        with pytest.raises(ValueError, match="initial state has shape"):
            free_propagate(packet_initial(packet_spec, grid)[:256], grid)

    def test_rejects_leaking_input(self, grid):
        # renormalized on the box so the norm gate passes and only the
        # edge decay gate can object
        psi0 = packet_initial(GaussianPacketSpec(sigma0=6.0), grid)
        norm = np.sqrt(grid.dx * np.sum(np.abs(psi0) ** 2))
        with pytest.raises(BoundaryLeak):
            free_propagate(psi0 / norm, grid)


class TestGaussianPacket:
    def test_density_matches_closed_form(self, packet_spec, grid, psi):
        x = grid.x[np.newaxis, :]
        t = grid.t[:, np.newaxis]
        expected = packet_density(packet_spec, x, t)
        assert np.max(np.abs(psi.density() - expected)) < 1e-12

    def test_even_in_x_for_resting_packet(self, psi):
        # p = 0: psi(-x, t) = psi(x, t); the lattice pairs node j with
        # node n_x - j (node 0 is its own mirror)
        mirrored = psi.values[:, :0:-1]
        assert np.max(np.abs(psi.values[:, 1:] - mirrored)) < 1e-13

    def test_packet_parameter_validation(self):
        with pytest.raises(ValueError):
            GaussianPacketSpec(sigma0=0.0)
        with pytest.raises(ValueError):
            GaussianPacketSpec(sigma0=-1.0)


class TestWaveField:
    def test_node_floor_guards_exact_zeros(self, grid, psi):
        values = psi.values.copy()
        values[10, 0] = 0.0
        with pytest.raises(NodeDetected):
            WaveField(grid, values)

    def test_shape_mismatch_rejected(self, grid, psi):
        with pytest.raises(ValueError):
            WaveField(grid, psi.values[:, :256])

    def test_non_finite_entry_rejected(self, grid, psi):
        values = psi.values.copy()
        values[3, 100] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            WaveField(grid, values)

    def test_norm_drift_rejected(self, grid, psi):
        values = psi.values.copy()
        values[7] *= 1.01
        with pytest.raises(NormDrift):
            WaveField(grid, values)

    def test_density_is_squared_magnitude(self, psi):
        assert np.allclose(psi.density(), np.abs(psi.values) ** 2,
                           rtol=0.0, atol=0.0)


def closed_density(grid, sigma0=1.0):
    return packet_density(GaussianPacketSpec(sigma0=sigma0), grid.x[np.newaxis, :],
                          grid.t[:, np.newaxis])


def with_entry(density, row, col, value):
    out = density.copy()
    out[row, col] = value
    return out


NON_FINITE = (FieldRefused, "wave density contains non-finite entries")
OFF_BY_HALF = (NormDrift, "wave density's mass on the box is off 1 by 5.000e-01")
NODE = (NodeDetected, "min |psi|^2 = 0.000e+00 is below the node floor 1.0e-60")
LEAK = (BoundaryLeak, "wave density has relative boundary magnitude 4.436e-10, "
                      "above the tolerance 1.0e-12")


class TestWaveDensityRules:
    """``ensure_wave_density`` refuses, in this order, a density that is not
    finite, not normalized, below the node floor or not decaying: each
    case breaks its rule and every later one, and gets the first's type
    and text. A zero in the far tail moves the mass by less than 1e-11."""

    @pytest.mark.parametrize("build, refusal", [
        pytest.param(lambda g: with_entry(closed_density(g), 3, 100, np.nan),
                     NON_FINITE, id="nan"),
        pytest.param(lambda g: with_entry(closed_density(g), 0, 0, -np.inf),
                     NON_FINITE, id="inf-at-the-edge"),
        pytest.param(lambda g: with_entry(1.5 * closed_density(g, 1.8), 9, 1, np.inf),
                     NON_FINITE, id="finite-before-normalized"),
        pytest.param(lambda g: 1.5 * closed_density(g), OFF_BY_HALF, id="mass"),
        pytest.param(lambda g: with_entry(1.5 * closed_density(g, 1.8), 9, 1, 0.0),
                     OFF_BY_HALF, id="normalized-before-floor"),
        pytest.param(lambda g: with_entry(closed_density(g), 9, 1, 0.0), NODE, id="node"),
        pytest.param(lambda g: with_entry(closed_density(g, 1.8), 9, 1, 0.0), NODE,
                     id="floor-before-decaying"),
        pytest.param(lambda g: closed_density(g, 1.8), LEAK, id="leak"),
    ])
    def test_refusal_and_order(self, grid, build, refusal):
        with pytest.raises(refusal[0]) as caught:
            ensure_wave_density(build(grid), grid)
        assert type(caught.value) is refusal[0]
        assert str(caught.value) == refusal[1]

    def test_the_packet_passes(self, grid):
        assert ensure_wave_density(closed_density(grid), grid) is None
