"""Action values against closed forms and the dual evaluation routes.

Closed forms for a free Gaussian packet with initial width sigma0 and
momentum p (unit mass and Planck scale), derived by hand and confirmed
against scipy.integrate.dblquad to 1e-13:

    kinetic + Fisher split with a = 2 sigma0^2,
    quantum   = p^2 + (1 - 2 a arctan(1/a)) / (4 sigma0^2)
    classical = p^2 + (1 - a arctan(1/a)) / (4 sigma0^2)

The two frozen grid values pin the quadrature pipeline itself.
"""

import numpy as np
import pytest

from madelung_lab import (ActionReport, BoundaryLeak, DriftField, FluidCouple,
                          GaussianPacketSpec, GridSpec, PerturbationSpec,
                          ScalarField, classical_action, decompose,
                          displacement_couple, drift, drift_action,
                          finite_action_norm, gaussian_packet, make_family,
                          packet_classical_action, packet_quantum_action,
                          quantum_action, spreading_mismatched_couple)
from madelung_lab.benamou_brenier import packet_endpoint_measures

from controls import full_lattice_member, plateau_couple, translating_gaussian_couple

QUANTUM_CLOSED = 0.25 - np.arctan(0.5)                # default packet
QUANTUM_GRID_512x256 = -0.21364740555021075           # frozen
CLASSICAL_GRID_512x256 = 0.01817629722489461          # frozen

# second packet, sigma0 = 0.8 and p = -0.5, dblquad-confirmed closed forms
QUANTUM_CLOSED_08 = -0.022577992706093286
CLASSICAL_CLOSED_08 = 0.3090235036469533


def closed_forms(sigma0, p):
    a = 2.0 * sigma0**2
    quantum = p**2 + (1.0 - 2.0 * a * np.arctan(1.0 / a)) / (4.0 * sigma0**2)
    classical = p**2 + (1.0 - a * np.arctan(1.0 / a)) / (4.0 * sigma0**2)
    return quantum, classical


class TestClosedForms:
    def test_package_closed_forms_match_derivation(self):
        q, c = closed_forms(1.0, 0.0)
        assert packet_quantum_action(GaussianPacketSpec()) == pytest.approx(q, abs=1e-15)
        assert packet_classical_action(GaussianPacketSpec()) == pytest.approx(c, abs=1e-15)
        q8, c8 = closed_forms(0.8, -0.5)
        assert q8 == pytest.approx(QUANTUM_CLOSED_08, abs=1e-15)
        assert c8 == pytest.approx(CLASSICAL_CLOSED_08, abs=1e-15)

    def test_default_packet_grid_vs_closed_form(self, packet_couple):
        q = quantum_action(packet_couple)
        c = classical_action(packet_couple)
        assert abs(q.value - QUANTUM_CLOSED) < 1e-5
        assert abs(c.value - packet_classical_action(GaussianPacketSpec())) < 1e-5
        # quadrature pipeline pinned exactly
        assert q.value == pytest.approx(QUANTUM_GRID_512x256, rel=1e-12)
        assert c.value == pytest.approx(CLASSICAL_GRID_512x256, rel=1e-12)
        assert abs(q.value - QUANTUM_CLOSED) < 3.0 * q.error_radius + 1e-7
        # kinetic plus osmotic action of the default packet: 1/4 on this lattice
        assert finite_action_norm(packet_couple).value == pytest.approx(0.25, abs=1e-12)

    def test_second_packet_grid_vs_closed_form(self, grid):
        spec = GaussianPacketSpec(sigma0=0.8, p=-0.5)
        couple = decompose(gaussian_packet(spec, grid))[2]
        assert abs(quantum_action(couple).value - QUANTUM_CLOSED_08) < 1e-5
        assert abs(classical_action(couple).value - CLASSICAL_CLOSED_08) < 1e-5

    def test_static_gaussian_value(self, grid):
        # v = 0: the quantum action is minus the Fisher term, -1/(4 var)
        couple = translating_gaussian_couple(grid, 0.0, variance=2.0)
        assert quantum_action(couple).value == pytest.approx(-0.125, abs=1e-12)

    def test_translating_gaussian_values(self, grid):
        couple = translating_gaussian_couple(grid, speed=2.0, variance=1.0)
        assert quantum_action(couple).value == pytest.approx(3.75, abs=1e-10)
        assert classical_action(couple).value == pytest.approx(4.0, abs=1e-10)
        assert finite_action_norm(couple).value == pytest.approx(4.25, abs=1e-10)

    def test_translation_invariance(self, grid, packet_couple):
        shifted = decompose(gaussian_packet(
            GaussianPacketSpec(mu0=1.5), grid))[2]
        q0 = quantum_action(packet_couple).value
        q1 = quantum_action(shifted).value
        assert abs(q0 - q1) < 1e-8


@pytest.fixture(scope="module")
def couples(grid, packet_spec, packet_couple):
    return {
        "packet": packet_couple,
        "static-1": translating_gaussian_couple(grid, 0.0),
        "static-2": translating_gaussian_couple(grid, 0.0, variance=2.0),
        "translating-2-1": translating_gaussian_couple(grid, 2.0, 1.0),
        "translating-n1-15": translating_gaussian_couple(grid, -1.0, 1.5),
        "mismatched": spreading_mismatched_couple(packet_spec, grid),
    }


class TestActionIdentities:
    def test_sum_rule(self, couples, grid):
        # algebraic identity: action norm + quantum = 2 classical,
        # regardless of whether the couple solves anything
        for name, couple in couples.items():
            f = finite_action_norm(couple).value
            q = quantum_action(couple).value
            c = classical_action(couple).value
            assert abs(f + q - 2.0 * c) < 1e-8, name
        pl = plateau_couple(grid, speed=1.0)
        f, q, c = (fn(pl).value for fn in
                   (finite_action_norm, quantum_action, classical_action))
        assert abs(f + q - 2.0 * c) < 1e-8

    def test_quantum_below_classical(self, couples):
        # the gap is the Fisher term, nonnegative for every couple
        for name, couple in couples.items():
            gap = classical_action(couple).value - quantum_action(couple).value
            assert gap >= -1e-14, name

    def test_fisher_gap_of_packet(self, packet_couple):
        gap = classical_action(packet_couple).value \
            - quantum_action(packet_couple).value
        # closed form of the gap: a arctan(1/a) / (4 sigma0^2), here
        # arctan(1/2) / 2
        assert gap == pytest.approx(
            CLASSICAL_GRID_512x256 - QUANTUM_GRID_512x256, rel=1e-12)
        assert gap == pytest.approx(0.5 * np.arctan(0.5), abs=1e-5)

    def test_drift_route_agrees_with_couple_route(self, couples):
        # the quantum action evaluated through (rho, v, u) and through
        # the drift functional b^2 + div b must coincide
        for name, couple in couples.items():
            q = quantum_action(couple)
            i_drift = drift_action(drift(couple), couple.rho)
            assert abs(q.value - i_drift.value) < 2e-6, name

    def test_drift_route_grid_mismatch(self, grid, packet_couple):
        other = decompose(gaussian_packet(
            GaussianPacketSpec(), GridSpec(-12.0, 12.0, 512, 128)))[2]
        with pytest.raises(ValueError):
            drift_action(drift(other), packet_couple.rho)


def coarse_couple(couple):
    """The couple sampled on every second node, built and validated anew."""
    grid = couple.rho.grid.coarsen()
    return FluidCouple(*(ScalarField(grid, f.values[::2, ::2])
                         for f in (couple.rho, couple.v, couple.log_density_gradient)))


@pytest.fixture(scope="module")
def radius_couples(grid, packet_spec, packet_couple):
    fam = make_family(packet_couple, PerturbationSpec(seed=1000))
    member = full_lattice_member(fam, 0.5)
    geodesic = displacement_couple(*packet_endpoint_measures(packet_spec), grid)
    return {"wave": packet_couple, "competitor": member, "geodesic": geodesic}


class TestErrorRadius:
    # the radius is the distance to the same action of the couple sampled
    # on every second node, bit for bit
    @pytest.mark.parametrize("name", ["wave", "competitor", "geodesic"])
    def test_couple_radius_is_the_coarse_couple_gap(self, radius_couples, name):
        couple = radius_couples[name]
        coarse = coarse_couple(couple)
        for action in (quantum_action, classical_action, finite_action_norm):
            rep = action(couple)
            expected = abs(rep.value - action(coarse).value)
            assert rep.error_radius.hex() == expected.hex(), action.__name__

    @pytest.mark.parametrize("name", ["wave", "competitor", "geodesic"])
    def test_drift_radius_is_the_coarse_drift_gap(self, radius_couples, name):
        # the coarse drift is sampled, its divergence is taken anew there
        couple = radius_couples[name]
        b, rho = drift(couple), couple.rho
        coarse_grid = rho.grid.coarsen()
        coarse = drift_action(DriftField(coarse_grid, b.values[::2, ::2]),
                              ScalarField(coarse_grid, rho.values[::2, ::2]))
        rep = drift_action(b, rho)
        assert rep.error_radius.hex() == abs(rep.value - coarse.value).hex()


class TestActionReport:
    def test_error_radius_from_coarsening(self, packet_couple):
        rep = quantum_action(packet_couple)
        assert rep.kind == "quantum"
        assert 0.0 < rep.error_radius < 1e-5
        assert rep.grid == {"x_min": -12.0, "x_max": 12.0, "n_x": 512, "n_t": 256}

    def test_kinds(self, packet_couple):
        assert classical_action(packet_couple).kind == "classical"
        assert finite_action_norm(packet_couple).kind == "finite-action"
        assert drift_action(drift(packet_couple), packet_couple.rho).kind == "drift"

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            ActionReport(1.0, -0.1, "quantum", {"n_x": 8})

    def test_as_dict(self):
        rep = ActionReport(1.5, 0.25, "classical", {"n_x": 8})
        assert rep.as_dict() == {"kind": "classical", "value": 1.5,
                                 "error_radius": 0.25, "grid": {"n_x": 8}}

    def test_leaking_couple_refused(self, grid):
        # tails of u^2 rho for variance 2.3 no longer fit the box at the
        # default boundary tolerance; the admissibility guard objects
        with pytest.raises(BoundaryLeak):
            translating_gaussian_couple(grid, 0.0, variance=2.3)
