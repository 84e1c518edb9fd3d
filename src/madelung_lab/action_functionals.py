"""Quadrature evaluation of the kinetic type action functionals.

All four functionals integrate a density weighted expression over the
box and the unit time interval:

    classical      v^2 rho
    quantum        (v^2 - u^2) rho        u = (1/2) d(log rho)/dx
    finite action  (v^2 + u^2) rho
    drift          (b^2 + db/dx) rho      b = v + u

The quantum and drift values agree up to quadrature error: integrating
the divergence term by parts against rho turns b^2 + db/dx into
v^2 - u^2 plus a vanishing boundary term. Tests pin this identity.

Every report carries an error radius: its distance to the same
integrand integrated on every second node in both directions. The
drift action retakes div b on that coarse grid. Cheap, and honest as
long as the integrand is resolved.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .grid_fields import GridSpec, ScalarField, space_time_integral
from .madelung import DriftField, FluidCouple


@dataclass(frozen=True)
class ActionReport:
    value: float
    error_radius: float
    kind: str
    grid: dict

    def __post_init__(self) -> None:
        if self.error_radius < 0.0:
            raise ValueError("error_radius must be nonnegative")

    def as_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value,
                "error_radius": self.error_radius, "grid": dict(self.grid)}


def _report(kind: str, grid: GridSpec, fine: np.ndarray, coarse: np.ndarray,
            what: str) -> ActionReport:
    """Integral of ``fine`` on ``grid``; the radius is its distance to the
    integral of ``coarse`` on ``grid.coarsen()``."""
    value = space_time_integral(fine, grid, what)
    half = space_time_integral(coarse, grid.coarsen(), what)
    return ActionReport(value, abs(value - half), kind, asdict(grid))


def _couple_report(couple: FluidCouple, fisher_weight: float, kind: str) -> ActionReport:
    kernel = couple.v.values**2
    if fisher_weight != 0.0:
        u = 0.5 * couple.log_density_gradient.values
        kernel += fisher_weight * u**2
    integrand = kernel * couple.rho.values
    return _report(kind, couple.rho.grid, integrand, integrand[::2, ::2],
                   "action integrand")


def quantum_action(couple: FluidCouple) -> ActionReport:
    """Kinetic action minus the Fisher information term."""
    return _couple_report(couple, -1.0, "quantum")


def classical_action(couple: FluidCouple) -> ActionReport:
    """Pure kinetic action of the velocity field."""
    return _couple_report(couple, 0.0, "classical")


def finite_action_norm(couple: FluidCouple) -> ActionReport:
    """Kinetic plus osmotic action; finiteness is the admissibility bar."""
    return _couple_report(couple, 1.0, "finite-action")


def _drift_integrand(b: DriftField, rho: np.ndarray) -> np.ndarray:
    return (b.values**2 + b.divergence().values) * rho


def drift_action(b: DriftField, rho: ScalarField) -> ActionReport:
    """Expected b^2 + div b against the marginal density.

    When rho is the time marginal of the diffusion driven by b, this is
    the deterministic version of the path space drift functional and
    equals the quantum action of the underlying couple.
    """
    if b.grid != rho.grid:
        raise ValueError("drift and density live on different grids")
    coarse = DriftField(rho.grid.coarsen(), b.values[::2, ::2])
    return _report("drift", rho.grid, _drift_integrand(b, rho.values),
                   _drift_integrand(coarse, rho.values[::2, ::2]),
                   "drift action integrand")
