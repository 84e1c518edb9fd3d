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

Every report carries an error radius obtained by re-evaluating on the
grid with half the resolution in both directions and taking the
difference. Cheap, and honest as long as the integrand is resolved.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grid_fields import ScalarField, space_time_integral
from .madelung import DriftField, FluidCouple


@dataclass(frozen=True)
class ActionReport:
    value: float
    error_radius: float
    kind: str
    grid: dict | None = None

    def __post_init__(self) -> None:
        if self.error_radius < 0.0:
            raise ValueError("error_radius must be nonnegative")

    def as_dict(self) -> dict:
        out = {"kind": self.kind, "value": self.value,
               "error_radius": self.error_radius}
        if self.grid is not None:
            out["grid"] = dict(self.grid)
        return out


def _grid_tag(grid) -> dict:
    return {"x_min": grid.x_min, "x_max": grid.x_max,
            "n_x": grid.n_x, "n_t": grid.n_t}


def _coarsen_couple(couple: FluidCouple) -> FluidCouple:
    log_grad = couple.log_density_gradient
    return FluidCouple(couple.rho.coarsen(), couple.v.coarsen(),
                       provenance=couple.provenance,
                       log_density_gradient=None if log_grad is None
                       else log_grad.coarsen())


def _couple_action_value(couple: FluidCouple, fisher_weight: float) -> float:
    kernel = couple.v.values**2
    if fisher_weight != 0.0:
        u = 0.5 * couple.log_gradient_values()
        kernel += fisher_weight * u**2
    return space_time_integral(kernel * couple.rho.values, couple.rho.grid,
                               "action integrand")


def _couple_report(couple: FluidCouple, fisher_weight: float, kind: str) -> ActionReport:
    value = _couple_action_value(couple, fisher_weight)
    half = _couple_action_value(_coarsen_couple(couple), fisher_weight)
    return ActionReport(value, abs(value - half), kind,
                        grid=_grid_tag(couple.rho.grid))


def quantum_action(couple: FluidCouple) -> ActionReport:
    """Kinetic action minus the Fisher information term."""
    return _couple_report(couple, -1.0, "quantum")


def classical_action(couple: FluidCouple) -> ActionReport:
    """Pure kinetic action of the velocity field."""
    return _couple_report(couple, 0.0, "classical")


def finite_action_norm(couple: FluidCouple) -> ActionReport:
    """Kinetic plus osmotic action; finiteness is the admissibility bar."""
    return _couple_report(couple, 1.0, "finite-action")


def _drift_action_value(b: DriftField, rho: ScalarField) -> float:
    integrand = (b.b.values**2 + b.divergence().values) * rho.values
    return space_time_integral(integrand, rho.grid, "drift action integrand")


def drift_action(b: DriftField, rho: ScalarField) -> ActionReport:
    """Expected b^2 + div b against the marginal density.

    When rho is the time marginal of the diffusion driven by b, this is
    the deterministic version of the path space drift functional and
    equals the quantum action of the underlying couple.
    """
    if b.b.grid != rho.grid:
        raise ValueError("drift and density live on different grids")
    value = _drift_action_value(b, rho)
    half = _drift_action_value(DriftField(b.b.coarsen(), name=b.name),
                               rho.coarsen())
    return ActionReport(value, abs(value - half), "drift",
                        grid=_grid_tag(rho.grid))
