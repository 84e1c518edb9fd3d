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
long as the integrand is resolved. A report is the trapezoid in time of
a couple's row integrals (``row_series``); ``spliced_report`` puts a
block's rows in place of theirs: a competitor member is integrated on
its hull rows. Each integrand is formed once, for its one Fisher weight
(``action_integrand``), and its row integrals are the decay guard's row
sums times dx (``row_integrals``), so a row that is not finite or does
not decay is refused, never integrated.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .grid_fields import GridSpec, ScalarField, row_integrals, time_integrate
from .madelung import DriftField, FluidCouple, action_integrand


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


def series_report(kind: str, grid: GridSpec, fine: np.ndarray,
                  coarse: np.ndarray) -> ActionReport:
    """Trapezoid of the row integrals ``fine`` on ``grid``; the radius is its
    distance to the trapezoid of ``coarse`` on ``grid.coarsen()``."""
    value = time_integrate(fine, grid)
    half = time_integrate(coarse, grid.coarsen())
    return ActionReport(value, abs(value - half), kind, asdict(grid))


def _action_rows(integrand: np.ndarray, grid: GridSpec,
                 first_row: int) -> tuple[np.ndarray, np.ndarray]:
    """Row integrals of an action integrand on rows from ``first_row`` on,
    and on the coarse grid's among them (even rows, every second column)."""
    return (row_integrals(integrand, grid, "action integrand"),
            row_integrals(integrand[first_row % 2::2, ::2], grid.coarsen(),
                          "action integrand"))


def row_series(couple: FluidCouple, fisher_weight: float) -> tuple[np.ndarray, np.ndarray]:
    """(fine, coarse) row integrals of the couple's action integrand of
    ``fisher_weight``: -1 quantum, 0 classical, +1 finite action."""
    integrand = action_integrand(couple.rho.values, couple.v.values,
                                 couple.log_density_gradient.values, fisher_weight)
    return _action_rows(integrand, couple.rho.grid, 0)


def spliced_report(kind: str, grid: GridSpec, series: tuple[np.ndarray, np.ndarray],
                   block: np.ndarray, first_row: int) -> ActionReport:
    """The report of the row ``series`` with the rows of an integrand
    ``block``, from ``first_row`` on, in place of its own: those of even
    index replace the coarse series' rows."""
    stop = first_row + len(block)
    fine, coarse = (values.copy() for values in series)
    fine[first_row:stop], coarse[(first_row + 1) // 2:(stop + 1) // 2] = _action_rows(
        block, grid, first_row)
    return series_report(kind, grid, fine, coarse)


def quantum_action(couple: FluidCouple) -> ActionReport:
    """Kinetic action minus the Fisher information term."""
    return series_report("quantum", couple.rho.grid, *row_series(couple, -1.0))


def classical_action(couple: FluidCouple) -> ActionReport:
    """Pure kinetic action of the velocity field."""
    return series_report("classical", couple.rho.grid, *row_series(couple, 0.0))


def finite_action_norm(couple: FluidCouple) -> ActionReport:
    """Kinetic plus osmotic action; finiteness is the admissibility bar."""
    return series_report("finite-action", couple.rho.grid, *row_series(couple, 1.0))


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
    what = "drift action integrand"
    return series_report(
        "drift", rho.grid, row_integrals(_drift_integrand(b, rho.values), rho.grid, what),
        row_integrals(_drift_integrand(coarse, rho.values[::2, ::2]), coarse.grid, what))
