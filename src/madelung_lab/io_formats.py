"""Serialization helpers: CSV tables and JSON reports.

CSV tables use one sample per row with a plain header line and repr
exact float formatting, so reading a table back reproduces the values
bit for bit. JSON reports are written with sorted keys so repeated runs of
the same experiment produce byte identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .grid_fields import GridSpec


def table_to_csv(path, header: str, columns) -> None:
    """Rows of the given equal-length columns under a comma separated header."""
    table = np.column_stack(columns)
    np.savetxt(path, table, delimiter=",", header=header, comments="", fmt="%.17g")


def _tx_columns(grid: GridSpec):
    tt = np.repeat(grid.t, grid.n_x)
    xx = np.tile(grid.x, grid.n_t + 1)
    return tt, xx


def couple_to_csv(path, grid: GridSpec, rho_values: np.ndarray,
                  v_values: np.ndarray) -> None:
    """Rows of (t, x, rho, v) for a density and its velocity."""
    tt, xx = _tx_columns(grid)
    table_to_csv(path, "t,x,rho,v", (tt, xx, np.asarray(rho_values).ravel(),
                                     np.asarray(v_values).ravel()))


def transport_to_csv(path, x: np.ndarray, map_samples: np.ndarray,
                     potential: np.ndarray) -> None:
    """Rows of (x, map, potential) for a 1d transport plan."""
    table_to_csv(path, "x,map,potential", (x, map_samples, potential))


def json_ready(obj):
    """Recursively convert numpy scalars and arrays into JSON native types."""
    if isinstance(obj, dict):
        return {str(key): json_ready(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(item) for item in obj]
    if isinstance(obj, np.ndarray):
        return [json_ready(item) for item in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def write_json(path, payload: dict) -> None:
    text = json.dumps(json_ready(payload), indent=2, sort_keys=True)
    Path(path).write_text(text + "\n")
