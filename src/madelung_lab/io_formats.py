"""Serialization helpers: CSV tables and JSON reports.

CSV tables use one sample per row with a plain header line and every
value printed with ``%.17g``, which is exact for doubles, so reading a
table back reproduces the values bit for bit. The bytes are those of
``np.savetxt(path, table, delimiter=",", header=header, comments="",
fmt="%.17g")``, written without a Python step per row: one private
writer puts the header line down, then fills each chunk's row template
with a single ``template % values``. ``table_to_csv`` fills a block of
``BLOCK_ROWS`` rows at a time from the flattened block. ``couple_to_csv``
fills one time node at a time: each grid x is formatted once into a
row tail ``",<x>,%.17g,%.17g\\n"``, each node's t once into the row
head, and the node's interleaved (rho, v) values fill the n_x rows.
JSON reports are written with sorted keys so repeated runs of the same
experiment produce byte identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .grid_fields import GridSpec

# Rows formatted by one ``%`` operation in ``table_to_csv``.
BLOCK_ROWS = 1024


def _write_csv(path, header: str, chunks) -> None:
    """The header line, then ``template % values`` for each chunk."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for template, values in chunks:
            fh.write(template % tuple(values))


def table_to_csv(path, header: str, columns) -> None:
    """Rows of the given equal-length columns under a comma separated header."""
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    blocks = (table[start:start + BLOCK_ROWS]
              for start in range(0, len(table), BLOCK_ROWS))
    _write_csv(path, header, ((row * len(block), block.ravel().tolist())
                              for block in blocks))


def couple_to_csv(path, grid: GridSpec, rho_values: np.ndarray,
                  v_values: np.ndarray) -> None:
    """Rows of (t, x, rho, v) for a density and its velocity, time major."""
    shape = (grid.n_t + 1, grid.n_x)
    rho = np.asarray(rho_values, dtype=float)
    v = np.asarray(v_values, dtype=float)
    for name, values in (("rho_values", rho), ("v_values", v)):
        if values.shape != shape:
            raise ValueError(f"{name} has shape {values.shape}, expected {shape}")
    tails = ["," + "%.17g" % x + ",%.17g,%.17g\n" for x in grid.x.tolist()]
    heads = ["%.17g" % t for t in grid.t.tolist()]
    _write_csv(path, "t,x,rho,v",
               ((head + head.join(tails), np.column_stack((r, u)).ravel().tolist())
                for head, r, u in zip(heads, rho, v)))


def write_json(path, payload: dict) -> None:
    """The payload with sorted keys; numpy scalars and arrays as their values."""
    text = json.dumps(payload, indent=2, sort_keys=True,
                      default=lambda obj: obj.tolist())
    Path(path).write_text(text + "\n")
