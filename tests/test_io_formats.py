"""CSV tables and JSON reports: columns, exact values, stable bytes.

The CSV writers are held byte for byte to an ``np.savetxt`` reference
with ``fmt="%.17g"``, kept in this file.
"""

import json

import numpy as np
import pytest

from madelung_lab import GridSpec
from madelung_lab.io_formats import BLOCK_ROWS, couple_to_csv, table_to_csv, write_json

# signed zero, the smallest subnormal, huge magnitudes, integers
EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, 2.0**53, -7.0]
GRIDS = [GridSpec(-2.0, 2.0, 16, 3), GridSpec(-3.7, 5.1, 64, 10),
         GridSpec(-12.0, 12.0, 512, 256)]


@pytest.fixture()
def grid():
    return GridSpec(-2.0, 2.0, 16, 3)


def savetxt_bytes(path, header, columns) -> bytes:
    np.savetxt(path, np.column_stack(columns), delimiter=",", header=header,
               comments="", fmt="%.17g")
    return path.read_bytes()


def sample_columns(n_rows: int, seed: int) -> list[np.ndarray]:
    """Four columns: integer-valued floats like a seed column, then
    values spread over many decades with the edge values mixed in."""
    rng = np.random.default_rng(seed)
    seeds = 1000.0 + np.arange(n_rows) // 3
    spread = [rng.standard_normal(n_rows) * 10.0 ** rng.integers(-320, 300, n_rows)
              for _ in range(3)]
    for k, column in enumerate(spread):
        picks = rng.integers(0, n_rows, len(EDGE_VALUES))
        column[picks] = np.roll(EDGE_VALUES, k)
    return [seeds, *spread]


class TestCsv:
    def test_couple_csv_columns(self, tmp_path, grid):
        rng = np.random.default_rng(9)
        shape = (grid.n_t + 1, grid.n_x)
        rho, v = rng.random(shape), rng.standard_normal(shape)
        path = tmp_path / "cp.csv"
        couple_to_csv(path, grid, rho, v)
        assert path.read_text().splitlines()[0] == "t,x,rho,v"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (rho.size, 4)
        # time major rows; %.17g prints doubles exactly
        assert np.array_equal(data[:, 0], np.repeat(grid.t, grid.n_x))
        assert np.array_equal(data[:, 1], np.tile(grid.x, grid.n_t + 1))
        assert np.array_equal(data[:, 2], rho.ravel())
        assert np.array_equal(data[:, 3], v.ravel())

    def test_transport_csv(self, tmp_path, grid):
        path = tmp_path / "t.csv"
        table_to_csv(path, "x,map,potential", (grid.x, grid.x + 1.0, 0.5 * grid.x**2))
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (grid.n_x, 3)
        assert np.array_equal(data[:, 1], grid.x + 1.0)


class TestSavetxtBytes:
    @pytest.mark.parametrize("n_rows", [1, 7, BLOCK_ROWS - 1, BLOCK_ROWS,
                                        BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 37])
    def test_table(self, tmp_path, n_rows):
        columns = sample_columns(n_rows, n_rows)
        header = "seed,y,quantum_action,error_radius"
        table_to_csv(tmp_path / "got.csv", header, columns)
        assert (tmp_path / "got.csv").read_bytes() == \
            savetxt_bytes(tmp_path / "ref.csv", header, columns)

    def test_table_given_as_rows_of_columns(self, tmp_path):
        # the CLI passes a (columns, rows) array, e.g. np.array(rows).T
        table = np.array(sample_columns(50, 3))
        table_to_csv(tmp_path / "got.csv", "a,b,c,d", table)
        assert (tmp_path / "got.csv").read_bytes() == \
            savetxt_bytes(tmp_path / "ref.csv", "a,b,c,d", table)

    @pytest.mark.parametrize("g", GRIDS, ids=lambda g: f"{g.n_x}x{g.n_t}")
    def test_couple(self, tmp_path, g):
        _, _, rho, v = sample_columns(g.n_x * (g.n_t + 1), g.n_x)
        rho, v = rho.reshape(g.n_t + 1, g.n_x), v.reshape(g.n_t + 1, g.n_x)
        couple_to_csv(tmp_path / "got.csv", g, rho, v)
        reference = (np.repeat(g.t, g.n_x), np.tile(g.x, g.n_t + 1),
                     rho.ravel(), v.ravel())
        assert (tmp_path / "got.csv").read_bytes() == \
            savetxt_bytes(tmp_path / "ref.csv", "t,x,rho,v", reference)

    @pytest.mark.parametrize("g", GRIDS, ids=lambda g: f"{g.n_x}x{g.n_t}")
    def test_transport(self, tmp_path, g):
        _, map_samples, potential, _ = sample_columns(g.n_x, 5)
        # the CLI's transport map dump: x, map and potential columns
        columns = (g.x, map_samples, potential)
        table_to_csv(tmp_path / "got.csv", "x,map,potential", columns)
        assert (tmp_path / "got.csv").read_bytes() == savetxt_bytes(
            tmp_path / "ref.csv", "x,map,potential", columns)

    @pytest.mark.parametrize("bad", ["transposed", "flat", "one-node-short"])
    def test_couple_refuses_a_misshapen_field(self, tmp_path, grid, bad):
        shape = (grid.n_t + 1, grid.n_x)
        good = np.ones(shape)
        wrong = {"transposed": good.T, "flat": good.ravel(),
                 "one-node-short": good[1:]}[bad]
        with pytest.raises(ValueError, match="rho_values"):
            couple_to_csv(tmp_path / "cp.csv", grid, wrong, good)
        with pytest.raises(ValueError, match="v_values"):
            couple_to_csv(tmp_path / "cp.csv", grid, good, wrong)


class TestJson:
    def test_numpy_payload_roundtrip(self, tmp_path):
        payload = {
            "a": np.float64(1.5),
            "b": np.int32(3),
            "c": np.array([1.0, 2.0]),
            "d": {"nested": np.bool_(True)},
            "e": [np.float32(0.5), "text"],
        }
        path = tmp_path / "p.json"
        write_json(path, payload)
        back = json.loads(path.read_text())
        assert back == {"a": 1.5, "b": 3, "c": [1.0, 2.0],
                        "d": {"nested": True}, "e": [0.5, "text"]}

    def test_output_is_deterministic(self, tmp_path):
        payload = {"z": 1, "a": [2, 3], "m": {"k": 4.25}}
        p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
        write_json(p1, payload)
        write_json(p2, dict(reversed(list(payload.items()))))
        assert p1.read_bytes() == p2.read_bytes()

    def test_sorted_keys_and_trailing_newline(self, tmp_path):
        path = tmp_path / "s.json"
        write_json(path, {"b": 1, "a": 2})
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")
