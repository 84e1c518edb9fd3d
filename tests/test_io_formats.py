"""CSV tables and JSON reports: columns, exact values, stable bytes."""

import json

import numpy as np
import pytest

from madelung_lab import GridSpec
from madelung_lab.io_formats import couple_to_csv, transport_to_csv, write_json


@pytest.fixture()
def grid():
    return GridSpec(-2.0, 2.0, 16, 3)


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
        transport_to_csv(path, grid.x, grid.x + 1.0, 0.5 * grid.x**2)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (grid.n_x, 3)
        assert np.array_equal(data[:, 1], grid.x + 1.0)


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
