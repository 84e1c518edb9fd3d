"""CSV tables and JSON reports: columns, exact values, stable bytes.

The CSV writers are held byte for byte to an ``np.savetxt`` reference
with ``fmt="%.17g"``, kept in this file, and value by value to Python's
own ``'%.17g' % x`` on the doubles where a significand kernel goes
wrong first: powers of ten, the ``%g`` switch points, decade carries,
exact ties and numbers the kernel leaves to ``%.17g``.
"""

import hashlib
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from madelung_lab import GaussianPacketSpec, GridSpec, decompose, gaussian_packet
from madelung_lab.io_formats import couple_to_csv, table_to_csv, write_json

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
    @pytest.mark.parametrize("n_rows", [1, 7, 1023, 1024, 1025, 2085])
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


def percent_g_rows(tmp_path, values) -> tuple[bytes, bytes]:
    """The one-column table of ``values`` as written, and as ``'%.17g' % x``
    writes each value on a line."""
    values = [float(v) for v in values]
    table_to_csv(tmp_path / "got.csv", "x", [values])
    want = "x\n" + "".join("%.17g\n" % v for v in values)
    return (tmp_path / "got.csv").read_bytes(), want.encode()


def with_neighbours(values) -> list[float]:
    """Each value, the next double toward zero and the next away from it,
    with both signs."""
    out = []
    for v in values:
        out += [v, float(np.nextafter(v, 0.0)), float(np.nextafter(v, math.inf))]
    return out + [-v for v in out]


def rows_equal(got: bytes, want: bytes) -> None:
    """Equal bytes, or the first differing rows in the failure."""
    if got != want:
        diff = [(g, w) for g, w in zip(got.splitlines(), want.splitlines()) if g != w]
        assert diff[:5] == [], len(diff)
    assert got == want


def below_power_of_ten(x: float, k: int) -> bool:
    """Whether 0 < x < 10**k exactly."""
    m, q = x.as_integer_ratio()
    return 0 < m * 10**max(-k, 0) < q * 10**max(k, 0)


class TestPercentG:
    """Every value as Python's ``'%.17g' % x`` prints it."""

    def test_powers_of_ten_and_their_neighbours(self, tmp_path):
        rows_equal(*percent_g_rows(
            tmp_path, with_neighbours([float(f"1e{k}") for k in range(-300, 301)])))

    def test_g_switch_points(self, tmp_path):
        # fixed form from 1e-4 on, exponent form below it and from 1e17 on
        got, want = percent_g_rows(tmp_path, with_neighbours([1e-5, 1e-4, 1e16, 1e17]))
        rows_equal(got, want)
        rows = want.splitlines()
        assert {b"0.0001", b"10000000000000000", b"1e+17"} <= set(rows)
        assert any(row.endswith(b"e-05") for row in rows)

    def test_decade_carries(self, tmp_path):
        # doubles just below a power of ten, some of whose 17 digits round
        # up to it: 1e-14, 1e-70 and 1e+98 print as powers they lie below
        near = [float(f"9.99999999999999999{d}e{k}") for d in range(10)
                for k in (-5, -4, -14, -70, 98)]
        near += [float(np.nextafter(10.0**k, 0.0)) for k in range(-20, 21)]
        near += [float(f"1e{k}") for k in range(-300, 301)]
        carried = [x for x in near if ("%.17g" % x).startswith("1e")
                   and below_power_of_ten(x, int(("%.17g" % x)[2:]))]
        assert {1e-14, 1e-70, 1e98} <= set(carried)
        rows_equal(*percent_g_rows(tmp_path, near + [-x for x in near]))

    def test_exact_ties_round_half_even(self, tmp_path):
        # x = m / 2**(17 - e) with m odd, in the decade of 10**e: then
        # x * 10**(16 - e) = m * 5**(16 - e) / 2 is exactly an odd half, the
        # 18th digit a 5 with nothing after it
        ties = []
        for e in range(-7, 16):
            shift = 17 - e
            low = -(-(2**shift * 10**max(e, 0)) // 10**max(-e, 0))
            high = 2**shift * 10**max(e + 1, 0) // 10**max(-e - 1, 0)
            for m in range(low | 1, min(low + 80, high), 2):
                x = math.ldexp(m, -shift)
                assert not below_power_of_ten(x, e) and below_power_of_ten(x, e + 1)
                ties.append(x)
        assert len(ties) > 700
        rows_equal(*percent_g_rows(tmp_path, ties + [-x for x in ties]))

    def test_integers_above_two_to_the_53(self, tmp_path):
        rng = np.random.default_rng(53)
        ints = [float(2**53 + k) for k in range(-4, 200)]
        ints += [float(2**k) for k in range(53, 70)]
        ints += rng.integers(2**53, 2**63, 2000).astype(float).tolist()
        rows_equal(*percent_g_rows(tmp_path, ints + [-v for v in ints]))

    def test_short_decimals_with_trailing_zeros(self, tmp_path):
        short = [float(f"{a}.{b}e{k}") for a in (1, 2, 5, 9) for b in (0, 5, 25, 125, 1)
                 for k in range(-30, 31)]
        short += [0.1, 0.5, 0.25, 100.0, 120.0, 1000.5, 1e15, 1.5e16, 12345678.0]
        rows_equal(*percent_g_rows(tmp_path, short + [-v for v in short]))

    def test_zeros_subnormals_infinities_and_nan(self, tmp_path):
        rng = np.random.default_rng(324)
        special = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                   5e-324, -5e-324, sys.float_info.min, -sys.float_info.min,
                   float(np.nextafter(sys.float_info.min, 0.0)), sys.float_info.max,
                   -sys.float_info.max, 1e-280, 1e280]
        special += rng.integers(1, 2**52, 500, dtype=np.uint64).view(np.float64).tolist()
        rows_equal(*percent_g_rows(tmp_path, special))

    @pytest.mark.parametrize("draw", ["decades", "bits"])
    def test_random_doubles_over_all_decades(self, tmp_path, draw):
        rng = np.random.default_rng(17)
        if draw == "decades":
            values = rng.standard_normal(100_000) * 10.0 ** rng.integers(-320, 308, 100_000)
        else:
            values = rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
        rows_equal(*percent_g_rows(tmp_path, values))


# the packet couple CSV of (sigma0, mu0, p) = (1.1, 0.2, 0.3) on 512 x 256,
# recorded while every value was still printed by ``%.17g`` one by one,
# and the tracemalloc peak of that writer on the same couple
PACKET = GaussianPacketSpec(1.1, 0.2, 0.3)
PACKET_CSV_SHA256 = "ac1e7991c05cd237fc48fbac3ca32241cae05f3dd6622c04cdb30a147544222f"
PER_VALUE_WRITER_PEAK = 178_801


@pytest.fixture(scope="module")
def packet_csv_args():
    grid = GridSpec(-12.0, 12.0, 512, 256)
    rho, _, couple = decompose(gaussian_packet(PACKET, grid))
    return grid, rho.values, couple.v.values


class TestPacketCouple:
    def test_bytes_are_pinned(self, tmp_path, packet_csv_args):
        couple_to_csv(tmp_path / "cp.csv", *packet_csv_args)
        digest = hashlib.sha256((tmp_path / "cp.csv").read_bytes()).hexdigest()
        assert digest == PACKET_CSV_SHA256

    def test_working_memory_is_one_time_node(self, tmp_path, packet_csv_args):
        # the first call builds the kernel's tables, which stay; the peak
        # is the writer's working memory, bounded by the old writer's,
        # which formatted one time node at a time
        couple_to_csv(tmp_path / "cp.csv", *packet_csv_args)
        tracemalloc.start()
        try:
            couple_to_csv(tmp_path / "cp.csv", *packet_csv_args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= PER_VALUE_WRITER_PEAK


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
