"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The workloads run here at reduced sizes (see ``small``) so the whole
file takes well under a minute; the benchmark runs them at full size.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from inputs import (MU0_LIMIT, P_LIMIT, SIGMA0_RANGE, WORKLOADS,  # noqa: E402
                    drift_probe_positions, generate)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

# free_propagate raises NodeDetected for this packet (outside the served range)
INFEASIBLE_PACKET = (0.8, 0.0, -0.5)


def small(workload: str, seed: int):
    """The generated inputs of ``workload``, shrunk to run in seconds."""
    full = generate(workload, seed)
    if workload == "quadrature":
        return replace(full, packets=full.packets[:1], grids=full.grids[:1],
                       n_specs=1, pairs=full.pairs[:1])
    return replace(full, N=1024, sweep_N=256)


def run_bench(monkeypatch, capsys, workload, seed=3, trace=0, shrink=small):
    """Run the benchmark in this process; returns (result, printed lines)."""
    monkeypatch.setattr(bench, "generate", shrink)
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    code = bench.main(["--workload", workload, "--seed", str(seed),
                       "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(lines[-1]), lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert generate(workload, 5) == generate(workload, 5)
    assert generate(workload, 5) != generate(workload, 6)
    np.testing.assert_array_equal(drift_probe_positions(generate(workload, 5)),
                                  drift_probe_positions(generate(workload, 5)))
    for sigma0, mu0, p in generate(workload, 5).packets:
        assert SIGMA0_RANGE[0] <= sigma0 <= SIGMA0_RANGE[1]
        assert abs(mu0) <= MU0_LIMIT and abs(p) <= P_LIMIT


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_printed_metrics_match_benchmark_json(monkeypatch, capsys, workload, trace):
    result, _ = run_bench(monkeypatch, capsys, workload, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_injected_failure_is_counted_and_the_run_goes_on(monkeypatch, capsys):
    def with_infeasible_packet(workload, seed):
        inputs = small(workload, seed)
        return replace(inputs, packets=inputs.packets + (INFEASIBLE_PACKET,))

    result, lines = run_bench(monkeypatch, capsys, "quadrature",
                              shrink=with_infeasible_packet)
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]
    assert any(line.startswith("FAIL packet1-") and "NodeDetected" in line
               for line in lines)
    assert not any(line.startswith("FAIL packet0-") for line in lines)


def test_digest_repeats_across_runs_at_one_seed(monkeypatch, capsys):
    digests = []
    for _ in range(2):
        _, lines = run_bench(monkeypatch, capsys, "monte-carlo", seed=4)
        digests.append([line for line in lines if line.startswith("digest ")])
    assert len(digests[0]) == 1 and digests[0] == digests[1]


def test_refuses_to_run_without_the_lab_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "monte-carlo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
