"""Benchmark of the madelung lab: one workload at one seed, one result line.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload monte-carlo --seed 1 --seconds 56 --trace 0

The benchmark imports the lab from ``src/`` and drives its public
functions from this single process, closed loop: one caller, each call
made after the previous one returned, no worker threads or processes.
It repeats passes of the workload, each a second or two long, until
``--seconds`` have elapsed (at least one pass) and checks every
operation of every pass.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, with
tracing off. Times are in reference seconds (see ``reference.py``): a
fixed computation is timed before and after every pass, and
``wall_ref_s`` and ``cpu_ref_s`` are the median over the untraced
passes of a pass's seconds scaled by it. ``setup_s`` is the median of
set-up probes in fresh interpreters, run one at a time between passes,
each scaled the same way inside the probe. ``--trace 1`` alternates traced and
untraced passes and prints the per-layer metrics of the fastest traced
pass, among them the tracing overhead; the spans are written to
``.bench_out/spans/``.
The last line of standard output is one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from inputs import WORKLOADS, generate
from reference import REFERENCE_S, reference_seconds
from tracing import Tracer, seconds_by_name, self_seconds, subtree

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 15
SETUP_TIMEOUT_S = 120
SE_TARGET_RENORMALIZED = 0.01
SE_TARGET_PATHWISE = 0.001


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def children_peak_kib() -> int:
    """Peak resident set of the largest child that has ended, in KiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def peak_rss_mb(kids_kib: int) -> float:
    """Peak resident set of this process plus ``kids_kib`` of its children.

    ``kids_kib`` is read after the first pass and before the first set-up
    probe, so the probes' own interpreters are not counted.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + kids_kib) / 1024.0  # ru_maxrss is in KiB on Linux


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Set-up seconds and reference seconds of one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, check=True,
        timeout=SETUP_TIMEOUT_S)
    seconds, ref_seconds = map(float, done.stdout.split()[-2:])
    return seconds, ref_seconds


def layer_row(p, root, spans) -> dict:
    """Per-layer numbers of one traced pass rooted at span ``root``."""
    sub = subtree(spans, root)
    seconds, calls = seconds_by_name(sub)
    row = defaultdict(float)
    for name, value in seconds.items():
        row[f"{name}_s"] = value
    for name, count in calls.items():
        row[f"{name.split('.', 1)[0]}.calls"] += count
    for module, value in self_seconds(sub).items():
        row[f"{module}.self_s"] = value
    covered = sum(s.seconds for s in sub if s.parent == root.span_id)
    row["bench.self_s"] = root.seconds - covered
    row["trace.coverage"] = covered / root.seconds
    row["trace.spans"] = len(sub)

    counts = p.counts
    row["nelson_sde.traj_steps"] = counts["traj_steps"]
    row["nelson_sde.blocks"] = counts["blocks"]
    row["nelson_sde.paths_bytes"] = counts["paths_bytes"]
    stepping = row["nelson_sde.simulate_ensemble_s"] + row["nelson_sde.mixture_ensemble_s"]
    if stepping > 0.0:
        row["nelson_sde.traj_steps_per_s"] = counts["traj_steps"] / stepping
    if "renormalized_se" in p.stats:
        # the main ensemble and its estimate: the first spans of their names
        first = {}
        for s in sorted(sub, key=lambda s: s.start):
            first.setdefault(s.name, s.seconds)
        ensemble = first["nelson_sde.simulate_ensemble"]
        row["nelson_sde.time_to_se_renorm_s"] = (
            (ensemble + first["nelson_sde.renormalized_action"])
            * (p.stats["renormalized_se"] / SE_TARGET_RENORMALIZED) ** 2)
        if "pathwise_se" in p.stats:
            row["nelson_sde.time_to_se_pathwise_s"] = (
                (ensemble + row["nelson_sde.estimate_I_s"])
                * (p.stats["pathwise_se"] / SE_TARGET_PATHWISE) ** 2)
    for key in ("marginal_l1_max", "marginal_l1_headroom"):
        row[f"nelson_sde.{key}"] = p.stats.get(key, 0.0)

    families = counts["families"]
    competing = (row["competitors.verify_theorem1_s"] + row["competitors.make_family_s"]
                 + row["competitors.evaluate_family_s"])
    row["competitors.families"] = families
    row["competitors.failed_to_construct"] = counts["failed_to_construct"]
    if families:
        row["competitors.pass_ratio"] = counts["families_passed"] / families
        row["competitors.families_per_s"] = families / competing
    row["io_formats.bytes_written"] = counts["bytes_written"]
    return row


def layer_metrics(names, tracer, setup_root, traced, untraced_walls) -> dict:
    """The fastest traced pass; function times include set-up."""
    p, root = min(traced, key=lambda pair: pair[1].seconds)
    row = layer_row(p, root, tracer.spans)
    setup_time, _ = seconds_by_name(subtree(tracer.spans, setup_root))
    metrics = {}
    for name in names:
        metrics[name] = row.get(name, 0.0)
        if name.endswith("_s"):
            metrics[name] += setup_time.get(name[:-2], 0.0)
    metrics["trace.overhead_s"] = root.seconds - min(untraced_walls)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "madelung_lab" / "__init__.py").is_file():
        print(f"error: no lab sources at {SRC / 'madelung_lab'}; run this from "
              f"the root of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import prepare, run_pass

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = declared["per_layer"] if args.trace else declared["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    inputs = generate(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}"
    tracer = Tracer(f"{tag}-{os.getpid()}-{time.time_ns()}", enabled=bool(args.trace))
    out_dir = OUT / "io" / tag
    with tracer.span("setup"):
        setup = prepare(inputs, tracer, OUT / "config" / f"{tag}.cfg")
    setup_root = tracer.spans[-1] if args.trace else None

    passes, traced, untraced_walls, scaled = [], [], [], []
    probes = 0 if args.trace else SETUP_REPEATS
    setup_times, kids_kib = [], 0
    ref_before = None  # the reference's seconds just before the next pass
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < args.seconds:
        if passes and len(setup_times) < probes:
            # the set-up probes are spread over the run, one at a time
            # between passes, so that their median is not that of a few
            # seconds of the host's load
            elapsed = time.perf_counter() - started
            if elapsed >= len(setup_times) * args.seconds / probes:
                if not setup_times:
                    kids_kib = children_peak_kib()
                setup_times.append(setup_probe(args.workload, args.seed))
                ref_before = None
                continue
        for tracing_on in ((True, False) if args.trace else (False,)):
            tracer.enabled = tracing_on
            if ref_before is None:
                ref_before = reference_seconds()
            t0, cpu0 = time.perf_counter(), cpu_seconds()
            with tracer.span("pass"):
                p = run_pass(inputs, setup, tracer, out_dir)
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
            ref_after = reference_seconds()
            to_ref = 2.0 * REFERENCE_S / (ref_before + ref_after)
            ref_before = ref_after
            passes.append(p)
            if tracing_on:
                traced.append((p, tracer.spans[-1]))
            else:
                untraced_walls.append(wall)
                scaled.append((wall * to_ref, cpu * to_ref))
    if not setup_times:
        kids_kib = children_peak_kib()
    while len(setup_times) < probes:
        setup_times.append(setup_probe(args.workload, args.seed))
    peak = peak_rss_mb(kids_kib)

    failures = [f for p in passes for f in p.failures]
    first = passes[0].digest
    failures += [f"determinism: pass {k} values differ from pass 0"
                 for k, p in enumerate(passes) if p.digest != first]
    attempted = sum(p.attempted for p in passes) + len(passes) - 1

    if args.trace:
        metrics = layer_metrics(units, tracer, setup_root, traced, untraced_walls)
        tracer.write(OUT / "spans" / f"{tag}.json")
    else:
        metrics = {
            "wall_ref_s": statistics.median(wall for wall, _ in scaled),
            "cpu_ref_s": statistics.median(cpu for _, cpu in scaled),
            "peak_rss_mb": peak,
            "setup_s": statistics.median(ref for _, ref in setup_times)}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                           f"match BENCHMARK.json")

    print(f"{tag}: {len(passes)} passes, {attempted} operations, "
          f"{len(failures)} failed")
    walls = untraced_walls
    print(f"untraced pass wall over {len(walls)} passes: fastest {min(walls):.4f} s, "
          f"median {statistics.median(walls):.4f} s, slowest {max(walls):.4f} s")
    if setup_times:
        print(f"set-up over {len(setup_times)} probes: median "
              f"{statistics.median(s for s, _ in setup_times):.4f} s")
    for line in failures:
        print(f"FAIL {line}")
    stats = passes[0].stats
    if "marginal_l1_max" in stats:
        print(f"marginal L1 {stats['marginal_l1_max']:.4f} = "
              f"{stats['marginal_l1_headroom']:.2f} x the lab's 0.03 bound; "
              f"recorded, not gated (the bound is calibrated at N = 100000, "
              f"this ensemble has N = {inputs.N})")
    print(f"digest {tag} sha256={first}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
