"""Named, reproducible experiments over the library modules.

Configs are flat text files of dotted keys ("mc.N = 100000"). Every key
an experiment reads is declared once, with its default and, where one
applies, its minimum, in the ``KEYS`` table; a key the table does not
name is refused with its line number. ``validate`` and ``run`` load a
config the same way, so a config that validates is the one that runs.
Outputs go to $OUTPUT_DIR, or to out/<experiment> when it is unset; no
config key moves them. Every run writes

    summary.json    all computed values and checks {ok, observed, lo, hi},
                    sorted keys, no timestamps: byte identical across reruns
    manifest.json   config hash, seed, package/library versions, wall
                    time and peak resident memory; for gaussian-benchmark
                    also the seconds spent stepping ensembles and the
                    trajectory steps taken, in total and per second

plus CSV dumps of what the experiment produced: packet_couple.csv and
marginals.csv (gaussian-benchmark), y_profiles.csv (theorem1-verify),
first_pair_map.csv (bb-compare).
Exit codes: 0 all checks passed, 2 at least one check failed,
1 configuration or runtime error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .action_functionals import (classical_action, drift_action, finite_action_norm,
                                 quantum_action)
from .benamou_brenier import (GaussianMeasure, displacement_couple, euler_residual,
                              gaussian_w2, monge_map_1d, packet_curvature_term_sup,
                              packet_endpoint_measures, quantum_vs_classical,
                              transport_cost)
from .competitors import (VIOLATION_RADII, PerturbationSpec, check_perturbation,
                          make_perturbation, verify_theorem1)
from .errors import ConfigError, MadelungLabError, UnwrapInconsistent
from .grid_fields import GridSpec, ScalarField, mass_error, row_integrals
from .io_formats import couple_to_csv, table_to_csv, write_json
from .madelung import (constant_drift, decompose, drift, ensure_resolved_phase,
                       madelung_residuals, spreading_mismatched_couple)
from .nelson_sde import (MARGINAL_TIMES, estimate_I, initial_moments, marginal_node,
                         marginals, renormalized_action, simulate_ensemble)
from .schrodinger import (GaussianPacketSpec, ensure_wave_density, free_propagate,
                          gaussian_packet, packet_classical_action, packet_density,
                          packet_fisher_action, packet_initial, packet_mean,
                          packet_phase, packet_quantum_action, packet_sigma_sq)

# ---------------------------------------------------------------------------
# Config keys

# theorem.base kind -> builder of the base couple from (packet spec, grid)
THEOREM_BASES = {
    "schrodinger": lambda spec, grid: decompose(gaussian_packet(spec, grid))[2],
    "mismatched": spreading_mismatched_couple,
}


def _finite(raw: str) -> float:
    if not math.isfinite(value := float(raw)):
        raise ValueError(raw)
    return value


def _integers(raw: str) -> tuple:
    return tuple(int(part) for part in raw.split(","))


def _theorem_base(raw: str) -> str:
    if raw not in THEOREM_BASES:
        raise ValueError(raw)
    return raw


# parser -> what a value it refuses should have been
_EXPECTED = {int: "an integer", _finite: "a finite number",
             _integers: "comma separated integers",
             _theorem_base: "one of " + ", ".join(sorted(THEOREM_BASES))}

# key -> (parser, default, minimum or None); a minimum bounds every entry
# of a list. Runners read cfg[key]; a file may set only these keys.
KEYS = {
    "experiment": (str, None, None),  # required
    "grid.x_min": (_finite, -12.0, None),
    "grid.x_max": (_finite, 12.0, None),
    "grid.n_x": (int, 512, None),
    "grid.n_t": (int, 256, None),
    "packet.sigma0": (_finite, 1.0, None),
    "packet.mu0": (_finite, 0.0, None),
    "packet.p": (_finite, 0.0, None),
    "mc.N": (int, 100000, 1),
    "mc.n": (int, 256, 1),
    "mc.substeps": (int, 4, 1),
    "mc.seed": (int, 2025, 0),
    "mc.n_list": (_integers, (64, 128, 256, 512), 1),
    "theorem.base": (_theorem_base, "schrodinger", None),
    "theorem.n_specs": (int, 20, 1),
    "theorem.seed": (int, 1000, 0),
    "transport.n_pairs": (int, 10, 1),
    "transport.seed": (int, 7, 0),
}


def _typed(key: str, raw: str):
    parse, _, minimum = KEYS[key]
    try:
        value = parse(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected {_EXPECTED[parse]}, got '{raw}'") from None
    lowest = min(value) if isinstance(value, tuple) else value
    if minimum is not None and lowest < minimum:
        raise ConfigError(f"{key}: must be at least {minimum}, got {lowest}")
    return value


def parse_config(path) -> tuple[dict, dict]:
    """The value of every key in KEYS, and the raw text of those the file sets.

    Keys the file leaves out take their defaults from KEYS.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cfg = {key: default for key, (_, default, _) in KEYS.items()}
    entries: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        if key in entries:
            raise ConfigError(f"{key}: duplicated at {path}:{lineno}")
        entries[key] = value
        cfg[key] = _typed(key, value)
    if cfg["experiment"] is None:
        raise ConfigError(f"experiment: required key missing from {path}")
    return cfg, entries


def _mc_params(cfg: dict) -> dict:
    return {"N": cfg["mc.N"], "n": cfg["mc.n"], "substeps": cfg["mc.substeps"],
            "seed": cfg["mc.seed"]}


def _perturbation_specs(cfg: dict) -> list[PerturbationSpec]:
    return [PerturbationSpec(cfg["theorem.seed"] + k)
            for k in range(cfg["theorem.n_specs"])]


# ---------------------------------------------------------------------------
# Check bookkeeping

def _side(value: float | None, open_side: float) -> float:
    return open_side if value is None else value


class Checks:
    """Each check is ``{ok, observed, lo, hi}``, None for an open side; ok is
    lo <= observed <= hi, read off those numbers alone (a NaN fails)."""

    def __init__(self):
        self.results: dict[str, dict] = {}

    def between(self, name: str, observed: float, lo: float | None,
                hi: float | None) -> None:
        lo, hi = (None if side is None else float(side) for side in (lo, hi))
        ok = _side(lo, -math.inf) <= float(observed) <= _side(hi, math.inf)
        self.results[name] = {"ok": ok, "observed": float(observed), "lo": lo, "hi": hi}

    def within(self, name: str, observed: float, bound: float) -> None:
        self.between(name, observed, -bound, bound)

    def failures(self) -> list[str]:
        return [f"{name}: observed {e['observed']:.6g} outside "
                f"[{_side(e['lo'], -math.inf):.6g}, {_side(e['hi'], math.inf):.6g}]"
                for name, e in self.results.items() if not e["ok"]]


class Stepping:
    """Wall seconds and trajectory steps spent simulating ensembles."""

    def __init__(self):
        self.seconds = 0.0
        self.steps = 0

    def simulate(self, b, rho0, grid: GridSpec, N: int, n: int, substeps: int,
                 seed: int):
        started = time.perf_counter()
        ens = simulate_ensemble(b, rho0, grid, N, n, substeps, seed)
        self.seconds += time.perf_counter() - started
        self.steps += N * n * substeps
        return ens

    def as_dict(self) -> dict:
        return {"seconds": self.seconds, "trajectory_steps": self.steps,
                "trajectory_steps_per_s": self.steps / self.seconds}


# partition size from which the renormalized action has settled; the
# stabilization gates compare every two settled sizes of mc.n_list
SETTLED_N = 256


def _mc_band(estimate, quantum) -> float:
    """Four standard errors, but no tighter than 2% of the quantum action."""
    return max(4.0 * estimate.std_error, 0.02 * abs(quantum.value))


def _pair_band(a, b) -> float:
    """Four standard errors of a difference, the two combined in quadrature."""
    return 4.0 * float(np.hypot(a.std_error, b.std_error))


def _half_nt(grid: GridSpec) -> GridSpec:
    """The same box with half the time steps, for residual order checks."""
    return GridSpec(grid.x_min, grid.x_max, grid.n_x, grid.n_t // 2)


# ---------------------------------------------------------------------------
# Experiments

def run_gaussian_benchmark(cfg: dict, grid: GridSpec, spec: GaussianPacketSpec,
                           out_dir: Path) -> tuple[dict, Checks, dict]:
    psi = gaussian_packet(spec, grid)
    rho, phase, couple = decompose(psi)
    checks = Checks()

    propagated = free_propagate(packet_initial(spec, grid), grid)
    checks.within("propagator-cross-check",
                  float(np.max(np.abs(propagated.values - psi.values))), 1e-8)

    checks.within("norm-drift", mass_error(psi.density(), grid), 1e-10)

    second = float(row_integrals(grid.x**2 * rho.values[-1], grid, "second moment"))
    expected = float(packet_sigma_sq(spec, 1.0) + packet_mean(spec, 1.0) ** 2)
    checks.within("second-moment", second - expected, 1e-6)

    r1, r2 = madelung_residuals(rho, phase)
    rho_h, phase_h, _ = decompose(gaussian_packet(spec, _half_nt(grid)))
    r1_h, r2_h = madelung_residuals(rho_h, phase_h)
    checks.between("residual-order-r1", r1_h / r1, 3.5, 4.5)
    checks.between("residual-order-r2", r2_h / r2, 3.5, 4.5)

    quantum = quantum_action(couple)
    classical = classical_action(couple)
    finite = finite_action_norm(couple)
    b = drift(couple)
    through_drift = drift_action(b, rho)

    checks.within("action-identity", quantum.value - through_drift.value, 2e-6)
    checks.within("quantum-closed-form",
                  quantum.value - packet_quantum_action(spec), 1e-5)
    checks.within("classical-closed-form",
                  classical.value - packet_classical_action(spec), 1e-5)
    checks.within("action-sum-rule",
                  finite.value + quantum.value - 2.0 * classical.value, 1e-8)
    checks.within("fisher-term",
                  (classical.value - quantum.value) - packet_fisher_action(spec), 1e-6)

    summary = {
        "experiment": "gaussian-benchmark",
        "packet": {"sigma0": spec.sigma0, "mu0": spec.mu0, "p": spec.p},
        "second_moment_t1": second,
        "residuals": {"r1": r1, "r2": r2, "r1_half_nt": r1_h, "r2_half_nt": r2_h},
        "actions": {"quantum": quantum.as_dict(), "classical": classical.as_dict(),
                    "finite_action": finite.as_dict(),
                    "drift": through_drift.as_dict()},
        "closed_forms": {"quantum": packet_quantum_action(spec),
                         "classical": packet_classical_action(spec)},
    }

    mc = _mc_params(cfg)
    n_list = sorted(set(cfg["mc.n_list"]))
    estimates = {}
    stepping = Stepping()
    for n in n_list:
        ens = stepping.simulate(b, rho.values[0], grid, mc["N"], n,
                                mc["substeps"], mc["seed"])
        ren = estimates[n] = renormalized_action(ens)
        if n == mc["n"]:
            mc_i = estimate_I(ens, b, b.divergence())
            checks.within("mc-renormalized-vs-quantum", ren.mean - quantum.value,
                          _mc_band(ren, quantum))
            checks.within("mc-pathwise-vs-quantum", mc_i.mean - quantum.value,
                          _mc_band(mc_i, quantum))
            checks.within("mc-pathwise-vs-renormalized", mc_i.mean - ren.mean,
                          _pair_band(ren, mc_i))
            histograms, distances = marginals(ens, rho)
            checks.within("mc-marginals", max(distances.values()), 0.03)
            mean, variance = initial_moments(ens)
            checks.within("initial-mean", mean - spec.mu0,
                          4.0 * spec.sigma0 / np.sqrt(mc["N"]))
            checks.within("initial-variance", variance / spec.sigma0**2 - 1.0, 0.05)
            tables = [np.column_stack([np.full(grid.n_x, frac), grid.x, est,
                                       rho.values[marginal_node(frac, grid.n_t)]])
                      for frac, est in histograms.items()]
            table_to_csv(out_dir / "marginals.csv", "t,x,histogram,reference",
                         np.vstack(tables).T)
            summary["mc"] = {"renormalized": ren.as_dict(),
                             "pathwise": mc_i.as_dict(),
                             "marginal_l1": {f"{k:g}": v for k, v in distances.items()},
                             "params": mc}
        del ens  # its estimates are taken; release it before the next is stepped

    settled = [n for n in n_list if n >= SETTLED_N]
    for i, n_a in enumerate(settled):
        for n_b in settled[i + 1:]:
            ea, eb = estimates[n_a], estimates[n_b]
            checks.within(f"stabilized-{n_a}-{n_b}", ea.mean - eb.mean,
                          _pair_band(ea, eb))

    # the renormalized action of a constant drift c has mean c^2
    controls = {}
    for key, c, name in (("zero", 0.0, "control-zero-drift"),
                         ("constant_3", 3.0, "control-constant-drift")):
        ren = renormalized_action(stepping.simulate(
            constant_drift(grid, c), rho.values[0], grid, mc["N"], mc["n"],
            mc["substeps"], mc["seed"]))
        checks.within(name, ren.mean - c**2, 4.0 * ren.std_error)
        controls[key] = ren.as_dict()
    summary["mc"].update(
        n_list=n_list, controls=controls,
        by_partition=[{"n": n, "renormalized": estimates[n].as_dict()}
                      for n in n_list])

    couple_to_csv(out_dir / "packet_couple.csv", grid, rho.values, couple.v.values)
    return summary, checks, {"stepping": stepping.as_dict()}


def run_theorem1_verify(cfg: dict, grid: GridSpec, spec: GaussianPacketSpec,
                        out_dir: Path) -> tuple[dict, Checks, dict]:
    base_kind = cfg["theorem.base"]
    base = THEOREM_BASES[base_kind](spec, grid)

    specs = _perturbation_specs(cfg)
    report = verify_theorem1(base, specs)
    checks = Checks()

    constructed = [r for r in report["specs"] if "y_profile" in r]
    if base_kind == "schrodinger":
        checks.between("families-all-pass", report["n_pass"], report["n_specs"],
                       report["n_specs"])
        if constructed:
            worst = min(r["min_margin"] + VIOLATION_RADII * r["error_radius"]
                        for r in constructed)
            checks.between("minimization-margins", worst, 0.0, None)
            ratios = [r["derivative_ratio"] for r in constructed]
            checks.between("stationarity-order",
                           max(ratios, key=lambda q: abs(q - 4.0)), 3.0, 5.0)
    else:
        detections = [r for r in constructed
                      if abs(r["derivative_at_0"]) > 10.0 * r["error_radius"]]
        checks.between("detects-non-minimizer", len(detections), 1.0, None)

    rows = [(r["seed"], *point) for r in constructed for point in r["y_profile"]]
    if rows:
        table_to_csv(out_dir / "y_profiles.csv", "seed,y,quantum_action,error_radius",
                     np.array(rows).T)

    summary = {"experiment": "theorem1-verify", "base": base_kind,
               "report": report}
    return summary, checks, {}


def run_bb_compare(cfg: dict, grid: GridSpec, spec: GaussianPacketSpec,
                   out_dir: Path) -> tuple[dict, Checks, dict]:
    couple = decompose(gaussian_packet(spec, grid))[2]
    checks = Checks()
    rng = np.random.default_rng(cfg["transport.seed"])

    pair_rows, plans = [], []
    worst_w2 = worst_bb = 0.0
    for _ in range(cfg["transport.n_pairs"]):
        g0 = GaussianMeasure(rng.uniform(-2.0, 2.0), rng.uniform(0.6, 1.3) ** 2)
        g1 = GaussianMeasure(rng.uniform(-2.0, 2.0), rng.uniform(0.6, 1.3) ** 2)
        tau2 = gaussian_w2(g0, g1)
        plan = monge_map_1d(g0.density(grid.x), g1.density(grid.x), grid)
        cost = transport_cost(plan, g0.density(grid.x))
        geo = classical_action(displacement_couple(g0, g1, grid))
        worst_w2 = max(worst_w2, abs(cost - tau2))
        worst_bb = max(worst_bb, abs(geo.value - tau2))
        pair_rows.append({"g0": [g0.mean, g0.variance], "g1": [g1.mean, g1.variance],
                          "tau2": tau2, "map_cost": cost,
                          "geodesic_action": geo.as_dict()})
        plans.append(plan)
    checks.within("w2-vs-map-cost", worst_w2, 1e-5)
    checks.within("bb-identity", worst_bb, 1e-4)

    g0, g1 = packet_endpoint_measures(spec)
    wave_report = quantum_vs_classical(g0, g1, couple)

    geodesic = displacement_couple(g0, g1, grid)
    res_full = euler_residual(geodesic)
    res_half = euler_residual(displacement_couple(g0, g1, _half_nt(grid)))
    ratio = res_half / res_full if res_full > 0.0 else float("inf")
    checks.between("geodesic-euler-order", ratio, 3.0, 5.0)

    packet_res = euler_residual(couple)
    limit = packet_curvature_term_sup(spec, grid)
    checks.within("packet-euler-limit", (packet_res - limit) / limit, 0.05)

    # transport.n_pairs is at least 1, so there is a first pair
    table_to_csv(out_dir / "first_pair_map.csv", "x,map,potential",
                 (grid.x, plans[0].map_samples, plans[0].potential_samples))

    summary = {
        "experiment": "bb-compare",
        "pairs": pair_rows,
        "packet_endpoints": {"g0": [g0.mean, g0.variance],
                             "g1": [g1.mean, g1.variance]},
        "wave_vs_transport": wave_report,
        "euler": {"geodesic_full": res_full, "geodesic_half_nt": res_half,
                  "packet": packet_res, "packet_limit": limit},
    }
    return summary, checks, {}


# name -> (runner, the key of the seed its random draws start from, description)
EXPERIMENTS = {
    "gaussian-benchmark": (run_gaussian_benchmark, "mc.seed",
                           "packet exactness, residual order, action identities, "
                           "renormalized MC agreement and its stabilization over "
                           "the partition sizes, drift controls, histogram "
                           "marginals and initial sample moments"),
    "theorem1-verify": (run_theorem1_verify, "theorem.seed",
                        "minimization of the quantum action over competitor "
                        "families (or its failure off the minimizer)"),
    "bb-compare": (run_bb_compare, "transport.seed",
                   "transport distance identities and the geodesic versus "
                   "wave couple contrast"),
}


# ---------------------------------------------------------------------------
# Entry points

def _load(config_path) -> tuple[dict, dict, GridSpec, GaussianPacketSpec]:
    """Parse a config and check what its experiment builds, running nothing;
    the config, the keys the file sets, and the grid and packet it builds."""
    cfg, entries = parse_config(config_path)
    name = cfg["experiment"]
    if name not in EXPERIMENTS:
        raise ConfigError(f"experiment: unknown name '{name}' "
                          f"(choose from {', '.join(sorted(EXPERIMENTS))})")
    try:
        grid = GridSpec(cfg["grid.x_min"], cfg["grid.x_max"], cfg["grid.n_x"],
                        cfg["grid.n_t"])
        grid.coarsen()  # every error radius is taken on the coarsened grid
        if name == "gaussian-benchmark":  # the one reader of rho at MARGINAL_TIMES
            for frac in MARGINAL_TIMES:
                marginal_node(frac, grid.n_t)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from None
    try:
        spec = GaussianPacketSpec(cfg["packet.sigma0"], cfg["packet.mu0"],
                                  cfg["packet.p"])
    except ValueError as exc:
        raise ConfigError(f"packet: {exc}") from None
    # the quantum action and marginal gates are taken on the ensemble of mc.n
    # steps, the stabilization gates between every two settled sizes
    n_list = ", ".join(map(str, cfg["mc.n_list"]))
    if cfg["mc.n"] not in cfg["mc.n_list"]:
        raise ConfigError(f"mc.n: {cfg['mc.n']} must be one of mc.n_list ({n_list})")
    try:
        for frac in MARGINAL_TIMES:
            marginal_node(frac, cfg["mc.n"])
    except ValueError as exc:
        raise ConfigError(f"mc.n: {exc}") from None
    if len({n for n in cfg["mc.n_list"] if n >= SETTLED_N}) < 2:
        raise ConfigError(f"mc.n_list: needs at least two sizes >= {SETTLED_N}, "
                          f"got {n_list}")
    # Every experiment builds the packet's wave field: before the output
    # directory exists, the closed-form density meets the field's own check
    # and the closed-form phase the step rule of decompose.
    x, t = grid.x[np.newaxis, :], grid.t[:, np.newaxis]
    with np.errstate(all="ignore"):
        density = packet_density(spec, x, t)
    try:
        ensure_wave_density(density, grid)
    except MadelungLabError as exc:
        raise ConfigError(f"packet: {exc}") from None
    try:
        ensure_resolved_phase(packet_phase(spec, x, t))
    except UnwrapInconsistent as exc:
        raise ConfigError(f"grid: {exc}") from None
    if name == "theorem1-verify":
        # the family's own builder and check, on the closed-form density; the
        # density is above the node floor, so its positivity budget is not
        # empty and only the grid can refuse
        rho = ScalarField(grid, density)
        for pert in _perturbation_specs(cfg):
            try:
                check_perturbation(make_perturbation(pert, rho).values, grid)
            except MadelungLabError as exc:
                raise ConfigError(f"grid: seed {pert.seed}: {exc}") from None
    return cfg, entries, grid, spec


def validate(config_path) -> int:
    """Load and invariant-check a config without running anything."""
    _load(config_path)
    return 0


def run(config_path) -> int:
    cfg, entries, grid, spec = _load(config_path)
    name = cfg["experiment"]
    runner, seed_key, _ = EXPERIMENTS[name]
    out_dir = Path(os.environ.get("OUTPUT_DIR") or f"out/{name}")
    out_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    summary, checks, timings = runner(cfg, grid, spec, out_dir)
    elapsed = time.perf_counter() - started

    summary["checks"] = checks.results
    summary["config"] = dict(sorted(entries.items()))
    write_json(out_dir / "summary.json", summary)

    manifest = {
        "config_sha256": hashlib.sha256(Path(config_path).read_bytes()).hexdigest(),
        "experiment": name,
        "seed": cfg[seed_key],
        "versions": {"package": __version__, "numpy": np.__version__,
                     "python": platform.python_version()},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "wall_time_s": elapsed,
        # ru_maxrss is in kilobytes on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "output_dir": str(out_dir),
        **timings,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")

    failures = checks.failures()
    for line in failures:
        print(f"FAIL {line}")
    n_checks = len(checks.results)
    print(f"{name}: {n_checks - len(failures)}/{n_checks} checks passed "
          f"({elapsed:.1f} s), outputs in {out_dir}")
    return 2 if failures else 0


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="madelung-lab",
        description="experiments on the fluid form of free quantum evolution")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute an experiment config")
    run_p.add_argument("config")
    val_p = sub.add_parser("validate", help="check a config without running")
    val_p.add_argument("config")
    sub.add_parser("list-experiments", help="show the known experiment names")
    args = parser.parse_args(argv)

    if args.command == "list-experiments":
        for name in sorted(EXPERIMENTS):
            print(f"{name}: {EXPERIMENTS[name][2]}")
        sys.exit(0)

    try:
        if args.command == "validate":
            code = validate(args.config)
            print(f"{args.config}: valid")
        else:
            code = run(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        sys.exit(1)
    except MadelungLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(1)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
