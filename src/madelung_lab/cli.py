"""Named, reproducible experiments over the library modules.

Configs are flat text files of dotted keys ("mc.N = 100000"). Every key
an experiment reads is declared once, with its default and, where one
applies, its minimum, in the ``KEYS`` table; a key the table does not
name is refused with its line number. ``validate`` and ``run`` load a
config the same way, so a config that validates is the one that runs.
The only environment override honored is OUTPUT_DIR. Every run writes

    summary.json    all computed values and pass/fail checks, sorted
                    keys, no timestamps: byte identical across reruns
    manifest.json   config hash, seed, package/library versions, time

plus CSV dumps of the fields or profiles the experiment produced.
Exit codes: 0 all checks passed, 2 at least one check failed,
1 configuration or runtime error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
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
from .competitors import PerturbationSpec, positivity_head_room, verify_theorem1
from .errors import AmplitudeInfeasible, ConfigError, MadelungLabError
from .grid_fields import GridSpec, box_integral
from .io_formats import couple_to_csv, table_to_csv, transport_to_csv, write_json
from .madelung import (constant_drift, decompose, drift, madelung_residuals,
                       spreading_mismatched_couple)
from .nelson_sde import (estimate_I, marginal_histogram, marginal_l1,
                         renormalized_action, simulate_ensemble)
from .schrodinger import (GaussianPacketSpec, free_propagate, gaussian_packet,
                          packet_classical_action, packet_density, packet_initial,
                          packet_quantum_action, packet_sigma_sq)

# ---------------------------------------------------------------------------
# Config keys

# theorem.base kind -> builder of the base couple from (packet spec, grid)
THEOREM_BASES = {
    "schrodinger": lambda spec, grid: decompose(gaussian_packet(spec, grid))[2],
    "mismatched": spreading_mismatched_couple,
}


def _boolean(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(raw)


def _integers(raw: str) -> tuple:
    return tuple(int(part) for part in raw.split(","))


def _interval(raw: str) -> tuple:
    low, high = (float(part) for part in raw.split(","))
    return low, high


def _theorem_base(raw: str) -> str:
    if raw not in THEOREM_BASES:
        raise ValueError(raw)
    return raw


# parser -> what a value it refuses should have been
_EXPECTED = {int: "an integer", float: "a number", _boolean: "a boolean",
             _integers: "comma separated integers",
             _interval: "two comma separated numbers",
             _theorem_base: "one of " + ", ".join(sorted(THEOREM_BASES))}

# key -> (parser, default, minimum or None); a minimum bounds every entry
# of a list. Runners read cfg[key]; a file may set only these keys.
KEYS = {
    "experiment": (str, None, None),  # required
    "output_dir": (str, None, None),  # unset: out/<experiment>
    "write_fields": (_boolean, False, None),
    "grid.x_min": (float, -12.0, None),
    "grid.x_max": (float, 12.0, None),
    "grid.n_x": (int, 512, None),
    "grid.n_t": (int, 256, None),
    "packet.sigma0": (float, 1.0, None),
    "packet.mu0": (float, 0.0, None),
    "packet.p": (float, 0.0, None),
    "mc.N": (int, 100000, 1),
    "mc.n": (int, 256, 1),
    "mc.substeps": (int, 4, 1),
    "mc.seed": (int, 2025, None),
    "mc.n_list": (_integers, (64, 128, 256, 512), 1),
    "theorem.base": (_theorem_base, "schrodinger", None),
    "theorem.n_specs": (int, 20, 0),
    "theorem.seed": (int, 1000, None),
    "perturbations.space_support": (_interval, (-4.0, 4.0), None),
    "perturbations.time_window": (_interval, (0.1, 0.9), None),
    "perturbations.amplitude": (float, 0.08, None),
    "perturbations.modes": (int, 3, 1),
    "transport.n_pairs": (int, 10, 1),
    "transport.seed": (int, 7, None),
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


def _build_grid(cfg: dict) -> GridSpec:
    try:
        return GridSpec(cfg["grid.x_min"], cfg["grid.x_max"], cfg["grid.n_x"],
                        cfg["grid.n_t"])
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from None


def _build_packet(cfg: dict) -> GaussianPacketSpec:
    try:
        return GaussianPacketSpec(cfg["packet.sigma0"], cfg["packet.mu0"],
                                  cfg["packet.p"])
    except ValueError as exc:
        raise ConfigError(f"packet: {exc}") from None


def _mc_params(cfg: dict) -> dict:
    return {"N": cfg["mc.N"], "n": cfg["mc.n"], "substeps": cfg["mc.substeps"],
            "seed": cfg["mc.seed"]}


def _perturbation_specs(cfg: dict) -> list[PerturbationSpec]:
    try:
        return [PerturbationSpec(cfg["theorem.seed"] + k,
                                 cfg["perturbations.space_support"],
                                 cfg["perturbations.time_window"],
                                 cfg["perturbations.amplitude"],
                                 cfg["perturbations.modes"])
                for k in range(cfg["theorem.n_specs"])]
    except ValueError as exc:
        raise ConfigError(f"perturbations: {exc}") from None


# ---------------------------------------------------------------------------
# Check bookkeeping

class Checks:
    def __init__(self):
        self.results: dict[str, dict] = {}

    def holds(self, name: str, condition: bool, observed: float,
              bound: float = 0.0) -> None:
        self.results[name] = {"ok": bool(condition), "observed": float(observed),
                              "bound": float(bound)}

    def within(self, name: str, observed: float, bound: float) -> None:
        self.holds(name, abs(observed) <= bound, observed, bound)

    def failures(self) -> list[str]:
        return [f"{name}: observed {entry['observed']:.6g} "
                f"(bound {entry['bound']:.6g})"
                for name, entry in self.results.items() if not entry["ok"]]


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

def _packet_couple(cfg: dict):
    grid = _build_grid(cfg)
    spec = _build_packet(cfg)
    psi = gaussian_packet(spec, grid)
    rho, phase, couple = decompose(psi)
    return grid, spec, psi, rho, phase, couple


def run_gaussian_benchmark(cfg: dict, out_dir: Path) -> tuple[dict, Checks]:
    grid, spec, psi, rho, phase, couple = _packet_couple(cfg)
    checks = Checks()

    propagated = free_propagate(packet_initial(spec, grid), grid)
    checks.within("propagator-cross-check",
                  float(np.max(np.abs(propagated.values - psi.values))), 1e-8)

    norms = grid.dx * psi.density().sum(axis=-1)
    checks.within("norm-drift", float(np.max(np.abs(norms - 1.0))), 1e-10)

    second = box_integral(grid.x**2 * rho.values[-1], grid, "second moment")
    expected = float(packet_sigma_sq(spec, 1.0) + (spec.mu0 + spec.p) ** 2)
    checks.within("second-moment", second - expected, 1e-6)

    r1, r2 = madelung_residuals(rho, phase)
    rho_h, phase_h, _ = decompose(gaussian_packet(spec, _half_nt(grid)))
    r1_h, r2_h = madelung_residuals(rho_h, phase_h)
    checks.holds("residual-order-r1", 3.5 <= r1_h / r1 <= 4.5, r1_h / r1, 4.0)
    checks.holds("residual-order-r2", 3.5 <= r2_h / r2 <= 4.5, r2_h / r2, 4.0)

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
    a = 2.0 * spec.sigma0**2
    checks.within("fisher-term",
                  (classical.value - quantum.value) - 0.5 * np.arctan(1.0 / a),
                  1e-6)

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
    ens = simulate_ensemble(b, rho.values[0], grid, mc["N"], mc["n"],
                            mc["substeps"], mc["seed"])
    ren = renormalized_action(ens)
    mc_i = estimate_I(ens, b, b.divergence())
    checks.within("mc-renormalized-vs-quantum", ren.mean - quantum.value,
                  _mc_band(ren, quantum))
    checks.within("mc-pathwise-vs-quantum", mc_i.mean - quantum.value,
                  _mc_band(mc_i, quantum))
    checks.within("mc-pathwise-vs-renormalized", mc_i.mean - ren.mean,
                  _pair_band(ren, mc_i))
    distances = marginal_l1(ens, rho)
    checks.within("mc-marginals", max(distances.values()), 0.03)
    x0 = ens.paths[:, 0]
    checks.within("initial-mean", float(x0.mean()) - spec.mu0,
                  4.0 * spec.sigma0 / np.sqrt(mc["N"]))
    checks.within("initial-variance",
                  float(x0.var()) / spec.sigma0**2 - 1.0, 0.05)
    tables = []
    for frac in distances:
        x, est = marginal_histogram(ens, frac)
        j = int(round(frac * grid.n_t))
        tables.append(np.column_stack([np.full(grid.n_x, frac), x, est,
                                       rho.values[j]]))
    table_to_csv(out_dir / "marginals.csv", "t,x,histogram,reference",
                 np.vstack(tables).T)
    summary["mc"] = {"renormalized": ren.as_dict(), "pathwise": mc_i.as_dict(),
                     "marginal_l1": {f"{k:g}": v for k, v in distances.items()},
                     "params": mc}

    if cfg["write_fields"]:
        couple_to_csv(out_dir / "packet_couple.csv", grid, rho.values,
                      couple.v.values)
    return summary, checks


def run_renormalization_convergence(cfg: dict, out_dir: Path) -> tuple[dict, Checks]:
    grid, spec, psi, rho, phase, couple = _packet_couple(cfg)
    checks = Checks()
    mc = _mc_params(cfg)
    n_list = cfg["mc.n_list"]

    b = drift(couple)
    quantum = quantum_action(couple)
    table = []
    estimates = {}
    for n in sorted(n_list):
        ens = simulate_ensemble(b, rho.values[0], grid, mc["N"], n,
                                mc["substeps"], mc["seed"])
        ren = renormalized_action(ens)
        estimates[n] = ren
        entry = {"n": n, "renormalized": ren.as_dict()}
        if n == mc["n"]:
            mc_i = estimate_I(ens, b, b.divergence())
            entry["pathwise"] = mc_i.as_dict()
            checks.within("renormalized-vs-quantum", ren.mean - quantum.value,
                          _mc_band(ren, quantum))
            checks.within("pathwise-vs-quantum", mc_i.mean - quantum.value,
                          _mc_band(mc_i, quantum))
            checks.within("pathwise-vs-renormalized", mc_i.mean - ren.mean,
                          _pair_band(ren, mc_i))
        table.append(entry)

    settled = [n for n in sorted(n_list) if n >= 256]
    for i, n_a in enumerate(settled):
        for n_b in settled[i + 1:]:
            ea, eb = estimates[n_a], estimates[n_b]
            checks.within(f"stabilized-{n_a}-{n_b}", ea.mean - eb.mean,
                          _pair_band(ea, eb))

    zero = simulate_ensemble(constant_drift(grid, 0.0), rho.values[0], grid,
                             mc["N"], mc["n"], mc["substeps"], mc["seed"])
    ren0 = renormalized_action(zero)
    checks.within("control-zero-drift", ren0.mean, 4.0 * ren0.std_error)
    const = simulate_ensemble(constant_drift(grid, 3.0), rho.values[0], grid,
                              mc["N"], mc["n"], mc["substeps"], mc["seed"])
    ren3 = renormalized_action(const)
    checks.within("control-constant-drift", ren3.mean - 9.0,
                  4.0 * ren3.std_error)

    summary = {
        "experiment": "renormalization-convergence",
        "quantum_action": quantum.as_dict(),
        "by_partition": table,
        "controls": {"zero": ren0.as_dict(), "constant_3": ren3.as_dict()},
        "mc_params": mc, "n_list": sorted(n_list),
    }
    return summary, checks


def run_theorem1_verify(cfg: dict, out_dir: Path) -> tuple[dict, Checks]:
    grid = _build_grid(cfg)
    spec = _build_packet(cfg)
    base_kind = cfg["theorem.base"]
    base = THEOREM_BASES[base_kind](spec, grid)

    specs = _perturbation_specs(cfg)
    report = verify_theorem1(base, specs)
    checks = Checks()

    constructed = [r for r in report["specs"] if "y_profile" in r]
    if base_kind == "schrodinger":
        checks.holds("families-all-pass", report["all_pass"],
                     report["n_pass"], report["n_specs"])
        if constructed:
            worst = min(r["min_margin"] + 6.0 * r["error_radius"]
                        for r in constructed)
            checks.holds("minimization-margins", worst >= 0.0, worst)
            ratios = [r["derivative_ratio"] for r in constructed]
            ok = all(3.0 <= q <= 5.0 for q in ratios)
            checks.holds("stationarity-order", ok,
                         min(ratios) if ratios else 0.0, 4.0)
    else:
        detections = [r for r in constructed
                      if abs(r["derivative_at_0"]) > 10.0 * r["error_radius"]]
        checks.holds("detects-non-minimizer", len(detections) >= 1,
                     len(detections), 1.0)

    rows = [(r["seed"], *point) for r in constructed for point in r["y_profile"]]
    if rows:
        table_to_csv(out_dir / "y_profiles.csv", "seed,y,quantum_action,error_radius",
                     np.array(rows).T)

    summary = {"experiment": "theorem1-verify", "base": base_kind,
               "report": report}
    return summary, checks


def run_bb_compare(cfg: dict, out_dir: Path) -> tuple[dict, Checks]:
    grid, spec, psi, rho, phase, couple = _packet_couple(cfg)
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
    checks.holds("geodesic-euler-order", 3.0 <= ratio <= 5.0, ratio, 4.0)

    packet_res = euler_residual(couple)
    limit = packet_curvature_term_sup(spec, grid)
    checks.within("packet-euler-limit", (packet_res - limit) / limit, 0.05)

    # transport.n_pairs is at least 1, so there is a first pair
    transport_to_csv(out_dir / "first_pair_map.csv", grid.x,
                     plans[0].map_samples, plans[0].potential_samples)

    summary = {
        "experiment": "bb-compare",
        "pairs": pair_rows,
        "packet_endpoints": {"g0": [g0.mean, g0.variance],
                             "g1": [g1.mean, g1.variance]},
        "wave_vs_transport": wave_report,
        "euler": {"geodesic_full": res_full, "geodesic_half_nt": res_half,
                  "packet": packet_res, "packet_limit": limit},
    }
    return summary, checks


# name -> (runner, the key of the seed its random draws start from, description)
EXPERIMENTS = {
    "gaussian-benchmark": (run_gaussian_benchmark, "mc.seed",
                           "packet exactness, residual order, action identities, "
                           "renormalized MC agreement, histogram marginals and "
                           "initial sample moments"),
    "renormalization-convergence": (run_renormalization_convergence, "mc.seed",
                                    "discrete action stabilization over the "
                                    "partition sizes, plus drift controls"),
    "theorem1-verify": (run_theorem1_verify, "theorem.seed",
                        "minimization of the quantum action over competitor "
                        "families (or its failure off the minimizer)"),
    "bb-compare": (run_bb_compare, "transport.seed",
                   "transport distance identities and the geodesic versus "
                   "wave couple contrast"),
}


# ---------------------------------------------------------------------------
# Entry points

def _load(config_path) -> tuple[dict, dict]:
    """Parse a config and check what its experiment builds, running nothing."""
    cfg, entries = parse_config(config_path)
    name = cfg["experiment"]
    if name not in EXPERIMENTS:
        raise ConfigError(f"experiment: unknown name '{name}' "
                          f"(choose from {', '.join(sorted(EXPERIMENTS))})")
    grid, spec = _build_grid(cfg), _build_packet(cfg)
    # the quantum action gates are taken on the ensemble of mc.n steps
    if name == "renormalization-convergence" and cfg["mc.n"] not in cfg["mc.n_list"]:
        raise ConfigError(f"mc.n: {cfg['mc.n']} must be one of mc.n_list "
                          f"({', '.join(map(str, cfg['mc.n_list']))})")
    if name != "theorem1-verify":
        return cfg, entries
    # mirror the build time positivity rescaling, refusing only what it would
    rho = packet_density(spec, grid.x[np.newaxis, :], grid.t[:, np.newaxis])
    for pert in _perturbation_specs(cfg):
        try:
            positivity_head_room(pert, rho, grid)
        except AmplitudeInfeasible as exc:
            raise ConfigError(
                f"perturbations.amplitude: {pert.amplitude} cannot keep the "
                f"density positive for seed {pert.seed}: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"perturbations.space_support: {exc}") from None
    return cfg, entries


def validate(config_path) -> int:
    """Load and invariant-check a config without running anything."""
    _load(config_path)
    return 0


def run(config_path) -> int:
    cfg, entries = _load(config_path)
    name = cfg["experiment"]
    runner, seed_key, _ = EXPERIMENTS[name]
    out_dir = Path(os.environ.get("OUTPUT_DIR") or cfg["output_dir"]
                   or f"out/{name}")
    out_dir.mkdir(parents=True, exist_ok=True)

    started = time.time()
    summary, checks = runner(cfg, out_dir)
    elapsed = time.time() - started

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
        "output_dir": str(out_dir),
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
