"""Named, reproducible experiments over the library modules.

Configs are flat text files of dotted keys ("mc.N = 100000"); the only
environment override honored is OUTPUT_DIR. Every run writes

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
from .io_formats import couple_to_csv, transport_to_csv, write_json
from .madelung import (constant_drift, decompose, drift, madelung_residuals,
                       spreading_mismatched_couple)
from .nelson_sde import (estimate_I, marginal_histogram, marginal_l1,
                         renormalized_action, simulate_ensemble)
from .schrodinger import (GaussianPacketSpec, free_propagate, gaussian_packet,
                          packet_classical_action, packet_density, packet_initial,
                          packet_quantum_action, packet_sigma_sq)

_REQUIRED = object()


# ---------------------------------------------------------------------------
# Config handling

class Config:
    """Typed access to the flat dotted-key config format."""

    def __init__(self, entries: dict[str, str], path: str):
        self.entries = entries
        self.path = path

    def _raw(self, key: str, default):
        if key in self.entries:
            return self.entries[key]
        if default is _REQUIRED:
            raise ConfigError(f"{key}: required key missing from {self.path}")
        return None

    def get_str(self, key: str, default=_REQUIRED) -> str:
        raw = self._raw(key, default)
        return default if raw is None else raw

    def _cast(self, key: str, default, kind: str, caster):
        raw = self._raw(key, default)
        if raw is None:
            return default
        try:
            return caster(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected {kind}, got '{raw}'") from None

    def get_int(self, key: str, default=_REQUIRED, minimum=None) -> int:
        value = self._cast(key, default, "an integer", int)
        if minimum is not None and value < minimum:
            raise ConfigError(f"{key}: must be at least {minimum}, got {value}")
        return value

    def get_float(self, key: str, default=_REQUIRED) -> float:
        return self._cast(key, default, "a number", float)

    def get_bool(self, key: str, default=_REQUIRED) -> bool:
        def parse(raw: str) -> bool:
            low = raw.lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        return self._cast(key, default, "a boolean", parse)

    def get_floats(self, key: str, default=_REQUIRED) -> tuple:
        def parse(raw: str) -> tuple:
            return tuple(float(part) for part in raw.split(","))
        return self._cast(key, default, "comma separated numbers", parse)

    def get_ints(self, key: str, default=_REQUIRED) -> tuple:
        def parse(raw: str) -> tuple:
            return tuple(int(part) for part in raw.split(","))
        return self._cast(key, default, "comma separated integers", parse)


def parse_config(path) -> Config:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    entries: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in entries:
            raise ConfigError(f"{key}: duplicated at {path}:{lineno}")
        entries[key] = value
    return Config(entries, str(path))


def _build_grid(cfg: Config) -> GridSpec:
    try:
        return GridSpec(cfg.get_float("grid.x_min", -12.0),
                        cfg.get_float("grid.x_max", 12.0),
                        cfg.get_int("grid.n_x", 512),
                        cfg.get_int("grid.n_t", 256),
                        boundary_tol=cfg.get_float("grid.boundary_tol", 1e-12))
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from None


def _build_packet(cfg: Config) -> GaussianPacketSpec:
    try:
        return GaussianPacketSpec(cfg.get_float("packet.sigma0", 1.0),
                                  cfg.get_float("packet.mu0", 0.0),
                                  cfg.get_float("packet.p", 0.0))
    except ValueError as exc:
        raise ConfigError(f"packet: {exc}") from None


def _mc_params(cfg: Config) -> dict:
    return {"N": cfg.get_int("mc.N", 100000, minimum=1),
            "n": cfg.get_int("mc.n", 256, minimum=1),
            "substeps": cfg.get_int("mc.substeps", 4, minimum=1),
            "seed": cfg.get_int("mc.seed", 2025)}


def _perturbation_specs(cfg: Config) -> list[PerturbationSpec]:
    count = cfg.get_int("theorem.n_specs", 20, minimum=0)
    seed0 = cfg.get_int("theorem.seed", 1000)
    support = cfg.get_floats("perturbations.space_support", (-4.0, 4.0))
    window = cfg.get_floats("perturbations.time_window", (0.1, 0.9))
    amplitude = cfg.get_float("perturbations.amplitude", 0.08)
    modes = cfg.get_int("perturbations.modes", 3, minimum=1)
    if len(support) != 2:
        raise ConfigError("perturbations.space_support: expected two numbers")
    if len(window) != 2:
        raise ConfigError("perturbations.time_window: expected two numbers")
    try:
        return [PerturbationSpec(seed0 + k, tuple(support), tuple(window),
                                 amplitude, modes)
                for k in range(count)]
    except ValueError as exc:
        raise ConfigError(f"perturbations: {exc}") from None


# ---------------------------------------------------------------------------
# Check bookkeeping

class Checks:
    def __init__(self):
        self.results: dict[str, dict] = {}

    def record(self, name: str, ok: bool, observed: float, bound: float) -> None:
        self.results[name] = {"ok": bool(ok), "observed": float(observed),
                              "bound": float(bound)}

    def within(self, name: str, observed: float, bound: float) -> None:
        self.record(name, abs(observed) <= bound, observed, bound)

    def holds(self, name: str, condition: bool, observed: float,
              bound: float = 0.0) -> None:
        self.record(name, condition, observed, bound)

    def failures(self) -> list[str]:
        return [f"{name}: observed {entry['observed']:.6g} "
                f"(bound {entry['bound']:.6g})"
                for name, entry in self.results.items() if not entry["ok"]]


# ---------------------------------------------------------------------------
# Experiments

def _packet_couple(cfg: Config):
    grid = _build_grid(cfg)
    spec = _build_packet(cfg)
    psi = gaussian_packet(spec, grid)
    rho, phase, couple = decompose(psi)
    return grid, spec, psi, rho, phase, couple


def run_gaussian_benchmark(cfg: Config, out_dir: Path) -> tuple[dict, Checks]:
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
    half_grid = GridSpec(grid.x_min, grid.x_max, grid.n_x, grid.n_t // 2,
                         boundary_tol=grid.boundary_tol)
    rho_h, phase_h, _ = decompose(gaussian_packet(spec, half_grid))
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
    band_q = max(4.0 * ren.std_error, 0.02 * abs(quantum.value))
    checks.within("mc-renormalized-vs-quantum", ren.mean - quantum.value, band_q)
    band_i = max(4.0 * mc_i.std_error, 0.02 * abs(quantum.value))
    checks.within("mc-pathwise-vs-quantum", mc_i.mean - quantum.value, band_i)
    both = 4.0 * float(np.hypot(ren.std_error, mc_i.std_error))
    checks.within("mc-pathwise-vs-renormalized", mc_i.mean - ren.mean, both)
    distances = marginal_l1(ens, rho)
    checks.within("mc-marginals", max(distances.values()), 0.03)
    summary["mc"] = {"renormalized": ren.as_dict(), "pathwise": mc_i.as_dict(),
                     "marginal_l1": {f"{k:g}": v for k, v in distances.items()},
                     "params": mc}

    if cfg.get_bool("write_fields", False):
        couple_to_csv(out_dir / "packet_couple.csv", grid, rho.values,
                      couple.v.values)
    return summary, checks


def run_renormalization_convergence(cfg: Config, out_dir: Path) -> tuple[dict, Checks]:
    grid, spec, psi, rho, phase, couple = _packet_couple(cfg)
    checks = Checks()
    mc = _mc_params(cfg)
    n_list = cfg.get_ints("mc.n_list", (64, 128, 256, 512))

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
            band = max(4.0 * mc_i.std_error, 0.02 * abs(quantum.value))
            checks.within("pathwise-vs-quantum", mc_i.mean - quantum.value, band)
            both = 4.0 * float(np.hypot(ren.std_error, mc_i.std_error))
            checks.within("pathwise-vs-renormalized", mc_i.mean - ren.mean, both)
        table.append(entry)

    settled = [n for n in sorted(n_list) if n >= 256]
    for i, n_a in enumerate(settled):
        for n_b in settled[i + 1:]:
            ea, eb = estimates[n_a], estimates[n_b]
            band = 4.0 * float(np.hypot(ea.std_error, eb.std_error))
            checks.within(f"stabilized-{n_a}-{n_b}", ea.mean - eb.mean, band)
    if mc["n"] in estimates:
        ren = estimates[mc["n"]]
        band = max(4.0 * ren.std_error, 0.02 * abs(quantum.value))
        checks.within("renormalized-vs-quantum", ren.mean - quantum.value, band)

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


# theorem.base kind -> builder of the base couple from (packet spec, grid)
THEOREM_BASES = {
    "schrodinger": lambda spec, grid: decompose(gaussian_packet(spec, grid))[2],
    "mismatched": spreading_mismatched_couple,
}


def _theorem_base_kind(cfg: Config) -> str:
    kind = cfg.get_str("theorem.base", "schrodinger")
    if kind not in THEOREM_BASES:
        raise ConfigError(f"theorem.base: unknown kind '{kind}' "
                          f"(choose from {', '.join(sorted(THEOREM_BASES))})")
    return kind


def run_theorem1_verify(cfg: Config, out_dir: Path) -> tuple[dict, Checks]:
    grid = _build_grid(cfg)
    spec = _build_packet(cfg)
    base_kind = _theorem_base_kind(cfg)
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

    rows = []
    for r in constructed:
        for y, value, radius in r["y_profile"]:
            rows.append((r["seed"], y, value, radius))
    if rows:
        arr = np.array(rows)
        np.savetxt(out_dir / "y_profiles.csv", arr, delimiter=",",
                   header="seed,y,quantum_action,error_radius", comments="",
                   fmt="%.17g")

    summary = {"experiment": "theorem1-verify", "base": base_kind,
               "report": report}
    return summary, checks


def run_bb_compare(cfg: Config, out_dir: Path) -> tuple[dict, Checks]:
    grid, spec, psi, rho, phase, couple = _packet_couple(cfg)
    checks = Checks()
    n_pairs = cfg.get_int("transport.n_pairs", 10, minimum=1)
    rng = np.random.default_rng(cfg.get_int("transport.seed", 7))

    pair_rows = []
    worst_w2 = worst_bb = 0.0
    first_plan = None
    for _ in range(n_pairs):
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
        if first_plan is None:
            first_plan = plan
    checks.within("w2-vs-map-cost", worst_w2, 1e-5)
    checks.within("bb-identity", worst_bb, 1e-4)

    g0, g1 = packet_endpoint_measures(spec)
    wave_report = quantum_vs_classical(g0, g1, couple)

    geodesic = displacement_couple(g0, g1, grid)
    res_full = euler_residual(geodesic)
    half_grid = GridSpec(grid.x_min, grid.x_max, grid.n_x, grid.n_t // 2,
                         boundary_tol=grid.boundary_tol)
    res_half = euler_residual(displacement_couple(g0, g1, half_grid))
    ratio = res_half / res_full if res_full > 0.0 else float("inf")
    checks.holds("geodesic-euler-order", 3.0 <= ratio <= 5.0, ratio, 4.0)

    packet_res = euler_residual(couple)
    limit = packet_curvature_term_sup(spec, grid)
    checks.within("packet-euler-limit", (packet_res - limit) / limit, 0.05)

    if first_plan is not None:
        transport_to_csv(out_dir / "first_pair_map.csv", grid.x,
                         first_plan.map_samples, first_plan.potential_samples)

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


def run_marginal_check(cfg: Config, out_dir: Path) -> tuple[dict, Checks]:
    grid, spec, psi, rho, phase, couple = _packet_couple(cfg)
    checks = Checks()
    mc = _mc_params(cfg)
    b = drift(couple)
    ens = simulate_ensemble(b, rho.values[0], grid, mc["N"], mc["n"],
                            mc["substeps"], mc["seed"])
    distances = marginal_l1(ens, rho)
    for frac, value in distances.items():
        checks.within(f"marginal-l1-t{frac:g}", value, 0.03)

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
    np.savetxt(out_dir / "marginals.csv", np.vstack(tables), delimiter=",",
               header="t,x,histogram,reference", comments="", fmt="%.17g")

    summary = {"experiment": "marginal-check",
               "marginal_l1": {f"{k:g}": v for k, v in distances.items()},
               "mc_params": mc}
    return summary, checks


EXPERIMENTS = {
    "gaussian-benchmark": (run_gaussian_benchmark,
                           "packet exactness, residual order, action identities, "
                           "renormalized MC agreement"),
    "renormalization-convergence": (run_renormalization_convergence,
                                    "discrete action stabilization over the "
                                    "partition sizes, plus drift controls"),
    "theorem1-verify": (run_theorem1_verify,
                        "minimization of the quantum action over competitor "
                        "families (or its failure off the minimizer)"),
    "bb-compare": (run_bb_compare,
                   "transport distance identities and the geodesic versus "
                   "wave couple contrast"),
    "marginal-check": (run_marginal_check,
                       "histogram marginals of the diffusion ensemble against "
                       "the wave density"),
}


# ---------------------------------------------------------------------------
# Entry points

def _precheck_amplitudes(cfg: Config) -> None:
    """Mirror the build time positivity rescaling, refusing only what it would."""
    grid = _build_grid(cfg)
    spec = _build_packet(cfg)
    rho = packet_density(spec, grid.x[np.newaxis, :], grid.t[:, np.newaxis])
    for pert in _perturbation_specs(cfg):
        try:
            positivity_head_room(pert, rho, grid)
        except AmplitudeInfeasible as exc:
            raise ConfigError(
                f"perturbations.amplitude: {pert.amplitude} cannot keep the "
                f"density positive for seed {pert.seed}: {exc}") from None


def validate(config_path) -> int:
    """Parse and invariant-check a config without running anything."""
    cfg = parse_config(config_path)
    name = cfg.get_str("experiment")
    if name not in EXPERIMENTS:
        raise ConfigError(f"experiment: unknown name '{name}' "
                          f"(choose from {', '.join(sorted(EXPERIMENTS))})")
    _build_grid(cfg)
    _build_packet(cfg)
    _mc_params(cfg)
    if name == "theorem1-verify":
        _theorem_base_kind(cfg)
        _precheck_amplitudes(cfg)
    if name == "renormalization-convergence":
        for n in cfg.get_ints("mc.n_list", (64, 128, 256, 512)):
            if n < 1:
                raise ConfigError(f"mc.n_list: partition sizes must be "
                                  f"positive, got {n}")
    return 0


def run(config_path) -> int:
    cfg = parse_config(config_path)
    validate(config_path)
    name = cfg.get_str("experiment")
    out_dir = Path(os.environ.get("OUTPUT_DIR")
                   or cfg.get_str("output_dir", f"out/{name}"))
    out_dir.mkdir(parents=True, exist_ok=True)

    started = time.time()
    runner = EXPERIMENTS[name][0]
    summary, checks = runner(cfg, out_dir)
    elapsed = time.time() - started

    summary["checks"] = checks.results
    summary["config"] = dict(sorted(cfg.entries.items()))
    write_json(out_dir / "summary.json", summary)

    manifest = {
        "config_sha256": hashlib.sha256(Path(config_path).read_bytes()).hexdigest(),
        "experiment": name,
        "seed": cfg.get_int("mc.seed", 2025),
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
            print(f"{name}: {EXPERIMENTS[name][1]}")
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
