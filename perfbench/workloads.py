"""The benchmark's workloads: closed-loop passes over the lab's public API.

``prepare`` is the set-up (generated config validated, grid, packet,
decomposition, drifts); ``run_pass`` is one pass of a workload. Every
call into the lab goes through ``Tracer.call`` under the name
"module.function", so a traced pass yields per-module spans.

A pass is a sequence of operations. Each one is checked against the
bound the lab's CLI or acceptance suite already applies to it, never a
wider one; an operation that raises or misses its bound is counted as
failed and the pass goes on. Every computed value is recorded, so a
pass can be summarised by a digest.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from madelung_lab import (GaussianMeasure, GaussianPacketSpec, GridSpec,
                          PerturbationSpec, classical_action, constant_drift,
                          decompose, displacement_couple, drift, drift_action,
                          estimate_I, euler_residual, evaluate_family,
                          finite_action_norm, free_propagate, gaussian_packet,
                          gaussian_w2, madelung_residuals, make_family,
                          marginal_l1, mixture_ensemble, monge_map_1d,
                          packet_classical_action, packet_initial,
                          packet_quantum_action, quantum_action,
                          quantum_vs_classical, renormalized_action,
                          simulate_ensemble, spreading_mismatched_couple,
                          transport_cost, verify_theorem1)
from madelung_lab.benamou_brenier import (packet_curvature_term_sup,
                                          packet_endpoint_measures)
from madelung_lab.cli import validate
from madelung_lab.io_formats import couple_to_csv, write_json

from inputs import BOX, Inputs, drift_probe_positions

SUBSTEPS = 4
ENSEMBLE_BLOCK = 8192        # trajectories per Philox block in nelson_sde
MARGINAL_L1_BOUND = 0.03     # calibrated by the lab at N = 100000
DRIFT_PROBE_EVERY = 32       # drift lookups compared with the reference


class CheckFailed(Exception):
    pass


def within(name: str, observed: float, bound: float) -> None:
    if not abs(observed) <= bound:
        raise CheckFailed(f"{name}: observed {observed:.6g}, bound {bound:.6g}")


def holds(name: str, condition: bool, observed: float) -> None:
    if not condition:
        raise CheckFailed(f"{name}: observed {observed:.6g}")


def mc_band(estimate, quantum: float) -> float:
    """The CLI's band for a Monte-Carlo estimate of the quantum action."""
    return max(4.0 * estimate.std_error, 0.02 * abs(quantum))


def _mc_dict(estimate) -> dict:
    return {"mean": float(estimate.mean), "std_error": float(estimate.std_error)}


def digest(values: dict) -> str:
    """SHA-256 of the canonical (sorted, compact) JSON of ``values``."""
    text = json.dumps(values, sort_keys=True, separators=(",", ":"),
                      default=lambda obj: obj.item())
    return hashlib.sha256(text.encode()).hexdigest()


class Pass:
    """Operation and failure counts, values and work counts of one pass."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.values: dict = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.stats: dict[str, float] = {}

    def call(self, name: str, fn, *args, **kwargs):
        return self.tracer.call(name, fn, *args, **kwargs)

    def op(self, name: str, fn, *needs):
        """Run operation ``fn``; None if it, or one it needs, failed."""
        self.attempted += 1
        if any(need is None for need in needs):
            self.failures.append(f"{name}: not run, an operation it needs failed")
            return None
        try:
            return fn()
        except CheckFailed as exc:
            self.failures.append(str(exc))
        except Exception as exc:  # noqa: BLE001 - one failure must not end the run
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        return None

    def ensemble(self, name: str, fn, *args, K: int = 1):
        """Run an ensemble call (its arguments end with grid, N, n,
        substeps, seed) and count its work at that size."""
        N, n, substeps = args[-4:-1]
        ens = self.call(name, fn, *args)
        self.counts["traj_steps"] += N * n * substeps * K
        self.counts["blocks"] += math.ceil(N / ENSEMBLE_BLOCK)
        # computed, not measured: float64 paths plus float32 noise sums
        self.counts["paths_bytes"] = max(self.counts["paths_bytes"],
                                         N * (n + 1) * 8 + N * n * 4)
        return ens

    @property
    def digest(self) -> str:
        return digest(self.values)


@dataclass
class Setup:
    grid: GridSpec
    spec: GaussianPacketSpec
    rho: object
    couple: object
    b: object
    b_mismatched: object = None


def write_config(inputs: Inputs, path: Path) -> None:
    """The CLI config of the experiment this workload miniaturises."""
    n_x, n_t = inputs.grids[0]
    sigma0, mu0, p = inputs.packets[0]
    lines = [f"grid.x_min = {BOX[0]}", f"grid.x_max = {BOX[1]}",
             f"grid.n_x = {n_x}", f"grid.n_t = {n_t}",
             f"packet.sigma0 = {sigma0!r}", f"packet.mu0 = {mu0!r}",
             f"packet.p = {p!r}"]
    if inputs.workload == "quadrature":
        lines = ["experiment = theorem1-verify", *lines,
                 "theorem.base = schrodinger",
                 f"theorem.n_specs = {inputs.n_specs}",
                 f"theorem.seed = {inputs.spec_seeds[0]}"]
    else:
        lines = ["experiment = gaussian-benchmark", *lines,
                 f"mc.N = {inputs.N}", f"mc.n = {inputs.n}",
                 f"mc.substeps = {SUBSTEPS}", f"mc.seed = {inputs.mc_seed}",
                 "mc.n_list = " + ",".join(map(str, inputs.n_list))]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def prepare(inputs: Inputs, tracer, config_path: Path) -> Setup:
    """Validate the generated config and build the fields every pass uses."""
    write_config(inputs, config_path)
    tracer.call("cli.validate", validate, config_path)
    n_x, n_t = inputs.grids[0]
    grid = GridSpec(BOX[0], BOX[1], n_x, n_t)
    spec = GaussianPacketSpec(*inputs.packets[0])
    psi = tracer.call("schrodinger.gaussian_packet", gaussian_packet, spec, grid)
    rho, _, couple = tracer.call("madelung.decompose", decompose, psi)
    b = tracer.call("madelung.drift", drift, couple)
    setup = Setup(grid, spec, rho, couple, b)
    if inputs.workload == "monte-carlo":
        mismatched = tracer.call("madelung.spreading_mismatched_couple",
                                 spreading_mismatched_couple, spec, grid)
        setup.b_mismatched = tracer.call("madelung.drift", drift, mismatched)
    return setup


# ---------------------------------------------------------------------------
# Passes

def _quantum_reference(p: Pass, setup: Setup) -> float:
    def run():
        q = p.call("action_functionals.quantum_action", quantum_action, setup.couple)
        p.values["quantum"] = q.as_dict()
        within("quantum-closed-form", q.value - packet_quantum_action(setup.spec),
               1e-5)
        return q.value
    return p.op("quantum_action", run)


def _renormalized(p: Pass, key: str, ens, check=None, needs=()):
    def run():
        est = p.call("nelson_sde.renormalized_action", renormalized_action, ens)
        p.values[key] = _mc_dict(est)
        if check is not None:
            check(est)
        return est
    return p.op(key, run, ens, *needs)


def _ensemble_path(p: Pass, setup: Setup, inputs: Inputs, quantum) -> None:
    """gaussian-benchmark and marginal-check: one ensemble, its estimators."""
    grid, b, rho = setup.grid, setup.b, setup.rho
    div_b = p.op("drift_divergence",
                 lambda: p.call("madelung.drift_divergence", b.divergence))
    ens = p.op("simulate_ensemble", lambda: p.ensemble(
        "nelson_sde.simulate_ensemble", simulate_ensemble, b, rho.values[0], grid,
        inputs.N, inputs.n, SUBSTEPS, inputs.mc_seed))

    def renormalized_check(est):
        p.stats["renormalized_se"] = est.std_error
        within("mc-renormalized-vs-quantum", est.mean - quantum,
               mc_band(est, quantum))
    ren = _renormalized(p, "renormalized", ens, renormalized_check, (quantum,))

    def pathwise():
        est = p.call("nelson_sde.estimate_I", estimate_I, ens, b, div_b)
        p.values["pathwise"] = _mc_dict(est)
        p.stats["pathwise_se"] = est.std_error
        within("mc-pathwise-vs-quantum", est.mean - quantum, mc_band(est, quantum))
        within("mc-pathwise-vs-renormalized", est.mean - ren.mean,
               4.0 * float(np.hypot(ren.std_error, est.std_error)))
    p.op("estimate_I", pathwise, ens, div_b, quantum, ren)

    def marginals():
        # Recorded, not gated: the lab's 0.03 bound is calibrated at
        # N = 100000 and sits below the sampling floor at this N.
        distances = p.call("nelson_sde.marginal_l1", marginal_l1, ens, rho)
        worst = max(distances.values())
        p.values["marginal_l1"] = {f"{k:g}": v for k, v in distances.items()}
        p.stats["marginal_l1_max"] = worst
        p.stats["marginal_l1_headroom"] = worst / MARGINAL_L1_BOUND
    p.op("marginal_l1", marginals, ens)

    def drift_lookup():
        # One block's lookups: 8192 positions at every substep time.
        positions = drift_probe_positions(inputs)
        steps = inputs.n * SUBSTEPS
        scale = float(np.max(np.abs(p.call("madelung.drift_evaluate_nodes",
                                           b.evaluate, grid.x, 0.0))))
        worst = 0.0
        for k in range(steps):
            t = k / steps
            got = p.call("madelung.drift_evaluate", b.evaluate, positions, t)
            if k % DRIFT_PROBE_EVERY == 0:
                nodes = p.call("madelung.drift_evaluate_nodes", b.evaluate, grid.x, t)
                reference = np.interp(positions, grid.x, nodes)
                worst = max(worst, float(np.max(np.abs(got - reference))))
        p.values["drift_lookup_worst"] = worst
        within("drift-evaluate-vs-linear", worst, 1e-12 * scale)
    p.op("drift_evaluate", drift_lookup)


def _sweep_path(p: Pass, setup: Setup, inputs: Inputs, quantum) -> None:
    """renormalization-convergence, the drift controls and criterion 9."""
    grid, rho0 = setup.grid, setup.rho.values[0]
    N, n_ref, seed = inputs.sweep_N, inputs.sweep_n, inputs.mc_seed

    def simulate(key: str, b, n: int):
        return p.op(key, lambda: p.ensemble(
            "nelson_sde.simulate_ensemble", simulate_ensemble, b, rho0, grid,
            N, n, SUBSTEPS, seed), b)

    def versus_quantum(est):
        within("renormalized-vs-quantum", est.mean - quantum, mc_band(est, quantum))

    estimates = {}
    for n in inputs.n_list:
        ens = simulate(f"simulate_ensemble-n{n}", setup.b, n)
        if n == n_ref:
            estimates[n] = _renormalized(p, f"renormalized-n{n}", ens,
                                         versus_quantum, (quantum,))
        else:
            estimates[n] = _renormalized(p, f"renormalized-n{n}", ens)
        ens = None  # release the paths before the next partition size

    ea, eb = estimates[n_ref], estimates[max(inputs.n_list)]

    def stabilized():
        within("stabilized", ea.mean - eb.mean,
               4.0 * float(np.hypot(ea.std_error, eb.std_error)))
    p.op(f"stabilized-{n_ref}-{max(inputs.n_list)}", stabilized, ea, eb)

    for value, target in ((0.0, 0.0), (3.0, 9.0)):
        name = f"control-constant-{value:g}"
        control = p.op(f"constant_drift-{value:g}", lambda value=value: p.call(
            "madelung.constant_drift", constant_drift, grid, value))
        ens = simulate(f"simulate_ensemble-{name}", control, n_ref)

        def control_check(est, name=name, target=target):
            within(name, est.mean - target, 4.0 * est.std_error)
        _renormalized(p, f"renormalized-{name}", ens, control_check)
        ens = None

    lam = inputs.mixture_weight
    ens = simulate("simulate_ensemble-mismatched", setup.b_mismatched, n_ref)
    single = _renormalized(p, "renormalized-mismatched", ens)
    ens = None
    mixed = p.op("mixture_ensemble", lambda: p.ensemble(
        "nelson_sde.mixture_ensemble", mixture_ensemble,
        [setup.b, setup.b_mismatched], [lam, 1.0 - lam], rho0, grid,
        N, n_ref, SUBSTEPS, seed, K=2))
    packet_single = estimates.get(n_ref)

    def convexity(est):
        # acceptance criterion 9: the mixture's action lies below the
        # convex combination of its components' actions
        combo = lam * packet_single.mean + (1.0 - lam) * single.mean
        spread = 4.0 * float(np.hypot(est.std_error, np.hypot(
            lam * packet_single.std_error, (1.0 - lam) * single.std_error)))
        holds("mixture-convexity", est.mean <= combo + spread, est.mean - combo)
    _renormalized(p, "renormalized-mixture", mixed, convexity,
                  (single, packet_single))


def _combo_pass(p: Pass, inputs: Inputs, key: str, packet: tuple, n_x: int,
                n_t: int, pairs: list, out_dir: Path, write_csv: bool) -> None:
    grid = GridSpec(BOX[0], BOX[1], n_x, n_t)
    half_grid = GridSpec(BOX[0], BOX[1], n_x, n_t // 2)
    spec = GaussianPacketSpec(*packet)
    values = p.values.setdefault(key, {})

    psi = p.op(f"{key}-gaussian_packet", lambda: p.call(
        "schrodinger.gaussian_packet", gaussian_packet, spec, grid))

    def cross_check():
        psi0 = p.call("schrodinger.packet_initial", packet_initial, spec, grid)
        wave = p.call("schrodinger.free_propagate", free_propagate, psi0, grid)
        values["propagator_error"] = float(np.max(np.abs(wave.values - psi.values)))
        within("propagator-cross-check", values["propagator_error"], 1e-8)
    p.op(f"{key}-free_propagate", cross_check, psi)

    parts = p.op(f"{key}-decompose", lambda: p.call(
        "madelung.decompose", decompose, psi), psi)
    rho, phase, couple = parts if parts is not None else (None, None, None)

    def residual_order():
        r1, r2 = p.call("madelung.madelung_residuals", madelung_residuals, rho, phase)
        psi_h = p.call("schrodinger.gaussian_packet", gaussian_packet, spec, half_grid)
        rho_h, phase_h, _ = p.call("madelung.decompose", decompose, psi_h)
        r1_h, r2_h = p.call("madelung.madelung_residuals", madelung_residuals,
                            rho_h, phase_h)
        values["residuals"] = [r1, r2, r1_h, r2_h]
        holds("residual-order-r1", 3.5 <= r1_h / r1 <= 4.5, r1_h / r1)
        holds("residual-order-r2", 3.5 <= r2_h / r2 <= 4.5, r2_h / r2)
    p.op(f"{key}-madelung_residuals", residual_order, parts)

    def action(name, fn, *args):
        report = p.call(f"action_functionals.{name}", fn, *args)
        values[name] = report.as_dict()
        return report.value

    quantum = p.op(f"{key}-quantum_action",
                   lambda: action("quantum_action", quantum_action, couple), couple)
    classical = p.op(f"{key}-classical_action",
                     lambda: action("classical_action", classical_action, couple),
                     couple)

    def closed_forms():
        within("quantum-closed-form", quantum - packet_quantum_action(spec), 1e-5)
        within("classical-closed-form",
               classical - packet_classical_action(spec), 1e-5)
    p.op(f"{key}-closed-forms", closed_forms, quantum, classical)

    def sum_rule():
        finite = action("finite_action_norm", finite_action_norm, couple)
        within("action-sum-rule", finite + quantum - 2.0 * classical, 1e-8)
    p.op(f"{key}-finite_action_norm", sum_rule, quantum, classical)

    def identity():
        b = p.call("madelung.drift", drift, couple)
        through_drift = action("drift_action", drift_action, b, rho)
        within("action-identity", quantum - through_drift, 2e-6)
    p.op(f"{key}-drift_action", identity, quantum)

    specs = [PerturbationSpec(seed) for seed in inputs.spec_seeds[:inputs.n_specs]]

    def theorem():
        report = p.call("competitors.verify_theorem1", verify_theorem1, couple, specs)
        values["theorem1"] = report
        p.counts["families"] += report["n_specs"]
        p.counts["families_passed"] += report["n_pass"]
        p.counts["failed_to_construct"] += report["n_failed"]
        holds("families-all-pass", report["all_pass"], report["n_pass"])
        constructed = [r for r in report["specs"] if "y_profile" in r]
        worst = min(r["min_margin"] + 6.0 * r["error_radius"] for r in constructed)
        holds("minimization-margins", worst >= 0.0, worst)
        ratios = [r["derivative_ratio"] for r in constructed]
        holds("stationarity-order", all(3.0 <= q <= 5.0 for q in ratios), min(ratios))
    p.op(f"{key}-verify_theorem1", theorem, couple)

    def family():
        # the two halves of verify_theorem1, timed separately on one more spec
        spec_extra = PerturbationSpec(inputs.spec_seeds[inputs.n_specs])
        fam = p.call("competitors.make_family", make_family, couple, spec_extra)
        p.counts["families"] += 1
        profile = dict(p.call("competitors.evaluate_family", evaluate_family, fam))
        radius = max(rep.error_radius for rep in profile.values())
        margin = min(rep.value - profile[0.0].value
                     for y, rep in profile.items() if y != 0.0)
        values["family"] = {"min_margin": margin, "error_radius": radius}
        # verify_theorem1 calls a family violated below 3 combined radii
        holds("family-minimization", margin >= -6.0 * radius, margin)
        p.counts["families_passed"] += 1
    p.op(f"{key}-make_family", family, couple)

    for k, (m0, s0, m1, s1) in enumerate(pairs):
        def transport(m0=m0, s0=s0, m1=m1, s1=s1, k=k):
            g0, g1 = GaussianMeasure(m0, s0**2), GaussianMeasure(m1, s1**2)
            tau2 = p.call("benamou_brenier.gaussian_w2", gaussian_w2, g0, g1)
            rho0 = g0.density(grid.x)
            plan = p.call("benamou_brenier.monge_map_1d", monge_map_1d,
                          rho0, g1.density(grid.x), grid)
            cost = p.call("benamou_brenier.transport_cost", transport_cost, plan, rho0)
            geodesic = p.call("benamou_brenier.displacement_couple",
                              displacement_couple, g0, g1, grid)
            geo = p.call("action_functionals.classical_action", classical_action,
                         geodesic)
            values[f"pair{k}"] = {"tau2": tau2, "map_cost": cost,
                                  "geodesic_action": geo.value}
            within("w2-vs-map-cost", cost - tau2, 1e-5)
            within("bb-identity", geo.value - tau2, 1e-4)
        p.op(f"{key}-transport{k}", transport)

    def wave_vs_transport():
        g0, g1 = p.call("benamou_brenier.packet_endpoint_measures",
                        packet_endpoint_measures, spec)
        values["wave_vs_transport"] = p.call(
            "benamou_brenier.quantum_vs_classical", quantum_vs_classical,
            g0, g1, couple)
        geodesic = p.call("benamou_brenier.displacement_couple",
                          displacement_couple, g0, g1, grid)
        full = p.call("benamou_brenier.euler_residual", euler_residual, geodesic)
        geodesic_h = p.call("benamou_brenier.displacement_couple",
                            displacement_couple, g0, g1, half_grid)
        half = p.call("benamou_brenier.euler_residual", euler_residual, geodesic_h)
        wave = p.call("benamou_brenier.euler_residual", euler_residual, couple)
        limit = p.call("benamou_brenier.packet_curvature_term_sup",
                       packet_curvature_term_sup, spec, grid)
        values["euler"] = [full, half, wave, limit]
        holds("geodesic-euler-order", 3.0 <= half / full <= 5.0, half / full)
        within("packet-euler-limit", (wave - limit) / limit, 0.05)
    p.op(f"{key}-quantum_vs_classical", wave_vs_transport, couple)

    def outputs():
        path = out_dir / f"{key}.json"
        p.call("io_formats.write_json", write_json, path, values)
        text = path.read_text()
        p.counts["bytes_written"] += len(text.encode())
        expected = json.loads(json.dumps(values, default=lambda obj: obj.item()))
        holds("json-round-trip", json.loads(text) == expected, 0.0)
        if write_csv:
            csv_path = out_dir / f"{key}-couple.csv"
            p.call("io_formats.couple_to_csv", couple_to_csv, csv_path, grid,
                   rho.values, couple.v.values)
            data = csv_path.read_bytes()
            p.counts["bytes_written"] += len(data)
            rows = data.count(b"\n") - 1
            holds("csv-rows", rows == (n_t + 1) * n_x, rows)
    p.op(f"{key}-write_json", outputs, couple)


def quadrature_pass(p: Pass, inputs: Inputs, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    pairs = iter(inputs.pairs)
    per_combo = len(inputs.pairs) // (len(inputs.packets) * len(inputs.grids))
    for i, packet in enumerate(inputs.packets):
        for j, (n_x, n_t) in enumerate(inputs.grids):
            combo_pairs = [next(pairs) for _ in range(per_combo)]
            _combo_pass(p, inputs, f"packet{i}-{n_x}x{n_t}", packet, n_x, n_t,
                        combo_pairs, out_dir, write_csv=(j == 0))


def run_pass(inputs: Inputs, setup: Setup, tracer, out_dir: Path) -> Pass:
    p = Pass(tracer)
    if inputs.workload == "monte-carlo":
        # the ensemble path first: the time-to-standard-error metrics
        # take its spans, the first of their names in the pass
        quantum = _quantum_reference(p, setup)
        _ensemble_path(p, setup, inputs, quantum)
        _sweep_path(p, setup, inputs, quantum)
    else:
        quadrature_pass(p, inputs, out_dir)
    return p
