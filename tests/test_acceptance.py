"""Acceptance gate: the eleven desk-scale criteria, one test each.

Every test prints exactly one "[criterion N] PASS/FAIL" line (visible
with -rA or -s) and enforces the stated tolerances. Tolerances and
grid sizes are the contractual ones; none are weakened here. Shared
heavyweight objects (the default packet couple, the reference 100k
ensemble) come from conftest fixtures.
"""

import time

import numpy as np
import pytest

from madelung_lab import (GaussianMeasure, GaussianPacketSpec, GridSpec,
                          PerturbationSpec, classical_action, constant_drift,
                          decompose, displacement_couple, drift, drift_action,
                          estimate_I, euler_residual, free_propagate,
                          gaussian_packet, gaussian_w2, madelung_residuals,
                          marginal_l1, mixture_ensemble, monge_map_1d,
                          packet_initial, quantum_action, renormalized_action,
                          simulate_ensemble, spreading_mismatched_couple,
                          translating_gaussian_couple,
                          transport_cost, verify_theorem1)
from madelung_lab.benamou_brenier import (packet_curvature_term_sup,
                                          packet_endpoint_measures)
from madelung_lab.cli import main as cli_main

MC_N = 100_000
MC_PARTITION = 256
MC_SUBSTEPS = 4
MC_SEED = 2025


def conclude(number, failures, notes=""):
    tag = f"[criterion {number}]"
    if failures:
        print(f"{tag} FAIL: " + "; ".join(failures))
        raise AssertionError(f"{tag} " + "; ".join(failures))
    print(f"{tag} PASS" + (f" ({notes})" if notes else ""))


def test_c01_schrodinger_exactness(packet_spec, grid):
    failures = []
    started = time.perf_counter()
    wave = free_propagate(packet_initial(packet_spec, grid), grid)
    dens = wave.density()
    norms = grid.dx * dens.sum(axis=-1)
    second_moment = grid.dx * float(np.sum(grid.x**2 * dens[-1]))
    elapsed = time.perf_counter() - started

    norm_drift = float(np.max(np.abs(norms - 1.0)))
    if abs(second_moment - 1.25) > 1e-6:
        failures.append(f"second moment {second_moment!r} not 1.25 +- 1e-6")
    if norm_drift > 1e-10:
        failures.append(f"norm drift {norm_drift:.3e} > 1e-10")
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f} s >= 5 s")
    conclude(1, failures,
             f"moment {second_moment:.9f}, drift {norm_drift:.1e}, {elapsed:.2f} s")


def test_c02_residual_refinement(packet_spec, packet_parts):
    failures = []
    coarse_grid = GridSpec(-12.0, 12.0, 512, 128)
    rho_c, phase_c, _ = decompose(gaussian_packet(packet_spec, coarse_grid))
    r1_c, r2_c = madelung_residuals(rho_c, phase_c)
    r1_f, r2_f = madelung_residuals(packet_parts[0], packet_parts[1])
    for label, ratio in (("mass", r1_c / r1_f), ("energy", r2_c / r2_f)):
        if not 3.5 <= ratio <= 4.5:
            failures.append(f"{label} residual ratio {ratio:.3f} outside 4 +- 0.5")
    conclude(2, failures, f"ratios {r1_c / r1_f:.3f}, {r2_c / r2_f:.3f}")


def test_c03_functional_identity(grid, packet_spec, packet_couple):
    failures = []
    couples = {
        "packet": packet_couple,
        "static-1": translating_gaussian_couple(grid, 0.0),
        "static-2": translating_gaussian_couple(grid, 0.0, variance=2.0),
        "translating-2-1": translating_gaussian_couple(grid, 2.0, 1.0),
        "translating-n1-15": translating_gaussian_couple(grid, -1.0, 1.5),
        "mismatched": spreading_mismatched_couple(packet_spec, grid),
    }
    worst = 0.0
    for name, couple in couples.items():
        gap = abs(quantum_action(couple).value
                  - drift_action(drift(couple), couple.rho).value)
        worst = max(worst, gap)
        if gap > 2e-6:
            failures.append(f"{name}: |route gap| {gap:.3e} > 2e-6")
    conclude(3, failures, f"worst gap {worst:.3e} over {len(couples)} couples")


def test_c04_renormalization_chain(grid, packet_couple, packet_drift):
    failures = []
    started = time.perf_counter()
    ens = simulate_ensemble(packet_drift, packet_couple.rho.values[0], grid,
                            MC_N, MC_PARTITION, MC_SUBSTEPS, MC_SEED)
    ren = renormalized_action(ens)
    direct = estimate_I(ens, packet_drift, packet_drift.divergence())
    target = quantum_action(packet_couple)

    estimates = {"renormalized": (ren.mean, ren.std_error),
                 "direct": (direct.mean, direct.std_error),
                 "quadrature": (target.value, 0.0)}
    names = list(estimates)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            va, sa = estimates[a]
            vb, sb = estimates[b]
            tol = max(4.0 * float(np.hypot(sa, sb)),
                      0.02 * max(abs(va), abs(vb)))
            if abs(va - vb) > tol:
                failures.append(f"{a} vs {b}: |{va:.5f} - {vb:.5f}| > {tol:.5f}")

    for value, target_value in ((0.0, 0.0), (3.0, 9.0)):
        control = simulate_ensemble(constant_drift(grid, value), None, grid,
                                    MC_N, MC_PARTITION, MC_SUBSTEPS, MC_SEED)
        est = renormalized_action(control)
        if abs(est.mean - target_value) > 4.0 * est.std_error:
            failures.append(f"b={value:g} control {est.mean:.4f} not within "
                            f"4 sigma of {target_value:g}")
    elapsed = time.perf_counter() - started
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.0f} s >= 2 min")
    conclude(4, failures,
             f"ren {ren.mean:.4f}+-{ren.std_error:.4f}, "
             f"direct {direct.mean:.5f}+-{direct.std_error:.5f}, "
             f"quadrature {target.value:.5f}, {elapsed:.0f} s")


def test_c05_partition_convergence(grid, packet_couple, packet_drift,
                                   big_ensemble):
    failures = []
    rho0 = packet_couple.rho.values[0]
    estimates = {}
    for n in (64, 128, 256, 512):
        if n == MC_PARTITION:
            ens = big_ensemble
        else:
            ens = simulate_ensemble(packet_drift, rho0, grid, MC_N, n,
                                    MC_SUBSTEPS, MC_SEED)
        estimates[n] = renormalized_action(ens)
    stable = [n for n in estimates if n >= 256]
    for i, a in enumerate(stable):
        for b in stable[i + 1:]:
            gap = abs(estimates[a].mean - estimates[b].mean)
            tol = 4.0 * float(np.hypot(estimates[a].std_error,
                                       estimates[b].std_error))
            if gap > tol:
                failures.append(f"n={a} vs n={b}: gap {gap:.4f} > {tol:.4f}")
    table = ", ".join(f"n={n}: {est.mean:.4f}+-{est.std_error:.4f}"
                      for n, est in estimates.items())
    conclude(5, failures, table)


def test_c06_marginal_property(big_ensemble, packet_couple):
    failures = []
    distances = marginal_l1(big_ensemble, packet_couple.rho,
                            fractions=(0.0, 0.25, 0.5, 0.75, 1.0))
    for frac, value in distances.items():
        if value > 0.03:
            failures.append(f"t={frac}: L1 {value:.4f} > 0.03")
    conclude(6, failures,
             "L1 " + ", ".join(f"{v:.4f}" for v in distances.values()))


def test_c07_minimization_profiles(packet_couple):
    failures = []
    started = time.perf_counter()
    specs = [PerturbationSpec(seed=1000 + k) for k in range(20)]
    report = verify_theorem1(packet_couple, specs)
    for entry in report["specs"]:
        seed = entry["seed"]
        if entry["verdict"] == "failed-to-construct":
            failures.append(f"seed {seed}: {entry['error']}")
            continue
        radius = entry["error_radius"]
        if entry["min_margin"] < -3.0 * radius:
            failures.append(f"seed {seed}: margin {entry['min_margin']:.2e} "
                            f"below -3 radius")
        if not 3.0 <= entry["derivative_ratio"] <= 5.0:
            failures.append(f"seed {seed}: derivative ratio "
                            f"{entry['derivative_ratio']:.2f} outside 4 +- 1")
        if entry["second_diff_min"] < -3.0 * radius:
            failures.append(f"seed {seed}: second difference "
                            f"{entry['second_diff_min']:.2e} below -3 radius")
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.0f} s >= 1 min")
    conclude(7, failures,
             f"{report['n_pass']}/20 profiles pass, {elapsed:.1f} s")


def test_c08_negative_control(packet_spec, grid):
    failures = []
    base = spreading_mismatched_couple(packet_spec, grid)
    specs = [PerturbationSpec(seed=1000 + k) for k in range(20)]
    report = verify_theorem1(base, specs)
    detections = [entry for entry in report["specs"]
                  if "derivative_at_0" in entry
                  and abs(entry["derivative_at_0"]) > 10.0 * entry["error_radius"]]
    if not detections:
        failures.append("no spec detected the non-critical base")
    conclude(8, failures, f"{len(detections)}/20 specs detect the broken base")


def test_c09_mixture_convexity(grid):
    failures = []
    n, substeps, n_samples, seed = 64, 2, 50_000, 777
    drifts = [constant_drift(grid, 0.0), constant_drift(grid, 3.0)]
    singles = [renormalized_action(simulate_ensemble(b, None, grid, n_samples,
                                                     n, substeps, seed))
               for b in drifts]
    for lam in (0.25, 0.5, 0.75):
        mixed = mixture_ensemble(drifts, [lam, 1.0 - lam], None, grid,
                                 n_samples, n, substeps, seed)
        mix_est = renormalized_action(mixed)
        combo = lam * singles[0].mean + (1.0 - lam) * singles[1].mean
        spread = 4.0 * float(np.hypot(
            mix_est.std_error,
            np.hypot(lam * singles[0].std_error,
                     (1.0 - lam) * singles[1].std_error)))
        if mix_est.mean > combo + spread:
            failures.append(f"lambda={lam}: mixture {mix_est.mean:.3f} above "
                            f"combination {combo:.3f} + {spread:.3f}")
    conclude(9, failures, "mixture action below convex combination at "
                          "lambda 0.25, 0.5, 0.75")


def test_c10_transport_identities(grid, packet_spec, packet_couple):
    failures = []
    flat = GridSpec(-12.0, 12.0, 512, 2)
    rng = np.random.default_rng(7)
    worst_cost = worst_identity = 0.0
    for _ in range(10):
        g0 = GaussianMeasure(float(rng.uniform(-2.0, 2.0)),
                             float(rng.uniform(0.6, 1.3)) ** 2)
        g1 = GaussianMeasure(float(rng.uniform(-2.0, 2.0)),
                             float(rng.uniform(0.6, 1.3)) ** 2)
        tau2 = gaussian_w2(g0, g1)

        rho0 = g0.density(flat.x)
        rho0 /= flat.dx * rho0.sum()
        rho1 = g1.density(flat.x)
        rho1 /= flat.dx * rho1.sum()
        cost = transport_cost(monge_map_1d(rho0, rho1, flat), rho0)
        worst_cost = max(worst_cost, abs(cost - tau2))

        geodesic_action = classical_action(
            displacement_couple(g0, g1, grid)).value
        worst_identity = max(worst_identity, abs(geodesic_action - tau2))
    if worst_cost > 1e-5:
        failures.append(f"map cost off closed form by {worst_cost:.2e} > 1e-5")
    if worst_identity > 1e-4:
        failures.append(f"geodesic action off tau2 by {worst_identity:.2e} > 1e-4")

    e0, e1 = packet_endpoint_measures(packet_spec)
    tau2_packet = gaussian_w2(e0, e1)
    wave_action = classical_action(packet_couple).value
    if tau2_packet > wave_action + 1e-12:
        failures.append(f"tau2 {tau2_packet:.5f} exceeds wave kinetic action "
                        f"{wave_action:.5f}")

    g0 = GaussianMeasure(-1.0, 0.64)
    g1 = GaussianMeasure(1.5, 1.44)
    fine = euler_residual(displacement_couple(g0, g1, grid))
    coarse = euler_residual(displacement_couple(
        g0, g1, GridSpec(-12.0, 12.0, 512, 128)))
    if not 3.0 <= coarse / fine <= 5.0:
        failures.append(f"geodesic residual decay {coarse / fine:.2f} not ~4")

    packet_residual = euler_residual(packet_couple)
    analytic = packet_curvature_term_sup(packet_spec, grid)
    if abs(packet_residual - analytic) > 0.05 * analytic:
        failures.append(f"packet residual {packet_residual:.5f} not within 5% "
                        f"of the curvature term {analytic:.5f}")
    conclude(10, failures,
             f"cost gap {worst_cost:.1e}, identity gap {worst_identity:.1e}, "
             f"decay {coarse / fine:.3f}, packet residual rel err "
             f"{abs(packet_residual - analytic) / analytic:.1e}")


def test_c11_determinism(tmp_path, monkeypatch, capsys):
    failures = []
    configs = {
        "bb-compare": "experiment = bb-compare\n",
        "gaussian-benchmark": "experiment = gaussian-benchmark\nmc.N = 2000\n",
    }
    for name, text in configs.items():
        config = tmp_path / f"{name}.cfg"
        config.write_text(text)
        blobs = []
        codes = []
        for attempt in ("first", "second"):
            out_dir = tmp_path / f"{name}-{attempt}"
            monkeypatch.setenv("OUTPUT_DIR", str(out_dir))
            with pytest.raises(SystemExit) as exc:
                cli_main(["run", str(config)])
            codes.append(exc.value.code)
            blobs.append((out_dir / "summary.json").read_bytes())
        capsys.readouterr()
        if blobs[0] != blobs[1]:
            failures.append(f"{name}: summary.json differs between runs")
        if codes[0] != codes[1]:
            failures.append(f"{name}: exit codes differ between runs")
    conclude(11, failures, "byte-identical summaries for two experiments")
