"""Seeded inputs for the two benchmark workloads.

Everything a workload feeds the lab comes from here, drawn from the
benchmark seed alone: the same seed always gives the same inputs, and
the lab sees only these generated values. Nothing here imports the lab.

Packets and transport pairs are drawn from the ranges that are feasible
on the [-12, 12) box with the lab's own tolerances: sigma0 in
[1.0, 1.2], |mu0| <= 0.5, |p| <= 0.5 for packets, means in [-2, 2] and
standard deviations in [0.6, 1.2] for pairs (see NOTES.md for the
measured edges of those ranges).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("monte-carlo", "quadrature")

BOX = (-12.0, 12.0)
GRID = (512, 256)

SIGMA0_RANGE = (1.0, 1.2)
MU0_LIMIT = 0.5
P_LIMIT = 0.5
DRIFT_PROBE_POSITIONS = 8192   # one ensemble block
# bb-compare draws standard deviations up to 1.3; above ~1.27 with
# |mean| > ~1.75 the geodesic couple trips BoundaryLeak (see NOTES.md)
PAIR_MEAN_RANGE = (-2.0, 2.0)
PAIR_STD_RANGE = (0.6, 1.2)
# Perturbation seeds the lab's acceptance suite verifies (criterion 7);
# 2 of 150 random seeds tried gave a violated or inconclusive
# Schrodinger family (see NOTES.md)
SPEC_SEEDS = tuple(range(1000, 1020))


@dataclass(frozen=True)
class Inputs:
    """The generated inputs of one workload at one seed.

    packets: (sigma0, mu0, p) triples; grids: (n_x, n_t) pairs on BOX.
    The Monte-Carlo fields size the ensembles: ``N`` and ``n`` the main
    ensemble, ``sweep_N`` and ``n_list`` the partition sweep, whose
    controls and mixture use ``sweep_n``. ``spec_seeds`` holds
    ``n_specs + 1`` distinct perturbation seeds (the last one feeds the
    direct family microbenchmark) and ``pairs`` holds
    (mean0, std0, mean1, std1) Gaussian transport endpoints per
    packet-grid combination.
    """

    workload: str
    seed: int
    packets: tuple
    grids: tuple
    mc_seed: int = 0
    N: int = 0
    n: int = 0
    sweep_N: int = 0
    sweep_n: int = 0
    n_list: tuple = ()
    mixture_weight: float = 0.5
    spec_seeds: tuple = ()
    n_specs: int = 0
    pairs: tuple = ()


def _packet(rng: np.random.Generator) -> tuple:
    return (float(rng.uniform(*SIGMA0_RANGE)),
            float(rng.uniform(-MU0_LIMIT, MU0_LIMIT)),
            float(rng.uniform(-P_LIMIT, P_LIMIT)))


def _pair(rng: np.random.Generator) -> tuple:
    return (float(rng.uniform(*PAIR_MEAN_RANGE)), float(rng.uniform(*PAIR_STD_RANGE)),
            float(rng.uniform(*PAIR_MEAN_RANGE)), float(rng.uniform(*PAIR_STD_RANGE)))


def generate(workload: str, seed: int) -> Inputs:
    """Inputs of ``workload`` for benchmark seed ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload '{workload}' "
                         f"(choose from {', '.join(WORKLOADS)})")
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    # Sizes keep a pass to a second or two: the run reports its fastest
    # pass, and short passes are what make that steady (see NOTES.md).
    if workload == "monte-carlo":
        return Inputs(workload, seed, packets=(_packet(rng),), grids=(GRID,),
                      mc_seed=int(rng.integers(1, 2**31)),
                      N=16384, n=64,
                      sweep_N=1024, sweep_n=256, n_list=(64, 128, 256, 512),
                      mixture_weight=float(rng.choice([0.25, 0.5, 0.75])))
    packets = (_packet(rng),)
    grids = (GRID,)
    n_specs = 5
    spec_seeds = rng.choice(SPEC_SEEDS, n_specs + 1, replace=False)
    n_pairs = 3 * len(packets) * len(grids)
    return Inputs(workload, seed, packets=packets, grids=grids,
                  spec_seeds=tuple(int(s) for s in spec_seeds), n_specs=n_specs,
                  pairs=tuple(_pair(rng) for _ in range(n_pairs)))


def drift_probe_positions(inputs: Inputs) -> np.ndarray:
    """Positions for the drift-lookup microbenchmark, inside the box."""
    rng = np.random.default_rng([WORKLOADS.index(inputs.workload), inputs.seed, 1])
    return rng.uniform(-8.0, 8.0, DRIFT_PROBE_POSITIONS)
