"""Diffusion ensembles with unit diffusion matrix and Markovian drifts.

Trajectories follow

    q_t = X0 + integral of b(q_s, s) ds + W_t

by Euler-Maruyama with ``substeps`` internal steps per partition
interval, so the SDE integration error is decoupled from the partition
size n that defines the discrete action

    F_n = n * E[ sum over i of (q_{t_{i+1}} - q_{t_i})^2 ].

Subtracting n (the expected quadratic variation of the noise alone)
renormalizes F_n; for a Markovian drift the renormalized value
estimates the expected time integral of b^2 + div b, hence the quantum
action of the underlying couple. An ensemble therefore keeps only the
positions at the partition nodes. A drift is a scalar field; it and its
divergence are read along trajectories by :meth:`ScalarField.at`
(linear in x, frozen at the time node to the left), so the stepping and
the estimators share one rule. A drift equal to one value c on the
whole lattice reads c everywhere, so its track steps by the scalar c
and takes no lookup. Every estimator forms its mean and standard error
by one rule, :meth:`MCEstimate.of_samples`.

Determinism: initial samples come from a Philox stream keyed by
(seed, 1); trajectory noise is keyed by (seed, 2 + block) where blocks
are fixed runs of 8192 consecutive trajectories. Every estimate is
therefore reproducible bit for bit regardless of scheduling, and
trajectory k's noise does not depend on N. Each partition interval
steps on a (substeps, block size) array of noise. The arrays are drawn
in jobs of several intervals, one job ahead of the stepping, on one
worker thread that each call opens and closes; the jobs follow the
stream order, and a generator fills a (k, substeps, width) array with
the values of k successive (substeps, width) fills, so the stream is
the one a draw per substep would give. The noise is drawn as standard
normals scaled by sqrt(h) in place: the values of ``normal(0, sqrt(h))``
except that a -0.0 draw keeps its sign.

Memory: the path matrix, N * (n + 1) float64 values, is the only
allocation that grows with N * n. Every estimator's scratch is O(N)
(one value per trajectory, or one column of the paths) or one chunk of
``max(1, _JOB_VALUES // n)`` rows, so a run's peak is the paths plus
a bounded remainder.

Mixtures: convex combinations of drifts share one X0 and one Brownian
path per trajectory. The component diffusions q^{b_j} are co-evolved on
that common noise, the mixture velocity is the weighted sum of the
components' drifts evaluated each along its own component, and the
recorded process integrates that velocity against the shared noise.
With a single drift the recorded process is that drift's component,
so it is stepped once.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import Diverged
from .grid_fields import GridSpec, ScalarField, cumulative_trapezoid, ensure_normalized
from .madelung import DriftField

BLOCK = 8192
_INIT_STREAM = 1
_NOISE_STREAM_BASE = 2
# values per noise draw job (a full block draws one interval per job),
# and per row chunk of an estimator's scratch
_JOB_VALUES = 2**15
# the times at which marginals compares the ensemble with the density
MARGINAL_TIMES = (0.0, 0.25, 0.5, 0.75, 1.0)


def marginal_node(fraction: float, count: int) -> int:
    """The i with i / count == fraction; a fraction between nodes is refused."""
    i = int(round(fraction * count))
    if abs(fraction * count - i) > 1e-9:
        raise ValueError(f"t = {fraction} is not a node of {count} equal time steps")
    return i


@dataclass(frozen=True)
class Ensemble:
    """Trajectory positions at the partition nodes i/n, i = 0 .. n.

    ``paths`` has shape (N, n + 1), one row per trajectory; ``N`` and
    ``n`` are read from that shape.
    """

    paths: np.ndarray
    grid: GridSpec

    def __post_init__(self) -> None:
        if self.paths.ndim != 2 or self.paths.shape[0] < 1 \
                or self.paths.shape[1] < 2:
            raise ValueError(f"paths shape {self.paths.shape} is not (N, n + 1) "
                             f"with N, n >= 1")
        for rows in _row_chunks(self.paths):
            if not np.all(np.isfinite(self.paths[rows])):
                raise ValueError("ensemble contains non-finite positions")

    @property
    def N(self) -> int:
        return self.paths.shape[0]

    @property
    def n(self) -> int:
        return self.paths.shape[1] - 1

    @property
    def nbytes(self) -> int:
        return self.paths.nbytes


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_error: float
    N: int

    def __post_init__(self) -> None:
        if self.std_error < 0.0:
            raise ValueError("std_error must be nonnegative")

    @classmethod
    def of_samples(cls, samples: np.ndarray) -> MCEstimate:
        """Sample mean with its standard error; a single sample has none."""
        N = samples.size
        std_error = float(samples.std(ddof=1) / np.sqrt(N)) if N > 1 else 0.0
        return cls(float(samples.mean()), std_error, N)

    def as_dict(self) -> dict:
        return {"mean": self.mean, "std_error": self.std_error, "N": self.N}


def _row_chunks(paths: np.ndarray):
    """Row slices covering ``paths``, of ``_JOB_VALUES // n`` rows (at least
    one) each, so a buffer formed per chunk stays one job's size."""
    rows = max(1, _JOB_VALUES // (paths.shape[1] - 1))
    for start in range(0, paths.shape[0], rows):
        yield slice(start, start + rows)


def sample_initial(rho0: np.ndarray, grid: GridSpec, n_samples: int,
                   seed: int) -> np.ndarray:
    """Inverse-CDF samples from a density given on the spatial grid.

    The CDF comes from the cumulative trapezoid rule and is inverted by
    linear interpolation, so samples never leave the box.
    """
    rho0 = np.asarray(rho0, dtype=float)
    if rho0.shape != (grid.n_x,):
        raise ValueError(f"density slice has shape {rho0.shape}, "
                         f"expected ({grid.n_x},)")
    ensure_normalized(rho0, grid, "initial density")
    cdf = cumulative_trapezoid(rho0, grid)
    cdf = cdf / cdf[-1]
    rng = np.random.Generator(np.random.Philox(key=[seed, _INIT_STREAM]))
    return np.interp(rng.random(n_samples), cdf, grid.x)


def _check_inside(positions: np.ndarray, grid: GridSpec, t: float) -> None:
    width = grid.x_max - grid.x_min
    low, high = grid.x_min - 0.2 * width, grid.x_max + 0.2 * width
    if np.min(positions) < low or np.max(positions) > high:
        worst = float(np.max(np.abs(positions)))
        raise Diverged(f"trajectory reached |q| = {worst:.3f} at t = {t:.4f}, "
                       f"outside the 20% margin around the box")


def _scaled_normals(rng: np.random.Generator, shape: tuple,
                    root_h: float) -> np.ndarray:
    """``normal(0, root_h, shape)``'s values, bar the sign of a zero, as
    standard normals scaled in place."""
    z = rng.standard_normal(shape)
    z *= root_h
    return z


def _noise(pool: ThreadPoolExecutor, seed: int, N: int, n: int,
           substeps: int, root_h: float):
    """Yield each block's (substeps, width) interval noise in stream order.

    Each job fills ``k`` intervals of one block in one call, and job
    j + 1 is submitted to ``pool`` before job j is handed out, also
    across block boundaries, so the draw runs beside the stepping.
    """
    pending = None
    for block_index, start in enumerate(range(0, N, BLOCK)):
        width = min(BLOCK, N - start)
        rng = np.random.Generator(
            np.random.Philox(key=[seed, _NOISE_STREAM_BASE + block_index]))
        k = max(1, _JOB_VALUES // (substeps * width))
        for first in range(0, n, k):
            job = pool.submit(_scaled_normals, rng,
                              (min(k, n - first), substeps, width), root_h)
            if pending is not None:
                yield from pending.result()
            pending = job
    yield from pending.result()


def mixture_ensemble(drifts: list[DriftField], weights, rho0, grid: GridSpec,
                     N: int, n: int, substeps: int, seed: int) -> Ensemble:
    """Simulate the convex mixture of drifts on common (X0, W).

    ``rho0`` is the initial density sampled on ``grid.x``; pass None to
    start every trajectory at the origin.
    """
    if not drifts:
        raise ValueError("need at least one drift")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(drifts),):
        raise ValueError("one weight per drift required")
    if np.any(weights < 0.0) or abs(weights.sum() - 1.0) > 1e-12:
        raise ValueError(f"weights must be convex, got {weights.tolist()}")
    for index, b in enumerate(drifts):
        if b.grid != grid:
            raise ValueError(f"drift {index} lives on a different grid")
    if n < 1 or substeps < 1 or N < 1:
        raise ValueError("N, n and substeps must be positive")

    if rho0 is None:
        x0 = np.zeros(N)
    else:
        x0 = sample_initial(rho0, grid, N, seed)

    # a drift equal to one value c everywhere pulls every position by c,
    # so its track is stepped with the scalar and never looked up
    constants = [float(b.values.flat[0]) if np.all(b.values == b.values.flat[0])
                 else None for b in drifts]
    mixing = len(drifts) > 1
    h = 1.0 / (n * substeps)
    root_h = np.sqrt(h)
    paths = np.empty((N, n + 1))

    with ThreadPoolExecutor(max_workers=1) as pool:
        noise = _noise(pool, seed, N, n, substeps, root_h)
        for start in range(0, N, BLOCK):
            stop = min(start + BLOCK, N)
            components = [x0[start:stop].copy() for _ in drifts]
            mixed = x0[start:stop].copy()
            paths[start:stop, 0] = mixed
            for i in range(n):
                for sub, dw in enumerate(next(noise), start=i * substeps):
                    t_left = sub * h
                    pulls = [b.evaluate(q, t_left) if c is None else c
                             for b, c, q in zip(drifts, constants, components)]
                    for j, pull in enumerate(pulls):
                        step = pull * h
                        step += dw
                        components[j] += step
                    if mixing:
                        beta = sum(w * pull for w, pull in zip(weights, pulls))
                        mixed += beta * h + dw
                # the first track is the recorded one
                tracks = [mixed, *components] if mixing else components
                t_node = (i + 1) / n
                for q in tracks:
                    _check_inside(q, grid, t_node)
                paths[start:stop, i + 1] = tracks[0]

    return Ensemble(paths, grid)


def simulate_ensemble(b: DriftField, rho0, grid: GridSpec, N: int, n: int,
                      substeps: int, seed: int) -> Ensemble:
    """Single-drift ensemble; the degenerate weight-one mixture."""
    return mixture_ensemble([b], [1.0], rho0, grid, N, n, substeps, seed)


def discrete_action(ens: Ensemble) -> MCEstimate:
    """n times the mean summed squared partition increment.

    The increments are formed one row chunk at a time, so the scratch
    next to the paths is one value per trajectory and at most two
    chunks' increments (the next chunk's is formed before the last one's
    is released). Each row's sum does not depend on the chunking.
    """
    per_path = np.empty(ens.N)
    for rows in _row_chunks(ens.paths):
        dq = np.diff(ens.paths[rows], axis=1)
        per_path[rows] = ens.n * np.einsum("ij,ij->i", dq, dq)
    return MCEstimate.of_samples(per_path)


def renormalized_action(ens: Ensemble) -> MCEstimate:
    """Discrete action minus its pure-noise expectation n."""
    raw = discrete_action(ens)
    return MCEstimate(raw.mean - ens.n, raw.std_error, ens.N)


def estimate_I(ens: Ensemble, b: DriftField, div_b: ScalarField) -> MCEstimate:
    """Path average of the time integral of b^2 + div b.

    The integrand is read along each trajectory at the partition nodes
    by the drift's own rule, :meth:`ScalarField.at`, and integrated by
    the trapezoid rule; b and div b share the grid, so each node's
    positions are located once and both fields are read from that.
    Independent of the renormalized action estimator, which never
    looks at b.
    """
    if b.grid != ens.grid:
        raise ValueError("drift field lives on a different grid")
    if div_b.grid != ens.grid:
        raise ValueError("divergence field lives on a different grid")
    totals = np.zeros(ens.N)
    for i in range(ens.n + 1):
        t_i = i / ens.n
        located = ens.grid.locate(ens.paths[:, i])
        values = b.read(located, t_i) ** 2 + div_b.read(located, t_i)
        weight = 0.5 if i in (0, ens.n) else 1.0
        totals += weight * values
    totals /= ens.n
    return MCEstimate.of_samples(totals)


def initial_moments(ens: Ensemble) -> tuple[float, float]:
    """Mean and variance of the initial positions."""
    return float(ens.paths[:, 0].mean()), float(ens.paths[:, 0].var())


def marginals(ens: Ensemble, rho: ScalarField) -> tuple[dict, dict]:
    """Histogram densities (bins centred on grid points) at MARGINAL_TIMES and
    their L1 distances from ``rho``, two dicts keyed by the time."""
    if rho.grid != ens.grid:
        raise ValueError("reference density lives on a different grid")
    grid = ens.grid
    edges = np.concatenate([grid.x - 0.5 * grid.dx, [grid.x[-1] + 0.5 * grid.dx]])
    histograms, distances = {}, {}
    for frac in MARGINAL_TIMES:
        counts, _ = np.histogram(ens.paths[:, marginal_node(frac, ens.n)], bins=edges)
        est = histograms[float(frac)] = counts / (ens.N * grid.dx)
        j = marginal_node(frac, grid.n_t)
        distances[float(frac)] = float(grid.dx * np.abs(est - rho.values[j]).sum())
    return histograms, distances


def marginal_l1(ens: Ensemble, rho: ScalarField) -> dict:
    """The L1 distances of :func:`marginals`."""
    return marginals(ens, rho)[1]
