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
action of the underlying couple. A drift is a scalar field; it and its
divergence are read along trajectories by :meth:`ScalarField.at`
(linear in x, frozen at the time node to the left), so the stepping and
the estimators share one rule. A drift equal to one value c on the
whole lattice reads c everywhere, so its track steps by the scalar c
and takes no lookup. Every estimator forms its mean and standard error
by one rule, :meth:`MCEstimate.of_samples`.

Determinism: every random number comes from an SFC64 stream keyed by
(seed, stream) through numpy's ``SeedSequence``, and distinct pairs give
independent streams. Initial samples take stream 1. The noise of block
b, the 8192 consecutive trajectories from 8192 b on, takes stream
2 + b. Every estimate is therefore reproducible bit for bit regardless
of scheduling. Trajectory k's initial sample does not depend on N, and
neither does its noise while its block is full: a block's stream fills
one (substeps, width) array per partition interval, so the noise of
the last block, partial when N is not a multiple of 8192, depends on
its width. The arrays are drawn in jobs of several intervals, one job
ahead of the stepping, on one worker thread that each call opens and
closes, into two buffers that the jobs fill in turn; the jobs follow
the stream order, and a generator fills a (k, substeps, width) array
with the values of k successive (substeps, width) fills, so the stream
is the one a draw per substep would give. The noise is drawn as
standard normals scaled by sqrt(h) in place: the values of
``normal(0, sqrt(h))`` except that a -0.0 draw keeps its sign.

Memory: no position is held beyond the interval being stepped. Each
partition interval is reduced as soon as it is stepped: per trajectory,
its squared increment is added to a running sum, in the order of the
intervals, and its end positions are copied when that node is one of
``MARGINAL_TIMES``. For a single drift read by lookup, the trapezoid of
b^2 + div b at the partition nodes is summed during the stepping, at
the positions the drift lookup of each node's first substep has
located. An ensemble therefore holds O(N) values, and the stepping adds
O(block size) values per track and the two noise buffers.

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
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .errors import Diverged
from .grid_fields import GridSpec, ScalarField, cumulative_trapezoid, ensure_normalized
from .madelung import DriftField

BLOCK = 8192
_INIT_STREAM = 1
_NOISE_STREAM_BASE = 2
# values per noise draw job (a full block draws one interval per job)
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
    """What the estimators read of N trajectories stepped over n partition
    intervals, one value per trajectory each; no path is kept.

    ``squared_increments`` holds n times each trajectory's summed squared
    partition increment. ``positions`` maps each time of
    ``MARGINAL_TIMES`` that is a node of the partition (t = 0 always is)
    to the positions there. For a single drift read by lookup,
    ``pathwise`` holds each trajectory's trapezoid of b^2 + div b, and
    ``drift`` and ``divergence`` are the fields it read; otherwise all
    three are None.
    """

    grid: GridSpec
    n: int
    squared_increments: np.ndarray
    positions: dict
    pathwise: np.ndarray | None
    drift: DriftField | None
    divergence: ScalarField | None

    @property
    def N(self) -> int:
        return self.squared_increments.size


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


def _marginal_nodes(n: int) -> dict:
    """Each time of MARGINAL_TIMES that is a node of n equal steps, keyed by
    its node i; :func:`marginals` refuses the others."""
    nodes = {}
    for frac in MARGINAL_TIMES:
        try:
            nodes[marginal_node(frac, n)] = frac
        except ValueError:
            continue
    return nodes


def _stream(seed: int, stream: int) -> np.random.Generator:
    """The generator of ``seed``'s stream number ``stream``: SFC64 keyed by
    the pair through ``SeedSequence``, which takes every integer seed >= 0
    exactly and refuses a negative one."""
    return np.random.Generator(np.random.SFC64([seed, stream]))


def sample_initial(rho0: np.ndarray, grid: GridSpec, n_samples: int,
                   seed: int) -> np.ndarray:
    """Inverse-CDF samples from a density given on the spatial grid.

    The CDF comes from the cumulative trapezoid rule and is inverted by
    linear interpolation, so samples never leave the box. A density with
    a negative entry is refused: its CDF is not monotone, and
    ``np.interp`` is undefined on such knots.
    """
    rho0 = np.asarray(rho0, dtype=float)
    if rho0.shape != (grid.n_x,):
        raise ValueError(f"density slice has shape {rho0.shape}, "
                         f"expected ({grid.n_x},)")
    if rho0.min() < 0.0:
        raise ValueError(f"initial density has a negative entry, "
                         f"{rho0.min():.3e}: its CDF is not monotone")
    ensure_normalized(rho0, grid, "initial density")
    cdf = cumulative_trapezoid(rho0, grid)
    cdf = cdf / cdf[-1]
    return np.interp(_stream(seed, _INIT_STREAM).random(n_samples), cdf, grid.x)


def _check_inside(positions: np.ndarray, grid: GridSpec, t: float) -> None:
    """Refuse positions beyond a 20% margin around the box; NaN counts as
    beyond it."""
    width = grid.x_max - grid.x_min
    low, high = grid.x_min - 0.2 * width, grid.x_max + 0.2 * width
    if not (low <= positions.min() and positions.max() <= high):
        worst = float(np.max(np.abs(positions)))
        raise Diverged(f"trajectory reached |q| = {worst:.3f} at t = {t:.4f}, "
                       f"outside the 20% margin around the box")


def _scaled_normals(rng: np.random.Generator, out: np.ndarray,
                    root_h: float) -> np.ndarray:
    """Fill ``out`` with ``normal(0, root_h)``'s values, bar the sign of a
    zero, as standard normals scaled in place."""
    rng.standard_normal(out=out)
    out *= root_h
    return out


def _noise(pool: ThreadPoolExecutor, seed: int, N: int, n: int,
           substeps: int, root_h: float):
    """Yield each block's (substeps, width) interval noise in stream order.

    Each job fills ``k`` intervals of one block in one call, into one of
    two buffers in turn. Job j + 1 is submitted to ``pool`` before job j
    is handed out, also across block boundaries, so the draw runs beside
    the stepping, and job j + 1 refills the buffer of job j - 1, whose
    last interval has been stepped by then. The draw stays on the worker
    thread: with it on the calling thread, the shipped
    ``gaussian-benchmark`` (4 substeps per interval) took 18.4-22.0 s
    against 14.3-16.5 s beside it, four runs each on 2 cores, for 0.5 MB
    less peak memory.
    """
    # a job holds at most _JOB_VALUES values, or one interval of a full block
    size = max(_JOB_VALUES, substeps * min(N, BLOCK))
    buffer, spare = np.empty(size), np.empty(size)
    pending = None
    for block_index, start in enumerate(range(0, N, BLOCK)):
        width = min(BLOCK, N - start)
        rng = _stream(seed, _NOISE_STREAM_BASE + block_index)
        k = max(1, _JOB_VALUES // (substeps * width))
        for first in range(0, n, k):
            rows = min(k, n - first)
            out = buffer[:rows * substeps * width].reshape(rows, substeps, width)
            job = pool.submit(_scaled_normals, rng, out, root_h)
            buffer, spare = spare, buffer
            if pending is not None:
                yield from pending.result()
            pending = job
    yield from pending.result()


def _constant(b: DriftField) -> float | None:
    """The one value of a drift equal to it everywhere, else None: such a
    drift pulls every position by that value, so its track is stepped with
    the scalar and never looked up."""
    first = b.values.flat[0]
    return float(first) if np.all(b.values == first) else None


def _summed_divergence(drifts: list[DriftField]) -> ScalarField | None:
    """The divergence whose pathwise sums the stepping records: the single
    drift's when it is read by lookup, else None. A constant drift takes
    no lookup to reuse, and a mixture's recorded track follows no one
    drift."""
    if len(drifts) == 1 and _constant(drifts[0]) is None:
        return drifts[0].divergence()
    return None


def _add_node(sums: np.ndarray, pull: np.ndarray, divergence: ScalarField,
              located: tuple, t: float, weight: float) -> None:
    """Add a partition node's trapezoid term of b^2 + div b: ``pull`` is b
    read at the ``located`` positions, frozen at the node's time ``t``.
    The term is formed in place; a sum and a product are the same in
    either order, and a weight of 1.0 is not multiplied."""
    term = divergence.read(located, t)
    term += pull ** 2
    if weight != 1.0:
        term *= weight
    sums += term


def _initial_positions(rho0, grid: GridSpec, N: int, seed: int) -> np.ndarray:
    """N samples of ``rho0``, or N zeros when it is None."""
    if rho0 is None:
        return np.zeros(N)
    return sample_initial(rho0, grid, N, seed)


def _path_blocks(drifts: list[DriftField], weights: np.ndarray, x0: np.ndarray,
                 grid: GridSpec, n: int, substeps: int, seed: int,
                 divergence: ScalarField | None):
    """Step the trajectories from ``x0`` one block at a time.

    Yields, for each block and each partition node i = 1, ..., n in turn,
    the block's rows, i, the block's recorded positions at node i and,
    when ``divergence`` is given (the single drift's, read by lookup),
    the block's trapezoid of b^2 + div b per trajectory, complete at node
    n; else None. The positions are the stepping's own track, which the
    next interval overwrites. The other arguments are those of
    :func:`mixture_ensemble`, checked there.
    """
    N = x0.size
    constants = [_constant(b) for b in drifts]
    mixing = len(drifts) > 1
    h = 1.0 / (n * substeps)
    root_h = np.sqrt(h)
    locate = grid.locate
    reads = [b.read for b in drifts]

    with ThreadPoolExecutor(max_workers=1) as pool:
        noise = _noise(pool, seed, N, n, substeps, root_h)
        for start in range(0, N, BLOCK):
            rows = slice(start, min(start + BLOCK, N))
            components = [x0[rows].copy() for _ in drifts]
            # the first track is the recorded one
            tracks = [x0[rows].copy(), *components] if mixing else components
            sums = None if divergence is None else np.zeros(components[0].size)
            for i in range(n):
                for sub, dw in enumerate(next(noise), start=i * substeps):
                    t_left = sub * h
                    pulls = []
                    for read, c, q in zip(reads, constants, components):
                        if c is None:
                            located = locate(q)
                            pulls.append(read(located, t_left))
                        else:
                            pulls.append(c)
                    if sums is not None and sub == i * substeps:
                        # node i's lookup of the one drift serves its sums:
                        # t_left is i / n up to rounding, on the same time node
                        _add_node(sums, pulls[0], divergence, located, i / n,
                                  1.0 if i else 0.5)
                    if mixing:
                        # before the pulls below become steps
                        beta = sum(w * pull for w, pull in zip(weights, pulls))
                        tracks[0] += beta * h + dw
                    # a looked-up pull is a fresh array, stepped in place; a
                    # constant's pull * h is a float, so += dw makes the array
                    for q, pull in zip(components, pulls):
                        pull *= h
                        pull += dw
                        q += pull
                t_node = (i + 1) / n
                for q in tracks:
                    _check_inside(q, grid, t_node)
                if sums is not None and i + 1 == n:
                    located = locate(components[0])
                    _add_node(sums, reads[0](located, 1.0), divergence,
                              located, 1.0, 0.5)
                    sums /= n
                yield rows, i + 1, tracks[0], sums


def mixture_ensemble(drifts: list[DriftField], weights, rho0, grid: GridSpec,
                     N: int, n: int, substeps: int, seed: int) -> Ensemble:
    """Simulate the convex mixture of drifts on common (X0, W).

    ``rho0`` is the initial density sampled on ``grid.x``; pass None to
    start every trajectory at the origin. Each partition interval of a
    block is reduced to the fields of :class:`Ensemble` as soon as it is
    stepped; a trajectory's squared increments are summed left to right.
    """
    if not drifts:
        raise ValueError("need at least one drift")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(drifts),):
        raise ValueError("one weight per drift required")
    if not (np.all(weights >= 0.0) and abs(weights.sum() - 1.0) <= 1e-12):
        raise ValueError(f"weights must be finite and convex, got {weights.tolist()}")
    for index, b in enumerate(drifts):
        if b.grid != grid:
            raise ValueError(f"drift {index} lives on a different grid")
    if n < 1 or substeps < 1 or N < 1:
        raise ValueError("N, n and substeps must be positive")

    x0 = _initial_positions(rho0, grid, N, seed)
    divergence = _summed_divergence(drifts)
    nodes = _marginal_nodes(n)
    squared = np.empty(N)
    positions = {frac: np.empty(N) if i else x0 for i, frac in nodes.items()}
    pathwise = None if divergence is None else np.empty(N)
    with closing(_path_blocks(drifts, weights, x0, grid, n, substeps, seed,
                              divergence)) as paths:
        for rows, i, q, sums in paths:
            if i == 1:
                previous, total = x0[rows].copy(), np.zeros(q.size)
            increment = q - previous
            increment *= increment
            total += increment
            previous[...] = q
            if i in nodes:
                positions[nodes[i]][rows] = q
            if i == n:
                squared[rows] = n * total
                if pathwise is not None:
                    pathwise[rows] = sums
    if divergence is not None:
        # estimate_I checks the values; the slope table that the stepping's
        # reads built (one float per lattice entry) is not kept
        divergence = ScalarField(grid, divergence.values)
    return Ensemble(grid, n, squared, positions, pathwise,
                    None if divergence is None else drifts[0], divergence)


def simulate_ensemble(b: DriftField, rho0, grid: GridSpec, N: int, n: int,
                      substeps: int, seed: int) -> Ensemble:
    """Single-drift ensemble; the degenerate weight-one mixture."""
    return mixture_ensemble([b], [1.0], rho0, grid, N, n, substeps, seed)


def discrete_action(ens: Ensemble) -> MCEstimate:
    """n times the mean summed squared partition increment."""
    return MCEstimate.of_samples(ens.squared_increments)


def renormalized_action(ens: Ensemble) -> MCEstimate:
    """Discrete action minus its pure-noise expectation n."""
    raw = discrete_action(ens)
    return MCEstimate(raw.mean - ens.n, raw.std_error, ens.N)


def estimate_I(ens: Ensemble, b: DriftField, div_b: ScalarField) -> MCEstimate:
    """Path average of the time integral of b^2 + div b.

    The integrand is read along each trajectory at the partition nodes
    by the drift's own rule, :meth:`ScalarField.at`, and integrated by
    the trapezoid rule. The sums are taken during the stepping, so only
    an ensemble of one drift read by lookup has them, and ``b`` and
    ``div_b`` must equal (by value) that drift and its divergence.
    Independent of the renormalized action estimator, which never
    looks at b.
    """
    if b.grid != ens.grid:
        raise ValueError("drift field lives on a different grid")
    if div_b.grid != ens.grid:
        raise ValueError("divergence field lives on a different grid")
    if ens.pathwise is None:
        raise ValueError("the ensemble records no pathwise sums: only a single "
                         "drift read by lookup has them, not a mixture or a "
                         "constant drift")
    if not (np.array_equal(b.values, ens.drift.values)
            and np.array_equal(div_b.values, ens.divergence.values)):
        raise ValueError("b and div_b must be the ensemble's drift and its divergence")
    return MCEstimate.of_samples(ens.pathwise)


def initial_moments(ens: Ensemble) -> tuple[float, float]:
    """Mean and variance of the initial positions."""
    x0 = ens.positions[0.0]
    return float(x0.mean()), float(x0.var())


def marginals(ens: Ensemble, rho: ScalarField) -> tuple[dict, dict]:
    """Histogram densities (bins centred on grid points) at MARGINAL_TIMES and
    their L1 distances from ``rho``, two dicts keyed by the time."""
    if rho.grid != ens.grid:
        raise ValueError("reference density lives on a different grid")
    grid = ens.grid
    edges = np.concatenate([grid.x - 0.5 * grid.dx, [grid.x[-1] + 0.5 * grid.dx]])
    histograms, distances = {}, {}
    for frac in MARGINAL_TIMES:
        marginal_node(frac, ens.n)  # refuses a time between partition nodes
        counts, _ = np.histogram(ens.positions[frac], bins=edges)
        est = histograms[float(frac)] = counts / (ens.N * grid.dx)
        j = marginal_node(frac, grid.n_t)
        distances[float(frac)] = float(grid.dx * np.abs(est - rho.values[j]).sum())
    return histograms, distances


def marginal_l1(ens: Ensemble, rho: ScalarField) -> dict:
    """The L1 distances of :func:`marginals`."""
    return marginals(ens, rho)[1]
