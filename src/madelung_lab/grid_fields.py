"""Space-time grids and discrete calculus for fields on a periodic box.

The lab is one-dimensional: every field is a :class:`ScalarField`, one
real sample per time node and grid point. Fields live on a uniform
spatial grid over [x_min, x_max) (the right endpoint is identified with
the left one and excluded) crossed with n_t + 1 uniform time nodes
covering the unit interval. Two flavours of spatial derivative coexist
on purpose:

* ``spectral_dx`` differentiates through the real-input FFT (half the
  spectrum of a real field; the Nyquist bin is zeroed) and is accurate
  to machine precision, but only for fields that decay below
  ``BOUNDARY_TOL`` at the box edges. It refuses anything else by
  raising :class:`BoundaryLeak`.
* ``fd_dx`` uses second order finite differences with one sided
  stencils at the edges. It has no decay requirement and is exact on
  quadratic profiles, which makes it the right tool for phases and log
  densities of Gaussian type fields. Those grow like x^2 and would be
  destroyed by a periodic transform.

Quadrature over the box is the plain rectangle rule (it is spectrally
accurate for smooth decaying integrands on a periodic grid) and carries
the same decay guard; ``row_integrals`` applies it to every row of a
field, or of a block of rows. Time quadrature is the trapezoid rule.
The guard, ``ensure_decaying``, makes one pass over the array, its row
sums, which ``row_integrals`` scales by dx. It refuses a row whose sum
is not finite (a NaN or infinite entry, or a sum past the largest
double) with :class:`FieldRefused`, and a field whose ``edge_leak`` is
above ``BOUNDARY_TOL`` with :class:`BoundaryLeak`: in some row the
larger edge magnitude exceeds ``BOUNDARY_TOL`` of the row's peak
|value|. Any one entry is a lower bound of its row's peak, so the edge
and centre columns decide most rows alone (``guard_columns``: the two
edges and three probes, the centre and an eighth of the box to either
side). ``cleared_rows`` clears a row whose edges are zero or whose
larger edge over its largest |probe| is at most ``BOUNDARY_TOL``. Only
the rows left uncleared are scanned for their peaks. The largest leak
lies on an uncleared row, so the refusal and its message are those of
the scan of every row.
A density counts as normalized when its mass is 1 within ``MASS_TOL``
in every slice (``mass_error``); ``ensure_normalized`` is that rule.
Off the lattice a field is read by ``ScalarField.at``: linear in x,
frozen at the time node to the left. The grid is uniform, so the lookup
finds each position's segment in O(1) instead of by search; its result
is bitwise equal to ``np.interp`` on that node's row. The lookup is two
steps, ``GridSpec.locate`` and ``ScalarField.read``, so fields sharing
a grid are read at the same positions from one location. Each field
builds its table of segment slopes once, at its first read, and reads
every row from it; a field's values must therefore not change after
its first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BoundaryLeak, FieldRefused, NormDrift

# Relative magnitude a decaying field may show at the box edges before
# spectral operations and box quadrature refuse it.
BOUNDARY_TOL = 1e-12

# Largest |mass - 1| a density (or |psi|^2) may show and still count as
# normalized.
MASS_TOL = 1e-8


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the space-time lattice.

    Parameters
    ----------
    x_min, x_max:
        Edges of the periodic box. Sample points are
        ``x_min + i * dx`` for ``i = 0 .. n_x - 1``; ``x_max`` itself is
        excluded because it aliases ``x_min``.
    n_x:
        Number of spatial samples, a power of two of at least 8 so the
        FFT based operators stay fast and unambiguous.
    n_t:
        Number of time steps. Fields carry ``n_t + 1`` nodes on [0, 1].
    """

    x_min: float
    x_max: float
    n_x: int
    n_t: int

    def __post_init__(self) -> None:
        if not self.x_max > self.x_min:
            raise ValueError(f"empty box: [{self.x_min}, {self.x_max})")
        if self.n_x < 8 or (self.n_x & (self.n_x - 1)) != 0:
            raise ValueError(f"n_x must be a power of two >= 8, got {self.n_x}")
        if self.n_t < 2:
            raise ValueError(f"need at least 2 time steps, got {self.n_t}")

    @cached_property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_x

    @cached_property
    def dt(self) -> float:
        return 1.0 / self.n_t

    @cached_property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_x)

    @cached_property
    def inverse_dx(self) -> float:
        return 1.0 / self.dx

    @cached_property
    def x_steps(self) -> np.ndarray:
        """Node spacings ``x[i + 1] - x[i]``, the divisors of ``np.interp``."""
        return np.diff(self.x)

    @cached_property
    def x_next(self) -> np.ndarray:
        """Right end of the segment starting at each node; +inf after the last."""
        return np.append(self.x[1:], np.inf)

    @cached_property
    def t(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_t + 1)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n_x, d=self.dx)

    def locate(self, positions: np.ndarray) -> tuple:
        """Segment index j and offset x - x[j] of each position.

        Positions must be finite; they are clipped to the first and last
        node. ``(x - x_min) / dx - 1/2`` rounded toward zero is the
        segment holding x or the one before it, also when the product
        with the cached 1/dx is off in its last bit; one comparison with
        the next node settles which, as ``np.interp``'s search would.
        :meth:`ScalarField.read` takes the result.
        """
        x = positions.clip(self.x_min, self.x[-1])
        u = x - (self.x_min + 0.5 * self.dx)
        u *= self.inverse_dx
        j = u.astype(np.intp)
        j += self.x_next.take(j, mode="clip") <= x
        x -= self.x.take(j, mode="clip")  # in place: x is now the offset
        return j, x

    def coarsen(self) -> "GridSpec":
        """Grid with every second node removed in both directions."""
        if self.n_x < 16 or self.n_t % 2 or self.n_t < 4:
            raise ValueError(f"coarsening needs an even n_t >= 4 and n_x >= 16, "
                             f"got n_t = {self.n_t}, n_x = {self.n_x}")
        return GridSpec(self.x_min, self.x_max, self.n_x // 2, self.n_t // 2)


def ensure_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise FieldRefused(f"{what} contains non-finite entries")


def _checked_values(values: np.ndarray, shape: tuple, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{what} has shape {arr.shape}, expected {shape}")
    ensure_finite(arr, what)
    return arr


@dataclass(frozen=True)
class ScalarField:
    """Real scalar samples, one row per time node."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        g = self.grid
        object.__setattr__(self, "values",
                           _checked_values(self.values, (g.n_t + 1, g.n_x), "scalar field"))

    def at(self, positions: np.ndarray, t: float) -> np.ndarray:
        """Values at arbitrary finite positions, frozen at the time node <= t
        (the last node for t > 1); a t below 0, beyond rounding, is refused.

        Linear interpolation in x; outside the box the boundary value
        extends constantly. This is the one off-lattice rule of the lab:
        drifts and the divergence read by the path estimators use it.
        It is ``read(grid.locate(positions), t)``; a caller reading
        several fields of one grid at the same positions locates them
        once and reads each field from that.

        The result is bitwise equal to ``np.interp(positions, grid.x,
        row)`` in O(1) per position: the grid is uniform, so no search
        is needed (see :meth:`GridSpec.locate`). The value is
        ``np.interp``'s own ``slope * (x - x[j]) + row[j]``, and on a
        node (clipped positions included) it is ``row[j]`` itself, which
        also keeps the sign of a -0.0 entry. The slopes come from a
        table of every row's, which the field builds once, at its first
        read; the values must not change after that.
        """
        return self.read(self.grid.locate(positions), t)

    def read(self, located: tuple, t: float) -> np.ndarray:
        """Values at positions already located on this field's grid,
        frozen at the time node <= t; see :meth:`at`. The slopes are the
        node's row of the field's slope table, not recomputed."""
        j, offset = located
        g = self.grid
        node = min(math.floor(t * g.n_t + 1e-9), g.n_t)
        if node < 0:
            raise ValueError(f"t = {t} lies before the first time node")
        value = self.values[node].take(j, mode="clip")
        # every j is a node, so "clip" only skips the bounds check; the
        # last node has no segment, but its offset is 0, so the clipped
        # slope is never used there
        out = self._slopes[node].take(j, mode="clip")
        out *= offset
        out += value
        if self._needs_node_copy[node]:
            np.copyto(out, value, where=offset == 0.0)
        return out

    @cached_property
    def _slopes(self) -> np.ndarray:
        """Per time node, ``np.interp``'s segment slopes ``(row[1:] -
        row[:-1]) / x_steps``; one that overflows stays inf or NaN."""
        rows = self.values
        with np.errstate(over="ignore", invalid="ignore"):
            return (rows[:, 1:] - rows[:, :-1]) / self.grid.x_steps

    @cached_property
    def _needs_node_copy(self) -> np.ndarray:
        """Per time node, whether slope * 0 + value can differ from the
        value on a node: a -0.0 entry turns into +0.0 (when its slope is
        not negative), and a non-finite slope makes the product NaN."""
        rows = self.values
        return (np.signbit(rows) & (rows == 0.0)).any(axis=1) \
            | ~np.isfinite(self._slopes).all(axis=1)


def edge_leak(values: np.ndarray, grid: GridSpec) -> float:
    """Largest edge magnitude relative to the same time slice's peak.

    Works on any array of finite entries whose last axis is the spatial
    one. Slices that vanish identically contribute zero, and so does an
    empty array. A slice's peak |value| is the larger of its maximum and
    minus its minimum, so only the two edge columns are passed through
    ``abs``.
    """
    flat = np.asarray(values, dtype=float).reshape(-1, grid.n_x)
    if flat.size == 0:
        return 0.0
    peak = np.maximum(flat.max(axis=1), -flat.min(axis=1))
    edge = np.maximum(np.abs(flat[:, 0]), np.abs(flat[:, -1]))
    return float(np.max(edge / np.where(peak == 0.0, 1.0, peak)))


def guard_columns(grid: GridSpec) -> list[int]:
    """The columns a decay guard reads first: the first edge, three
    interior probes (the centre and an eighth of the box to either side
    of it) and the last edge. A field centred on the box can vanish at
    the centre itself: the action integrands of a packet at rest do."""
    centre, eighth = grid.n_x // 2, grid.n_x // 8
    return [0, centre - eighth, centre, centre + eighth, grid.n_x - 1]


def cleared_rows(columns: np.ndarray) -> np.ndarray:
    """Whether each row of ``guard_columns`` entries shows its slice's
    ``edge_leak`` to be at most ``BOUNDARY_TOL``: both edges are zero, or
    the larger edge over the largest |probe| is at most the tolerance,
    since no probe exceeds the slice's peak. It is ``edge_leak``'s own
    division, so a row it clears is one the scan passes; ``edge <=
    BOUNDARY_TOL * probe`` would clear some whose leak rounds above the
    tolerance."""
    edge = np.maximum(np.abs(columns[..., 0]), np.abs(columns[..., -1]))
    probe = np.abs(columns[..., 1:-1]).max(axis=-1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return (edge == 0.0) | (edge / probe <= BOUNDARY_TOL)


def ensure_decaying(values: np.ndarray, grid: GridSpec, what: str) -> np.ndarray:
    """The sum of each spatial slice of ``values``, as one flat array;
    refused when a sum is not finite or when the ``edge_leak`` of the
    rows that ``cleared_rows`` leaves is above ``BOUNDARY_TOL``."""
    flat = np.asarray(values, dtype=float).reshape(-1, grid.n_x)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, or past the range
        sums = flat.sum(axis=1)
    if not np.isfinite(sums).all():
        raise FieldRefused(f"{what} has a row whose sum is not finite")
    suspect = ~cleared_rows(flat[:, guard_columns(grid)])
    if suspect.any():
        leak = edge_leak(flat[suspect], grid)
        if leak > BOUNDARY_TOL:
            raise BoundaryLeak(
                f"{what} has relative boundary magnitude {leak:.3e}, "
                f"above the tolerance {BOUNDARY_TOL:.1e}")
    return sums


def mass_error(density: np.ndarray, grid: GridSpec) -> float:
    """Largest |dx * sum - 1| over a density's slices along the last axis
    (0 when there are none)."""
    return float(np.max(np.abs(grid.dx * np.sum(density, axis=-1) - 1.0), initial=0.0))


def ensure_normalized(density: np.ndarray, grid: GridSpec, what: str) -> None:
    """Refuse a density whose ``mass_error`` is above ``MASS_TOL`` (or NaN)."""
    worst = mass_error(density, grid)
    if not worst <= MASS_TOL:
        raise NormDrift(f"{what}'s mass on the box is off 1 by {worst:.3e}")


def fd_dx(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Open-boundary second order d/dx along the last axis."""
    return np.gradient(values, grid.dx, axis=-1, edge_order=2)


def fd_dt(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Open-boundary second order d/dt along the first axis."""
    return np.gradient(values, grid.dt, axis=0, edge_order=2)


def spectral_dx(values: np.ndarray, grid: GridSpec, what: str = "field") -> np.ndarray:
    """Fourier d/dx along the last axis for boundary-decaying fields.

    The field is real, so ``rfft`` holds its whole spectrum in the
    n_x // 2 + 1 bins of the non-negative wavenumbers; the derivative is
    the same as from the complex transform, to rounding, for less work.
    The Nyquist mode, ``rfft``'s last bin, is annihilated; its
    derivative has no consistent real representation on the grid.
    """
    ensure_decaying(values, grid, what)
    vhat = np.fft.rfft(values, axis=-1)
    vhat *= 1j * grid.wavenumbers[:grid.n_x // 2 + 1]
    vhat[..., -1] = 0.0
    return np.fft.irfft(vhat, grid.n_x, axis=-1)


def spectral_antiderivative(values: np.ndarray, grid: GridSpec,
                            what: str = "field") -> np.ndarray:
    """Primitive of a decaying field along x, anchored to 0 at x_min.

    The mean and Nyquist modes are dropped before inversion: a nonzero
    mean has no periodic primitive, and for fields that integrate to
    zero over the box (the only intended inputs) the mean mode is noise
    at rounding level anyway.
    """
    ensure_decaying(values, grid, what)
    # Complex on purpose: the Monge map's tails amplify last-bit changes of
    # this primitive to O(1) (test_last_bit_of_the_source_leaves_the_map).
    vhat = np.fft.fft(values, axis=-1)
    vhat[..., 0] = 0.0
    k = grid.wavenumbers.copy()
    k[0] = 1.0
    vhat = vhat / (1j * k)
    vhat[..., grid.n_x // 2] = 0.0
    prim = np.real(np.fft.ifft(vhat, axis=-1))
    return prim - prim[..., :1]


def row_integrals(values: np.ndarray, grid: GridSpec, what: str) -> np.ndarray:
    """Rectangle rule over the box of every spatial slice of a decaying
    field, any number of rows; each row's sum is the same alone or in a block."""
    return grid.dx * ensure_decaying(values, grid, what).reshape(values.shape[:-1])


def cumulative_trapezoid(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Trapezoid rule primitive of one spatial slice, anchored to 0 at x_min."""
    return np.concatenate([[0.0],
                           np.cumsum(0.5 * grid.dx * (values[1:] + values[:-1]))])


def taper(u: np.ndarray) -> np.ndarray:
    """Quintic smoothstep: C^2 ramp from 1 at u <= 0 down to exactly 0 at u >= 1."""
    s = np.clip(u, 0.0, 1.0)
    return 1.0 - s**3 * (s * (6.0 * s - 15.0) + 10.0)


def time_integrate(series: np.ndarray, grid: GridSpec) -> float:
    """Trapezoid rule over the n_t + 1 time nodes of the unit interval."""
    series = np.asarray(series, dtype=float)
    if series.shape[0] != grid.n_t + 1:
        raise ValueError(f"series has {series.shape[0]} nodes, grid has {grid.n_t + 1}")
    return float(grid.dt * (series.sum(axis=0) - 0.5 * (series[0] + series[-1])))
