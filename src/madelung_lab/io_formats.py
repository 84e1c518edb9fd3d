"""Serialization helpers: CSV tables and JSON reports.

CSV tables use one sample per row with a plain header line and every
value printed with ``%.17g``, which is exact for doubles, so reading a
table back reproduces the values bit for bit. The bytes are those of
``np.savetxt(path, table, delimiter=",", header=header, comments="",
fmt="%.17g")``, written without a Python step per row or per value: one
private writer puts the header line down, lays out each chunk of rows in
one numpy pass and writes it as ``template % ints`` of ``_FORMAT_ROWS``
rows at a time. ``table_to_csv`` hands it ``BLOCK_ROWS`` rows at a time,
``couple_to_csv`` one time node at a time, with each grid x formatted
once into a row piece ``",<x>,"`` and each node's t once.

The writer does not run ``%.17g`` per value. For a chunk, numpy finds
each double's correctly rounded 17-digit significand N as an integer
(10**16 <= N < 10**17) with its decimal exponent e: |x| * 10**(16 - e)
is formed exactly as a double-double, by Dekker's split and two-product
against a (hi, lo) pair for the power of ten, and rounded to nearest.
The layout ``%g`` gives N and e, with trailing zeros stripped, comes
from small shared fragments: a digit string such as ``"3.00%d"`` or
``"-%d.%d"`` by sign, integer part and zeros after the point, then a
suffix such as ``"e-05,"`` by exponent and column separator (exponent
form for e < -4 or e >= 17, fixed form otherwise). The chunk's template
is joined from those fragments and filled with the digit groups as
``%d`` integers. Python's own ``%.17g`` formats the values the kernel
leaves undecided, as literals in the template: zeros, infinities, NaN,
magnitudes outside [1e-280, 1e280] and fractions within 1e-6 of a
rounding tie.

JSON reports are written with sorted keys so repeated runs of the same
experiment produce byte identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .grid_fields import GridSpec

# Rows laid out by one kernel call in ``table_to_csv``.
BLOCK_ROWS = 1024
# Rows formatted by one ``%`` operation, so that its template and output
# stay near 2 and 4 KB. With a whole time node per operation (16 and
# 31 KB), a process that keeps objects between calls, as perfbench's
# quadrature run does, ended 40 passes with a heap 0.2-1.2 MB above the
# old writer's; with 64 rows, 0.0-0.3 MB.
_FORMAT_ROWS = 64

# Magnitudes the kernel decides: the split and the two-product of |x|
# and 10**(16 - e) stay inside the double range for them.
_LO, _HI = 1e-280, 1e280
# decimal exponents the kernel may try for those magnitudes
_E_MIN, _E_MAX = -282, 281
_SPLIT = 2.0**27 + 1.0
# a scaled value whose fraction is this close to 1/2 is left to %.17g
_TIE = 1e-6
# Fragment numbering. A one-digit integer part d (0 for 0.000...) has
# fragments neg * 210 + d * 21 + j: j zeros after the point, then "%d",
# or j = 20 for no point. A wider integer part, itself a "%d", has
# fragments _WIDE + neg * 37 + j: the same j < 20, or j = 20 + t for no
# point and t zeros after the integer part.
_NO_POINT = 20
_WIDE = 420
# Suffix numbering: e - _E_MIN for exponent form, _FIXED for fixed form,
# plus _FIXED + 1 for the row's last column, which ends in a newline.
_FIXED = _E_MAX - _E_MIN + 1
_SEPARATORS = (",", "\n")

# constants of the kernel, built on first need (see _table)
_tables: dict = {}


class _Strings:
    """A table of strings, each made by ``make(index)`` the first time a
    chunk needs it."""

    def __init__(self, size: int, make) -> None:
        self.strings = np.empty(size, dtype=object)
        self.made = np.zeros(size, dtype=bool)
        self.make = make

    def take(self, index: np.ndarray) -> np.ndarray:
        missing = index[~self.made[index]]
        if missing.size:
            for i in set(missing.tolist()):
                self.strings[i] = self.make(i)
            self.made[missing] = True
        return self.strings[index]


def _fragment(key: int) -> str:
    """The digit string numbered ``key``."""
    if key < _WIDE:
        neg, rest = divmod(key, 210)
        lead, j = divmod(rest, 21)
        head = "-" * neg + str(lead)
    else:
        neg, j = divmod(key - _WIDE, 37)
        head = "-" * neg + "%d"
    if j < _NO_POINT:
        return head + "." + "0" * j + "%d"
    return head + "0" * (j - _NO_POINT)


def _suffix(key: int) -> str:
    """The exponent and separator numbered ``key``."""
    last, column = divmod(key, _FIXED + 1)
    exponent = "" if column == _FIXED else "e%+03d" % (_E_MIN + column)
    return exponent + _SEPARATORS[last]


def _table(name: str):
    """One of the kernel's tables, built on first need: the pairs (hi, lo)
    of 10**s for s = 16 - e with the split of hi, 10**w as int64 by
    fraction width w, the powers of ten that count digits, and the
    fragments and suffixes, each string made when first used."""
    if not _tables:
        hi, lo = [], []
        for s in range(16 - _E_MAX, 16 - _E_MIN + 1):
            # int -> float and int / int round correctly
            if s >= 0:
                hi.append(float(10**s))
                lo.append(float(10**s - int(hi[-1])))
            else:
                hi.append(1 / 10**-s)
                m, q = hi[-1].as_integer_ratio()
                lo.append((q - m * 10**-s) / (q * 10**-s))
        hi = np.array(hi)
        c = hi * _SPLIT
        hh = c - (c - hi)
        _tables["pow10"] = np.stack((hi, np.array(lo), hh, hi - hh))
        # w = -16..21; capped at 10**18, which exceeds every significand
        _tables["width"] = np.array([10**min(max(w, 0), 18) for w in range(-16, 22)],
                                    dtype=np.int64)
        _tables["digits"] = np.array([10**k for k in range(17)], dtype=np.int64)
        _tables["bounds"] = np.array([10**16, 10**17], dtype=np.int64)
        _tables["fragments"] = _Strings(_WIDE + 2 * 37, _fragment)
        _tables["suffixes"] = _Strings(2 * (_FIXED + 1), _suffix)
    return _tables[name]


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**(16 - e) as an int64 integer part and a fraction in [0, 1).

    The product of a and the pair (hi, lo) is p + err: p is a * hi
    rounded, err is Dekker's exact error of that product plus a * lo.
    p is an integer above 2**53, so the integer part is exact."""
    pow10 = _table("pow10")
    i = (_E_MAX - e).astype(np.intp)
    g = np.take(pow10[0], i)
    p = g * a
    # split a into ah + al, each of 26 bits or fewer
    ah = a * _SPLIT
    np.subtract(ah, a, out=g)
    ah -= g
    np.take(pow10[2], i, out=g)
    err = g * ah
    err -= p
    np.take(pow10[3], i, out=g)
    g *= ah
    err += g
    al = np.subtract(a, ah, out=ah)
    for row, part in ((2, al), (3, al), (1, a)):
        np.take(pow10[row], i, out=g)
        g *= part
        err += g
    np.floor(err, out=g)
    err -= g
    n = p.astype(np.int64)
    n += g.astype(np.int64)
    return n, err


def _significands(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(decided, e, N): where decided, |x| rounds to N * 10**(e - 16) with
    10**16 <= N < 10**17, as ``%.17g`` rounds it. e is integer valued but
    held as a double, like every small integer of the layout: the int64
    comparisons would be extra code for numpy to page in."""
    a = np.abs(x)
    decided = a >= _LO
    decided &= a <= _HI
    a[~decided] = 1.0
    e = np.log10(a)
    np.floor(e, out=e)
    n, frac = _scaled(a, e)
    # log10 may land in the decade next to a power of ten: step is -1
    # below [10**16, 10**17), +1 above it
    bounds = _table("bounds")
    step = np.searchsorted(bounds, n, side="right")
    step -= 1
    off = np.flatnonzero(step)
    if off.size:
        e[off] += step[off]
        n[off], frac[off] = _scaled(a[off], e[off])
        step = np.searchsorted(bounds, n[off], side="right")
        step -= 1
        decided[off[np.flatnonzero(step)]] = False
    # round half up; a tie is left undecided
    frac += 0.5
    up = np.floor(frac)
    n += up.astype(np.int64)
    frac -= 1.0
    np.abs(frac, out=frac)
    decided &= frac >= _TIE
    # 10**17 carries into the next decade
    step = np.searchsorted(bounds, n, side="right")
    step -= 1
    carry = np.flatnonzero(step)
    n[carry] = 10**16
    e[carry] += 1.0
    return decided, e, n


def _layout(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """(decided, fragment, suffix, ints, used) for the values x: each
    value's fragment and suffix column, its two ``%d`` arguments (an
    integer part wider than one digit, then the digits after the point)
    and which of the two its fragment takes."""
    decided, e, n = _significands(x)
    # strip trailing zeros; k digits are left
    k = np.full(len(n), 17.0)
    tenth = n // 10
    z = np.flatnonzero((n - tenth * 10).astype(float) == 0.0)
    while z.size:
        n[z] = tenth[z]
        k[z] -= 1.0
        tenth[z] //= 10
        z = z[(n[z] - tenth[z] * 10).astype(float) == 0.0]
    del tenth
    expo = e < -4.0
    expo |= e >= 17.0
    # digits after the point: k less the integer part's e + 1 digits (one
    # in exponent form); a whole number has w <= 0
    w = np.where(expo, 0.0, e)
    w += 1.0
    np.subtract(k, w, out=w)
    del k
    ints = np.empty((len(n), 2), dtype=np.int64)
    lead = ints[:, 0]
    p = np.take(_table("width"), (w + 16.0).astype(np.intp))
    np.floor_divide(n, p, out=lead)
    p *= lead
    np.subtract(n, p, out=ints[:, 1])
    del n, p
    j = w - np.searchsorted(_table("digits"), ints[:, 1], side="right")
    whole = np.flatnonzero(w <= 0.0)
    j[whole] = _NO_POINT - w[whole]
    neg = np.signbit(x)
    fragment = np.where(neg, 210.0, 0.0)
    fragment += j
    fragment += lead * 21
    wide = np.flatnonzero((e > 0.0) & ~expo)
    fragment[wide] = np.where(neg[wide], _WIDE + 37.0, _WIDE) + j[wide]
    fragment[~decided] = 0.0
    suffix = np.where(expo, e - _E_MIN, _FIXED)
    suffix[~decided] = _FIXED
    used = np.zeros((len(x), 2), dtype=bool)
    used[wide, 0] = True
    np.greater(w, 0.0, out=used[:, 1])
    used &= decided[:, None]
    return decided, fragment.astype(np.intp), suffix.astype(np.intp), ints, used


def _rows(prefix: tuple, block: np.ndarray):
    """The CSV rows of a C-contiguous block of values, each row led by the
    prefix pieces (strings, or arrays of one string per row), as bytes of
    ``_FORMAT_ROWS`` rows at a time."""
    m, c = block.shape
    x = block.ravel()
    decided, fragment, suffix, ints, used = _layout(x)
    width = len(prefix)
    pieces = np.empty((m, width + 2 * c), dtype=object)
    for j, piece in enumerate(prefix):
        pieces[:, j] = piece
    fragments = _table("fragments").take(fragment)
    undecided = np.flatnonzero(~decided)
    fragments[undecided] = ["%.17g" % v for v in x[undecided].tolist()]
    pieces[:, width::2] = fragments.reshape(m, c)
    del fragments
    suffix = suffix.reshape(m, c)
    suffix[:, -1] += _FIXED + 1
    pieces[:, width + 1::2] = _table("suffixes").take(suffix)
    for start in range(0, m, _FORMAT_ROWS):
        template = "".join(pieces[start:start + _FORMAT_ROWS].ravel().tolist())
        values = slice(start * c, (start + _FORMAT_ROWS) * c)
        yield template.encode() % tuple(ints[values][used[values]].tolist())


def _write_csv(path, header: str, chunks) -> None:
    """The header line, then the rows of each (prefix, block) chunk."""
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for prefix, block in chunks:
            fh.writelines(_rows(prefix, block))


def table_to_csv(path, header: str, columns) -> None:
    """Rows of the given equal-length columns under a comma separated header."""
    table = np.asarray(np.column_stack(columns), dtype=float)
    _write_csv(path, header, (((), table[start:start + BLOCK_ROWS])
                              for start in range(0, len(table), BLOCK_ROWS)))


def couple_to_csv(path, grid: GridSpec, rho_values: np.ndarray,
                  v_values: np.ndarray) -> None:
    """Rows of (t, x, rho, v) for a density and its velocity, time major."""
    shape = (grid.n_t + 1, grid.n_x)
    rho = np.asarray(rho_values, dtype=float)
    v = np.asarray(v_values, dtype=float)
    for name, values in (("rho_values", rho), ("v_values", v)):
        if values.shape != shape:
            raise ValueError(f"{name} has shape {values.shape}, expected {shape}")
    xs = np.array(["," + "%.17g" % x + "," for x in grid.x.tolist()], dtype=object)
    block = np.empty((grid.n_x, 2))

    def nodes():
        for t, block[:, 0], block[:, 1] in zip(grid.t, rho, v):
            yield ("%.17g" % t, xs), block

    _write_csv(path, "t,x,rho,v", nodes())


def write_json(path, payload: dict) -> None:
    """The payload with sorted keys; numpy scalars and arrays as their values."""
    text = json.dumps(payload, indent=2, sort_keys=True,
                      default=lambda obj: obj.tolist())
    Path(path).write_text(text + "\n")
