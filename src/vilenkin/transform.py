"""Characters and the mixed-radix Fourier transform.

The character indexed by ``n`` acts on a point ``x`` as

    psi_n(x) = prod_k exp(2*pi*i * n_k * x_k / m_k)

with ``n_k`` and ``x_k`` the mixed-radix digits of the frequency and the
point.  Because the transform factors over coordinates, the forward and
inverse maps run in ``O(M_N * sum_k m_k)`` by contracting one small DFT
matrix per axis, instead of the ``O(M_N^2)`` literal double sum.  The
literal sum is retained as :func:`naive_transform_oracle` (with a hard
size cap) so the fast path can always be cross-checked against an
implementation that shares none of its machinery.

The inverse transform runs only over the spectrum's support block: the
leading ``M_t`` coefficients, with ``t`` the least depth beyond which
every coefficient is zero.  It tiles that block's transform to the full
grid, bit for bit what the axes from ``t`` on would have computed (see
:func:`_synthesize`).  A partial sum, or a Dirichlet or Fejer
kernel, of order ``n`` thus transforms at most the least ``M_t >= n``
points, not all ``M_N``.  It can also be asked for the points where
chosen digits are zero alone: each such axis then makes only its digit-0
output, and the rest of the transform runs on the grid of the other
digits.

Both transforms run their axes through :func:`_run_axes`, on the
``M_t``-point block, through a scratch tile of ``TILE_BYTES``: the low
axes on a transposed layout a few block rows at a time, the high axes a
few independent column sets at a time, and each root table built in row
chunks.  None of this changes a bit.  Every output entry of an axis is
still ``T[a, b] * x[b]`` added up over ``b`` in ascending order, whatever
the layout and whichever other columns share its tile; a copy into or out
of a tile, transposing or not, does no arithmetic; and a chunk of table
rows splits the output entries, not any sum.

Every transform runs in an array it owns, and holds only the scratch
beside it: at most two tiles, and no more than the block where that
array has room for the block (see :func:`_run_axes`).  The public
transforms copy their argument and run in the copy.  The kernels and
partial sums make no coefficient array: they hand :func:`_synthesize`,
the one inverse core, which :func:`inverse_transform` runs too, rows
that make the support block's coefficients a tile at a time
(:class:`_Rows`), and the transform writes into a new array of the
result's grid, the kept grid where digits are held at zero.

Normalization: the forward transform divides by ``M_N`` (coefficients are
integrals against conjugate characters), the inverse does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import CapExceededError, DomainError
from .group import NAIVE_ORACLE_CAP, GroupSpec, digit_decompose

__all__ = [
    "CylinderFunction",
    "Spectrum",
    "CharacterBasis",
    "character_eval",
    "character_basis",
    "forward_transform",
    "inverse_transform",
    "naive_transform_oracle",
    "coarsen",
    "random_cylinder_function",
    "sup_abs",
    "sup_rel_error",
]

# rows of a root table built at a time: 16 MB of table at m = 4096
TABLE_ROWS = 256
# bytes of one scratch tile, through which every axis runs in place: a
# cache-sized share of the block (16,384 complex points)
TILE_BYTES = 1 << 18


def _as_values(group: GroupSpec, values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.shape != (group.size,):
        raise DomainError(
            f"expected {group.size} samples for resolution {group.resolution}, "
            f"got shape {arr.shape}"
        )
    return arr


@dataclass
class CylinderFunction:
    """A function constant on the points of the finest grid.

    ``values[i]`` is the value on the point whose index is ``i``; every
    point carries Haar mass ``1 / M_N``.
    """

    group: GroupSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = _as_values(self.group, self.values)

    @property
    def resolution(self) -> int:
        return self.group.resolution

    def integral(self) -> complex:
        """Haar integral, ``(1 / M_N) * sum_x f(x)``."""
        return complex(self.values.mean())

    def copy(self) -> "CylinderFunction":
        return CylinderFunction(self.group, self.values.copy())


@dataclass
class Spectrum:
    """Fourier coefficients indexed like the points (same mixed radix)."""

    group: GroupSpec
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = _as_values(self.group, self.coeffs)

    @property
    def resolution(self) -> int:
        return self.group.resolution

    def copy(self) -> "Spectrum":
        return Spectrum(self.group, self.coeffs.copy())


def character_eval(n: int, x: tuple[int, ...], group: GroupSpec) -> complex:
    """Evaluate ``psi_n`` at the point with digits ``x`` through exact
    rational phase accumulation."""
    nd = digit_decompose(n, group)
    if len(x) != group.resolution:
        raise DomainError("point has the wrong number of coordinates")
    phase = Fraction(0)
    for nk, xk, mk in zip(nd, x, group.digits):
        if not 0 <= xk < mk:
            raise DomainError(f"coordinate {xk} outside base {mk}")
        phase += Fraction((nk * xk) % mk, mk)
    phase %= 1
    return complex(np.exp(2j * np.pi * float(phase)))


def _root_matrix(m: int, conjugate: bool, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Rows ``start:stop`` (all by default) of the ``m x m`` table
    ``exp(+-2*pi*i * (a*b mod m) / m)``, looked up in the m roots of
    unity.  Built on each call, never kept: one table of a large base
    outweighs its whole grid."""
    sign = -1.0 if conjugate else 1.0
    roots = np.exp(sign * 2j * np.pi * np.arange(m, dtype=np.float64) / m)
    index = np.arange(m, dtype=np.int32)  # a*b < m*m <= GRID_CAP < 2**31: GroupPattern.group refuses a larger base
    ab = np.multiply.outer(index[start:stop], index)
    ab %= m
    return roots[ab]


def _tile_points(size: int, bases) -> int:
    """Points of a scratch tile for axes of ``bases`` on a ``size``-point
    block: ``TILE_BYTES`` worth, or ``m * m`` for the largest base ``m`` so
    that a table rebuilt for each tile costs no more points than the tile
    holds, and never more than the block."""
    return min(size, max(TILE_BYTES // 16, max(bases) ** 2))


def _axis(cube: np.ndarray, out: np.ndarray, conjugate: bool) -> None:
    """One base-``m`` axis from the ``(h, m, l)`` array ``cube`` into the
    ``(h, r, l)`` array ``out``, ``r <= m``: ``out[h, a, l] = sum_b T[a, b] *
    cube[h, b, l]`` for the first ``r`` output digits ``a``, the table built
    ``TABLE_ROWS`` rows at a time."""
    m, r = cube.shape[1], out.shape[1]
    for start in range(0, r, TABLE_ROWS):
        stop = min(start + TABLE_ROWS, r)
        np.einsum("ab,hbl->hal", _root_matrix(m, conjugate, start, stop), cube, out=out[:, start:stop])


def _low_axes(fill, out: np.ndarray, group: GroupSpec, size: int, k: int, conjugate: bool, zero=frozenset()) -> None:
    """Axes ``0..k-1`` of the ``size = M_t``-point block, taken as its
    ``(M_t/M_k, M_k)`` rows: ``c`` rows at a time are asked of ``fill`` (see
    :class:`_Rows`), with the second tile to write them in, and transposed
    into the first, where axis ``j`` is a ``(-1, m_j, M_j * c)`` cube, run
    between the two tiles; the rows are then transposed back into ``out``.
    When two tiles would hold the whole block and ``out`` has room for it,
    one tile takes it all and ``out`` itself is the second.

    An axis in ``zero`` makes its digit-0 output alone, so the rows shrink
    as they go and are written compacted, as the ``(M_t/M_k, M_k /
    prod(m_j for j in zero))`` array at the start of ``out``, the kept
    grid's block.  Where ``out`` is also the array the rows are read from,
    a row goes to points of rows that were all read into a tile before."""
    low = group.scales[k]
    high = size // low
    rows = max(1, _tile_points(size, group.digits[:k]) // low)
    whole = 2 * rows >= high and out.size >= size
    if whole:
        rows = high
    tile = np.empty(rows * low, np.complex128)
    other = out[:size] if whole else np.empty(rows * low, np.complex128)
    kept = low // math.prod(group.digits[j] for j in zero)
    compact = out[: high * kept].reshape(high, kept)
    for r in range(0, high, rows):
        n = min(rows, high - r)
        pair = tile[: n * low], other[: n * low]
        cur, run = pair[0], n
        cur.reshape(low, n)[...] = fill(r * low, pair[1]).reshape(n, low).T
        for axis in range(k):
            m = group.digits[axis]
            a = 1 if axis in zero else m
            dst = pair[(axis + 1) % 2][: cur.size // m * a]
            _axis(cur.reshape(-1, m, run), dst.reshape(-1, a, run), conjugate)
            cur, run = dst, run * a
        if whole and k % 2:  # the rows ended in ``out``, still transposed
            tile[: cur.size] = cur
            cur = tile[: cur.size]
        compact[r : r + n] = cur.reshape(kept, n).T


def _high_axes(block: np.ndarray, group: GroupSpec, k: int, t: int, conjugate: bool) -> None:
    """Axes ``k..t-1`` in place on ``block``: each ``(H, m_j, M_j)`` cube
    is cut into sets of whole ``(m_j, M_j)`` slabs, or of ``M_j``-columns
    when one slab outgrows the tile; each set runs into the tile and is
    copied back."""
    tile = np.empty(_tile_points(block.size, group.digits[k:t]), np.complex128)
    for axis in range(k, t):
        m, run = group.digits[axis], group.scales[axis]
        cube = block.reshape(-1, m, run)
        slabs, cols = max(1, tile.size // (m * run)), min(run, tile.size // m)
        for h in range(0, len(cube), slabs):
            for col in range(0, run, cols):
                part = cube[h : h + slabs, :, col : col + cols]
                out = tile[: part.size].reshape(part.shape)
                _axis(part, out, conjugate)
                part[...] = out


def _run_axes(fill, out: np.ndarray, group: GroupSpec, t: int, conjugate: bool, zero=frozenset()) -> None:
    """Axes ``0..t-1`` of the transform of a leading block of the grid,
    its ``M_t`` points made by ``fill`` (see :class:`_Rows`), into the
    start of ``out``, which may be the array ``fill`` reads.

    The scratch is one or two tiles of :func:`_tile_points` each, so a
    root table is built about once per axis.  Where two tiles would hold
    the whole block and ``out`` has room for it, one tile and ``out`` take
    turns, so the scratch is never more than the block; an ``out`` of a
    kept grid smaller than the block takes no turn.

    With ``k`` the least depth such that ``M_k**2`` is at least ``M_t`` or
    a tile of ``TILE_BYTES``, whichever is less, axes ``j < k`` run on the
    transposed layout of ``(M_t/M_k, M_k)`` rows: there axis ``j`` has
    inner runs of ``M_j`` times the rows in a tile, long even where ``M_j``
    is small, and an einsum over short runs is slow (see
    :func:`_low_axes`).  Axes ``k..t-1`` run in place in ``out`` on the
    ``(-1, m_j, M_j)`` cubes of the plain layout, with ``M_j >= M_k`` (see
    :func:`_high_axes`).

    Bit for bit the per-axis transform on the plain layout of the whole
    block: every output entry of an axis is ``p = T[a, b] * x[b]`` added
    into it for ``b`` in ascending order, whatever the layout the einsum
    reads and writes and whichever independent columns it is given at
    once, and a copy into or out of a tile, transposing or not, moves
    bytes without arithmetic.  Splitting the table into row chunks splits
    the output entries, not any sum.

    Each axis in ``zero``, a set of axes below ``t``, makes only its
    digit-0 output, with table row 0 alone: the block ends compacted at the
    start of ``out``, as the grid of the other digits.  Those axes are low
    axes, ``k`` raised above them where need be, and the high axes run on
    the compacted block.  Every entry kept gets the same sum as before: a
    row of the table is the same whichever other rows are built, and an
    axis sums along its own digit alone, so dropping the points where
    another digit is nonzero leaves its sums over the kept points as they
    were.
    """
    size = group.scales[t]
    k = next(j for j in range(t + 1) if group.scales[j] ** 2 >= min(size, TILE_BYTES // 16))
    k = max(k, max(zero, default=-1) + 1)
    if k:
        _low_axes(fill, out, group, size, k, conjugate, zero)
    else:  # t = 0: the one coefficient is its own transform
        out[:1] = fill(0, out[:1])
    if k < t:
        kept = _without(group, zero)
        _high_axes(out[: kept.scales[t - len(zero)]], kept, k - len(zero), t - len(zero), conjugate)


class _Rows(NamedTuple):
    """A spectrum's support block, made a tile at a time.

    ``fill(lo, buf)`` returns the ``len(buf)`` coefficients from index
    ``lo`` on, as a contiguous array: ``buf`` with them written in, or a
    view of an array that already holds them.  Every coefficient from
    ``M_depth`` on is zero, and is never asked for.
    """

    depth: int
    fill: Callable[[int, np.ndarray], np.ndarray]


def _reader(arr: np.ndarray) -> Callable[[int, np.ndarray], np.ndarray]:
    """The ``fill`` of the coefficients ``arr`` holds: views of it, no copy."""
    return lambda lo, buf: arr[lo : lo + len(buf)]


def _support_depth(group: GroupSpec, coeffs: np.ndarray) -> int:
    """The least ``t`` such that ``coeffs[M_t:]`` is all zero, of either
    sign; ``coeffs`` may be the head of a spectrum whose rest is zero."""
    t = group.resolution
    while t and not coeffs[group.scales[t - 1] : group.scales[t]].any():
        t -= 1
    return t


def forward_transform(f: CylinderFunction) -> Spectrum:
    """All Fourier coefficients of ``f``: ``c_n = integral of f * conj(psi_n)``.

    ``f.values`` is only read: the transform runs in a copy.
    """
    g = f.group
    arr = f.values.copy()
    _run_axes(_reader(arr), arr, g, g.resolution, conjugate=True)
    arr /= g.size
    return Spectrum(g, arr)


def inverse_transform(s: Spectrum) -> CylinderFunction:
    """Synthesize ``sum_n c_n * psi_n`` on the full grid (no normalization).

    ``s.coeffs`` is only read: the transform runs in a copy, through
    :func:`_synthesize`, so beside the argument it holds one grid vector
    and the scratch.
    """
    return _synthesize(s.group, s.coeffs.copy())


def _without(group: GroupSpec, digits) -> GroupSpec:
    """The grid of ``group``'s digits other than ``digits``."""
    return GroupSpec(tuple(m for j, m in enumerate(group.digits) if j not in digits))


def _synthesize(group: GroupSpec, coeffs, *, zero_digits=()) -> CylinderFunction:
    """The inverse transform of ``coeffs``: either :class:`_Rows`, which
    make the support block a tile at a time, or a contiguous complex128
    array of ``group.size`` points that the caller owns and never reads
    again, which is then both read and overwritten, the result's values
    being ``coeffs`` itself, or its start.  Rows are transformed into a
    new array of the result's grid, and no coefficient array of the whole
    grid, nor of the block, is ever made.

    Only the support block is transformed: with ``t`` the least depth such
    that every coefficient from ``M_t`` on is zero (the rows' ``depth``,
    or an array's scan), axes ``0..t-1`` run on the block's ``M_t`` points
    (see :func:`_run_axes`) and the result is tiled into the rest of the
    output.  For finite coefficients this is bit for bit the transform over
    every axis:

    - an axis below ``t`` mixes entries only inside blocks of ``M_t``
      points, so every kept entry gets the same products and sums;
    - on an axis from ``t`` on only the digit-0 slab is nonzero, and its
      root-table entry is exactly ``1 + 0j``, so that axis copies the slab
      to every digit, except that the sum turns ``-0.0`` into ``+0.0``,
      which ``+= 0.0`` does too.

    ``zero_digits`` synthesizes only the points whose digits there are
    zero: the result lives on the grid of the other digits, a point of it
    being the full grid's point with zeros put back in.  Each of those
    axes below ``t`` runs to its digit-0 output alone (see
    :func:`_run_axes`), and one from ``t`` on is a copy left out of the
    tiling.  Every value kept is the same float, zeros' signs included.

    Beside the output, the scratch is all the transform adds.
    """
    zero = frozenset(zero_digits)
    if not zero <= set(range(group.resolution)):
        raise DomainError(f"zero digits {sorted(zero)} outside [0, {group.resolution})")
    kept = _without(group, zero)
    if isinstance(coeffs, np.ndarray):
        values, coeffs = coeffs, _Rows(_support_depth(group, coeffs), _reader(coeffs))
    else:
        values = np.empty(kept.size, np.complex128)
    t = coeffs.depth
    low = frozenset(j for j in zero if j < t)
    _run_axes(coeffs.fill, values, group, t, conjugate=False, zero=low)
    values = values[: kept.size]
    if t < group.resolution:
        rows = values.reshape(-1, kept.scales[t - len(low)])
        rows[0] += 0.0
        rows[1:] = rows[0]  # np.tile's bytes, in the array the block is in
    return CylinderFunction(kept, values)


def naive_transform_oracle(f: CylinderFunction) -> Spectrum:
    """Literal ``O(M_N^2)`` transform used only to cross-check the fast path.

    Refused with :class:`CapExceededError` on a grid of more than
    ``NAIVE_ORACLE_CAP`` points, before any sum is taken.

    Characters are rebuilt here from scratch (digit grids plus one complex
    exponential per row), deliberately sharing nothing with the per-axis
    contraction above.
    """
    g = f.group
    if g.size > NAIVE_ORACLE_CAP:
        raise CapExceededError(
            f"naive transform is capped at M_N <= {NAIVE_ORACLE_CAP}, group has {g.size} points"
        )
    idx = np.arange(g.size)
    frac = [
        ((idx // g.scales[k]) % m) / float(m) for k, m in enumerate(g.digits)
    ]
    out = np.empty(g.size, dtype=np.complex128)
    for n in range(g.size):
        nd = digit_decompose(n, g)
        phase = np.zeros(g.size, dtype=np.float64)
        for k, nk in enumerate(nd):
            if nk:
                phase += nk * frac[k]
        out[n] = np.exp(-2j * np.pi * phase) @ f.values
    return Spectrum(g, out / g.size)


class CharacterBasis:
    """Characters on every point of a grid, built from each base's roots
    of unity.

    ``row(n)`` is ``psi_n`` on all points.  ``unit_step(a)`` is
    ``exp(2*pi*i * x_a / m_a)`` on all points: the factor by which a row
    changes when digit ``a`` of its frequency goes up by one.  Neither is
    kept: each call builds a new full-grid vector, which lives as long as
    its caller holds it.  ``roots(a)`` are the ``m_a`` values that unit
    step takes, each on runs of ``M_a`` points.  The partial-sum sweep
    steps by ``roots`` alone; ``unit_step`` stays for the test suite's
    oracle sweep, which steps whole rows with it.
    """

    def __init__(self, group: GroupSpec):
        self.group = group

    def roots(self, axis: int) -> np.ndarray:
        """The ``m_axis`` values of ``exp(2*pi*i * x_axis / m_axis)``."""
        m = self.group.digits[axis]
        return np.exp(2j * np.pi * np.arange(m) / m)

    def unit_step(self, axis: int) -> np.ndarray:
        """``exp(2*pi*i * x_axis / m_axis)`` on every point."""
        g = self.group
        m, low = g.digits[axis], g.scales[axis]
        return np.tile(np.repeat(self.roots(axis), low), g.size // (m * low))

    def row(self, n: int) -> np.ndarray:
        """``psi_n`` on all points, via a single phase accumulation."""
        g = self.group
        phase = np.zeros(g.size, dtype=np.float64)
        for k, nk in enumerate(digit_decompose(n, g)):
            if nk:
                m = g.digits[k]
                by_digit = phase.reshape(-1, m, g.scales[k])
                by_digit += ((nk / m) * np.arange(m))[:, None]
        return np.exp(2j * np.pi * phase)


@lru_cache(maxsize=8)
def character_basis(group: GroupSpec) -> CharacterBasis:
    return CharacterBasis(group)


def coarsen(f: CylinderFunction, level: int) -> CylinderFunction:
    """Conditional expectation onto depth-``level`` cylinders.

    The result lives on the truncated group: one value per cylinder, equal
    to the average of ``f`` over it.
    """
    g = f.group
    if not 0 <= level <= g.resolution:
        raise DomainError(f"level {level} outside [0, {g.resolution}]")
    block = f.values.reshape(-1, g.scales[level]).mean(axis=0)
    return CylinderFunction(g.truncate(level), block)


def random_cylinder_function(group: GroupSpec, seed: int = 0) -> CylinderFunction:
    """Standard normal values (real and imaginary parts) from ``seed >= 0``."""
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    values = np.empty(group.size, np.complex128)
    values.real = rng.standard_normal(group.size)
    values.imag = rng.standard_normal(group.size)
    return CylinderFunction(group, values)


def sup_abs(values: np.ndarray) -> float:
    return float(np.max(np.abs(values))) if len(values) else 0.0


def sup_rel_error(got: np.ndarray, want: np.ndarray) -> float:
    """Sup-norm error of ``got`` against ``want``, relative to ``max(1, sup|want|)``."""
    scale = max(1.0, sup_abs(np.asarray(want)))
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) / scale
