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
:func:`inverse_transform`).  A partial sum, or a Dirichlet or Fejer
kernel, of order ``n`` thus transforms at most the least ``M_t >= n``
points, not all ``M_N``.

Both transforms run their axes through :func:`_run_axes`, in place on
the ``M_t``-point block, through a scratch tile of ``TILE_BYTES``: the low
axes on a transposed layout a few block rows at a time, the high axes a
few independent column sets at a time, and each root table built in row
chunks.  None of this changes a bit.  Every output entry of an axis is
still ``T[a, b] * x[b]`` added up over ``b`` in ascending order, whatever
the layout and whichever other columns share its tile; a copy into or out
of a tile, transposing or not, does no arithmetic; and a chunk of table
rows splits the output entries, not any sum.

The public transforms only read their argument: beside it they hold one
new grid vector, whose head the support block is copied into, transformed
in and then tiled from, and the scratch.  The kernels and partial sums
build a coefficient array of their own and hand it over to
:func:`_synthesize`, which does the same in that array: one grid vector
and the scratch at the peak.  The scratch is at most two tiles, and never
more than the block (see :func:`_run_axes`).

Normalization: the forward transform divides by ``M_N`` (coefficients are
integrals against conjugate characters), the inverse does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CapExceededError, DomainError
from .group import GRID_CAP, NAIVE_ORACLE_CAP, GroupSpec, digit_decompose

__all__ = [
    "CylinderFunction",
    "Spectrum",
    "CharacterBasis",
    "character_eval",
    "character_basis",
    "step_character",
    "forward_transform",
    "inverse_transform",
    "naive_transform_oracle",
    "coarsen",
    "random_cylinder_function",
    "sup_abs",
    "sup_rel_error",
    "check_root_tables",
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


def _check_root_table(m: int) -> None:
    """:class:`CapExceededError` when a base-``m`` root table would have
    more than ``GRID_CAP`` entries."""
    if m * m > GRID_CAP:
        raise CapExceededError(f"a base-{m} root table has {m * m} entries, cap is {GRID_CAP}")


def check_root_tables(group: GroupSpec) -> None:
    """:class:`CapExceededError` when any base of ``group`` has a root table
    over the cap, the first such base in axis order; run before any data
    work, so a grid that no transform could finish is refused up front."""
    for m in group.digits:
        _check_root_table(m)


def _root_matrix(m: int, conjugate: bool, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Rows ``start:stop`` (all by default) of the ``m x m`` table
    ``exp(+-2*pi*i * (a*b mod m) / m)``, looked up in the m roots of unity;
    :class:`CapExceededError` before any row is built if the whole table
    has more than ``GRID_CAP`` entries.  Built on each call, never kept:
    one table of a large base outweighs its whole grid."""
    _check_root_table(m)
    sign = -1.0 if conjugate else 1.0
    roots = np.exp(sign * 2j * np.pi * np.arange(m, dtype=np.float64) / m)
    index = np.arange(m, dtype=np.int32)  # a*b < m*m <= GRID_CAP < 2**31
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
    """One base-``m`` axis from the ``(h, m, l)`` array ``cube`` into
    ``out`` of its shape: ``out[h, a, l] = sum_b T[a, b] * cube[h, b, l]``,
    the table built ``TABLE_ROWS`` rows at a time."""
    m = cube.shape[1]
    for start in range(0, m, TABLE_ROWS):
        stop = min(start + TABLE_ROWS, m)
        np.einsum("ab,hbl->hal", _root_matrix(m, conjugate, start, stop), cube, out=out[:, start:stop])


def _low_axes(plain: np.ndarray, group: GroupSpec, k: int, conjugate: bool) -> None:
    """Axes ``0..k-1`` in place on ``plain``, the block as its ``(M_t/M_k,
    M_k)`` rows: ``c`` rows at a time are transposed into a tile, where
    axis ``j`` is a ``(-1, m_j, M_j * c)`` cube, run between two tiles and
    transposed back.  When two tiles would hold the whole block, one tile
    takes it all and the block itself is the second."""
    high, low = plain.shape
    rows = max(1, _tile_points(plain.size, group.digits[:k]) // low)
    if 2 * rows >= high:
        rows = high
    tile = np.empty(rows * low, np.complex128)
    other = plain.reshape(-1) if rows == high else np.empty(rows * low, np.complex128)
    for r in range(0, high, rows):
        n = min(rows, high - r)
        cur, spare = tile[: n * low], other[: n * low]
        cur.reshape(low, n)[...] = plain[r : r + n].T
        for axis in range(k):
            m, run = group.digits[axis], group.scales[axis] * n
            _axis(cur.reshape(-1, m, run), spare.reshape(-1, m, run), conjugate)
            cur, spare = spare, cur
        if rows == high and k % 2:  # the rows ended in the block, still transposed
            tile[...] = cur
            cur = tile
        plain[r : r + n] = cur.reshape(low, n).T


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


def _run_axes(block: np.ndarray, group: GroupSpec, t: int, conjugate: bool) -> None:
    """Axes ``0..t-1`` of the transform, in place on ``block``, the
    contiguous ``M_t`` points of a leading block of the grid.

    The scratch is one or two tiles of :func:`_tile_points` each, so a
    root table is built about once per axis, and never more than the
    block: where two tiles would hold it all, one tile and the block
    itself take turns.

    With ``k`` the least depth such that ``M_k**2`` is at least ``M_t`` or
    a tile of ``TILE_BYTES``, whichever is less, axes ``j < k`` run on the
    transposed layout of ``(M_t/M_k, M_k)`` rows: there axis ``j`` has
    inner runs of ``M_j`` times the rows in a tile, long even where ``M_j``
    is small, and an einsum over short runs is slow (see
    :func:`_low_axes`).  Axes ``k..t-1`` run on the ``(-1, m_j, M_j)``
    cubes of the plain layout, with ``M_j >= M_k`` (see :func:`_high_axes`).

    Bit for bit the per-axis transform on the plain layout of the whole
    block: every output entry of an axis is ``p = T[a, b] * x[b]`` added
    into it for ``b`` in ascending order, whatever the layout the einsum
    reads and writes and whichever independent columns it is given at
    once, and a copy into or out of a tile, transposing or not, moves
    bytes without arithmetic.  Splitting the table into row chunks splits
    the output entries, not any sum.
    """
    size = group.scales[t]
    k = next(j for j in range(t + 1) if group.scales[j] ** 2 >= min(size, TILE_BYTES // 16))
    if k:
        _low_axes(block.reshape(size // group.scales[k], group.scales[k]), group, k, conjugate)
    if k < t:
        _high_axes(block, group, k, t, conjugate)


def forward_transform(f: CylinderFunction) -> Spectrum:
    """All Fourier coefficients of ``f``: ``c_n = integral of f * conj(psi_n)``.

    Every base's root table is checked against its cap before any axis
    runs.  ``f.values`` is only read: the transform runs in a copy.
    """
    g = f.group
    check_root_tables(g)
    arr = f.values.copy()
    _run_axes(arr, g, g.resolution, conjugate=True)
    arr /= g.size
    return Spectrum(g, arr)


def _inverse(group: GroupSpec, coeffs: np.ndarray, owned: bool) -> np.ndarray:
    """The inverse transform of ``coeffs`` on the full grid, run in the
    array it returns.  ``owned``: that array is ``coeffs``, overwritten;
    otherwise it is new, and ``coeffs`` is only read."""
    check_root_tables(group)
    t = group.resolution  # down to the least t with coeffs[M_t:] all zero, of either sign
    while t and not coeffs[group.scales[t - 1] : group.scales[t]].any():
        t -= 1
    size = group.scales[t]
    out = coeffs if owned else np.empty(group.size, np.complex128)
    if not owned:
        out[:size] = coeffs[:size]
    _run_axes(out[:size], group, t, conjugate=False)
    if t < group.resolution:
        rows = out.reshape(-1, size)
        rows[0] += 0.0
        rows[1:] = rows[0]  # np.tile's bytes, in the array the block is in
    return out


def inverse_transform(s: Spectrum) -> CylinderFunction:
    """Synthesize ``sum_n c_n * psi_n`` on the full grid (no normalization).

    Only the support block is transformed: with ``t`` the least depth such
    that every coefficient from ``M_t`` on is zero, axes ``0..t-1`` run on
    ``coeffs[:M_t]`` and the block is tiled to the full grid.  For finite
    coefficients this is bit for bit the transform over every axis:

    - an axis below ``t`` mixes entries only inside blocks of ``M_t``
      points, so every kept entry gets the same products and sums;
    - on an axis from ``t`` on only the digit-0 slab is nonzero, and its
      root-table entry is exactly ``1 + 0j``, so that axis copies the slab
      to every digit, except that the sum turns ``-0.0`` into ``+0.0``,
      which ``+= 0.0`` does too.

    Every base's root table is checked against its cap first, the bases
    of skipped axes included.  ``s.coeffs`` is only read: the block is
    copied into the head of the result, transformed there and tiled, so
    beside the argument the transform holds one grid vector and the
    scratch.
    """
    return CylinderFunction(s.group, _inverse(s.group, s.coeffs, owned=False))


def _synthesize(group: GroupSpec, coeffs: np.ndarray) -> CylinderFunction:
    """:func:`inverse_transform` of ``Spectrum(group, coeffs)``, bit for
    bit, that takes over ``coeffs``, a contiguous complex128 array of
    ``group.size`` points, and overwrites it.

    For a caller that built ``coeffs`` and never reads it again: the
    support block is transformed in place and tiled into the rest of the
    array, so the scratch is all the transform adds.  The result's values
    are ``coeffs`` itself.
    """
    return CylinderFunction(group, _inverse(group, coeffs, owned=True))


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


# A partial-sum sweep keeps a full-grid unit-step vector only for the axes
# whose digit runs are shorter than _SHORT_RUN points; a higher axis steps
# the row as rows of M_K points (K the first axis at or over it) by one
# root per row.  That broadcast multiply measured up to 2x a full-vector
# one per call (2 shared vCPUs), but only a carry that reaches axis K takes
# it: about once in M_K steps, at most once in 64 here.  The sweep's time
# stayed within noise for every value from 8 to 128, and each short axis
# costs one full vector (6 of 13 on the depth-13 `2,2,3` grid, 4 of 13 on
# `const:3`).
_SHORT_RUN = 64


class CharacterBasis:
    """Characters on every point of a grid, built from each base's roots
    of unity.

    ``row(n)`` is ``psi_n`` on all points.  ``unit_step(a)`` is
    ``exp(2*pi*i * x_a / m_a)`` on all points: the factor by which a row
    changes when digit ``a`` of its frequency goes up by one.  Neither is
    kept: each call builds a new full-grid vector, which lives as long as
    its caller holds it.

    The unit step of axis ``a`` depends on digit ``a`` alone, so it is
    constant on runs of ``M_a`` points.  A partial-sum sweep stores, per
    axis a carry can reach (``sweep_steps``), the full vector only when
    ``M_a < _SHORT_RUN``, and only the ``m_a`` roots for every higher axis.
    ``range_steps`` shapes them for a point range seen as rows of
    ``step_run`` points: a short-run axis as its vector's slice, a higher
    one as a column of one root per row.  Either way each point is
    multiplied by the same root ``exp(2*pi*i * x_a / m_a)``, and numpy's
    complex product of two numbers does not depend on whether one of them
    is broadcast, so the row is bit for bit the full-vector one.  (Only an
    in-place multiply of a single point takes another loop, which can
    differ in the last bit; a range holds at least ``step_run`` >= 2
    points.)
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

    def _short_axes(self) -> int:
        return sum(1 for run in self.group.scales[:-1] if run < _SHORT_RUN)

    def sweep_steps(self, stop: int) -> list[np.ndarray]:
        """The unit steps of the axes a carry reaches on a step below
        ``stop``: the full vector of a short-run axis, the roots of any other."""
        g, short = self.group, self._short_axes()
        return [
            self.unit_step(a) if a < short else self.roots(a)
            for a in range(g.resolution)
            if g.scales[a] < stop
        ]

    def step_run(self, points: int) -> int:
        """The row length for a row of ``points`` leading points: ``M_K``,
        with ``K`` the first axis whose runs are not short, or ``points``
        when that is less."""
        return min(self.group.scales[self._short_axes()], points)

    def range_steps(self, steps: list[np.ndarray], points: int, lo: int, hi: int) -> list[np.ndarray]:
        """``sweep_steps`` on points ``[lo, hi)`` of a row of ``points``
        leading points, each shaped against ``row[lo:hi].reshape(-1, run)``
        with ``run = step_run(points)``; ``lo`` and ``hi`` are multiples of
        ``run``.  Axes whose runs are not shorter than the row are left out:
        no carry reaches them while the row has that length."""
        g, short, run = self.group, self._short_axes(), self.step_run(points)
        out = []
        for a, step in enumerate(steps):
            if g.scales[a] >= points:
                break
            if a < short:
                out.append(step[lo:hi].reshape(-1, run))
            else:  # row r of the range has digit (lo // run + r) // (M_a // run) % m_a
                digit = np.arange(lo // run, hi // run) // (g.scales[a] // run) % g.digits[a]
                out.append(step[digit, None])
        return out

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


def step_character(psi: np.ndarray, counter: list[int], digits, steps) -> None:
    """Multiply ``psi_n`` into ``psi_{n+1}`` in place along the carry chain.

    ``counter`` holds n's digits and is advanced too; ``steps[j]`` is the
    axis-``j`` unit step on the same points as ``psi``, in a shape that
    broadcasts against it (see ``CharacterBasis.range_steps``), and must
    exist for every axis the carry reaches.  Only numpy runs here, on
    ``psi`` and ``steps`` alone, so disjoint point ranges may be stepped at
    once.
    """
    j = 0
    while True:
        psi *= steps[j]
        counter[j] += 1
        if counter[j] < digits[j]:
            return
        counter[j] = 0
        j += 1
        if j == len(digits):
            return  # counter wrapped all the way around


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
