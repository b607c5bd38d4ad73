"""Dirichlet and Fejer kernels, partial sums, Cesaro means, and the
martingale-side quasinorm machinery.

Conventions.  ``D_n = sum_{k < n} psi_k`` with ``D_0 = 0``;
``K_n = (1/n) sum_{k < n} D_k`` for ``n >= 1``; the n-th Cesaro (Fejer)
mean of ``f`` averages its first ``n`` partial sums.  The mean is
computed by two deliberately different routes — literal accumulation of
partial sums, and a single inverse transform of multiplier-weighted
coefficients — and the test suite insists they agree.  Collapsing them
into one would silence exactly the class of indexing bugs this package
exists to catch.

For ``0 < p < 1`` the ``L_p`` "norm" is only a quasinorm; nothing here
assumes the triangle inequality.  The Hardy-space size of a martingale is
estimated through its maximal function across a full chain of dyadic-style
conditional expectations.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .group import Cylinder, GroupSpec, digit_decompose
from .transform import (
    CharacterBasis,
    CylinderFunction,
    Spectrum,
    _Rows,
    _support_depth,
    _synthesize,
    character_basis,
    coarsen,
    sup_abs,
)

__all__ = [
    "AtomReport",
    "zero_cylinder_indicator",
    "dirichlet_kernel",
    "fejer_kernel",
    "partial_sum",
    "summed_partial_sums",
    "fejer_mean_direct",
    "fejer_mean_multiplier",
    "lp_quasinorm",
    "maximal_function",
    "hardy_quasinorm_estimate",
    "validate_p_atom",
]


def zero_cylinder_indicator(group: GroupSpec, level: int) -> CylinderFunction:
    """Indicator of the depth-``level`` cylinder through 0."""
    if not 0 <= level <= group.resolution:
        raise DomainError(f"level {level} outside [0, {group.resolution}]")
    vals = np.zeros(group.size, dtype=np.complex128)
    vals[:: group.scales[level]] = 1.0
    return CylinderFunction(group, vals)


def _check_order(n: int, grp: GroupSpec) -> None:
    if n > grp.size:
        raise DomainError(
            f"order {n} exceeds M_{grp.resolution} = {grp.size}; resolution too small"
        )


def _order_depth(grp: GroupSpec, n: int) -> int:
    """The least ``t`` with ``M_t >= n``: the support depth of coefficients
    that are zero from index ``n`` on, and nonzero at ``n - 1``."""
    return next(t for t, size in enumerate(grp.scales) if size >= n)


def _fejer_weights(n: int, lo: int, buf: np.ndarray) -> np.ndarray:
    """``buf`` zeroed, then the Fejer multiplier ``(n - 1 - v) / n`` of each
    ``v < n`` from ``v = lo`` on written into its real parts in place, with
    no temporary: the running sum of ``n - 1 - lo, -1, -1, ...`` is
    ``n - 1 - v``, an integer float and exact, so each weight is the same
    float division as from integers."""
    buf[...] = 0
    weights = buf.real[: max(0, n - lo)]
    if weights.size:
        weights.fill(-1.0)
        weights[0] = n - 1 - lo
        np.cumsum(weights, out=weights)
        weights /= n
    return buf


def dirichlet_kernel(n: int, grp: GroupSpec) -> CylinderFunction:
    """``D_n`` on the full grid (``D_0`` is identically zero), from its
    coefficients ``1`` below ``n``, made a tile at a time."""
    n = int(n)
    if n < 0:
        raise DomainError(f"kernel order must be >= 0, got {n}")
    _check_order(n, grp)

    def fill(lo, buf):
        buf[...] = 0
        buf[: max(0, n - lo)] = 1.0
        return buf

    return _synthesize(grp, _Rows(_order_depth(grp, n), fill))


def fejer_kernel(n: int, grp: GroupSpec, *, zero_digits=()) -> CylinderFunction:
    """``K_n = (1/n) sum_{k<n} D_k``, through its multiplier ``(n-1-v)/n``,
    whose weights are made a tile at a time as the transform asks for them
    (the weight at ``v = n - 1`` is zero, so the support depth is the least
    ``t`` with ``M_t >= n - 1``): one grid vector, the output, and the
    transform's scratch at the peak.

    With ``zero_digits``, only on the points whose digits there are zero,
    as a function on the grid of the other digits, with the same floats
    there (see :func:`~vilenkin.transform._synthesize`); the output is then
    a vector of that grid alone."""
    n = int(n)
    if n < 1:
        raise DomainError(f"Fejer kernel order must be >= 1, got {n}")
    _check_order(n, grp)
    rows = _Rows(_order_depth(grp, n - 1), lambda lo, buf: _fejer_weights(n, lo, buf))
    return _synthesize(grp, rows, zero_digits=zero_digits)


def partial_sum(s: Spectrum, n: int) -> CylinderFunction:
    """``S_n f = sum_{k < n} c_k psi_k`` (``S_0`` is zero), from the
    coefficients below ``n`` copied a tile at a time."""
    n = int(n)
    if not 0 <= n <= s.group.size:
        raise DomainError(f"partial-sum order {n} outside [0, {s.group.size}]")
    head = s.coeffs[:n]

    def fill(lo, buf):
        part = head[lo : lo + len(buf)]
        buf[len(part) :] = 0
        buf[: len(part)] = part
        return buf

    return _synthesize(s.group, _Rows(_support_depth(s.group, head), fill))


def summed_partial_sums(s: Spectrum, start: int, stop: int) -> np.ndarray:
    """Pointwise ``sum_{j=start}^{stop-1} S_j f`` by literal accumulation.

    Runs the character counter incrementally: each step updates the
    current partial sum with one rank-one term and advances the character
    row along the carry chain, so the whole sweep is a small constant
    number of vector operations per index.

    Every vector is kept in digit-reversed order (``x_0`` slowest), where
    the points with ``x_a = d`` are ``M_a`` contiguous blocks of
    ``N / M_{a+1}`` points, and each axis the carry reaches steps only the
    lanes of its nonzero digits, each by that digit's root
    (:func:`_digit_lanes`).  The sweep holds four grid vectors (the row
    ``psi``, the partial sum ``cur``, ``total`` and the scratch ``tmp``)
    and no step table; two copies with no arithmetic move a partial sum at
    ``start > 0`` into that order and the total back to grid order.

    Work that cannot change a bit is skipped: a zero coefficient adds no
    rank-one term, while the running partial sum is still identically zero
    it is not added to the total and only the character row moves, and no
    point is multiplied by the root of its digit 0.  Until the first
    rank-one term the row is a *prefix row*: its ``M_W`` values on the
    depth-``W`` grid, with ``W`` above every axis on which the counter has
    ever had a nonzero digit.  The row depends on no digit at or above
    ``W``, the fastest ones in this order, so repeating each prefix point
    ``N / M_W`` times gives the full row, bit for bit.  A digit that wraps from ``m - 1`` to ``0``
    has multiplied the row by its unit step ``m`` times, a product only
    close to 1 in floating point, so ``W`` never falls.  When a carry
    first reaches axis ``W``, each point is repeated ``m_W`` times into
    the other buffer, which becomes the row.  The prefix row at ``start``
    is built on the depth-``W`` grid alone: each of its points gets the
    same phase sum, in the same order, as on any deeper grid.

    The zero run is stepped on the calling thread, cut into segments at
    those tile-ups so the prefix is fixed inside a segment; it moves the
    row alone, which threads do not speed up.  From the first rank-one
    term on, each step changes a point's row, partial sum and total from
    that point's own values alone, so a grid of at least
    ``2 * _RANGE_POINTS`` points is stepped as up to ``_THREADS`` ranges
    of whole blocks of the slowest digits (:func:`_sweep_segment`): the
    first on the calling thread, each other one on its own thread with its
    own copy of the counter; numpy releases the interpreter lock inside
    each vector operation.  Every point gets the same multiplies and adds
    in the same order whatever the split, so the result is bit for bit the
    same for any thread count, and bit for bit the full-grid sweep that
    does every multiply and add.
    """
    g = s.group
    if not 0 <= start <= stop <= g.size:
        raise DomainError(f"summation range [{start}, {stop}) outside [0, {g.size}]")
    total = np.zeros(g.size, dtype=np.complex128)
    if start == stop:
        return total
    cur = partial_sum(s, start).values if start else np.zeros(g.size, dtype=np.complex128)
    if cur.any():
        first = start
    else:
        # adding a zero partial sum to the zero total changes no bit
        nonzero = s.coeffs[start : stop - 1] != 0
        if not nonzero.any():
            return total
        first = start + int(nonzero.argmax())
        del nonzero  # N bytes, not held through the sweep
    tmp = np.empty(g.size, dtype=np.complex128)
    if start:  # the grid-order copy becomes the scratch
        cur, tmp = _reverse_digits(cur, g.digits[::-1], tmp), cur
    counter = list(digit_decompose(start, g))
    width = max((k for k, d in enumerate(counter) if d), default=0) + 1
    size = g.scales[width]
    psi = np.empty(g.size, dtype=np.complex128)
    _reverse_digits(CharacterBasis(g.truncate(width)).row(start), g.digits[width - 1 :: -1], psi[:size])
    roots = [character_basis(g).roots(a) for a in range(g.resolution)]
    n = start
    with np.errstate():  # which restores the ufunc buffer size
        np.setbufsize(_LANE_BUFFER)
        while n < first:  # the zero run: only the prefix row moves
            if n + 1 == size:  # this step carries into axis ``width``
                tmp[: size * g.digits[width]].reshape(size, -1)[...] = psi[:size, None]
                psi, tmp = tmp, psi
                size *= g.digits[width]
                width += 1
            lanes = [_digit_lanes(psi[:size], 0, size // g.scales[a + 1], roots[a]) for a in range(width)]
            for _ in range(n, min(first, size - 1)):
                step_character(lanes, counter, g.digits)
            n = min(first, size - 1)
    tmp.reshape(size, -1)[...] = psi[:size, None]
    psi, tmp = tmp, psi
    _sweep_segment(psi, cur, total, tmp, roots, counter, g, s.coeffs[first : stop - 1])
    total += cur
    return _reverse_digits(total, g.digits, psi)


# The sweep steps with numpy's ufunc buffer cut to this many points: at the
# default 8,192, numpy 2.4 copies a strided lane of (4, 1,728) points through
# a 222 KB buffer in 14 us, against 7.6 us and no buffer at 16.
_LANE_BUFFER = 16

# A sweep segment is split into ranges of whole blocks of the slowest digits
# of at least _RANGE_POINTS points, on at most _THREADS threads; shorter
# ranges cost more in per-step interpreter work than the threads save.
_RANGE_POINTS = 8192
_THREADS = min(4, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


def _reverse_digits(src: np.ndarray, shape, out: np.ndarray) -> np.ndarray:
    """``src``, a C-order array of ``shape``, written into ``out`` with its
    axes in reverse order: grid order (``x_0`` fastest, ``shape`` the
    bases from the top) into digit-reversed order, or back."""
    out.reshape(shape[::-1])[...] = src.reshape(shape).T
    return out


def _digit_lanes(part: np.ndarray, lo: int, run: int, roots: np.ndarray) -> list[tuple]:
    """The ``(lane, root)`` pairs that step one axis of ``part``, the
    points from ``lo`` on of a digit-reversed row in which that axis's
    digit of point ``x`` is ``(x // run) % m``: one pair per nonzero
    digit over ``part`` seen as ``(..., m, run)``, or, where ``part`` is
    not whole periods of ``m * run`` points, one per run of a nonzero
    digit that it cuts.

    Digit 0's root is exactly ``1+0j``, and ``z * (1+0j)`` is ``z`` bit
    for bit unless a component of ``z`` is -0, which no row has:
    ``row(n)`` is ``exp(2*pi*i * phase)`` with ``phase >= 0``, a product
    of nonzero factors is nonzero, and an exact cancellation rounds to
    +0.  A one-point lane would take another numpy loop, which can differ
    in the last bit, so one pair then steps every nonzero digit."""
    m = len(roots)
    if lo % (m * run) == 0 == len(part) % (m * run):
        lanes = part.reshape(-1, m, run)
        if lanes[:, 1].size > 1:
            return [(lanes[:, d], roots[d]) for d in range(1, m)]
        return [(lanes[:, 1:], roots[1:, None])]
    cuts = [lo, *range(lo + run - lo % run, lo + len(part), run), lo + len(part)]
    return [(part[a - lo : b - lo], roots[a // run % m]) for a, b in zip(cuts, cuts[1:]) if a // run % m]


def _sweep_segment(psi, cur, total, tmp, roots, counter, g, coeffs) -> None:
    """Step the row ``psi``, and the partial sum ``cur`` and ``total``
    with it, all digit-reversed, through one coefficient per step, as
    ranges of whole blocks of the slowest digits ``x_0 .. x_{j-1}``, each
    with its own copy of ``counter``: the first on the calling thread,
    each other one on a thread of its own.

    Inside a block an axis below ``j`` is one digit, so the range steps
    it by multiplying whole blocks by their root, and each other axis by
    its lanes.  ``j`` stops at ``R - 1``, so no block is a single point.
    An exception, the caller's range's too, is raised again here only
    after every thread has been joined.
    """
    parts = max(1, min(_THREADS, psi.size // _RANGE_POINTS))
    blocks = next((run for run in g.scales[:-1] if run >= parts), g.scales[-2])
    parts = min(parts, blocks)
    bounds = [blocks * i // parts * (psi.size // blocks) for i in range(parts + 1)]
    ranges = [
        (psi[lo:hi], cur[lo:hi], total[lo:hi], tmp[lo:hi], [_digit_lanes(psi[lo:hi], lo, psi.size // g.scales[a + 1], roots[a]) for a in range(g.resolution)])
        for lo, hi in zip(bounds, bounds[1:])
    ]
    errors: list[Exception] = []

    def run(part):
        try:
            _sweep_range(*part, list(counter), g.digits, coeffs)
        except Exception as exc:  # raised again in the caller below
            errors.append(exc)

    started = []
    try:
        for part in ranges[1:]:
            thread = threading.Thread(target=run, args=(part,))
            thread.start()
            started.append(thread)
        run(ranges[0])
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]


def _sweep_range(psi, cur, total, tmp, lanes, counter, digits, coeffs) -> None:
    """The sweep's loop body on one point range, one step per coefficient;
    it calls only numpy, so it may run on any thread."""
    with np.errstate():  # which restores the ufunc buffer size
        np.setbufsize(_LANE_BUFFER)
        for c in coeffs:
            total += cur
            if c:
                np.multiply(psi, c, out=tmp)
                cur += tmp
            step_character(lanes, counter, digits)


def step_character(lanes: list[list[tuple]], counter: list[int], digits) -> None:
    """Multiply ``psi_n`` into ``psi_{n+1}`` in place along the carry chain.

    ``counter`` holds n's digits and is advanced too; ``lanes[j]`` lists
    the ``(view, root)`` pairs that step axis ``j`` (:func:`_digit_lanes`):
    each view of the digit-reversed ``psi`` is multiplied in place by the
    root of its digit on that axis, so each point by its unit step.  They
    must exist for every axis the carry reaches, each ``a`` with ``M_a``
    dividing ``n + 1``.  ``n + 1`` must be below ``N``, so the carry never
    runs past the top axis.  Only numpy runs here, on the views and roots
    alone, so disjoint point ranges may be stepped at once.
    """
    j = 0
    while True:
        for view, root in lanes[j]:
            view *= root
        counter[j] += 1
        if counter[j] < digits[j]:
            return
        counter[j] = 0
        j += 1


def fejer_mean_direct(s: Spectrum, n: int) -> CylinderFunction:
    """The n-th Cesaro mean as an honest average of ``n`` partial sums."""
    n = int(n)
    if not 1 <= n <= s.group.size:
        raise DomainError(f"Cesaro order {n} outside [1, {s.group.size}]")
    total = summed_partial_sums(s, 0, n)
    total /= n
    return CylinderFunction(s.group, total)


def fejer_mean_multiplier(s: Spectrum, n: int) -> CylinderFunction:
    """The same mean as one inverse transform of ``c_v * (n - 1 - v)/n``,
    made a tile at a time as :func:`fejer_kernel`'s coefficients are: the
    weights, times the coefficients in place.  ``(w + 0j) * c`` runs the
    same IEEE operations as ``c * (w + 0j)``, so the product has the bits
    of ``s.coeffs * weights``; it is nonzero only where ``c_v`` is and
    ``v < n - 1``."""
    n = int(n)
    if not 1 <= n <= s.group.size:
        raise DomainError(f"Cesaro order {n} outside [1, {s.group.size}]")

    def fill(lo, buf):
        _fejer_weights(n, lo, buf)
        buf *= s.coeffs[lo : lo + len(buf)]
        return buf

    return _synthesize(s.group, _Rows(_support_depth(s.group, s.coeffs[: n - 1]), fill))


def lp_quasinorm(f: CylinderFunction, p) -> float:
    """``(integral of |f|^p)^(1/p)`` for ``p > 0`` (a quasinorm when p < 1)."""
    return _mean_power_root(np.abs(f.values), p)


def _mean_power_root(mags: np.ndarray, p) -> float:
    """``mean(mags^p)^(1/p)`` of nonnegative reals, raised to ``p`` in place."""
    p = float(p)
    if p <= 0:
        raise DomainError(f"exponent must be positive, got {p}")
    mags **= p
    return float(np.mean(mags) ** (1.0 / p))


def maximal_function(f: CylinderFunction) -> CylinderFunction:
    """Pointwise sup of |conditional expectation| over all depths 0..N.

    Returned on the same grid as ``f`` (values are real, stored complex).
    """
    g = f.group
    best = np.abs(f.values)
    level_vals = f.values
    for level in range(g.resolution - 1, -1, -1):
        level_vals = level_vals.reshape(g.digits[level], -1).mean(axis=0)
        rows = best.reshape(-1, g.scales[level])
        np.maximum(rows, np.abs(level_vals), out=rows)
    return CylinderFunction(g, best.astype(np.complex128))


def hardy_quasinorm_estimate(levels, p) -> float:
    """``L_p`` size of the maximal function of a martingale given by its levels.

    ``levels`` lists conditional expectations at strictly increasing
    resolutions (the last one is the finest).  The chain is validated:
    every level must be exactly the cylinder average of the next, up to a
    relative 1e-9 tolerance, and all groups must be prefixes of the finest
    one.  A violated chain raises :class:`DomainError` rather than
    returning a number that estimates nothing.
    """
    levels = list(levels)
    if not levels:
        raise DomainError("need at least one martingale level")
    fine = levels[-1]
    g = fine.group
    prev_res = -1
    for lev in levels:
        r = lev.group.resolution
        if r <= prev_res:
            raise DomainError("martingale levels must have strictly increasing resolution")
        if lev.group.digits != g.digits[:r]:
            raise DomainError("martingale levels must live on prefixes of the finest group")
        prev_res = r
    for i in range(len(levels) - 1):
        down = coarsen(levels[i + 1], levels[i].group.resolution)
        tol = 1e-9 * max(1.0, sup_abs(levels[i + 1].values))
        if sup_abs(down.values - levels[i].values) > tol:
            raise DomainError(
                f"martingale violation: level {i} is not the cylinder average of level {i + 1}"
            )
    best = np.zeros(g.size)
    for lev in levels:
        rows = best.reshape(-1, lev.group.size)
        np.maximum(rows, np.abs(lev.values), out=rows)
    return _mean_power_root(best, p)


@dataclass
class AtomReport:
    """Outcome of checking the three p-atom conditions on an interval."""

    interval: Cylinder
    p: Fraction
    mean_abs: float
    sup_norm: float
    sup_allowed: float
    outside_sup: float
    mean_ok: bool
    support_ok: bool
    size_ok: bool

    @property
    def is_atom(self) -> bool:
        return self.mean_ok and self.support_ok and self.size_ok


def validate_p_atom(a: CylinderFunction, interval: Cylinder, p) -> AtomReport:
    """Check mean zero, support, and the ``mu(I)^(-1/p)`` sup bound.

    Floating-point slack: mean and outside-support values up to ``1e-12``
    times the sup norm are accepted, and the size bound gets a relative
    ``1e-12`` cushion.
    """
    p = Fraction(p)
    if not 0 < p <= 1:
        raise DomainError(f"atom exponent must lie in (0, 1], got {p}")
    g = a.group
    if interval.group.digits != g.digits:
        raise DomainError("atom and interval must live on the same group")
    d = interval.depth
    md = g.scales[d]
    sup_norm = sup_abs(a.values)
    slack = 1e-12 * max(1.0, sup_norm)
    mean_abs = float(abs(a.values[interval.base_index :: md].sum())) / g.size
    # the columns on either side of the interval's, as views
    by_cylinder = a.values.reshape(-1, md)
    sides = (by_cylinder[:, : interval.base_index], by_cylinder[:, interval.base_index + 1 :])
    outside_sup = max((float(np.max(np.abs(side))) for side in sides if side.size), default=0.0)
    inv_p = 1 / p
    if inv_p.denominator == 1:
        sup_allowed = float(md ** int(inv_p))
    else:
        sup_allowed = float(md) ** float(inv_p)
    return AtomReport(
        interval=interval,
        p=p,
        mean_abs=mean_abs,
        sup_norm=sup_norm,
        sup_allowed=sup_allowed,
        outside_sup=outside_sup,
        mean_ok=mean_abs <= slack,
        support_ok=outside_sup <= slack,
        size_ok=sup_norm <= sup_allowed * (1 + 1e-12),
    )
