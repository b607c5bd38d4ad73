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


def _fejer_coeffs(n: int, size: int) -> np.ndarray:
    """A zero complex array of ``size`` points with the Fejer multiplier
    ``(n - 1 - v) / n`` in the real parts of its first ``n``, written in
    place with no temporary: the running sum of ``n - 1, -1, -1, ...`` is
    ``n - 1 - v``, an integer float and exact, so each weight is the same
    float division as from integers."""
    coeffs = np.zeros(size, dtype=np.complex128)
    weights = coeffs.real[:n]
    weights.fill(-1.0)
    weights[0] = n - 1
    np.cumsum(weights, out=weights)
    weights /= n
    return coeffs


def dirichlet_kernel(n: int, grp: GroupSpec) -> CylinderFunction:
    """``D_n`` on the full grid (``D_0`` is identically zero)."""
    n = int(n)
    if n < 0:
        raise DomainError(f"kernel order must be >= 0, got {n}")
    _check_order(n, grp)
    coeffs = np.zeros(grp.size, dtype=np.complex128)
    coeffs[:n] = 1.0
    return _synthesize(grp, coeffs)


def fejer_kernel(n: int, grp: GroupSpec) -> CylinderFunction:
    """``K_n = (1/n) sum_{k<n} D_k``, through its multiplier ``(n-1-v)/n``,
    written straight into the coefficient array that is then transformed
    in place: one grid vector and the transform's scratch at the peak."""
    n = int(n)
    if n < 1:
        raise DomainError(f"Fejer kernel order must be >= 1, got {n}")
    _check_order(n, grp)
    return _synthesize(grp, _fejer_coeffs(n, grp.size))


def partial_sum(s: Spectrum, n: int) -> CylinderFunction:
    """``S_n f = sum_{k < n} c_k psi_k`` (``S_0`` is zero)."""
    n = int(n)
    if not 0 <= n <= s.group.size:
        raise DomainError(f"partial-sum order {n} outside [0, {s.group.size}]")
    coeffs = np.zeros(s.group.size, dtype=np.complex128)
    coeffs[:n] = s.coeffs[:n]
    return _synthesize(s.group, coeffs)


def summed_partial_sums(s: Spectrum, start: int, stop: int) -> np.ndarray:
    """Pointwise ``sum_{j=start}^{stop-1} S_j f`` by literal accumulation.

    Runs the character counter incrementally: each step updates the
    current partial sum with one rank-one term and advances the character
    row along the carry chain, so the whole sweep is a small constant
    number of vector operations per index.

    Every vector is stepped as rows of ``M_K`` points, ``M_K`` the first
    scale above ``_SHORT_RUN`` (or ``N`` on a grid no larger) and ``K``
    the number of axes below it.  Besides its four grid vectors (the row
    ``psi``, the partial sum ``cur``, ``total`` and the scratch ``tmp``)
    the sweep holds only its unit steps, built once in that layout
    (:func:`_sweep_steps`): one ``M_K``-point row per axis below ``K``
    whose run ``M_a`` is under ``_VIEW_RUN``, the ``m_a`` roots of any
    other axis below ``K``, and one ``N / M_K``-entry column per higher
    axis.

    Work that cannot change a bit is skipped: a zero coefficient adds no
    rank-one term, while the running partial sum is still identically zero
    it is not added to the total and only the character row moves, and no
    point is multiplied by the root of its digit 0 (:func:`_digit_lanes`).
    Until the first rank-one term the row is a *prefix row*: its first
    ``M_W`` points, with ``W`` above every axis on which the counter has
    ever had a nonzero digit.  The row depends on no digit at or above
    ``W``, so copies of the prefix are the full row, bit for bit.  A digit
    that wraps from ``m - 1`` to ``0`` has multiplied the row by its unit
    step ``m`` times, a product only close to 1 in floating point, so
    ``W`` never falls.  It lives in ``tmp`` in digit-reversed order
    (``x_0`` slowest), where the points with ``x_a = d`` are ``M_a``
    contiguous blocks of ``M_W / M_{a+1}`` points.  When a carry first
    reaches axis ``W``, the new fastest digit, each point is repeated
    ``m_W`` times in place, a row at a time from the top down; after the
    zero run one transpose writes it into ``psi`` and copies fill the rest.
    The prefix row at ``start`` is built on the depth-``W`` grid alone:
    each of its points gets the same phase sum, in the same order, as on
    any deeper grid.

    The zero run is stepped on the calling thread, cut into segments at
    those tile-ups so the prefix is fixed inside a segment; it moves the
    row alone, which threads do not speed up.  From the first rank-one
    term on, each step changes a point's row, partial sum and total from
    that point's own values alone, so a grid of at least
    ``2 * _RANGE_POINTS`` points is stepped as up to ``_THREADS`` ranges
    of whole rows (:func:`_sweep_segment`): the first on the calling
    thread, each other one on its own thread with its own copy of the
    counter; numpy releases the interpreter lock inside each vector
    operation.  Every point gets the same multiplies and adds in the same
    order whatever the split, so the result is bit for bit the same for
    any thread count, and bit for bit the full-grid sweep that does every
    multiply and add.
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
    short = sum(1 for run in g.scales[:-1] if run <= _SHORT_RUN)
    run = g.scales[short]
    totals = total.reshape(-1, run)
    counter = list(digit_decompose(start, g))
    width = max((k for k, d in enumerate(counter) if d), default=0) + 1
    size = g.scales[width]
    rev = np.empty(g.size, dtype=np.complex128)  # tmp; through the zero run, the prefix row digit-reversed
    rev[:size].reshape(g.digits[:width])[...] = CharacterBasis(g.truncate(width)).row(start).reshape(g.digits[width - 1 :: -1]).T
    n = start
    with np.errstate():  # which restores the ufunc buffer size
        np.setbufsize(_LANE_BUFFER)
        while n < first:  # the zero run: only the prefix row moves
            if n + 1 == size:  # this step carries into axis ``width``
                m = g.digits[width]
                tiled = rev[: size * m].reshape(size, m)  # each point m times, a copied row at a time from the top
                for lo in reversed(range(0, size, run)):
                    tiled[lo : lo + run] = rev[lo : min(lo + run, size), None].copy()
                size *= m
                width += 1
            lanes = [_digit_lanes(rev[:size].reshape(g.scales[a], g.digits[a], -1), character_basis(g).roots(a)) for a in range(width)]
            for _ in range(n, min(first, size - 1)):
                step_character(lanes, counter, g.digits)
            n = min(first, size - 1)
    psi = np.empty_like(totals)
    flat = psi.reshape(-1)
    flat[:size].reshape(g.digits[width - 1 :: -1])[...] = rev[:size].reshape(g.digits[:width]).T
    flat.reshape(-1, size)[1:] = flat[:size]
    # a carry reaches axis a only on a step to a multiple of M_a below stop
    steps = _sweep_steps(character_basis(g), short, stop)  # after the zero run, which needs only roots
    _sweep_segment(psi, cur.reshape(-1, run), totals, rev.reshape(-1, run), steps, counter, g.digits, s.coeffs[first : stop - 1])
    total += cur
    return total


# A partial-sum sweep steps every vector as rows of M_K points, M_K the first
# scale above _SHORT_RUN: each axis below K by one M_K-point row of its unit
# step, broadcast down the rows, and each higher axis by a column of one root
# per row.  The floor is where those broadcast multiplies stop being slow: in
# place on a (rows, L) array of about 40,000 points, numpy 2.4 took 1.6-2.0x
# as long with a (1, L) row or a (rows, 1) column as with a contiguous
# operand for L from 1,728 to 4,096 points, and from L = 4,608 up the row
# multiply ran at parity and the column one 25-30 % faster (2 shared vCPUs).
_SHORT_RUN = 4096

# An axis below K whose run M_a is at least _VIEW_RUN points steps the lanes
# of a (..., m_a, M_a) view by their roots instead of an M_K-point row.  It
# is stepped once in M_a steps, so strided lanes cost little there, and at
# most log2(_VIEW_RUN) axes keep a row however large M_K is: on a grid of
# one row, 5 grid vectors of steps instead of one per axis.
_VIEW_RUN = 32

# The sweep steps with numpy's ufunc buffer cut to this many points: at the
# default 8,192, numpy 2.4 copies a strided lane of (4, 1,728) points through
# a 222 KB buffer in 14 us, against 7.6 us and no buffer at 16.
_LANE_BUFFER = 16

# A sweep segment is split into ranges of whole rows of at least
# _RANGE_POINTS points, on at most _THREADS threads; shorter ranges cost
# more in per-step interpreter work than the threads save.
_RANGE_POINTS = 8192
_THREADS = min(4, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


def _sweep_steps(basis: CharacterBasis, short: int, stop: int) -> list[np.ndarray]:
    """The unit steps of the axes a carry reaches on a step below
    ``stop``, each in the layout of rows of ``M_K`` points with
    ``K = short``: an axis below ``K`` with ``M_a < _VIEW_RUN`` as a
    ``(1, M_K)`` row that every row of the grid shares, any other axis
    below ``K`` as its ``m_a`` roots broadcast to ``(1, m_a, M_a)``, for
    rows seen as ``(..., m_a, M_a)`` (:func:`_digit_lanes`), and any
    higher axis as an ``(N / M_K, 1)`` column of one root per row.

    The unit step of an axis below ``K`` depends on ``x mod M_K`` alone,
    so its row is the unit step on the depth-``K`` grid, and ``M_{a+1}``
    divides the points of any whole rows, so they have the view; that of
    a higher axis is constant on runs of ``M_a`` points, a multiple of
    ``M_K``.  Either way each point is multiplied by its own root
    ``exp(2*pi*i * x_a / m_a)``, and numpy's complex product of two
    numbers does not depend on whether one of them is broadcast: every
    step is bit for bit the full-vector one (only a multiply over a single
    point takes another loop; a row holds one only on a one-point grid).
    The row and the roots serve any number of rows."""
    g = basis.group
    run = g.scales[short]
    short_grid = CharacterBasis(g.truncate(short))
    steps = []
    for a in range(g.resolution):
        m, low = g.digits[a], g.scales[a]
        if low >= stop:
            break
        if a >= short:
            step = np.tile(np.repeat(basis.roots(a), low // run), g.size // g.scales[a + 1])[:, None]
        elif low >= _VIEW_RUN:
            step = np.broadcast_to(basis.roots(a)[None, :, None], (1, m, low))
        else:
            step = short_grid.unit_step(a)[None, :]
        steps.append(step)
    return steps


def _digit_lanes(view: np.ndarray, roots: np.ndarray) -> list[tuple]:
    """The ``(lane, root)`` pairs that step axis ``a`` of ``view``, the row
    as ``(..., m_a, L)``: one per nonzero digit.  Digit 0's root is exactly
    ``1+0j``, and ``z * (1+0j)`` is ``z`` bit for bit unless a component of
    ``z`` is -0, which no row has: ``row(n)`` is ``exp(2*pi*i * phase)``
    with ``phase >= 0``, a product of nonzero factors is nonzero, and an
    exact cancellation rounds to +0.  A one-point lane would take another
    numpy loop, which can differ in the last bit, so one pair then steps
    every nonzero digit."""
    if view[:, 1].size > 1:
        return [(view[:, d], roots[d]) for d in range(1, len(roots))]
    return [(view[:, 1:], roots[1:, None])]


def _sweep_segment(psi, cur, total, tmp, steps, counter, digits, coeffs) -> None:
    """Step the row ``psi``, and the partial sum ``cur`` and ``total``
    with it, through one coefficient per step, as ranges of whole rows,
    each with its own copy of ``counter``: the first on the calling
    thread, each other one on a thread of its own.

    Every vector and step is in the row layout of :func:`_sweep_steps`.
    A range takes its own rows of each column step and the whole of each
    one-row step.  An exception, the caller's range's too, is raised
    again here only after every thread has been joined.
    """
    rows = len(psi)
    parts = max(1, min(_THREADS, psi.size // _RANGE_POINTS, rows))
    bounds = [rows * i // parts for i in range(parts + 1)]
    ranges = [
        (psi[lo:hi], cur[lo:hi], total[lo:hi], tmp[lo:hi], [step if len(step) == 1 else step[lo:hi] for step in steps])
        for lo, hi in zip(bounds, bounds[1:])
    ]
    errors: list[Exception] = []

    def run(part):
        try:
            _sweep_range(*part, list(counter), digits, coeffs)
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


def _sweep_range(psi, cur, total, tmp, steps, counter, digits, coeffs) -> None:
    """The sweep's loop body on one point range, one step per coefficient;
    it calls only numpy, so it may run on any thread."""
    lanes = [_digit_lanes(np.reshape(psi, (-1, *st.shape[1:]), copy=False), st[0, :, 0]) if st.ndim == 3 else [(psi, st)] for st in steps]
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
    the ``(view, factor)`` pairs that step axis ``j``: each view of
    ``psi`` is multiplied in place by its factor, a row or column of
    :func:`_sweep_steps` or a root (:func:`_digit_lanes`).  They must
    exist for every axis the carry reaches, each ``a`` with ``M_a``
    dividing ``n + 1``.  ``n + 1`` must be below ``N``, so the carry never
    runs past the top axis.  Only numpy runs here, on the views and
    factors alone, so disjoint point ranges may be stepped at once.
    """
    j = 0
    while True:
        for view, factor in lanes[j]:
            view *= factor
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
    built in its own array as :func:`fejer_kernel` is: the weights, times
    the coefficients in place, then transformed there.  ``(w + 0j) * c``
    runs the same IEEE operations as ``c * (w + 0j)``, so the product has
    the bits of ``s.coeffs * weights``."""
    n = int(n)
    if not 1 <= n <= s.group.size:
        raise DomainError(f"Cesaro order {n} outside [1, {s.group.size}]")
    coeffs = _fejer_coeffs(n, s.group.size)
    coeffs *= s.coeffs
    return _synthesize(s.group, coeffs)


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
    mean_abs = abs(a.values[interval.base_index :: md].sum()) / g.size
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
