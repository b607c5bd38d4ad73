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
assumes the triangle inequality.  The Hardy-space size of ``f`` is
estimated through one maximal function: the pointwise maximum of
``|coarsen(f, r)|`` over every depth ``r`` and of ``|f|`` itself, the sup
of ``|E_n f|`` over the martingale of its conditional expectations.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import signal
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .group import Cylinder, GroupSpec
from .transform import (
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
    """Pointwise ``sum_{j=0}^{stop-1} S_j f`` by literal accumulation.

    The sweep sums from 0: ``start`` must be 0, and any other value is
    refused before anything is allocated or forked.  The parameter stays
    only because the benchmark's span tracer binds ``start`` by name; it
    goes when that tracer gives way to spans the package emits itself.

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
    and no step table; one copy with no arithmetic moves the total back
    to grid order.

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
    the other buffer, which becomes the row.  The sweep starts from
    ``psi_0 = 1+0j`` on the depth-1 prefix, with a zero counter.

    From the first rank-one term on, each step changes a point's row,
    partial sum and total from that point's own values alone, and so does
    each prefix step to the points of the full row it stands for.  So a
    grid of at least ``2 * _RANGE_POINTS`` points is stepped as up to
    ``_WORKERS`` ranges of whole blocks of the slowest digits
    ``x_0 .. x_{j-1}`` (:func:`_sweep_segment`), each from its own part of
    the prefix row to the end of the sweep.  The calling process steps the
    zero run only until its prefix row holds the digits ``x_0 .. x_j``,
    so that each block's part is at least two points
    (:func:`_digit_lanes`); it then hands each range its part, and every
    prefix step from there on is some range's.  The
    first range runs in the calling process, each other one in a process
    of its own, made by ``os.fork``: a forked process shares no
    interpreter lock, so the ranges overlap even though each numpy call is
    short.  Every point gets the same multiplies and adds in the same order
    whatever the split, so the result is bit for bit the same for any
    worker count, and bit for bit the full-grid sweep that does every
    multiply and add.
    """
    g = s.group
    if start != 0:
        raise DomainError(f"the sweep sums partial sums from 0: start must be 0, got {start}")
    if not 0 <= stop <= g.size:
        raise DomainError(f"summation range [0, {stop}) outside [0, {g.size}]")
    # S_0 is zero, and adding a zero partial sum to the zero total changes no bit
    nonzero = s.coeffs[: max(0, stop - 1)] != 0
    if not nonzero.any():
        return np.zeros(g.size, dtype=np.complex128)
    first = int(nonzero.argmax())
    del nonzero  # N bytes, not held through the sweep
    cur = np.zeros(g.size, dtype=np.complex128)
    tmp = np.empty(g.size, dtype=np.complex128)
    counter = [0] * g.resolution
    psi = np.empty(g.size, dtype=np.complex128)
    psi[: g.scales[1]] = 1
    roots = [character_basis(g).roots(a) for a in range(g.resolution)]
    split, bounds = _split(g)
    # shared with the forked workers, which write their ranges into it; one range forks none
    total = np.frombuffer(mmap.mmap(-1, 16 * g.size), np.complex128) if len(bounds) > 2 else np.zeros(g.size, dtype=np.complex128)
    with np.errstate():  # which restores the ufunc buffer size
        np.setbufsize(_LANE_BUFFER)
        psi, tmp, width, n = _zero_run(psi, tmp, 0, 1, 0, first, counter, g, roots, split + 1)
    # the row to the split's depth, still a prefix where the zero run ended first
    psi, tmp = _tile(psi, tmp, g.scales[width], g.scales[split + 1] // g.scales[width])
    width = split + 1
    part = g.size // g.scales[width]  # the points a prefix point stands for
    for lo, hi in zip(bounds, bounds[1:]):  # each range's part of the prefix, at its start
        tmp[lo : lo + (hi - lo) // part] = psi[lo // part : hi // part]
    psi, tmp = tmp, psi
    coeffs = s.coeffs[first : stop - 1]

    def run(lo, hi, parent=None):
        _sweep_range(psi[lo:hi], cur[lo:hi], total[lo:hi], tmp[lo:hi], lo, width, n, first, list(counter), g, roots, coeffs, parent)

    _sweep_segment(total, bounds, run)
    # back to grid order (x_0 fastest), into the row's buffer
    psi.reshape(g.digits[::-1])[...] = total.reshape(g.digits).T
    return psi


# The sweep steps with numpy's ufunc buffer cut to this many points: at the
# default 8,192, numpy 2.4 copies a strided lane of (4, 1,728) points through
# a 222 KB buffer in 14 us, against 7.6 us and no buffer at 16.
_LANE_BUFFER = 16

# A sweep is split into ranges of whole blocks of the slowest digits of at
# least _RANGE_POINTS points, in at most _WORKERS processes; shorter ranges
# cost more in per-step interpreter work than the processes save.
_RANGE_POINTS = 8192
_WORKERS = min(4, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


def _split(g: GroupSpec) -> tuple[int, list[int]]:
    """``(j, bounds)``: the sweep's ranges, cut at ``bounds`` into whole
    blocks of the slowest digits ``x_0 .. x_{j-1}`` of the digit-reversed
    grid.  ``j`` stops at ``R - 1``, so no block is a single point; one
    range has ``j = 0``."""
    parts = max(1, min(_WORKERS, g.size // _RANGE_POINTS))
    j = next((a for a in range(g.resolution) if g.scales[a] >= parts), g.resolution - 1)
    parts = min(parts, g.scales[j])
    block = g.size // g.scales[j]
    return j, [g.scales[j] * i // parts * block for i in range(parts + 1)]


def _tile(psi: np.ndarray, tmp: np.ndarray, size: int, times: int) -> tuple[np.ndarray, np.ndarray]:
    """Each of ``psi``'s first ``size`` points repeated ``times`` times
    into ``tmp``, which becomes the row: ``(tmp, psi)``."""
    tmp[: size * times].reshape(size, times)[...] = psi[:size, None]
    return tmp, psi


def _zero_run(psi, tmp, lo, width, n, first, counter, g, roots, wide, parent=None):
    """Step the prefix row from ``n`` to ``first``, or only until it holds
    ``wide`` axes, as ``(psi, tmp, width, n)`` after it; a worker of
    ``parent`` leaves at any step where its caller is gone (:func:`_orphaned`).

    ``psi`` starts with this range's part of the depth-``width`` prefix:
    the prefix points of the range of the digit-reversed grid from ``lo``
    on, each standing for ``N / M_width`` of its points.  When a carry
    first reaches axis ``width``, each point is tiled ``m_width`` times
    into the other buffer, which becomes the row."""
    while n < first and width < wide:
        size = g.scales[width]
        part = len(psi) * size // g.size
        if n + 1 == size:  # this step carries into axis ``width``
            psi, tmp = _tile(psi, tmp, part, g.digits[width])
            width += 1
            continue
        offset = lo * size // g.size
        lanes = [_digit_lanes(psi[:part], offset, size // g.scales[a + 1], roots[a]) for a in range(width)]
        for _ in range(n, min(first, size - 1)):
            if _orphaned(parent):
                os._exit(1)
            step_character(lanes, counter, g.digits)
        n = min(first, size - 1)
    return psi, tmp, width, n


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
    in the last bit, so one pair then steps every nonzero digit; a cut
    run must be two points or more."""
    m = len(roots)
    if lo % (m * run) == 0 == len(part) % (m * run):
        lanes = part.reshape(-1, m, run)
        if lanes[:, 1].size > 1:
            return [(lanes[:, d], roots[d]) for d in range(1, m)]
        return [(lanes[:, 1:], roots[1:, None])]
    cuts = [lo, *range(lo + run - lo % run, lo + len(part), run), lo + len(part)]
    return [(part[a - lo : b - lo], roots[a // run % m]) for a, b in zip(cuts, cuts[1:]) if a // run % m]


def _sweep_segment(total, bounds, run) -> None:
    """Run ``run(lo, hi)`` on each range of ``bounds``, each of which
    writes ``total[lo:hi]`` from its own points alone: the first range in
    the calling process, each other one in a child made by ``os.fork``.

    ``total`` is then a shared mapping: a child writes its range there
    and leaves by ``os._exit(0)``, or by ``os._exit(1)`` on any exception.
    A range whose child could not be forked (:func:`_fork_range`), or did
    not exit 0 (killed by a signal, say, or with its status lost where
    SIGCHLD is ignored), has its part of ``total`` zeroed and runs again
    in the calling process, from its points as they were at the fork, to
    the same bits; an error that does not depend on the process is raised
    there with its own type, message and traceback.  Every child is reaped
    before this returns or raises, killed first if anything raised; a
    child whose caller is killed with no ``finally`` run leaves at its
    next step (:func:`_orphaned`).
    """
    ranges = list(zip(bounds, bounds[1:]))
    children, here = [], ranges[:1]
    try:
        for lo, hi in ranges[1:]:
            try:
                children.append((_fork_range(run, lo, hi), lo, hi))
            except OSError:
                here.append((lo, hi))
        for lo, hi in here:
            run(lo, hi)
        while children:
            pid, lo, hi = children[0]
            status = 1  # unknown where SIGCHLD is ignored: the child is reaped already
            with contextlib.suppress(ChildProcessError):
                status = os.waitpid(pid, 0)[1]
            del children[0]
            if status:
                total[lo:hi] = 0
                run(lo, hi)
    finally:
        for pid, _, _ in children:
            # a child is gone already only where SIGCHLD is ignored
            with contextlib.suppress(ChildProcessError, ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _fork_range(run, lo, hi) -> int:
    """Fork a child that runs ``run(lo, hi, caller)`` and leaves by
    ``os._exit``, with status 0 once it has finished and 1 on any
    exception (:func:`_sweep_segment`); the child's pid.  :class:`OSError`
    where ``os.fork`` is missing or another Python thread runs (a fork
    copies only the calling thread)."""
    if not hasattr(os, "fork") or len(sys._current_frames()) > 1:
        raise OSError("no fork: os.fork is missing or another Python thread runs")
    caller = os.getpid()
    with warnings.catch_warnings():
        # Python 3.12 and later warn here when another OS thread runs,
        # such as one of numpy's OpenBLAS pool; the children call only
        # elementwise ufuncs, no BLAS routine.  Raised as an error, the
        # warning would lose the child's pid.
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded, use of fork\(\)", DeprecationWarning)
        pid = os.fork()
    if pid:
        return pid
    status = 1
    try:  # the child: never returns into the caller's stack
        run(lo, hi, caller)
        status = 0
    finally:
        os._exit(status)


def _sweep_range(psi, cur, total, tmp, lo, width, n, first, counter, g, roots, coeffs, parent=None) -> None:
    """One range of the sweep, the points of the digit-reversed grid from
    ``lo`` on, from step ``n`` to the end: the rest of the zero run on its
    part of the depth-``width`` prefix row at the start of ``psi``, the
    tile-up to the full row, then one step per coefficient, and the last
    partial sum added to ``total``.  Inside a block of the slowest digits
    an axis of the split is one digit, so the range steps it by
    multiplying whole blocks by their root, and each other axis by its
    lanes.  A worker forked by ``parent`` leaves at any step where its
    caller is gone (:func:`_orphaned`)."""
    with np.errstate():  # which restores the ufunc buffer size
        np.setbufsize(_LANE_BUFFER)
        psi, tmp, width, n = _zero_run(psi, tmp, lo, width, n, first, counter, g, roots, g.resolution + 1, parent)
        psi, tmp = _tile(psi, tmp, len(psi) * g.scales[width] // g.size, g.size // g.scales[width])
        lanes = [_digit_lanes(psi, lo, g.size // g.scales[a + 1], roots[a]) for a in range(g.resolution)]
        for c in coeffs:
            if _orphaned(parent):
                os._exit(1)
            total += cur
            if c:
                np.multiply(psi, c, out=tmp)
                cur += tmp
            step_character(lanes, counter, g.digits)
        total += cur


def _orphaned(parent) -> bool:
    """Whether this process is a sweep worker whose caller ``parent`` is
    gone: killed by a signal that runs no ``finally``, such as SIGKILL, so
    that nobody reaps or kills the worker.  The worker then leaves
    at once rather than step the rest of its range; one ``getppid`` costs
    far less than a step's numpy calls.  ``None`` in the calling process."""
    return parent is not None and os.getppid() != parent


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
    """Pointwise sup of ``|E_r f|`` over all depths ``r = 0..R``: the
    maximum of ``|coarsen(f, r)|`` at every depth below ``R``, each value
    standing for its cylinder, and of ``|f|`` itself.

    Returned on the same grid as ``f`` (values are real, stored complex).
    """
    return CylinderFunction(f.group, _maximal(f).astype(np.complex128))


def hardy_quasinorm_estimate(f: CylinderFunction, p) -> float:
    """``L_p`` size of the maximal function of ``f``'s martingale: the
    ``lp_quasinorm`` of :func:`maximal_function`, from its real values."""
    return _mean_power_root(_maximal(f), p)


def _maximal(f: CylinderFunction) -> np.ndarray:
    """The real values of :func:`maximal_function`.  A maximum is exact, so
    the order of the depths changes no bit."""
    best = np.abs(f.values)
    for r in range(f.group.resolution):
        rows = best.reshape(-1, f.group.scales[r])
        np.maximum(rows, np.abs(coarsen(f, r).values), out=rows)
    return best


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
