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
    CylinderFunction,
    Spectrum,
    character_basis,
    coarsen,
    inverse_transform,
    step_character,
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


def dirichlet_kernel(n: int, grp: GroupSpec) -> CylinderFunction:
    """``D_n`` on the full grid (``D_0`` is identically zero)."""
    n = int(n)
    if n < 0:
        raise DomainError(f"kernel order must be >= 0, got {n}")
    _check_order(n, grp)
    coeffs = np.zeros(grp.size, dtype=np.complex128)
    coeffs[:n] = 1.0
    return inverse_transform(Spectrum(grp, coeffs))


def fejer_kernel(n: int, grp: GroupSpec) -> CylinderFunction:
    """``K_n = (1/n) sum_{k<n} D_k``, through its multiplier ``(n-1-v)/n``."""
    n = int(n)
    if n < 1:
        raise DomainError(f"Fejer kernel order must be >= 1, got {n}")
    _check_order(n, grp)
    v = np.arange(grp.size)
    weights = np.maximum(n - 1 - v, 0) / n
    return inverse_transform(Spectrum(grp, weights.astype(np.complex128)))


def partial_sum(s: Spectrum, n: int) -> CylinderFunction:
    """``S_n f = sum_{k < n} c_k psi_k`` (``S_0`` is zero)."""
    n = int(n)
    if not 0 <= n <= s.group.size:
        raise DomainError(f"partial-sum order {n} outside [0, {s.group.size}]")
    coeffs = np.zeros(s.group.size, dtype=np.complex128)
    coeffs[:n] = s.coeffs[:n]
    return inverse_transform(Spectrum(s.group, coeffs))


def summed_partial_sums(s: Spectrum, start: int, stop: int) -> np.ndarray:
    """Pointwise ``sum_{j=start}^{stop-1} S_j f`` by literal accumulation.

    Runs the character counter incrementally: each step updates the
    current partial sum with one rank-one term and advances the character
    row along the carry chain, so the whole sweep is a small constant
    number of vector operations per index.

    Work that cannot change a bit is skipped: a zero coefficient adds no
    rank-one term, and while the running partial sum is still identically
    zero it is not added to the total and only the character row moves.
    Until the first rank-one term the row is a *prefix row*: its first
    ``M_{J+1}`` points, where ``J`` is the highest axis on which the
    counter has ever had a nonzero digit.  The row depends on no digit
    above ``J``, so ``np.tile`` of the prefix is the full row, bit for bit.
    A digit that wraps from ``m - 1`` to ``0`` has multiplied the row by
    its unit step ``m`` times, a product only close to 1 in floating
    point, so ``J`` never falls.  The prefix row is tiled up whenever a
    carry first reaches a new axis, and to the full grid before the first
    rank-one term; a nonzero partial sum at ``start`` gets the full row at
    once.

    The steps are cut into segments at those tile-ups, so the row length
    is fixed inside a segment.  Each step changes a point's row, partial
    sum and total from that point's own values alone, so a segment whose
    row has at least ``2 * _RANGE_POINTS`` points is stepped as up to
    ``_THREADS`` contiguous point ranges, each on its own thread with its
    own copy of the counter; numpy releases the interpreter lock inside
    each vector operation.  Every point gets the same multiplies and adds
    in the same order whatever the split, so the result is bit for bit
    the same for any thread count, and bit for bit the full-grid sweep
    that does every multiply and add.
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
        hits = np.flatnonzero(s.coeffs[start : stop - 1])
        if not hits.size:
            return total
        first = start + int(hits[0])
    basis = character_basis(g)
    # a carry reaches axis a only on a step to a multiple of M_a below stop
    steps = [basis.unit_step(a) for a in range(g.resolution) if g.scales[a] < stop]
    tmp = np.empty(g.size, dtype=np.complex128)
    counter = list(digit_decompose(start, g))
    width = max((k for k, d in enumerate(counter) if d), default=0) + 1
    psi = basis.row(start)[: g.scales[width]].copy()
    n = start
    while n < first:  # the zero run: only the prefix row moves
        if n + 1 == psi.size:  # this step carries into axis ``width``
            psi = np.tile(psi, g.digits[width])
            width += 1
        end = min(first, psi.size - 1)
        _sweep_segment(psi, None, total, tmp, steps, counter, g.digits, s.coeffs[n:end])
        n = end
    if psi.size < g.size:
        psi = np.tile(psi, g.size // psi.size)
    _sweep_segment(psi, cur, total, tmp, steps, counter, g.digits, s.coeffs[first : stop - 1])
    total += cur
    return total


# A sweep segment is split into contiguous point ranges of at least
# _RANGE_POINTS points, on at most _THREADS threads; shorter ranges cost
# more in per-step interpreter work than the threads save.
_RANGE_POINTS = 8192
_THREADS = min(4, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


def _sweep_segment(psi, cur, total, tmp, steps, counter, digits, coeffs) -> None:
    """Step the row ``psi`` through one coefficient per step, split into
    point ranges on threads when the row is long enough.

    ``cur`` None means the partial sum is identically zero.  ``counter``
    ends advanced past the segment.  A range's exception is raised again
    here, after every thread has finished.
    """
    parts = max(1, min(_THREADS, psi.size // _RANGE_POINTS))
    bounds = [psi.size * i // parts for i in range(parts + 1)]
    counters = [list(counter) for _ in range(parts)]
    ranges = [
        (
            psi[lo:hi],
            None if cur is None else cur[lo:hi],
            total[lo:hi],
            tmp[lo:hi],
            [step[lo:hi] for step in steps],
            counters[i],
            digits,
            coeffs,
        )
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    ]
    if parts == 1:
        _sweep_range(*ranges[0])
    else:
        errors: list[Exception] = []

        def run(args):
            try:
                _sweep_range(*args)
            except Exception as exc:  # raised again in the caller below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(args,)) for args in ranges]
        started = []
        try:
            for thread in threads:
                thread.start()
                started.append(thread)
        finally:
            for thread in started:
                thread.join()
        if errors:
            raise errors[0]
    counter[:] = counters[0]


def _sweep_range(psi, cur, total, tmp, steps, counter, digits, coeffs) -> None:
    """The sweep's loop body on one point range, one step per coefficient;
    it calls only numpy, so it may run on any thread."""
    for c in coeffs:
        if cur is not None:
            total += cur
            if c:
                np.multiply(psi, c, out=tmp)
                cur += tmp
        step_character(psi, counter, digits, steps)


def fejer_mean_direct(s: Spectrum, n: int) -> CylinderFunction:
    """The n-th Cesaro mean as an honest average of ``n`` partial sums."""
    n = int(n)
    if not 1 <= n <= s.group.size:
        raise DomainError(f"Cesaro order {n} outside [1, {s.group.size}]")
    return CylinderFunction(s.group, summed_partial_sums(s, 0, n) / n)


def fejer_mean_multiplier(s: Spectrum, n: int) -> CylinderFunction:
    """The same mean as one inverse transform of ``c_v * (n - 1 - v)/n``."""
    n = int(n)
    if not 1 <= n <= s.group.size:
        raise DomainError(f"Cesaro order {n} outside [1, {s.group.size}]")
    v = np.arange(s.group.size)
    weights = np.maximum(n - 1 - v, 0) / n
    return inverse_transform(Spectrum(s.group, s.coeffs * weights))


def lp_quasinorm(f: CylinderFunction, p) -> float:
    """``(integral of |f|^p)^(1/p)`` for ``p > 0`` (a quasinorm when p < 1)."""
    p = float(p)
    if p <= 0:
        raise DomainError(f"exponent must be positive, got {p}")
    return float(np.mean(np.abs(f.values) ** p) ** (1.0 / p))


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
    return lp_quasinorm(CylinderFunction(g, best.astype(np.complex128)), p)


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
    outside = np.delete(a.values.reshape(-1, md), interval.base_index, axis=1)
    outside_sup = sup_abs(outside) if outside.size else 0.0
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
