"""Unit tests: Dirichlet/Fejer kernels, Cesaro means, Hardy-space pieces."""
import collections
import contextlib
import os
import select
import signal
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vilenkin import kernels, transform
from vilenkin.errors import DomainError
from vilenkin.group import Cylinder, GroupPattern, build_group_spec, digit_decompose
from vilenkin.kernels import (
    dirichlet_kernel,
    fejer_kernel,
    fejer_mean_direct,
    fejer_mean_multiplier,
    hardy_quasinorm_estimate,
    lp_quasinorm,
    maximal_function,
    partial_sum,
    summed_partial_sums,
    validate_p_atom,
    zero_cylinder_indicator,
)
from vilenkin.transform import (
    CharacterBasis,
    CylinderFunction,
    Spectrum,
    character_basis,
    coarsen,
    forward_transform,
    inverse_transform,
    random_cylinder_function,
    sup_abs,
)

digit_lists = st.lists(st.integers(2, 5), min_size=2, max_size=5)


@st.composite
def sweep_groups(draw, max_base=5):
    """Bases 2 to ``max_base`` on at most 4096 points: the longest prefix
    of a drawn base list that fits."""
    digits = draw(st.lists(st.integers(2, max_base), min_size=1, max_size=12))
    size, kept = 1, []
    for m in digits:
        if size * m > 4096:
            break
        size *= m
        kept.append(m)
    return build_group_spec(kept)


@st.composite
def sweep_spectra(draw, max_base=5):
    """Spectra with zero runs: dense with ~60% zeros, one constant block,
    or several constant blocks."""
    g = draw(sweep_groups(max_base))
    kind = draw(st.sampled_from(["dense", "block", "blocks"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = np.zeros(g.size, dtype=np.complex128)
    if kind == "dense":
        coeffs = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
        coeffs[rng.random(g.size) < 0.6] = 0
    else:
        for _ in range(1 if kind == "block" else draw(st.integers(2, 4))):
            lo = draw(st.integers(0, g.size - 1))
            hi = draw(st.integers(lo + 1, g.size))
            coeffs[lo:hi] = complex(rng.standard_normal(), rng.standard_normal())
    return Spectrum(g, coeffs)


def full_grid_sweep(s, stop):
    """The sweep from 0 without any skipping: every rank-one term and
    every add, with the character row stepped on the full grid."""
    g = s.group
    total = np.zeros(g.size, dtype=np.complex128)
    cur = np.zeros(g.size, dtype=np.complex128)
    basis = character_basis(g)
    psi = basis.row(0)
    counter = [0] * g.resolution
    tmp = np.empty(g.size, dtype=np.complex128)
    for j in range(stop):
        total += cur
        if j + 1 == stop:
            break
        np.multiply(psi, s.coeffs[j], out=tmp)
        cur += tmp
        axis = 0
        while True:
            psi *= basis.unit_step(axis)
            counter[axis] += 1
            if counter[axis] < g.digits[axis]:
                break
            counter[axis] = 0
            axis += 1
            if axis == g.resolution:
                break
    return total


def digit_grid(g, axis):
    """Digit ``axis`` of every point, as a full-grid int16 array."""
    idx = np.arange(g.size, dtype=np.int64)
    return ((idx // g.scales[axis]) % g.digits[axis]).astype(np.int16)


def digit_grid_unit_step(g, axis):
    """``CharacterBasis.unit_step`` as first written, from a full-grid digit array."""
    return np.exp(2j * np.pi * digit_grid(g, axis) / g.digits[axis])


def digit_grid_row(g, n):
    """``CharacterBasis.row`` as first written, from full-grid digit arrays."""
    phase = np.zeros(g.size, dtype=np.float64)
    for k, nk in enumerate(digit_decompose(n, g)):
        if nk:
            phase += (nk / g.digits[k]) * digit_grid(g, k)
    return np.exp(2j * np.pi * phase)


def assert_characters_match_digit_grids(g, frequencies):
    for axis in range(g.resolution):
        # a fresh basis, so no more than one step vector is held at a time
        got = CharacterBasis(g).unit_step(axis)
        assert got.tobytes() == digit_grid_unit_step(g, axis).tobytes()
    basis = CharacterBasis(g)
    for n in frequencies:
        assert basis.row(n).tobytes() == digit_grid_row(g, n).tobytes()


@given(sweep_groups(), st.data())
@settings(max_examples=120, deadline=None)
def test_characters_are_the_digit_grid_characters_bit_for_bit(g, data):
    frequencies = data.draw(st.lists(st.integers(0, g.size - 1), min_size=1, max_size=4))
    assert_characters_match_digit_grids(g, [g.size - 1, *frequencies])


@pytest.mark.parametrize("pattern, depth", [((2, 2, 3), 13), ((5, 2), 12)])
def test_characters_on_deep_grids_are_the_digit_grid_characters_bit_for_bit(pattern, depth):
    g = GroupPattern(pattern).group(depth)
    rng = np.random.default_rng(depth)
    assert_characters_match_digit_grids(g, [g.size - 1, *map(int, rng.integers(1, g.size, 4))])


@given(sweep_groups(max_base=7), st.data())
@settings(max_examples=100, deadline=None)
def test_the_root_of_digit_zero_leaves_every_stepped_row_bit_for_bit(g, data):
    # the sweep never multiplies a point by the root of its digit 0: that
    # root is exactly 1+0j, and z * (1+0j) is z bit for bit unless a
    # component of z is -0, which no row, built or stepped, has
    basis = CharacterBasis(g)
    one = basis.roots(0)[0]
    for a in range(g.resolution):
        assert basis.roots(a)[0].tobytes() == np.array([1.0, 0.0]).tobytes()
    start = data.draw(st.integers(0, g.size - 1))
    row = basis.row(start)
    parts = row.view(np.float64)
    assert not np.signbit(parts[parts == 0]).any()
    counter = list(digit_decompose(start, g))
    for _ in range(data.draw(st.integers(0, g.size - 1 - start))):
        axis = 0
        while True:  # the carry chain of full_grid_sweep
            row *= basis.unit_step(axis)
            counter[axis] += 1
            if counter[axis] < g.digits[axis]:
                break
            counter[axis] = 0
            axis += 1
    parts = row.view(np.float64)
    assert not np.signbit(parts[parts == 0]).any()
    stepped = row.tobytes()
    row *= one  # contiguous, by a scalar
    row *= np.full(g.size, one)  # contiguous, by a vector
    row[1::2] *= one  # strided
    row[:1] *= one  # one point, which takes another loop
    by_digit = row.reshape(-1, g.digits[0])
    by_digit *= np.full((1, g.digits[0]), one)  # broadcast
    assert row.tobytes() == stepped


def test_dirichlet_smallest_orders():
    g = build_group_spec([2, 3, 2])
    assert sup_abs(dirichlet_kernel(0, g).values) == 0
    assert sup_abs(dirichlet_kernel(1, g).values - 1.0) < 1e-15


@pytest.mark.parametrize("digits", [[2] * 6, [3] * 4, [2, 3, 2, 4]])
def test_dirichlet_at_scale_orders_is_block(digits):
    g = build_group_spec(digits)
    for n in range(g.resolution + 1):
        d = dirichlet_kernel(g.scales[n], g)
        want = g.scales[n] * zero_cylinder_indicator(g, n).values
        assert sup_abs(d.values - want) <= 1e-10


def test_dirichlet_shift_identity_exhaustive():
    # D_{j + M_B} = D_{M_B} + psi_{M_B} * D_j for j < M_B
    g = build_group_spec([2] * 8)
    B = 4
    mb = g.scales[B]
    basis = character_basis(g)
    d_mb = dirichlet_kernel(mb, g).values
    psi = basis.row(mb)
    for j in range(mb):
        lhs = dirichlet_kernel(j + mb, g).values
        rhs = d_mb + psi * dirichlet_kernel(j, g).values
        assert sup_abs(lhs - rhs) <= 1e-10


@given(digit_lists, st.data())
@settings(max_examples=40, deadline=None)
def test_dirichlet_carry_split(digits, data):
    # D_{d*M_r + i} = (sum_{t<d} psi_{M_r}^t) D_{M_r} + psi_{M_r}^d D_i
    g = build_group_spec(digits)
    r = data.draw(st.integers(0, g.resolution - 1))
    d = data.draw(st.integers(1, g.digits[r] - 1))
    i = data.draw(st.integers(0, g.scales[r] - 1))
    basis = character_basis(g)
    psi = basis.row(g.scales[r])
    geom = sum(psi**t for t in range(d))
    lhs = dirichlet_kernel(d * g.scales[r] + i, g).values
    rhs = geom * dirichlet_kernel(g.scales[r], g).values + psi**d * dirichlet_kernel(i, g).values
    assert sup_abs(lhs - rhs) <= 1e-9


def test_fejer_value_at_zero():
    g = build_group_spec([2] * 6)
    for n in (1, 2, 5, 21, 64):
        k = fejer_kernel(n, g)
        assert abs(k.values[0] - (n - 1) / 2) < 1e-10
    assert sup_abs(fejer_kernel(1, g).values) < 1e-12


def test_kernel_index_bounds():
    g = build_group_spec([2, 3])
    with pytest.raises(DomainError):
        dirichlet_kernel(-1, g)
    with pytest.raises(DomainError):
        dirichlet_kernel(g.size + 1, g)
    with pytest.raises(DomainError):
        fejer_kernel(0, g)
    with pytest.raises(DomainError, match=r"zero digits \[2\] outside \[0, 2\)"):
        fejer_kernel(3, g, zero_digits=(2,))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(2, 7), min_size=1, max_size=4), st.data())
def test_fejer_kernel_on_a_zero_digit_sub_grid_is_the_full_kernel_there_bit_for_bit(bases, data):
    # a random pattern's support grid of at most 4,096 points, any order,
    # any set of digits held at zero
    pattern = GroupPattern(tuple(bases))
    depth = data.draw(st.integers(1, max(d for d in range(1, 13) if pattern.scale(d) <= 4096)), label="depth")
    g = pattern.group(depth)
    n = data.draw(st.integers(1, g.size), label="order")
    zero = data.draw(st.sets(st.integers(0, depth - 1)), label="zero digits")
    got = fejer_kernel(n, g, zero_digits=zero)
    kept = [x for x in range(g.size) if not any(digit_decompose(x, g)[j] for j in zero)]
    assert got.group.digits == tuple(m for j, m in enumerate(g.digits) if j not in zero)
    assert np.array_equal(got.values.view(np.uint64), fejer_kernel(n, g).values[kept].view(np.uint64))


def test_partial_sum_at_full_order_reconstructs():
    g = build_group_spec([2, 3, 2])
    f = random_cylinder_function(g, seed=9)
    s = forward_transform(f)
    assert sup_abs(partial_sum(s, g.size).values - f.values) < 1e-10
    assert sup_abs(partial_sum(s, 0).values) == 0


@given(digit_lists, st.data())
@settings(max_examples=25, deadline=None)
def test_summed_partial_sums_matches_literal_stack(digits, data):
    g = build_group_spec(digits)
    s = forward_transform(random_cylinder_function(g, seed=data.draw(st.integers(0, 99))))
    stop = data.draw(st.integers(0, g.size))
    fast = summed_partial_sums(s, 0, stop)
    slow = np.zeros(g.size, dtype=np.complex128)
    for j in range(stop):
        slow += partial_sum(s, j).values
    assert sup_abs(fast - slow) <= 1e-9 * max(1.0, sup_abs(slow))


@given(sweep_spectra(), st.data())
@settings(max_examples=100, deadline=None)
def test_summed_partial_sums_is_the_full_grid_sweep_bit_for_bit(s, data):
    stop = data.draw(st.integers(0, s.group.size))
    fast = summed_partial_sums(s, 0, stop)
    slow = full_grid_sweep(s, stop)
    assert np.array_equal(fast, slow)
    assert fast.tobytes() == slow.tobytes()  # signed zeros too


@example(build_group_spec([2] * 12), 100, 4096)  # N = 4,096, at the floor: one row
@example(build_group_spec([2] * 14), 8200, 8250)  # two rows of 8,192; the prefix tiles up to both
@example(build_group_spec([2] * 15), 9000, 9050)  # a prefix tiled up to 2 rows, then 4 rows in 4 ranges
# width-1 prefixes, whose lanes of a digit would be one point each
@example(build_group_spec([3, 2, 2]), 2, 12)
@example(build_group_spec([5, 2]), 4, 10)
@example(build_group_spec([5]), 3, 5)
@example(build_group_spec([3, 5]), 4, 15)
@example(build_group_spec([2, 5, 3]), 4, 30)
@example(build_group_spec([2, 3]), 1, 6)
@given(sweep_groups(), st.integers(0, 4096), st.integers(0, 4096))
@settings(max_examples=50, deadline=None)
def test_a_zero_run_of_any_length_is_the_full_grid_sweep(g, first, stop):
    # coefficients zero from 0 up to ``first``: the sweep steps a prefix row
    # from the depth-1 prefix of psi_0, in up to 4 ranges whatever the
    # host, so a grid of 16,384 points or more splits
    first, stop = sorted(min(x, g.size) for x in (first, stop))
    rng = np.random.default_rng(first)
    coeffs = np.zeros(g.size, dtype=np.complex128)
    coeffs[first:] = rng.standard_normal(g.size - first) + 1j * rng.standard_normal(g.size - first)
    s = Spectrum(g, coeffs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_WORKERS", 4)
        fast = summed_partial_sums(s, 0, stop)
    assert fast.tobytes() == full_grid_sweep(s, stop).tobytes()


@given(sweep_spectra(), st.data())
@settings(max_examples=200, deadline=None)
def test_sweep_split_into_tiny_thread_ranges_is_the_full_grid_sweep(s, data):
    # ranges of 1 or 2 points in 3 processes: a sweep is split into ranges
    # of as few whole blocks as the grid allows, of one block too, each
    # stepping its own part of the prefix row
    stop = data.draw(st.integers(0, s.group.size))
    range_points = data.draw(st.sampled_from([1, 2]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_RANGE_POINTS", range_points)
        mp.setattr(kernels, "_WORKERS", 3)
        fast = summed_partial_sums(s, 0, stop)
    assert fast.tobytes() == full_grid_sweep(s, stop).tobytes()


@st.composite
def sweep_ranges(draw, max_base=5):
    """A spectrum of :func:`sweep_spectra` and the end of a summation
    range from 0 that is empty, one point long or ragged."""
    s = draw(sweep_spectra(max_base))
    ragged = st.integers(0, s.group.size)
    stop = draw(st.one_of(st.just(0), st.just(1), ragged, ragged))
    return s, stop


def dense_spectrum(digits, seed=0):
    return forward_transform(random_cylinder_function(build_group_spec(digits), seed=seed))


@pytest.mark.parametrize("workers", [1, 4])
# one range point in 4 processes: if the blocks of the slowest digits went
# down to x_{R-1}, these grids would be cut into one-point blocks
@example((dense_spectrum([2, 5]), 10), 1)
@example((dense_spectrum([5], seed=2), 5), 1)
@example((dense_spectrum([7]), 7), 1)
@given(sweep_ranges(max_base=7), st.sampled_from([1, 2, 8192]))
@settings(max_examples=150, deadline=None)
def test_sweep_with_few_full_step_vectors_is_the_full_grid_sweep(workers, case, range_points):
    # no step vector at all: every axis steps by its roots; worker ranges
    # of any block count, and summation ranges that are empty, one point
    # long or ragged
    s, stop = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_RANGE_POINTS", range_points)
        mp.setattr(kernels, "_WORKERS", workers)
        fast = summed_partial_sums(s, 0, stop)
    assert fast.tobytes() == full_grid_sweep(s, stop).tobytes()


def test_sweep_holds_four_grid_vectors_and_the_ufunc_buffer(monkeypatch):
    # 92,160 points: a sweep past M_13 reaches all 14 axes, and its zero
    # run tiles the prefix row up through every axis from a width of one
    g = build_group_spec([3, 2, 5, 2, 3] + [2] * 9)
    assert g.size >= 2**16
    coeffs = np.zeros(g.size, dtype=np.complex128)
    coeffs[g.scales[13]] = 1
    s = Spectrum(g, coeffs)
    monkeypatch.setattr(kernels, "_WORKERS", 1)
    _, peak = _peak(lambda: summed_partial_sums(s, 0, g.scales[13] + 2))
    # psi, cur, total and tmp, and the ufunc buffer numpy may take for a
    # broadcast multiply
    assert peak <= (4 * g.size + np.getbufsize()) * np.dtype(np.complex128).itemsize


@given(sweep_spectra(max_base=7), st.data())
@settings(max_examples=150, deadline=None)
def test_sweep_stepping_long_runs_by_their_roots_is_the_full_grid_sweep(s, data):
    # every axis, of a run of one point up, steps the lanes of its nonzero
    # digits by their roots, on prefix rows and on worker ranges of one
    # block or more
    stop = data.draw(st.integers(0, s.group.size))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_RANGE_POINTS", data.draw(st.sampled_from([1, 8, 8192])))
        mp.setattr(kernels, "_WORKERS", data.draw(st.sampled_from([1, 3])))
        fast = summed_partial_sums(s, 0, stop)
    assert fast.tobytes() == full_grid_sweep(s, stop).tobytes()


def test_a_const_2_sweep_holds_four_grid_vectors_and_the_ufunc_buffer(monkeypatch):
    # const:2^13, exact-json's block-0 grid, whose zero run tiles the
    # prefix row up through all 13 axes: every axis steps by its roots
    g = build_group_spec([2] * 13)
    coeffs = np.zeros(g.size, dtype=np.complex128)
    coeffs[g.scales[12] :] = 1
    s = Spectrum(g, coeffs)
    monkeypatch.setattr(kernels, "_WORKERS", 1)
    _, peak = _peak(lambda: summed_partial_sums(s, 0, g.size))
    assert peak <= (4 * g.size + np.getbufsize()) * np.dtype(np.complex128).itemsize


def count_multiplies(mp, steps):
    """Wrap ``step_character`` under ``mp``: each call appends to ``steps``
    its ``n``, read from the counter it steps to ``n + 1``, and the points
    it multiplies."""
    step = kernels.step_character

    def count(lanes, counter, digits):
        axis = 0
        while counter[axis] == digits[axis] - 1:
            axis += 1
        n = 0
        for d, m in zip(reversed(counter), reversed(digits)):
            n = n * m + d
        steps.append((n, sum(view.size for pairs in lanes[: axis + 1] for view, _ in pairs)))
        step(lanes, counter, digits)

    mp.setattr(kernels, "step_character", count)


def predicted_multiplies(g, first, stop):
    """The points a sweep from 0 to ``stop`` with its first rank-one term
    at ``first`` multiplies, by one closed form: a step n -> n + 1
    multiplies (m_a - 1) / m_a of the points it steps on each axis a its
    carry reaches; before ``first`` those are the prefix of M_W points, W
    the axes that n + 1's digits use, at least one, and from there all N."""
    def used(x):
        return next(w for w in range(g.resolution + 1) if g.scales[w] > x)

    count = 0
    for n in range(stop - 1):
        points = g.scales[max(1, used(n + 1))] if n < first else g.size
        axis = 0
        while True:
            count += points // g.digits[axis] * (g.digits[axis] - 1)
            if (n + 1) % g.scales[axis + 1]:
                break
            axis += 1
    return count


@pytest.mark.parametrize("workers", [1, 3, 4])
# more ranges than m_0: the caller steps the prefix row until it holds
# x_0 and x_1, and each range steps its part from there
@example(build_group_spec([2, 3, 2]), 9, 12, 1)
@example(build_group_spec([2] * 6), 40, 64, 1)
@example(build_group_spec([2] * 6), 40, 64, 2)
@given(sweep_groups(max_base=7), st.integers(0, 4096), st.integers(0, 4096), st.sampled_from([1, 2, 8]))
@settings(max_examples=100, deadline=None)
def test_one_closed_form_prices_the_whole_sweep(workers, g, first, stop, range_points):
    # coefficients zero below ``first`` and random from there: the sweep
    # multiplies exactly the points the closed form predicts, in its zero
    # run and after it, however it is split into ranges; with no
    # ``os.fork`` every range runs, and is counted, in this process
    first, stop = min(first, g.size), min(stop, g.size)
    rng = np.random.default_rng(first)
    coeffs = np.zeros(g.size, dtype=np.complex128)
    coeffs[first:] = rng.standard_normal(g.size - first) + 1j * rng.standard_normal(g.size - first)
    steps = []
    with pytest.MonkeyPatch.context() as mp:
        count_multiplies(mp, steps)
        mp.delattr(os, "fork")
        mp.setattr(kernels, "_RANGE_POINTS", range_points)
        mp.setattr(kernels, "_WORKERS", workers)
        summed_partial_sums(Spectrum(g, coeffs), 0, stop)
    if first < stop - 1:
        expected = predicted_multiplies(g, first, stop)
    else:  # no rank-one term before ``stop - 1``: nothing is stepped
        expected = 0
    assert sum(points for _, points in steps) == expected


@pytest.mark.parametrize("g, first, stop, zero_run, summing, ranges", [
    pytest.param(GroupPattern((2, 2, 3)).group(13), 20736, 24941, 319_004_171, 174_258_432, 4, id="2,2,3"),
    pytest.param(build_group_spec([2] * 13), 4096, 5461, 11_233_963, 11_153_408, 1, id="const:2"),
])
def test_a_zero_run_multiplies_only_the_points_whose_digit_is_nonzero(g, first, stop, zero_run, summing, ranges, monkeypatch):
    # grid-audit's and exact-json's block-0 grids up to their q_alpha, with
    # coefficients zero below M_12: every step multiplies the lanes of the
    # nonzero digits of each axis its carry reaches, (m - 1) / m of the
    # prefix in the zero run and of the grid after it.  With no ``os.fork``
    # the 4 ranges of 2,2,3 (more than m_0) run and are counted here
    coeffs = np.zeros(g.size, dtype=np.complex128)
    coeffs[first:] = 1
    steps = []
    count_multiplies(monkeypatch, steps)
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(kernels, "_WORKERS", 4)
    summed_partial_sums(Spectrum(g, coeffs), 0, stop)
    # the caller steps the prefix until it holds x_0 .. x_j, then every
    # range takes each step on its own part
    split, bounds = kernels._split(g)
    assert len(bounds) - 1 == ranges
    handed = g.scales[split] - 1
    taken = collections.Counter(n for n, _ in steps)
    assert [taken[n] for n in range(stop - 1)] == [1] * handed + [ranges] * (stop - 1 - handed)
    assert sum(points for n, points in steps if n < first) == zero_run
    assert sum(points for n, points in steps if n >= first) == summing
    assert zero_run + summing == predicted_multiplies(g, first, stop)


def test_sweep_restores_the_callers_ufunc_buffer_size(monkeypatch):
    # the sweep sets a small ufunc buffer for its own steps, in the caller
    # and in 2 worker processes, and gives the caller's back, after an
    # error too
    def fail(*args):
        raise ValueError("step failed")

    s = forward_transform(random_cylinder_function(build_group_spec([2, 3, 2]), seed=4))
    monkeypatch.setattr(kernels, "_RANGE_POINTS", 2)
    monkeypatch.setattr(kernels, "_WORKERS", 3)
    with np.errstate():
        np.setbufsize(4096)
        summed_partial_sums(s, 0, s.group.size)
        assert np.getbufsize() == 4096
        monkeypatch.setattr(kernels, "step_character", fail)
        with pytest.raises(ValueError, match="step failed"):
            summed_partial_sums(s, 0, s.group.size)
        assert np.getbufsize() == 4096


def count_forks(mp):
    """Wrap ``os.fork`` under ``mp``; returns the list of the pids it makes
    in this process."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    mp.setattr(os, "fork", counted)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_refuses_a_start_past_0_before_it_forks(monkeypatch):
    # the sweep sums from 0 alone: a start past 0 is refused, on a grid
    # and range sizes where it would otherwise fork 2 workers, and so is
    # an empty range that starts past 0
    s = dense_spectrum([2, 3, 2])
    monkeypatch.setattr(kernels, "_RANGE_POINTS", 2)
    monkeypatch.setattr(kernels, "_WORKERS", 3)
    pids = count_forks(monkeypatch)
    for start, stop in [(1, 5), (3, 3)]:
        with pytest.raises(DomainError, match=f"start must be 0, got {start}"):
            summed_partial_sums(s, start, stop)
    assert pids == []


def test_sweep_raises_a_range_error_in_the_caller_after_every_thread_ends(monkeypatch):
    # every range fails, the caller's and the 2 workers': the caller raises
    # its own error once it has killed and reaped both
    def fail(*args):
        raise ValueError("range failed")

    g = build_group_spec([2, 3, 2])
    s = forward_transform(random_cylinder_function(g, seed=4))
    monkeypatch.setattr(kernels, "_RANGE_POINTS", 2)
    monkeypatch.setattr(kernels, "_WORKERS", 3)
    monkeypatch.setattr(kernels, "step_character", fail)
    pids = count_forks(monkeypatch)
    with pytest.raises(ValueError, match="range failed"):
        summed_partial_sums(s, 0, g.size)
    assert len(pids) == 2
    assert_no_child_left()


@pytest.mark.parametrize("zero_to, failing", [
    pytest.param(0, "caller", id="0"),
    pytest.param(6, "caller", id="6"),
    pytest.param(0, "worker", id="worker"),
])
def test_sweep_raises_an_error_in_the_callers_own_range_after_every_thread_ends(zero_to, failing, monkeypatch):
    # step_character fails in the calling process alone: in the first
    # range while 2 worker processes step the others, or, with the
    # coefficients zero up to the midpoint, in the caller's share of the
    # zero run, before any fork.  Where it fails in the 2 workers alone,
    # nothing is raised: the caller runs their ranges again itself, taking
    # every step a sweep with no fork takes, to the same bytes.  No child
    # outlives the call.
    caller = os.getpid()
    steps = []
    count_multiplies(monkeypatch, steps)
    step = kernels.step_character

    def fail_on_one_side(*args):
        if (os.getpid() == caller) == (failing == "caller"):
            raise ValueError(f"{failing}'s range failed")
        step(*args)

    g = build_group_spec([2, 3, 2])
    coeffs = forward_transform(random_cylinder_function(g, seed=4)).coeffs.copy()
    coeffs[:zero_to] = 0
    s = Spectrum(g, coeffs)
    monkeypatch.setattr(kernels, "_RANGE_POINTS", 2)  # 3 ranges of 2 blocks of 2 points
    monkeypatch.setattr(kernels, "_WORKERS", 3)
    monkeypatch.setattr(kernels, "step_character", fail_on_one_side)
    if failing == "caller":
        pids = count_forks(monkeypatch)
        with pytest.raises(ValueError, match="^caller's range failed$"):
            summed_partial_sums(s, 0, g.size)
        assert len(pids) == (0 if zero_to else 2)
    else:
        with pytest.MonkeyPatch.context() as mp:
            mp.delattr(os, "fork")
            clean = summed_partial_sums(s, 0, g.size)
        clean_steps = steps[:]
        steps.clear()
        pids = count_forks(monkeypatch)
        assert summed_partial_sums(s, 0, g.size).tobytes() == clean.tobytes()
        assert len(pids) == 2
        assert steps == clean_steps
    assert_no_child_left()


def small_split_sweep(monkeypatch):
    """A spectrum on 2,3,2 and the bytes of its sweep, with the sweep
    split under ``monkeypatch`` into 3 ranges of 2 blocks of 2 points, the
    last 2 in forked workers."""
    s = forward_transform(random_cylinder_function(build_group_spec([2, 3, 2]), seed=4))
    monkeypatch.setattr(kernels, "_RANGE_POINTS", 2)
    monkeypatch.setattr(kernels, "_WORKERS", 3)
    return s, summed_partial_sums(s, 0, s.group.size).tobytes()


def test_a_worker_killed_mid_range_has_its_range_run_again_in_the_caller(monkeypatch):
    # each worker SIGKILLs itself at its third step, as the OOM killer
    # might: the caller zeroes its part of the total and runs its range
    # again, to the bytes of a clean sweep, and no child is left
    s, clean = small_split_sweep(monkeypatch)
    caller = os.getpid()
    taken = collections.Counter()
    step = kernels.step_character

    def killed_mid_range(*args):
        taken[os.getpid()] += 1
        if os.getpid() != caller and taken[os.getpid()] == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        step(*args)

    monkeypatch.setattr(kernels, "step_character", killed_mid_range)
    pids = count_forks(monkeypatch)
    assert summed_partial_sums(s, 0, s.group.size).tobytes() == clean
    assert len(pids) == 2
    assert_no_child_left()


def test_sweep_with_sigchld_ignored_runs_each_workers_range_again_to_the_same_bytes(monkeypatch):
    # with SIGCHLD ignored the kernel reaps each worker itself and its exit
    # status is lost: the caller runs the workers' ranges again
    s, clean = small_split_sweep(monkeypatch)
    pids = count_forks(monkeypatch)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        ignored = summed_partial_sums(s, 0, s.group.size)
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert ignored.tobytes() == clean
    assert len(pids) == 2


def test_an_error_in_a_workers_range_is_raised_by_the_callers_run_of_it(monkeypatch):
    # every range but the first fails, in whichever process runs it: both
    # workers exit 1, and the caller's own run of the first of their
    # ranges raises its ValueError, with its message
    s, _ = small_split_sweep(monkeypatch)
    sweep_range = kernels._sweep_range

    def fail_past_0(psi, cur, total, tmp, lo, *args):
        if lo > 0:
            raise ValueError(f"the range from {lo} failed")
        sweep_range(psi, cur, total, tmp, lo, *args)

    monkeypatch.setattr(kernels, "_sweep_range", fail_past_0)
    pids = count_forks(monkeypatch)
    with pytest.raises(ValueError, match=f"^the range from {kernels._split(s.group)[1][1]} failed$"):
        summed_partial_sums(s, 0, s.group.size)
    assert len(pids) == 2
    assert_no_child_left()


@pytest.fixture(scope="module")
def split_sweep_case():
    """``const:2`` at depth 15 (32,768 points), zero coefficients below
    16,384 and random ones up to 16,448: with 2 CPUs or more the sweep
    splits into ranges at the default range size, the first in the
    calling process, each stepping its part of a 16,384-point prefix row
    and then of the full row."""
    g = build_group_spec([2] * 15)
    rng = np.random.default_rng(5)
    coeffs = np.zeros(g.size, dtype=np.complex128)
    coeffs[16384:16448] = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    return Spectrum(g, coeffs), 16449


@pytest.fixture(scope="module")
def split_sweep_bytes(split_sweep_case):
    """The bytes of :func:`full_grid_sweep` on ``split_sweep_case``, which
    takes seconds, made once for every test that compares with them."""
    return full_grid_sweep(*split_sweep_case).tobytes()


def test_sweep_above_the_split_threshold_is_the_full_grid_sweep(split_sweep_case, split_sweep_bytes, monkeypatch):
    s, stop = split_sweep_case
    pids = count_forks(monkeypatch)
    fast = summed_partial_sums(s, 0, stop)
    monkeypatch.undo()
    if kernels._WORKERS > 1:
        assert pids
    assert fast.tobytes() == split_sweep_bytes


def test_sweep_on_one_thread_starts_none_and_gives_the_same_bytes(split_sweep_case, monkeypatch):
    # one worker: the sweep is one range, in the calling process
    def no_fork():
        raise AssertionError("the sweep forked")

    s, stop = split_sweep_case
    split = summed_partial_sums(s, 0, stop)
    monkeypatch.setattr(kernels, "_WORKERS", 1)
    monkeypatch.setattr(os, "fork", no_fork)
    single = summed_partial_sums(s, 0, stop)
    monkeypatch.undo()
    assert single.tobytes() == split.tobytes()


def test_sweep_starts_a_thread_per_range_but_the_first_and_none_in_the_zero_run(split_sweep_case, split_sweep_bytes, monkeypatch):
    # 4 ranges of 8,192 points on a base-2 top axis: the caller steps the
    # zero run itself only until its prefix row holds x_0, x_1 and x_2 (3
    # steps), then forks one worker per range but the first, each of
    # which steps the rest of the zero run on its own part.  A finished
    # sweep leaves no child behind.
    s, stop = split_sweep_case
    steps, forks = [], []
    count_multiplies(monkeypatch, steps)
    fork = os.fork

    def counted():
        forks.append(len(steps))  # the steps this process took before it
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(kernels, "_WORKERS", 4)
    fast = summed_partial_sums(s, 0, stop)
    monkeypatch.undo()
    assert forks == [3, 3, 3]
    assert_no_child_left()
    assert fast.tobytes() == split_sweep_bytes


@pytest.fixture(scope="module")
def grid_audit_case():
    """grid-audit's block-0 grid, 2,2,3 at depth 13 (41,472 points), with
    coefficients 1 from M_12 up to its q_alpha, as in the zero-run count."""
    g = GroupPattern((2, 2, 3)).group(13)
    coeffs = np.zeros(g.size, dtype=np.complex128)
    coeffs[20736:] = 1
    return Spectrum(g, coeffs), 24941


@pytest.mark.parametrize("case", ["split_sweep_case", "grid_audit_case"])
def test_sweep_with_no_fork_or_with_another_thread_runs_its_ranges_in_process(case, request, monkeypatch):
    # where os.fork does not exist, or fails, or another Python thread is
    # alive (a forked child would hold only the calling thread), the same
    # ranges run one after another in the calling process, to the same bytes
    def fork_fails():
        raise BlockingIOError("no process to spare")

    s, stop = request.getfixturevalue(case)
    monkeypatch.setattr(kernels, "_WORKERS", 2)
    with pytest.MonkeyPatch.context() as mp:
        forks = count_forks(mp)
        forked = summed_partial_sums(s, 0, stop)
        assert len(forks) == 1
    with pytest.MonkeyPatch.context() as mp:
        mp.delattr(os, "fork")
        no_fork = summed_partial_sums(s, 0, stop)
    assert no_fork.tobytes() == forked.tobytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "fork", fork_fails)
        failed_fork = summed_partial_sums(s, 0, stop)
    assert failed_fork.tobytes() == forked.tobytes()
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        with pytest.MonkeyPatch.context() as mp:
            forks = count_forks(mp)
            threaded = summed_partial_sums(s, 0, stop)
            assert forks == []
    finally:
        release.set()
        waiter.join(timeout=60)
    assert not waiter.is_alive()
    assert threaded.tobytes() == forked.tobytes()
    assert_no_child_left()


def test_sweep_forks_under_the_multi_threaded_fork_warning(split_sweep_case, split_sweep_bytes, monkeypatch):
    # Python 3.12 and later warn in the parent at a fork while another OS
    # thread runs, after the child exists; raised as an error (as this
    # suite raises every warning), it would lose the child.  The sweep
    # ignores that warning alone, so it still forks, to the same bytes.
    fork = os.fork
    pids = []

    def fork_and_warn():
        pid = fork()
        if pid:
            pids.append(pid)
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return pid

    s, stop = split_sweep_case
    monkeypatch.setattr(kernels, "_WORKERS", 2)
    monkeypatch.setattr(os, "fork", fork_and_warn)
    forked = summed_partial_sums(s, 0, stop)
    monkeypatch.undo()
    assert len(pids) == 1
    assert_no_child_left()
    assert forked.tobytes() == split_sweep_bytes


def test_a_worker_leaves_soon_after_its_caller_is_killed_mid_sweep(split_sweep_case):
    # a helper process sweeps with each step slowed to 10 ms (the zero run
    # alone would take minutes) and sends its worker's pid through a pipe
    # whose write end the helper and the worker hold.  SIGKILL runs no
    # ``finally`` in the helper; the worker must see its caller gone and
    # leave within a few steps, which closes the pipe.
    s, stop = split_sweep_case
    read, write = os.pipe()
    helper = os.fork()
    if not helper:
        status = 1
        try:  # never returns into the test's stack
            os.close(read)
            step, fork = kernels.step_character, os.fork

            def slow_step(*args):
                time.sleep(0.01)
                step(*args)

            def fork_and_report():
                pid = fork()
                if pid:
                    os.write(write, b"%d\n" % pid)
                return pid

            kernels.step_character = slow_step
            kernels._WORKERS = 2
            os.fork = fork_and_report
            summed_partial_sums(s, 0, stop)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    workers = []
    try:
        with open(read, "rb", buffering=0) as pipe:
            line = pipe.readline()
            assert line, "the helper forked no worker"
            workers.append(int(line))
            os.kill(helper, signal.SIGKILL)
            os.waitpid(helper, 0)
            helper = None
            assert select.select([pipe], [], [], 10)[0], "a worker outlived its killed caller by 10 s"
            assert pipe.read() == b""
    finally:  # where the test failed, nothing it made is left running
        for pid in [*workers, helper]:
            if pid:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        if helper:
            os.waitpid(helper, 0)


@given(sweep_spectra(), st.data())
@settings(max_examples=40, deadline=None)
def test_fejer_mean_routes_agree_on_spectra_with_zero_runs(s, data):
    n = data.draw(st.integers(1, s.group.size))
    direct = fejer_mean_direct(s, n).values
    mult = fejer_mean_multiplier(s, n).values
    assert sup_abs(direct - mult) <= 1e-10 * max(1.0, sup_abs(mult))


@given(digit_lists, st.data())
@settings(max_examples=25, deadline=None)
def test_fejer_mean_routes_agree(digits, data):
    g = build_group_spec(digits)
    s = forward_transform(random_cylinder_function(g, seed=data.draw(st.integers(0, 99))))
    n = data.draw(st.integers(1, g.size))
    direct = fejer_mean_direct(s, n).values
    mult = fejer_mean_multiplier(s, n).values
    assert sup_abs(direct - mult) <= 1e-10


def test_fejer_mean_of_kernel_spectrum_is_kernel():
    # sigma_n applied to the delta spectrum gives K_n itself
    g = build_group_spec([2] * 6)
    coeffs = np.ones(g.size, dtype=np.complex128)
    from vilenkin.transform import Spectrum

    s = Spectrum(g, coeffs)
    n = 21
    assert sup_abs(fejer_mean_direct(s, n).values - fejer_kernel(n, g).values) <= 1e-10


def _spectrum_head(g, n, head) -> Spectrum:
    coeffs = np.zeros(g.size, dtype=np.complex128)
    coeffs[:n] = head
    return Spectrum(g, coeffs)


# each builder, and the spectrum of order n whose public inverse it must
# equal byte for byte, by the formulas it used before it owned its block
BUILDERS = {
    "dirichlet_kernel": (
        lambda s, n: dirichlet_kernel(n, s.group),
        lambda s, n: _spectrum_head(s.group, n, 1.0),
    ),
    "fejer_kernel": (
        lambda s, n: fejer_kernel(n, s.group),
        lambda s, n: _spectrum_head(s.group, n, (n - 1 - np.arange(n)) / n),
    ),
    "partial_sum": (
        lambda s, n: partial_sum(s, n),
        lambda s, n: _spectrum_head(s.group, n, s.coeffs[:n]),
    ),
    "fejer_mean_multiplier": (
        lambda s, n: fejer_mean_multiplier(s, n),
        lambda s, n: Spectrum(s.group, s.coeffs * (np.maximum(n - 1 - np.arange(s.group.size), 0) / n)),
    ),
}


def _fejer_coeffs(n: int, size: int) -> np.ndarray:
    """The Fejer multiplier as the kernels wrote it before they made their
    coefficients a tile at a time: into the real parts of the first ``n``
    points of a zero array of the whole grid, by a running sum."""
    coeffs = np.zeros(size, dtype=np.complex128)
    weights = coeffs.real[:n]
    weights.fill(-1.0)
    weights[0] = n - 1
    np.cumsum(weights, out=weights)
    weights /= n
    return coeffs


def _old_array(name, s, n) -> np.ndarray:
    """The coefficient array of the whole grid that builder ``name`` made
    before its coefficients were made a tile at a time: its ``BUILDERS``
    oracle, with the Fejer weights of :func:`_fejer_coeffs`."""
    if name == "fejer_kernel":
        return _fejer_coeffs(n, s.group.size)
    if name == "fejer_mean_multiplier":
        coeffs = _fejer_coeffs(n, s.group.size)
        coeffs *= s.coeffs
        return coeffs
    return BUILDERS[name][1](s, n).coeffs


@settings(max_examples=40, deadline=None)
@given(sweep_groups(max_base=7), st.data())
def test_every_builder_makes_the_floats_of_its_old_coefficient_array(g, data):
    # orders about a random scale M_j, random zero digits, and a spectrum
    # zero (of a drawn sign) from a random cut on, through default tiles
    # and 40-point tiles; the support depth a builder gives is the scan of
    # its old array
    j = data.draw(st.integers(0, g.resolution), label="j")
    orders = sorted({n for n in (1, 2, *(g.scales[j] + d for d in (-1, 0, 1, 2))) if 1 <= n <= g.size})
    zero = data.draw(st.sets(st.integers(0, g.resolution - 1)), label="zero digits")
    values = random_cylinder_function(g, seed=data.draw(st.integers(0, 2**16), label="seed")).values
    values[data.draw(st.integers(0, g.size), label="cut") :] = data.draw(
        st.sampled_from([0j, complex(-0.0, 0.0), complex(-0.0, -0.0)]), label="tail"
    )
    s = Spectrum(g, values)
    synthesize, depths = kernels._synthesize, []

    def on_sub_grid(group, rows, zero_digits=()):  # the drawn zero digits instead
        depths.append(rows.depth)
        return synthesize(group, rows, zero_digits=zero)

    for tile_bytes in (transform.TILE_BYTES, 16 * 40):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(transform, "TILE_BYTES", tile_bytes)
            patch.setattr(kernels, "_synthesize", on_sub_grid)
            for name, (build, _) in BUILDERS.items():
                for n in orders:
                    old = _old_array(name, s, n)
                    got = build(s, n)
                    assert depths.pop() == next(t for t in range(g.resolution + 1) if not old[g.scales[t] :].any())
                    want = transform._synthesize(g, old, zero_digits=zero)
                    assert got.group == want.group
                    assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64)), (name, n)


def _peak(call):
    tracemalloc.start()
    try:
        got = call()
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builders_peak_at_one_grid_vector_and_scratch(name):
    build, spectrum = BUILDERS[name]
    g = build_group_spec([3, 2, 5, 2, 3] + [2] * 9)  # 92,160 points, over five tiles
    s = forward_transform(random_cylinder_function(g, seed=6))
    itemsize = np.dtype(np.complex128).itemsize
    vector, scratch = g.size * itemsize, 2 * transform.TILE_BYTES
    assert scratch < vector
    for n in (g.size, g.size // 2 + 1, g.size // 5):  # t = N twice, then t < N
        got, peak = _peak(lambda: build(s, n).values)
        # the coefficient array the builder made, transformed in place, and
        # at most two tiles, beside the spectrum held here
        assert peak <= vector + scratch + vector // 8, n
        assert got.tobytes() == inverse_transform(spectrum(s, n)).values.tobytes(), n


def test_fejer_kernel_on_a_zero_digit_sub_grid_peaks_at_its_kept_vector_and_scratch():
    # its weights are made a tile at a time, so the output is the one vector:
    # a vector of the x_1 = x_3 = 0 sub-grid, a quarter of the grid here
    g = build_group_spec([3, 2, 5, 2, 3] + [2] * 9)  # 92,160 points, over five tiles
    itemsize = np.dtype(np.complex128).itemsize
    vector, kept, scratch = g.size * itemsize, g.size // 4 * itemsize, 2 * transform.TILE_BYTES
    for n in (g.size, g.size // 2 + 1, g.size // 5):
        got, peak = _peak(lambda: fejer_kernel(n, g, zero_digits=(1, 3)).values)
        assert peak <= kept + scratch + vector // 8, n
        assert got.nbytes == kept


def test_transforms_below_one_tile_hold_no_more_than_two_grid_vectors():
    # below one tile the scratch is the size of the block: the peak a
    # transform had when it ran between two buffers, never more
    g = build_group_spec([3, 2, 5, 2, 3, 2, 2, 2, 2, 2])  # 5,760 points
    vector = g.size * np.dtype(np.complex128).itemsize
    assert vector < transform.TILE_BYTES
    s = forward_transform(random_cylinder_function(g, seed=6))
    f = random_cylinder_function(g, seed=7)
    calls = [lambda: inverse_transform(s), lambda: forward_transform(f)]
    for n in (g.size, g.size // 5):
        calls += [lambda n=n: dirichlet_kernel(n, g), lambda n=n: fejer_kernel(n, g), lambda n=n: partial_sum(s, n)]
    for call in calls:
        assert _peak(call)[1] <= 2 * vector + vector // 8


def test_lp_quasinorm_matches_parseval_at_p2():
    g = build_group_spec([2, 3, 2])
    f = random_cylinder_function(g, seed=4)
    s = forward_transform(f)
    energy = float(np.sqrt(np.sum(np.abs(s.coeffs) ** 2)))
    assert lp_quasinorm(f, 2) == pytest.approx(energy, rel=1e-10)
    with pytest.raises(DomainError):
        lp_quasinorm(f, 0)


def test_maximal_function_exact_profile_for_indicator():
    # for 1_{I_n}: the best conditional expectation at x is M_j / M_n where
    # j is the last level whose cylinder through x still meets I_n
    g = build_group_spec([2] * 4)
    n = 2
    f = zero_cylinder_indicator(g, n)
    star = maximal_function(f).values.real
    for i in range(g.size):
        j = 0
        while j < n and i % g.scales[j + 1] == 0:
            j += 1
        want = 1.0 if i % g.scales[n] == 0 else g.scales[j] / g.scales[n]
        assert star[i] == pytest.approx(want, abs=1e-12)


def test_maximal_function_dominates_mean_and_value():
    g = build_group_spec([2, 3, 2])
    f = random_cylinder_function(g, seed=12)
    star = maximal_function(f).values.real
    assert np.all(star >= abs(f.integral()) - 1e-12)
    assert np.all(star + 1e-12 >= np.abs(f.values))


def test_hardy_estimate_accepts_martingale_chain():
    g = build_group_spec([2, 3, 2, 2])
    f = random_cylinder_function(g, seed=3)
    levels = [coarsen(f, r) for r in range(g.resolution)] + [f]
    est = hardy_quasinorm_estimate(levels, Fraction(1, 2))
    star = maximal_function(f)
    want = float(np.mean(np.sqrt(np.abs(star.values)))) ** 2
    assert est == pytest.approx(want, rel=1e-9)


def test_hardy_estimate_rejects_non_martingale():
    g = build_group_spec([2, 2, 2])
    f = random_cylinder_function(g, seed=8)
    levels = [coarsen(f, 0), coarsen(f, 1), f]
    broken = levels[1].copy()
    broken.values = broken.values + 1.0
    with pytest.raises(DomainError, match="level 1"):
        hardy_quasinorm_estimate([levels[0], broken, f], Fraction(1, 2))


@given(digit_lists, st.data())
@settings(max_examples=40, deadline=None)
def test_membership_checks_are_byte_equal_to_their_copying_formulas(digits, data):
    # the formulas before the checks read views and powered in place: the
    # maximal function's L_p size through a complex copy, and the sup
    # outside the interval through np.delete
    g = build_group_spec(digits)
    f = random_cylinder_function(g, seed=data.draw(st.integers(0, 99)))
    p = data.draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2)]))
    levels = [coarsen(f, r) for r in range(g.resolution)] + [f]
    best = np.zeros(g.size)
    for lev in levels:
        rows = best.reshape(-1, lev.group.size)
        np.maximum(rows, np.abs(lev.values), out=rows)
    want = float(np.mean(np.abs(best.astype(np.complex128)) ** float(p)) ** (1.0 / float(p)))
    assert hardy_quasinorm_estimate(levels, p).hex() == want.hex()
    depth = data.draw(st.integers(0, g.resolution))
    interval = Cylinder(g, tuple(data.draw(st.integers(0, m - 1)) for m in g.digits[:depth]))
    outside = np.delete(f.values.reshape(-1, g.scales[depth]), interval.base_index, axis=1)
    want = sup_abs(outside) if outside.size else 0.0
    assert validate_p_atom(f, interval, min(p, 1)).outside_sup.hex() == want.hex()


def test_partial_sums_at_scale_orders_are_conditional_expectations():
    g = build_group_spec([2, 3, 2, 4])
    f = random_cylinder_function(g, seed=17)
    s = forward_transform(f)
    for n in range(g.resolution + 1):
        sn = partial_sum(s, g.scales[n]).values
        en = coarsen(f, n).values
        # S_{M_n} f is constant on depth-n cylinders with the cylinder average
        tiled = np.tile(en, g.size // g.scales[n])
        assert sup_abs(sn - tiled) < 1e-9


def _atom_on(g, depth):
    # mean-zero block on the zero cylinder of the given depth, below sup cap
    vals = np.zeros(g.size, dtype=np.complex128)
    step = g.scales[depth]
    members = np.arange(g.size) % step == 0
    idx = np.flatnonzero(members)
    vals[idx[: len(idx) // 2]] = 1.0
    vals[idx[len(idx) // 2 :]] = -1.0
    return CylinderFunction(g, vals), Cylinder(g, (0,) * depth)


def test_validate_p_atom_passes_and_reports():
    g = build_group_spec([2] * 4)
    a, interval = _atom_on(g, 2)
    report = validate_p_atom(a, interval, Fraction(1, 2))
    assert report.is_atom is True
    assert report.mean_ok and report.support_ok and report.size_ok
    assert report.sup_allowed == pytest.approx(16.0)  # (1/4)^(-2)


def test_validate_p_atom_flags_each_violation():
    g = build_group_spec([2] * 4)
    a, interval = _atom_on(g, 2)

    shifted = a.copy()
    shifted.values = shifted.values + 0.25
    r = validate_p_atom(shifted, interval, Fraction(1, 2))
    assert not r.mean_ok and not r.support_ok  # constant shift leaks outside too

    outside = a.copy()
    outside.values = outside.values.copy()
    outside.values[1] = 1.0  # index 1 is outside the zero cylinder of depth 2
    r = validate_p_atom(outside, interval, Fraction(1, 2))
    assert not r.support_ok

    tall = a.copy()
    tall.values = tall.values * 100.0
    r = validate_p_atom(tall, interval, Fraction(1, 2))
    assert not r.size_ok
    assert r.mean_ok

    off_mean = a.copy()
    off_mean.values = off_mean.values.copy()
    off_mean.values[interval.base_index :: g.scales[2]] += 0.25  # inside the interval only
    r = validate_p_atom(off_mean, interval, Fraction(1, 2))
    assert (r.mean_ok, r.support_ok, r.size_ok) == (False, True, True)
    assert r.is_atom is False  # a Python bool: a numpy False is never `is False`


def test_validate_p_atom_on_cylinder_off_zero():
    g = build_group_spec([2, 3, 2, 4])
    interval = Cylinder(g, (1, 2))  # base index 1 + 2 * 2 = 5, period M_2 = 6
    inside = np.arange(interval.base_index, g.size, g.scales[2])
    vals = np.zeros(g.size, dtype=np.complex128)
    vals[inside[::2]] = 6.0
    vals[inside[1::2]] = -6.0
    a = CylinderFunction(g, vals)
    report = validate_p_atom(a, interval, Fraction(1, 2))
    assert report.is_atom
    assert report.sup_allowed == pytest.approx(36.0)  # (1/6)^(-2)
    # the same function is not supported on the zero cylinder of that depth
    assert not validate_p_atom(a, Cylinder(g, (0, 0)), Fraction(1, 2)).support_ok

    leaked = a.copy()
    leaked.values = vals.copy()
    leaked.values[interval.base_index - 1] = 1.0
    assert not validate_p_atom(leaked, interval, Fraction(1, 2)).support_ok

    biased = a.copy()
    biased.values = vals.copy()
    biased.values[inside[0]] = 7.0
    r = validate_p_atom(biased, interval, Fraction(1, 2))
    assert not r.mean_ok and r.support_ok


def test_validate_p_atom_rejects_bad_exponent():
    g = build_group_spec([2] * 3)
    a, interval = _atom_on(g, 1)
    with pytest.raises(DomainError):
        validate_p_atom(a, interval, Fraction(3, 2))
