"""Unit tests: Dirichlet/Fejer kernels, Cesaro means, Hardy-space pieces."""
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vilenkin import kernels
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
    random_cylinder_function,
    sup_abs,
)

digit_lists = st.lists(st.integers(2, 5), min_size=2, max_size=5)


@st.composite
def sweep_groups(draw):
    """Bases 2-5 on at most 4096 points: the longest prefix of a drawn
    base list that fits."""
    digits = draw(st.lists(st.integers(2, 5), min_size=1, max_size=12))
    size, kept = 1, []
    for m in digits:
        if size * m > 4096:
            break
        size *= m
        kept.append(m)
    return build_group_spec(kept)


@st.composite
def sweep_spectra(draw):
    """Spectra with zero runs: dense with ~60% zeros, one constant block,
    or several constant blocks."""
    g = draw(sweep_groups())
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


def full_grid_sweep(s, start, stop):
    """The sweep without any skipping: every rank-one term and every add,
    with the character row stepped on the full grid."""
    g = s.group
    total = np.zeros(g.size, dtype=np.complex128)
    if start == stop:
        return total
    cur = partial_sum(s, start).values
    basis = character_basis(g)
    psi = basis.row(start)
    counter = list(digit_decompose(start, g))
    tmp = np.empty(g.size, dtype=np.complex128)
    for j in range(start, stop):
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
    start = data.draw(st.integers(0, g.size - 1))
    stop = data.draw(st.integers(start, g.size))
    fast = summed_partial_sums(s, start, stop)
    slow = np.zeros(g.size, dtype=np.complex128)
    for j in range(start, stop):
        slow += partial_sum(s, j).values
    assert sup_abs(fast - slow) <= 1e-9 * max(1.0, sup_abs(slow))


@pytest.mark.parametrize("from_zero", [True, False])
@given(sweep_spectra(), st.data())
@settings(max_examples=100, deadline=None)
def test_summed_partial_sums_is_the_full_grid_sweep_bit_for_bit(from_zero, s, data):
    start = 0 if from_zero else data.draw(st.integers(0, s.group.size))
    stop = data.draw(st.integers(start, s.group.size))
    fast = summed_partial_sums(s, start, stop)
    slow = full_grid_sweep(s, start, stop)
    assert np.array_equal(fast, slow)
    assert fast.tobytes() == slow.tobytes()  # signed zeros too


@given(sweep_spectra(), st.data())
@settings(max_examples=200, deadline=None)
def test_sweep_split_into_tiny_thread_ranges_is_the_full_grid_sweep(s, data):
    # ranges of 1 or 2 points on 3 threads: every row of 2 or 4 points or
    # more is split, into ranges of one point too; a short switch interval
    # makes the threads interleave between steps
    start = data.draw(st.integers(0, s.group.size))
    stop = data.draw(st.integers(start, s.group.size))
    range_points = data.draw(st.sampled_from([1, 2]))
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_RANGE_POINTS", range_points)
            mp.setattr(kernels, "_THREADS", 3)
            fast = summed_partial_sums(s, start, stop)
    finally:
        sys.setswitchinterval(interval)
    assert fast.tobytes() == full_grid_sweep(s, start, stop).tobytes()


def test_sweep_raises_a_range_error_in_the_caller_after_every_thread_ends(monkeypatch):
    def fail(*args):
        raise ValueError("range failed")

    g = build_group_spec([2, 3, 2])
    s = forward_transform(random_cylinder_function(g, seed=4))
    monkeypatch.setattr(kernels, "_RANGE_POINTS", 2)
    monkeypatch.setattr(kernels, "_THREADS", 3)
    monkeypatch.setattr(kernels, "step_character", fail)
    before = threading.active_count()
    with pytest.raises(ValueError, match="range failed"):
        summed_partial_sums(s, 0, g.size)
    assert threading.active_count() == before


class _CountedThread(threading.Thread):
    started = 0

    def start(self):
        type(self).started += 1
        super().start()


class _NoThread:
    def __init__(self, *args, **kwargs):
        raise AssertionError("the sweep started a thread")


@pytest.fixture(scope="module")
def split_sweep_case():
    """``const:2`` at depth 15 (32,768 points), zero coefficients below
    16,384 and random ones up to 16,448: the zero run steps a 16,384-point
    prefix row and the rest the full row, so with 2 CPUs or more both
    phases split at the default range size."""
    g = build_group_spec([2] * 15)
    rng = np.random.default_rng(5)
    coeffs = np.zeros(g.size, dtype=np.complex128)
    coeffs[16384:16448] = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    return Spectrum(g, coeffs), 0, 16449


def test_sweep_above_the_split_threshold_is_the_full_grid_sweep(split_sweep_case, monkeypatch):
    s, start, stop = split_sweep_case
    _CountedThread.started = 0
    monkeypatch.setattr(threading, "Thread", _CountedThread)
    fast = summed_partial_sums(s, start, stop)
    monkeypatch.undo()
    if kernels._THREADS > 1:
        assert _CountedThread.started > 0
    assert fast.tobytes() == full_grid_sweep(s, start, stop).tobytes()


def test_sweep_on_one_thread_starts_none_and_gives_the_same_bytes(split_sweep_case, monkeypatch):
    s, start, stop = split_sweep_case
    split = summed_partial_sums(s, start, stop)
    monkeypatch.setattr(kernels, "_THREADS", 1)
    monkeypatch.setattr(threading, "Thread", _NoThread)
    single = summed_partial_sums(s, start, stop)
    monkeypatch.undo()
    assert single.tobytes() == split.tobytes()


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
    assert report.is_atom
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
