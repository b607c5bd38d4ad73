"""Unit tests: level sequences, atoms, decomposition, exact ledgers."""
import dataclasses
import math
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from vilenkin import exact, transform
from vilenkin.counterexample import (
    LEMMA2_CAP,
    MIN_ALPHA0,
    RegionBound,
    RegionKernelMinimum,
    _region,
    atom_function,
    bound_chain_evaluate,
    build_alpha_sequence,
    closed_form_partial_sum,
    coefficient_oracle,
    divergence_report,
    lemma2_verify,
    materialize_f,
    oracle_spectrum,
    rational_sqrt_lower,
    rational_sqrt_upper,
    sequence_from_levels,
    sigma_decomposition,
)
from vilenkin.exact import _region_measure
from vilenkin.errors import SAFE_STR_BITS, CapExceededError, DomainError, VerificationError, brief
from vilenkin.group import GroupPattern, build_group_spec, digit_decompose
from vilenkin.kernels import fejer_kernel, fejer_mean_direct, partial_sum, validate_p_atom, zero_cylinder_indicator
from vilenkin.transform import forward_transform, sup_abs

PAT2 = GroupPattern((2,))
PAT3 = GroupPattern((3,))
PAT23 = GroupPattern((2, 3))

KNOWN_ALPHAS_BASE2 = (6, 33, 141, 573, 2301, 9213, 36861, 147453)


# ---------------------------------------------------------------------------
# level sequences
# ---------------------------------------------------------------------------


def test_greedy_sequence_known_values():
    seq = build_alpha_sequence(PAT2, 8)
    assert seq.alphas == KNOWN_ALPHAS_BASE2
    assert seq.certified
    for cert in seq.certificates:
        assert cert.all_ok
    # doubling is a recorded consequence of the greedy step, not an input
    for prev, cur in zip(seq.alphas, seq.alphas[1:]):
        assert cur >= 2 * prev


def test_greedy_sequence_is_minimal():
    seq = build_alpha_sequence(PAT2, 3)
    for k in range(1, 3):
        shrunk = list(seq.alphas[: k + 1])
        shrunk[k] -= 1
        probe = sequence_from_levels(PAT2, shrunk)
        assert not probe.certificates[k].all_ok


def test_alpha0_floor():
    with pytest.raises(DomainError):
        build_alpha_sequence(PAT2, 1, alpha0=5)
    with pytest.raises(DomainError):
        build_alpha_sequence(PAT2, 1, alpha0=4)
    assert build_alpha_sequence(PAT2, 1, alpha0=7).alphas == (7,)


def test_greedy_sequence_on_mixed_pattern():
    seq = build_alpha_sequence(PAT23, 4)
    assert seq.certified
    assert all(b >= 2 * a for a, b in zip(seq.alphas, seq.alphas[1:]))


def test_sequence_from_levels_certifies_honestly():
    bad = sequence_from_levels(PAT2, (6, 32))
    assert not bad.certified
    assert bad.certificates[0].all_ok
    assert not bad.certificates[1].all_ok
    ok = sequence_from_levels(PAT2, (6, 33))
    assert ok.certified
    with pytest.raises(DomainError):
        sequence_from_levels(PAT2, (6, 6))
    with pytest.raises(DomainError):
        sequence_from_levels(PAT2, ())


def test_certificate_values_at_k1():
    seq = build_alpha_sequence(PAT2, 2)
    cert = seq.certificates[1]
    assert cert.history_growth_lhs == Fraction(2**24, 6)
    assert cert.history_growth_rhs == Fraction(2**132, 33)
    assert cert.history_gap_lhs == Fraction(64 * 2**24, 6)
    assert cert.history_gap_rhs == Fraction(2**33, 33)


def reference_conditions(pattern, alphas, k, t):
    """The condition values as the bisection planner computed them: the
    whole history re-summed on every probe."""
    history = sum((Fraction(pattern.scale(2 * a) ** 2, a) for a in alphas[:k]), Fraction(0))
    growth_rhs = Fraction(pattern.scale(2 * t) ** 2, t)
    gap_lhs = (
        32 * pattern.bound * Fraction(pattern.scale(2 * alphas[k - 1]) ** 2, alphas[k - 1])
        if k
        else Fraction(0)
    )
    gap_rhs = Fraction(pattern.scale(t), t)
    return history, growth_rhs, gap_lhs, gap_rhs


def reference_greedy_levels(pattern, count, alpha0):
    """The bisection planner: double ``hi`` until feasible, then bisect
    ``(alpha_{k-1}, hi]`` for the smallest feasible level."""
    alphas = [alpha0]
    for k in range(1, count):

        def feasible(t):
            history, growth_rhs, gap_lhs, gap_rhs = reference_conditions(pattern, alphas, k, t)
            return history < growth_rhs and gap_lhs < gap_rhs

        lo = hi = alphas[-1] + 1
        while not feasible(hi):
            hi *= 2
        while lo < hi:
            mid = (lo + hi) // 2
            if feasible(mid):
                hi = mid
            else:
                lo = mid + 1
        alphas.append(hi)
    return alphas


def reference_certificates(pattern, alphas):
    """Every certificate field of each level, from ``reference_conditions``."""
    fields = []
    for k, alpha in enumerate(alphas):
        history, growth_rhs, gap_lhs, gap_rhs = reference_conditions(pattern, alphas, k, alpha)
        fields.append({
            "k": k,
            "alpha": alpha,
            "doubling_ok": alpha >= 2 * alphas[k - 1] if k else alpha >= MIN_ALPHA0,
            "history_growth_lhs": history,
            "history_growth_rhs": growth_rhs,
            "history_growth_ok": k == 0 or history < growth_rhs,
            "history_gap_lhs": gap_lhs,
            "history_gap_rhs": gap_rhs,
            "history_gap_ok": k == 0 or gap_lhs < gap_rhs,
        })
    return fields


@settings(max_examples=40, deadline=None)
@given(
    base=st.lists(st.integers(2, 6), min_size=1, max_size=4),
    alpha0=st.integers(6, 40),
    count=st.integers(1, 5),
)
def test_predict_and_verify_equals_the_bisection(base, alpha0, count):
    pattern = GroupPattern(tuple(base))
    seq = build_alpha_sequence(pattern, count, alpha0)
    assert list(seq.alphas) == reference_greedy_levels(pattern, count, alpha0)
    assert [dataclasses.asdict(c) for c in seq.certificates] == reference_certificates(
        pattern, seq.alphas
    )
    assert seq.certificates == sequence_from_levels(pattern, seq.alphas).certificates


@pytest.mark.parametrize(
    "base, count", [((2,), 10), ((3,), 8), ((2, 3), 8), ((2, 3, 5), 8)]
)
def test_planning_probes_each_level_at_most_three_times(base, count, monkeypatch):
    probes = []
    certificate = exact._certificate

    def counted(pattern, k, t, prev, history):
        probes.append(k)
        return certificate(pattern, k, t, prev, history)

    monkeypatch.setattr(exact, "_certificate", counted)
    seq = build_alpha_sequence(GroupPattern(base), count)
    assert seq.certified
    assert set(probes) == set(range(count))
    assert all(probes.count(k) <= 3 for k in range(2, count))


@settings(max_examples=25, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(2, 7), min_size=1, max_size=4),
        st.lists(st.sampled_from((3, 5, 7)), min_size=1, max_size=4),
        st.lists(st.sampled_from((2, 4)), min_size=1, max_size=4),
    ).map(tuple)
)
def test_level_certificates_and_piece_bounds_match_the_plain_power_formulas(base):
    # every planned certificate, field by field, and every ledger's piece
    # bound from M_j as the literal product of digits and ``**`` squares
    pattern = GroupPattern(base)
    seq = build_alpha_sequence(pattern, 4)

    def literal(j):
        return math.prod(pattern.digit(i) for i in range(j))

    history = Fraction(0)
    for k, (t, cert) in enumerate(zip(seq.alphas, seq.certificates)):
        prev = seq.alphas[k - 1] if k else 0
        growth_rhs = Fraction(literal(2 * t) ** 2, t)
        gap_lhs = Fraction(32 * pattern.bound * literal(2 * prev) ** 2, prev) if k else Fraction(0)
        gap_rhs = Fraction(literal(t), t)
        assert cert == exact.LevelCertificate(
            k=k,
            alpha=t,
            doubling_ok=t >= 2 * prev if k else t >= exact.MIN_ALPHA0,
            history_growth_lhs=history,
            history_growth_rhs=growth_rhs,
            history_growth_ok=k == 0 or history < growth_rhs,
            history_gap_lhs=gap_lhs,
            history_gap_rhs=gap_rhs,
            history_gap_ok=k == 0 or gap_lhs < gap_rhs,
        )
        history += growth_rhs
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact, "REGION_DETAIL_CAP", 0)  # the corner alone
            ledger = bound_chain_evaluate(seq, k)
        assert ledger.low_part_bound == (2 * Fraction(literal(2 * prev) ** 2, prev) if k else 0)


def test_planned_levels_follow_the_affine_rule():
    const2 = build_alpha_sequence(PAT2, 11).alphas
    assert const2[:8] == KNOWN_ALPHAS_BASE2
    assert const2[-1] == 9_437_181
    assert all(b == 4 * a + 9 for a, b in zip(const2[1:], const2[2:]))
    mixed = build_alpha_sequence(PAT23, 8).alphas
    assert mixed[:3] == (6, 32, 135)
    assert mixed[-1] == 140_627


def test_uncertified_sequence_refused_by_inequality_chain():
    seq = sequence_from_levels(PAT2, (2, 3))
    with pytest.raises(VerificationError):
        bound_chain_evaluate(seq, 0)
    with pytest.raises(VerificationError):
        divergence_report(seq)


# ---------------------------------------------------------------------------
# coefficients and materialization
# ---------------------------------------------------------------------------


def test_coefficient_oracle_frozen_values():
    seq = build_alpha_sequence(PAT2, 2)
    assert coefficient_oracle(seq, 4095) == 0
    assert coefficient_oracle(seq, 4096) == Fraction(1024, 3)
    assert coefficient_oracle(seq, 8191) == Fraction(1024, 3)
    assert coefficient_oracle(seq, 8192) == 0
    m66 = PAT2.scale(66)
    assert coefficient_oracle(seq, m66 - 1) == 0
    assert coefficient_oracle(seq, m66) == Fraction(m66, 66)
    assert coefficient_oracle(seq, 2 * m66 - 1) == Fraction(m66, 66)
    assert coefficient_oracle(seq, 2 * m66) == 0
    with pytest.raises(DomainError):
        coefficient_oracle(seq, -1)


def test_materialized_spectrum_matches_oracle():
    seq = build_alpha_sequence(PAT2, 8)
    spectrum = forward_transform(materialize_f(seq, 13, PAT2.group(13)))
    g = spectrum.group
    worst = 0.0
    for j in range(g.size):
        worst = max(worst, abs(spectrum.coeffs[j] - float(coefficient_oracle(seq, j))))
    assert worst <= 1e-10
    assert sup_abs(spectrum.coeffs - oracle_spectrum(seq, g).coeffs) <= 1e-10


def test_materialize_dichotomy():
    seq = build_alpha_sequence(PAT2, 8)
    g = PAT2.group(13)
    zero = materialize_f(seq, 12, g)
    assert sup_abs(zero.values) == 0.0
    full = materialize_f(seq, 13, g)
    atom, _ = atom_function(seq, 0, g)
    assert sup_abs(full.values - atom.values / 6) < 1e-12
    with pytest.raises(DomainError):
        materialize_f(seq, 14, g)  # deeper than the grid


def test_materialize_respects_cap():
    seq = build_alpha_sequence(PAT2, 1)
    with pytest.raises(CapExceededError):
        materialize_f(seq, 13, PAT2.group(13, cap=100))
    # refused from the exact size alone, before any grid is built
    with pytest.raises(CapExceededError, match="has at least 2\\^40000 points"):
        materialize_f(seq, 13, PAT2.group(40000))


def test_atom_shape_and_validation():
    seq = build_alpha_sequence(PAT2, 1)
    atom, interval = atom_function(seq, 0, PAT2.group(13))
    assert interval.depth == 12
    assert interval.measure == Fraction(1, 4096)
    assert float(np.max(np.abs(atom.values))) == 2048.0 * 4096.0
    assert abs(atom.integral()) <= 1e-12 * 2048 * 4096
    report = validate_p_atom(atom, interval, Fraction(1, 2))
    assert report.is_atom
    # the sup cap mu(I)^{-2} = 4096^2 is met with room: sup = 2^23
    assert report.sup_norm <= report.sup_allowed / 2


def _atom_through_temporaries(seq, k, group):
    """``atom_function``'s values by its formula before it built them in place."""
    alpha = seq.alphas[k]
    lo, hi = group.scales[2 * alpha], group.scales[2 * alpha + 1]
    vals = hi * zero_cylinder_indicator(group, 2 * alpha + 1).values
    vals -= lo * zero_cylinder_indicator(group, 2 * alpha).values
    vals *= lo / seq.pattern.bound
    return vals


def _traced(call):
    tracemalloc.start()
    try:
        got = call()
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_atoms_and_their_sum_are_built_in_place_with_the_same_bits():
    # 93,312 points and three atoms below depth 13: an atom holds its own
    # grid vector, materialize_f the sum and one atom
    seq = sequence_from_levels(PAT23, (2, 3, 5))
    g = PAT23.group(13)
    vector = g.size * np.dtype(np.complex128).itemsize
    for k in range(len(seq.alphas)):
        atom, peak = _traced(lambda: atom_function(seq, k, g)[0].values)
        assert peak <= vector + vector // 8, k
        assert atom.tobytes() == _atom_through_temporaries(seq, k, g).tobytes(), k
    f, peak = _traced(lambda: materialize_f(seq, 13, g).values)
    assert peak <= 2 * vector + vector // 8
    want = np.zeros(g.size, dtype=np.complex128)
    for k, alpha in enumerate(seq.alphas):
        want += _atom_through_temporaries(seq, k, g) / alpha
    assert f.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# closed-form partial sums (two regimes, everything else refused)
# ---------------------------------------------------------------------------


def test_closed_form_matches_truncation_everywhere_admissible():
    seq = build_alpha_sequence(PAT2, 8)
    g = PAT2.group(13)
    s = oracle_spectrum(seq, g)
    B, q = 4096, 5461
    orders = list(range(0, B + 1, 129)) + [B] + list(range(B + 1, q, 87)) + [q - 1, 8192]
    assert len(orders) >= 50
    for j in orders:
        want = partial_sum(s, j).values
        got = closed_form_partial_sum(seq, j, g).values
        assert sup_abs(got - want) <= 1e-9


def test_closed_form_rejects_between_regimes():
    seq = build_alpha_sequence(PAT2, 8)
    g = PAT2.group(13)
    with pytest.raises(DomainError, match="5461"):
        closed_form_partial_sum(seq, 5461, g)
    with pytest.raises(DomainError, match="5461"):
        closed_form_partial_sum(seq, 6000, g)
    with pytest.raises(DomainError):
        closed_form_partial_sum(seq, 8192 + 1, g)  # beyond the grid
    with pytest.raises(DomainError):
        closed_form_partial_sum(seq, -1, g)


def test_closed_form_full_history_on_mixed_uncertified_levels():
    # algebraic identities need no growth certificates: alpha = (2, 3) keeps
    # both blocks plus the sparse order q_3 = 85 inside a 128-point grid
    seq = sequence_from_levels(PAT23, (2, 3))
    g = seq.pattern.group(7)
    s = oracle_spectrum(seq, g)
    lo0, hi0 = seq.pattern.scale(4), seq.pattern.scale(5)
    lo1 = seq.pattern.scale(6)
    q1 = seq.pattern.q_number(3)
    admissible = (
        list(range(0, lo0 + 1))
        + list(range(lo0, seq.pattern.q_number(2)))
        + list(range(hi0, lo1 + 1))
        + list(range(lo1, q1))
    )
    for j in admissible:
        want = partial_sum(s, j).values
        got = closed_form_partial_sum(seq, j, g).values
        assert sup_abs(got - want) <= 1e-9
    for j in (seq.pattern.q_number(2), hi0 - 1, q1, g.size):
        with pytest.raises(DomainError):
            closed_form_partial_sum(seq, j, g)


# ---------------------------------------------------------------------------
# the three-piece split
# ---------------------------------------------------------------------------


def test_sigma_decomposition_block_zero_pieces_vanish():
    seq = build_alpha_sequence(PAT2, 8)
    dec = sigma_decomposition(seq, 0, PAT2.group(13))
    assert dec.q_index == 5461
    assert dec.q_inner == 1365
    assert sup_abs(dec.low.values) == 0.0
    assert sup_abs(dec.carried_history.values) == 0.0


def test_sigma_decomposition_totals_to_direct_mean():
    seq = build_alpha_sequence(PAT2, 8)
    dec = sigma_decomposition(seq, 0, PAT2.group(13))
    g = dec.low.group
    direct = fejer_mean_direct(oracle_spectrum(seq, g), dec.q_index).values
    assert sup_abs(dec.total().values - direct) <= 1e-9


def test_sigma_decomposition_with_nonzero_history():
    seq = sequence_from_levels(PAT23, (2, 3))
    dec = sigma_decomposition(seq, 1, PAT23.group(7))
    assert dec.q_index == seq.pattern.q_number(3)
    assert dec.q_inner == seq.pattern.q_number(2)
    assert sup_abs(dec.low.values) > 0
    assert sup_abs(dec.carried_history.values) > 0
    g = dec.low.group
    direct = fejer_mean_direct(oracle_spectrum(seq, g), dec.q_index).values
    assert sup_abs(dec.total().values - direct) <= 1e-9


def test_sigma_decomposition_needs_resolved_frequencies():
    seq = build_alpha_sequence(PAT2, 8)
    with pytest.raises(DomainError):
        sigma_decomposition(seq, 1, PAT2.group(13))  # q_{alpha_1} dwarfs any real grid


# ---------------------------------------------------------------------------
# kernel floor on regions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pattern,level", [(PAT2, 3), (PAT2, 4), (PAT3, 3)])
def test_kernel_floor_brute_force(pattern, level):
    report = lemma2_verify(pattern, level)
    assert report.passed
    assert report.global_min_ratio >= 0.25
    assert report.kernel_order == pattern.q_number(level - 1)
    for region in report.regions:
        assert region.point_count > 0
        assert region.min_ratio >= 0.25
        assert region.measure == _region_measure(pattern, region.eta, region.s, pattern.scale)
        assert region.point_count == region.measure * report.group.size


def test_kernel_floor_region_family_shape():
    report = lemma2_verify(PAT2, 5)
    pairs = {(r.eta, r.s) for r in report.regions}
    assert pairs == {(e, s) for e in range(0, 3) for s in range(e + 2, 5)}


def test_kernel_floor_preconditions():
    with pytest.raises(DomainError):
        lemma2_verify(PAT2, 2)
    with pytest.raises(CapExceededError, match=f"a depth-22 grid has at least 2\\^22 points, cap is {LEMMA2_CAP}$"):
        lemma2_verify(PAT2, 11)
    with pytest.raises(CapExceededError, match="has at least 2\\^40000 points"):
        lemma2_verify(PAT2, 20000)


def _full_grid_lemma2(pattern, level):
    """The kernel floor with ``K_{q'}`` on the whole depth-``2 level`` grid."""
    group = pattern.group(2 * level)
    q_inner = pattern.q_number(level - 1)
    kernel = np.abs(fejer_kernel(q_inner, group).values)
    kernel *= q_inner
    regions = []
    for eta in range(0, level - 2):
        for s in range(eta + 2, level):
            view = _region(kernel, group, 2 * eta, 2 * s)
            prod = group.scales[2 * eta] * group.scales[2 * s]
            regions.append(
                RegionKernelMinimum(eta, s, view.size, Fraction(view.size, group.size), float(view.min()) / prod)
            )
    return tuple(regions), min(r.min_ratio for r in regions)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(2, 7), min_size=1, max_size=3))
def test_kernel_floor_on_the_support_grid_matches_the_full_grid(bases):
    pattern = GroupPattern(tuple(bases))
    # every base is at least 2, so no level past 7 fits in 2^14 points
    levels = [level for level in range(3, 8) if pattern.scale(2 * level) <= 1 << 14]
    assume(levels)
    for level in levels:
        report = lemma2_verify(pattern, level)
        regions, global_min = _full_grid_lemma2(pattern, level)
        assert report.regions == regions
        assert repr(report.regions) == repr(regions)
        assert report.global_min_ratio == global_min
        assert repr(report.global_min_ratio) == repr(global_min)


@pytest.mark.parametrize(
    "pattern,level", [(PAT2, 8), (PAT3, 5), (PAT2, 10), (GroupPattern((7,)), 3), (GroupPattern((4,)), 5)]
)
def test_lemma2_peaks_at_one_kept_sub_grid_vector_and_scratch(pattern, level):
    # the kernel on the x_1 = x_3 = 0 sub-grid of the depth-(2 level - 1)
    # support grid, into which its weights, made a tile at a time, are
    # transformed, and at most two tiles: no support-grid array is made.
    # The eighth of a support vector covers the regions' |K|. On const:7
    # the low axes run past digit 3, in two tiles of six rows each
    itemsize = np.dtype(np.complex128).itemsize
    support = pattern.scale(2 * level - 1)
    vector = support * itemsize
    kept = support // (pattern.digit(1) * pattern.digit(3)) * itemsize
    bound = kept + 2 * transform.TILE_BYTES + vector // 8
    # never looser than the bound of a support-grid coefficient array
    assert bound <= vector + min(vector, 2 * transform.TILE_BYTES) + vector // 8
    tracemalloc.start()
    try:
        lemma2_verify(pattern, level)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_lemma2_synthesizes_the_kernel_only_where_digits_1_and_3_are_zero(monkeypatch):
    # every einsum output entry, counted: on const:2 at A = 10 the 2^19-point
    # support grid loses half its points after axis 1 and again after axis 3,
    # so 2^19 + 2 * 2^18 + 16 * 2^17 = 6 * 2^19 entries, not 19 * 2^19
    outputs = []
    axis = transform._axis

    def counted(cube, out, conjugate):
        outputs.append(out.size)
        axis(cube, out, conjugate)

    monkeypatch.setattr(transform, "_axis", counted)
    lemma2_verify(PAT2, 10)
    assert sum(outputs) == 6 << 19


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(2, 5), min_size=5, max_size=12), st.data())
def test_region_view_matches_digit_pattern(digits, data):
    # the longest prefix with at most 4096 points (five digits always fit)
    while math.prod(digits) > 4096:
        digits = digits[:-1]
    g = build_group_spec(digits)
    s = data.draw(st.integers(2, (g.resolution - 1) // 2), label="s")
    eta = data.draw(st.integers(0, s - 2), label="eta")

    def in_region(d):
        return (
            not any(d[: 2 * eta])
            and d[2 * eta] != 0
            and not any(d[2 * eta + 1 : 2 * s])
            and d[2 * s] != 0
        )

    want = [x for x in range(g.size) if in_region(digit_decompose(x, g))]
    view = _region(np.arange(g.size), g, 2 * eta, 2 * s)
    assert view.ravel().tolist() == want
    pattern = GroupPattern(g.digits)
    assert Fraction(view.size, g.size) == _region_measure(pattern, eta, s, pattern.scale)


# ---------------------------------------------------------------------------
# exact ledgers
# ---------------------------------------------------------------------------


def test_ledger_block_zero_exact_values():
    seq = build_alpha_sequence(PAT2, 8)
    led = bound_chain_evaluate(seq, 0)
    assert led.q_index == 5461 and led.q_inner == 1365
    assert led.q_doubling_ok
    assert led.low_part_bound == 0 and led.carried_history_bound == 0
    assert led.threshold == Fraction(64, 16 * 2 * 6)
    assert led.eta_lo == 3 and led.eta_hi == 3
    assert led.region_pair_count == 1
    assert led.regions is not None and len(led.regions) == 1
    region = led.regions[0]
    assert (region.eta, region.s) == (3, 5)
    assert region.product == 64 * 1024
    assert region.measure == Fraction(1, 2048)
    assert region.separation_ok  # (M-1) * 65536 >= M * M_6
    assert led.lb_squared == Fraction(1, 98304)
    assert not led.c_certified  # 4 * 1 < 6
    assert led.all_ok
    # the detailed region sum can only improve on the simplified closed form
    assert led.region_sum_squared is not None
    assert led.region_sum_squared >= led.lb_squared


def test_ledger_block_one_exact_values():
    seq = build_alpha_sequence(PAT2, 8)
    led = bound_chain_evaluate(seq, 1)
    assert led.alpha == 33
    assert led.q_index == sum(4**j for j in range(34))  # M_0 + M_2 + ... + M_66
    assert led.low_part_bound == Fraction(2 * 2**24, 6)
    assert led.carried_history_bound == led.low_part_bound
    assert led.threshold == Fraction(2**33, 16 * 2 * 33)
    assert led.history_ok
    assert led.region_pair_count == 120
    assert led.lb_squared == Fraction(15**2, 64 * 2**8 * 33)
    assert led.c_certified
    assert led.all_ok


def test_ledger_verdicts_reproducible_from_stored_values():
    seq = build_alpha_sequence(PAT2, 8)
    for k in (0, 1, 2):
        led = bound_chain_evaluate(seq, k)
        assert led.q_doubling_ok == (led.q_index <= 2 * (led.q_index - led.q_inner))
        assert led.history_ok == (
            led.low_part_bound <= led.threshold
            and led.carried_history_bound <= led.threshold
        )
        assert led.corner.separation_ok == (
            (led.bound - 1) * led.corner.product >= led.bound * led.m_alpha
        )
        count = led.eta_hi - led.eta_lo + 1
        assert led.lb_squared == Fraction(count * count, 64 * led.bound**8 * led.alpha)
        if led.regions is not None:
            assert led.separation_all_ok == all(r.separation_ok for r in led.regions)


def test_ledger_detail_cap_switches_to_corner_certificate():
    seq = build_alpha_sequence(PAT2, 4)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "REGION_DETAIL_CAP", 10)
        led = bound_chain_evaluate(seq, 3)
    assert led.monotone_certified
    assert led.regions is None
    assert led.region_sum_squared is None
    assert led.corner.eta == led.eta_lo and led.corner.s == led.eta_lo + 2
    assert led.all_ok
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "REGION_DETAIL_CAP", 10**9)
        detailed = bound_chain_evaluate(seq, 3)
    assert not detailed.monotone_certified
    assert detailed.regions is not None
    assert detailed.corner == detailed.regions[0]
    assert detailed.separation_all_ok == led.separation_all_ok


@settings(max_examples=25, deadline=None)
@given(
    base=st.lists(st.integers(2, 7), min_size=1, max_size=4),
    k=st.integers(0, 2),
    detail_cap=st.sampled_from([0, 10**9]),
)
def test_ledger_scales_match_group_pattern_scale(base, k, detail_cap):
    # the block's running product of M_j against GroupPattern.scale, term by term
    pattern = GroupPattern(tuple(base))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "REGION_DETAIL_CAP", detail_cap)
        led = bound_chain_evaluate(build_alpha_sequence(pattern, 3), k)
    if led.regions is not None:
        assert led.corner == led.regions[0]
    assert led.m_alpha == pattern.scale(led.alpha)
    assert led.threshold == Fraction(pattern.scale(led.alpha), 16 * led.bound * led.alpha)
    for region in (led.corner, *(led.regions or ())):
        eta, s = region.eta, region.s
        assert region.product == pattern.scale(2 * eta) * pattern.scale(2 * s)
        assert region.measure == _region_measure(pattern, eta, s, pattern.scale)
        assert region.separation_ok == (
            (led.bound - 1) * region.product >= led.bound * pattern.scale(led.alpha)
        )


@settings(max_examples=25, deadline=None)
@given(base=st.lists(st.integers(2, 7), min_size=1, max_size=4), count=st.integers(1, 3))
def test_integer_region_sum_is_the_fraction_sum(base, count):
    # every detailed ledger's terms and region sum against Fraction arithmetic
    pattern = GroupPattern(tuple(base))
    seq = build_alpha_sequence(pattern, count)
    for k in range(count):
        led = bound_chain_evaluate(seq, k)
        assert (led.q_index, led.q_inner) == (pattern.q_number(led.alpha), pattern.q_number(led.alpha - 1))
        assert led.q_doubling_ok == (led.q_index <= 2 * pattern.scale(2 * led.alpha))
        if led.regions is None:
            continue
        for region in led.regions:
            per_point = Fraction(region.product, 8 * led.bound**2 * led.alpha)
            assert region.sqrt_term == region.measure * rational_sqrt_lower(per_point)
        terms = sum((region.sqrt_term for region in led.regions), Fraction(0))
        assert led.region_sum_squared == terms**2


def test_rational_sqrt_brackets():
    for frac in (Fraction(2), Fraction(341, 48), Fraction(1, 98304), Fraction(7, 5)):
        lo = rational_sqrt_lower(frac)
        hi = rational_sqrt_upper(frac)
        assert lo * lo <= frac <= hi * hi
        assert hi - lo <= Fraction(2, 1 << 40)


@given(st.fractions(min_value=0, max_value=10**6))
@settings(max_examples=200)
def test_rational_sqrt_brackets_property(x):
    lo = rational_sqrt_lower(x)
    hi = rational_sqrt_upper(x)
    assert lo * lo <= x <= hi * hi


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------


def test_divergence_report_full_run():
    seq = build_alpha_sequence(PAT2, 8)
    report = divergence_report(seq)
    assert report.passed
    assert report.first_failure() is None
    assert len(report.ledgers) == 8
    assert report.lb_strictly_increasing
    assert report.rate_certified_from == 1
    lbs = [led.lb_squared for led in report.ledgers]
    assert lbs == sorted(lbs)
    # only block 0 fits on a desk-scale grid
    assert report.rows[0].direct_integral is not None
    assert report.rows[0].pointwise_ok and report.rows[0].integral_dominates_ok
    assert all(row.direct_integral is None for row in report.rows[1:])
    series = report.series
    assert series.ok
    assert series.doubling_ok
    assert series.atoms_validated == 1
    assert series.weight_sqrt_sum <= series.geometric_majorant


@pytest.fixture(scope="module")
def passing_report():
    report = divergence_report(build_alpha_sequence(PAT2, 2))
    assert report.passed and report.rows[0].pointwise_ok
    return report


def _replace_at(items, index, **changes):
    items = list(items)
    items[index] = dataclasses.replace(items[index], **changes)
    return tuple(items)


@pytest.mark.parametrize(
    "break_report",
    [
        lambda r: dataclasses.replace(r, ledgers=_replace_at(r.ledgers, 0, history_ok=False)),
        lambda r: dataclasses.replace(r, lb_strictly_increasing=False),
        lambda r: dataclasses.replace(r, series=dataclasses.replace(r.series, doubling_ok=False)),
        lambda r: dataclasses.replace(r, rows=_replace_at(r.rows, 0, pointwise_ok=False)),
        lambda r: dataclasses.replace(r, rate_certified_from=None),
    ],
    ids=["ledger-verdict", "lb-order", "series", "row-flag", "rate-certificate"],
)
def test_divergence_report_each_failure_fails(passing_report, break_report):
    broken = break_report(passing_report)
    assert broken.passed is False
    assert broken.first_failure() is not None


def test_brief_shortens_only_long_numbers():
    assert brief(-5) == "-5"
    assert brief(Fraction(3)) == "3"
    assert brief(Fraction(-1, 3)) == "-1/3"
    edge = 2**SAFE_STR_BITS - 1
    assert brief(edge) == str(edge)
    assert brief(edge + 1) == f"<int of {SAFE_STR_BITS + 1} bits>"
    assert brief(Fraction(-(2**5000), 3)) == "<int of 5001 bits>/3"


@pytest.mark.parametrize("flag", ["q_doubling_ok", "history_ok", "separation_all_ok"])
def test_first_failure_message_on_huge_ledger_stays_short(flag):
    # q_index has ~295k bits at k = 7: str() of it raises at the default limit
    report = divergence_report(build_alpha_sequence(PAT2, 8))
    ledger = report.ledgers[7]
    assert ledger.q_index.bit_length() > 250_000
    broken = dataclasses.replace(report, ledgers=_replace_at(report.ledgers, 7, **{flag: False}))
    message = broken.first_failure()
    assert message.startswith("k=7: ")
    assert "bits>" in message
    assert len(message) < sys.int_info.default_max_str_digits


def test_report_reprs_survive_the_digit_limit(default_digit_limit):
    with pytest.raises(ValueError):
        repr(10**5000)
    region = RegionBound(
        eta=0, s=2, product=10**5000, separation_ok=True,
        measure=Fraction(1, 3), sqrt_term=Fraction(10**5000, 7),
    )
    text = repr(region)
    assert text.startswith("RegionBound(eta=0, s=2, product=<int of 16610 bits>, ")
    assert "separation_ok=True, measure=1/3, sqrt_term=<int of 16610 bits>/7)" in text
    seq = build_alpha_sequence(PAT2, 8)
    report = divergence_report(seq)
    assert report.ledgers[7].q_index.bit_length() > 250_000
    heads = ("BoundLedger(k=7, ", "DivergenceRow(k=7, ")
    for obj, head in zip((report.ledgers[7], report.rows[7]), heads):
        text = repr(obj)
        assert text.startswith(head)
        assert "q_index=<int of " in text
        assert len(text) < sys.int_info.default_max_str_digits
    # detailed ledgers list their regions, so the whole report runs to about
    # a million characters; no number in it is longer than brief() lets through
    text = repr(report)
    assert text.startswith("DivergenceReport(pattern=") and "q_index=<int of " in text
    assert max(map(len, re.findall(r"\d+", text))) <= len(str(2**SAFE_STR_BITS - 1))  # 603
    # the level certificates behind the ledgers hold integers as large
    text = repr(seq)
    assert "LevelCertificate(k=7, " in text and "bits>/147453" in text
    assert len(text) < sys.int_info.default_max_str_digits


def test_divergence_report_on_mixed_pattern():
    # cap below M_13 = 93312 keeps this exact-arithmetic only; the function
    # space identities for mixed bases are covered at resolution 7 above
    seq = build_alpha_sequence(PAT23, 4)
    report = divergence_report(seq, cap=50000)
    assert report.passed
    assert all(row.direct_integral is None for row in report.rows)
    assert report.series.atoms_validated == 0
