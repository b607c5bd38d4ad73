"""Unit tests: group structure, digits, cylinders, sparse orders, and the
package's exported names."""
import importlib
import itertools
import pkgutil
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import vilenkin
from vilenkin.errors import CapExceededError, DomainError
from vilenkin.group import (
    GRID_CAP,
    Cylinder,
    GroupPattern,
    GroupSpec,
    build_group_spec,
    digit_compose,
    digit_decompose,
    parse_group_text,
)

digit_lists = st.lists(st.integers(2, 6), min_size=1, max_size=6)
patterns = st.lists(st.integers(2, 5), min_size=1, max_size=3).map(tuple)


def test_scales_recursion():
    g = build_group_spec([2, 3, 2, 4])
    assert g.scales == (1, 2, 6, 12, 48)
    assert g.size == 48
    for k, m in enumerate(g.digits):
        assert g.scales[k + 1] == m * g.scales[k]


def test_build_group_rejects_bad_digits():
    with pytest.raises(DomainError):
        build_group_spec([])
    with pytest.raises(DomainError):
        build_group_spec([2, 1, 2])
    with pytest.raises(DomainError):
        build_group_spec([0])


def test_digit_decompose_example():
    g = build_group_spec([2, 3, 4])
    assert digit_decompose(17, g) == (1, 2, 2)
    # 1 + 2*2 + 2*6 = 17
    assert digit_compose((1, 2, 2), g) == 17


def test_digit_decompose_range_checks():
    g = build_group_spec([2, 3])
    with pytest.raises(DomainError):
        digit_decompose(6, g)
    with pytest.raises(DomainError):
        digit_decompose(-1, g)
    with pytest.raises(DomainError):
        digit_compose((0, 3), g)
    with pytest.raises(DomainError):
        digit_compose((0,), g)


@given(digit_lists, st.data())
def test_digit_round_trip(digits, data):
    g = build_group_spec(digits)
    n = data.draw(st.integers(0, g.size - 1))
    d = digit_decompose(n, g)
    assert all(0 <= v < m for v, m in zip(d, g.digits))
    assert digit_compose(d, g) == n


@pytest.mark.parametrize("digits", [[2, 2, 2], [2, 3, 2], [3, 3], [2, 3, 4]])
@pytest.mark.parametrize("depth", [0, 1, 2])
def test_cylinder_measures_sum_to_one_exactly(digits, depth):
    g = build_group_spec(digits)
    prefixes = itertools.product(*(range(m) for m in g.digits[:depth]))
    cells = [Cylinder(g, prefix) for prefix in prefixes]
    assert len(cells) == g.scales[depth]
    assert sum((c.measure for c in cells), Fraction(0)) == 1


def test_cylinder_of_membership():
    g = build_group_spec([2, 3, 2])
    x = digit_decompose(7, g)
    for n in range(g.resolution + 1):
        c = Cylinder(g, x[:n])
        assert c.depth == n
        assert c.measure == Fraction(1, g.scales[n])
        assert digit_decompose(c.base_index, g)[:n] == c.prefix
        assert c.base_index == 7 % g.scales[n]


def test_cylinder_base_index_counts_members():
    g = build_group_spec([2, 3, 2])
    c = Cylinder(g, (1, 2))
    members = [i for i in range(g.size) if digit_decompose(i, g)[:2] == c.prefix]
    assert len(members) == g.size // g.scales[2]
    assert all(i % g.scales[2] == c.base_index for i in members)


# sparse orders q_A = M_0 + M_2 + ... + M_{2A}


def test_q_number_known_values():
    p2 = GroupPattern((2,))
    assert p2.q_number(0) == 1
    assert p2.q_number(2) == 21
    assert p2.q_number(3) == 85
    assert p2.q_number(6) == 5461
    assert GroupPattern((3,)).q_number(2) == 91
    assert GroupPattern((2, 3)).q_number(2) == 1 + 6 + 36
    for base in ((2,), (3,), (2, 3)):
        with pytest.raises(DomainError):
            GroupPattern(base).q_number(-1)


@given(patterns, st.integers(0, 30))
def test_pattern_q_number_matches_direct_sum(base, a):
    pat = GroupPattern(base)
    assert pat.q_number(a) == sum(pat.scale(2 * j) for j in range(a + 1))


@given(patterns, st.integers(1, 30))
def test_q_number_recursion_and_doubling(base, a):
    pat = GroupPattern(base)
    q = pat.q_number(a)
    assert q == pat.scale(2 * a) + pat.q_number(a - 1)
    assert q <= 2 * pat.scale(2 * a)


@given(patterns, st.integers(0, 12))
def test_pattern_scales_match_materialized_group(base, resolution):
    pat = GroupPattern(base)
    if resolution == 0:
        return
    g = pat.group(resolution, cap=pat.scale(resolution))
    assert g.resolution == resolution
    for j in range(resolution + 1):
        assert pat.scale(j) == g.scales[j]
    for j in range(resolution):
        assert pat.digit(j) == g.digits[j]
    assert pat.bound == max(base)


@pytest.mark.parametrize("resolution", range(1, 7))
def test_group_builds_up_to_its_cap_and_no_further(resolution):
    pat = GroupPattern((2, 3))
    size = pat.scale(resolution)
    assert pat.group(resolution, cap=size).size == size
    with pytest.raises(CapExceededError, match=f"has {size} points, cap is {size - 1}$"):
        pat.group(resolution, cap=size - 1)


def test_group_refuses_a_huge_depth_from_its_exact_size():
    with pytest.raises(CapExceededError, match=f"at least 2\\^1000000 points, cap is {GRID_CAP}$"):
        GroupPattern((2,)).group(10**6)


def test_group_refuses_a_huge_depth_without_computing_its_size(monkeypatch):
    def refuse(self, j):
        raise AssertionError(f"M_{j} was computed")

    monkeypatch.setattr(GroupPattern, "scale", refuse)
    with pytest.raises(CapExceededError, match=f"depth-100000000 grid has at least 2\\^100000000 points, cap is {GRID_CAP}$"):
        GroupPattern((3,)).group(10**8)


def test_build_group_spec_refuses_past_the_cap_before_building(monkeypatch):
    assert build_group_spec([2] * 24).size == GRID_CAP

    def refuse(digits):
        raise AssertionError("a grid was built before the cap was checked")

    monkeypatch.setattr(vilenkin.group, "GroupSpec", refuse)
    with pytest.raises(CapExceededError, match=f"has 33554432 points, cap is {GRID_CAP}$"):
        build_group_spec([2] * 25)
    with pytest.raises(CapExceededError, match=f"cap is {GRID_CAP}$"):
        build_group_spec([3, 5] * 10_000)


@st.composite
def gated_patterns(draw):
    """A pattern of bases 2 to 5,000, a depth and a cap, with some bases
    over 4,096 and some grids within the cap."""
    small, large = st.integers(2, 64), st.integers(2, 5000)
    base = tuple(draw(st.lists(st.one_of(small, large), min_size=1, max_size=3)))
    return GroupPattern(base), draw(st.integers(1, 8)), draw(st.integers(2, GRID_CAP))


@settings(max_examples=300, deadline=None)
@given(gated_patterns())
@example((GroupPattern((5000,)), 1, GRID_CAP))
@example((GroupPattern((2, 5000, 4097)), 3, GRID_CAP))
@example((GroupPattern((2, 5000, 4097)), 2, GRID_CAP))
@example((GroupPattern((5000, 4097)), 2, GRID_CAP))
@example((GroupPattern((2, 3, 4097)), 2, GRID_CAP))
def test_group_refuses_exactly_the_grids_over_either_cap(case):
    pattern, resolution, cap = case
    size = pattern.scale(resolution)
    digits = (pattern.base * resolution)[:resolution]
    over = [m for m in digits if m * m > GRID_CAP]
    tracemalloc.start()
    try:
        if size > cap:
            with pytest.raises(CapExceededError, match=f" points, cap is {cap}$"):
                pattern.group(resolution, cap)
        elif over:
            m = over[0]
            with pytest.raises(CapExceededError, match=f"^a base-{m} root table has {m * m} entries, cap is {GRID_CAP}$"):
                pattern.group(resolution, cap)
        else:
            assert pattern.group(resolution, cap).digits == digits
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if size > cap or over:
        assert peak < 1 << 20


def test_parse_group_text_variants():
    pat, res = parse_group_text("const:2^8")
    assert pat.base == (2,) and res == 8
    pat, res = parse_group_text("const:3")
    assert pat.base == (3,) and res is None
    pat, res = parse_group_text("2,3,2,4")
    assert pat.base == (2, 3, 2, 4) and res == 4
    with pytest.raises(DomainError):
        parse_group_text("const:1^4")
    with pytest.raises(DomainError):
        parse_group_text("")
    with pytest.raises(DomainError):
        parse_group_text("2,x,3")


def test_haar_weight():
    # a point is the full-depth cylinder through it
    g = build_group_spec([2, 3, 2])
    assert Cylinder(g, (1, 2, 1)).measure == Fraction(1, 12)
    head = g.truncate(2)
    assert head.digits == (2, 3)
    assert Cylinder(head, (1, 2)).measure == Fraction(1, 6)


def test_group_spec_scales_and_bound_are_derived_only():
    with pytest.raises(TypeError):
        GroupSpec((2, 3), scales=(1, 2, 6))
    with pytest.raises(TypeError):
        GroupSpec((2, 3), bound=9)
    g = GroupSpec((2, 3))
    assert g.scales == (1, 2, 6) and g.bound == 3


def test_every_exported_name_resolves():
    modules = [vilenkin] + [
        importlib.import_module(f"vilenkin.{info.name}")
        for info in pkgutil.iter_modules(vilenkin.__path__)
    ]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], module.__name__
