"""Unit tests: characters, fast transform, naive oracle, coarsening."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import vilenkin.group
from vilenkin import transform
from vilenkin.errors import CapExceededError, DomainError
from vilenkin.group import GroupPattern, build_group_spec, digit_decompose
from vilenkin.transform import (
    NAIVE_ORACLE_CAP,
    TABLE_ROWS,
    CylinderFunction,
    Spectrum,
    _root_matrix,
    _synthesize,
    character_basis,
    character_eval,
    coarsen,
    forward_transform,
    inverse_transform,
    naive_transform_oracle,
    random_cylinder_function,
    sup_abs,
    sup_rel_error,
)

digit_lists = st.lists(st.integers(2, 5), min_size=1, max_size=5)


def test_constant_function_has_delta_spectrum():
    g = build_group_spec([2, 3, 2, 4])
    f = CylinderFunction(g, np.ones(g.size, dtype=np.complex128))
    s = forward_transform(f)
    assert abs(s.coeffs[0] - 1.0) < 1e-12
    assert sup_abs(s.coeffs[1:]) < 1e-12


def test_character_row_zero_is_constant_one():
    g = build_group_spec([3, 2, 3])
    basis = character_basis(g)
    assert np.max(np.abs(basis.row(0) - 1.0)) < 1e-15


@given(digit_lists, st.data())
def test_round_trip_on_random_data(digits, data):
    g = build_group_spec(digits)
    f = random_cylinder_function(g, seed=data.draw(st.integers(0, 2**16)))
    back = inverse_transform(forward_transform(f))
    assert sup_rel_error(back.values, f.values) < 1e-11


@pytest.mark.parametrize("digits", [[2] * 8, [2, 3, 2, 4], [3, 3, 3]])
def test_round_trip_exhaustive_on_basis_vectors(digits):
    # every delta function comes back unchanged
    g = build_group_spec(digits)
    assert g.size <= 256
    eye = np.eye(g.size, dtype=np.complex128)
    for i in range(g.size):
        back = inverse_transform(forward_transform(CylinderFunction(g, eye[i])))
        assert sup_abs(back.values - eye[i]) < 1e-9


@given(digit_lists, st.data())
def test_parseval(digits, data):
    g = build_group_spec(digits)
    f = random_cylinder_function(g, seed=data.draw(st.integers(0, 2**16)))
    s = forward_transform(f)
    lhs = float(np.mean(np.abs(f.values) ** 2))
    rhs = float(np.sum(np.abs(s.coeffs) ** 2))
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, lhs)


def test_characters_multiplicative_exhaustively():
    # psi_n * psi_k = psi_{n (+) k} with digitwise addition mod m_j
    g = build_group_spec([2, 3, 2])  # size 12 <= 64
    basis = character_basis(g)
    for n in range(g.size):
        dn = digit_decompose(n, g)
        for k in range(g.size):
            dk = digit_decompose(k, g)
            merged = tuple((a + b) % m for a, b, m in zip(dn, dk, g.digits))
            idx = 0
            for j in reversed(range(g.resolution)):
                idx = idx * g.digits[j] + merged[j]
            assert sup_abs(basis.row(n) * basis.row(k) - basis.row(idx)) < 1e-10


@given(digit_lists, st.data())
def test_character_eval_matches_basis_row(digits, data):
    g = build_group_spec(digits)
    n = data.draw(st.integers(0, g.size - 1))
    i = data.draw(st.integers(0, g.size - 1))
    x = digit_decompose(i, g)
    assert abs(character_eval(n, x, g) - character_basis(g).row(n)[i]) < 1e-12


def test_characters_take_unit_modulus_values():
    g = build_group_spec([2, 3, 4])
    basis = character_basis(g)
    for n in range(g.size):
        assert np.max(np.abs(np.abs(basis.row(n)) - 1.0)) < 1e-12


@given(digit_lists, st.data())
def test_real_input_gives_real_mean_coefficient(digits, data):
    g = build_group_spec(digits)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    f = CylinderFunction(g, rng.standard_normal(g.size))
    s = forward_transform(f)
    assert abs(s.coeffs[0].imag) < 1e-12
    assert abs(s.coeffs[0].real - float(np.mean(f.values.real))) < 1e-12


@pytest.mark.parametrize("digits", [[2, 3, 2, 4], [2] * 8, [3] * 4])
def test_fast_path_matches_naive_oracle(digits):
    g = build_group_spec(digits)
    f = random_cylinder_function(g, seed=13)
    fast = forward_transform(f)
    slow = naive_transform_oracle(f)
    assert sup_rel_error(fast.coeffs, slow.coeffs) <= 1e-9


def test_naive_oracle_refuses_large_groups():
    g = build_group_spec([2] * 13)
    f = random_cylinder_function(g, seed=1)
    with pytest.raises(CapExceededError, match=f"M_N <= {NAIVE_ORACLE_CAP}, group has 8192 points$"):
        naive_transform_oracle(f)


def test_root_table_over_the_cap_is_refused_before_it_is_built():
    # no grid with the base exists, so no transform builds its table
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="base-4097 root table has 16785409 entries, cap is 16777216$"):
            GroupPattern((4097,)).group(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("m", [2, 3, 5, 7, 64, 97, 1000])
def test_root_table_from_the_roots_of_unity_is_the_direct_formula_bit_for_bit(m):
    for conjugate, sign in ((True, -1.0), (False, 1.0)):
        ab = (np.outer(np.arange(m), np.arange(m)) % m).astype(np.float64)
        direct = np.exp(sign * 2j * np.pi * ab / m)
        table = _root_matrix(m, conjugate)
        assert table.dtype == direct.dtype and table.tobytes() == direct.tobytes()
    assert _root_matrix(m, True) is not _root_matrix(m, True)  # never kept


def _per_axis(values: np.ndarray, g, conjugate: bool) -> np.ndarray:
    """The transform over every axis of the full grid, one einsum per axis
    on the plain ``(-1, m, M_axis)`` layout, each root table whole and from
    the direct formula: the reference for the support block, the
    transposed low axes and the row-chunked tables."""
    sign = -1.0 if conjugate else 1.0
    arr = values.copy()
    for axis, m in enumerate(g.digits):
        ab = (np.outer(np.arange(m), np.arange(m)) % m).astype(np.float64)
        cube = arr.reshape(g.size // g.scales[axis + 1], m, g.scales[axis])
        arr = np.einsum("ab,hbl->hal", np.exp(sign * 2j * np.pi * ab / m), cube).reshape(-1)
    return arr


def _full_axis_inverse(s: Spectrum) -> np.ndarray:
    return _per_axis(s.coeffs, s.group, conjugate=False)


def _full_axis_forward(f: CylinderFunction) -> np.ndarray:
    arr = _per_axis(f.values, f.group, conjugate=True)
    arr /= f.group.size
    return arr


def _cut_with_signed_zeros(g, n: int, seed: int) -> np.ndarray:
    """Random values below index ``n`` and zeros from it on, with zeros
    inside the support too and both signs of zero in both parts."""
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal((2, g.size))
    parts[:, n:] = 0.0
    parts[rng.random(parts.shape) < 0.25] = 0.0
    parts[rng.random(parts.shape) < 0.5] *= -1.0
    return parts[0] + 1j * parts[1]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(2, 7), min_size=1, max_size=12), st.data())
def test_support_block_is_the_full_axis_transform_byte_for_byte(digits, data):
    while np.prod(digits) > NAIVE_ORACLE_CAP:
        digits.pop()
    g = build_group_spec(digits)
    n = data.draw(st.integers(0, g.size))
    s = Spectrum(g, _cut_with_signed_zeros(g, n, data.draw(st.integers(0, 2**16))))
    got = inverse_transform(s).values
    assert got.tobytes() == _full_axis_inverse(s).tobytes()
    assert sup_rel_error(forward_transform(CylinderFunction(g, got)).coeffs, s.coeffs) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(2, 7), min_size=2, max_size=12), st.data())
def test_both_transforms_on_the_transposed_low_axes_are_the_per_axis_einsum_byte_for_byte(digits, data):
    # two axes or more: the low axes then run on a layout of long inner runs
    while len(digits) > 2 and np.prod(digits) > NAIVE_ORACLE_CAP:
        digits.pop()
    g = build_group_spec(digits)
    values = _cut_with_signed_zeros(g, data.draw(st.integers(0, g.size)), data.draw(st.integers(0, 2**16)))
    s, f = Spectrum(g, values), CylinderFunction(g, values)
    assert inverse_transform(s).values.tobytes() == _full_axis_inverse(s).tobytes()
    assert forward_transform(f).coeffs.tobytes() == _full_axis_forward(f).tobytes()


@pytest.mark.parametrize("digits", [[300, 2], [2, 1000], [3, 517]])
def test_root_tables_built_in_row_chunks_give_the_whole_table_bytes(digits):
    g = build_group_spec(digits)
    assert max(digits) > TABLE_ROWS  # the table of the large base comes in chunks
    for n in (g.size, g.size // 3):
        values = _cut_with_signed_zeros(g, n, seed=n)
        s, f = Spectrum(g, values), CylinderFunction(g, values)
        assert inverse_transform(s).values.tobytes() == _full_axis_inverse(s).tobytes()
        assert forward_transform(f).coeffs.tobytes() == _full_axis_forward(f).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(2, 7), min_size=1, max_size=12), st.integers(0, 2**24), st.integers(0, 2**16))
@example([2] * 9 + [TABLE_ROWS + 1], 100_000, 1)  # a high axis cut along its runs
@example([TABLE_ROWS + 1] + [3] * 6, 187_353, 2)  # a low axis in two-tile row sets
def test_transforms_through_small_tiles_are_the_per_axis_einsum_byte_for_byte(digits, cut, seed):
    # tiles of a few dozen points: every axis of base at most 7 crosses
    # tile boundaries, and an axis of base m > TABLE_ROWS gets m * m points
    if max(digits) <= 7:
        while np.prod(digits) > NAIVE_ORACLE_CAP:
            digits.pop()
    g = build_group_spec(digits)
    values = _cut_with_signed_zeros(g, cut % (g.size + 1), seed)
    s, f = Spectrum(g, values), CylinderFunction(g, values)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transform, "TILE_BYTES", 16 * 40)
        inverse = inverse_transform(s).values
        owned = _synthesize(g, values.copy()).values
        forward = forward_transform(f).coeffs
    want = _full_axis_inverse(s).tobytes()
    assert inverse.tobytes() == want and owned.tobytes() == want
    assert forward.tobytes() == _full_axis_forward(f).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(2, 7), min_size=1, max_size=12),
    st.integers(0, 2**24),
    st.integers(0, 2**16),
    st.sets(st.integers(0, 11)),
    st.booleans(),
)
@example([7] * 4, 2400, 3, {1, 3}, False)  # digit 3 a high axis at either tile size: k is raised past it
@example([2] * 12, 1000, 4, {1, 3, 10, 11}, True)  # zero digits past the support depth drop tiles
def test_synthesis_on_a_zero_digit_sub_grid_is_the_full_axis_inverse_there_byte_for_byte(
    digits, cut, seed, zero, small_tiles
):
    while np.prod(digits) > NAIVE_ORACLE_CAP:
        digits.pop()
    g = build_group_spec(digits)
    zero = {j for j in zero if j < g.resolution}
    values = _cut_with_signed_zeros(g, cut % (g.size + 1), seed)
    with pytest.MonkeyPatch.context() as patch:
        if small_tiles:
            patch.setattr(transform, "TILE_BYTES", 16 * 40)
        got = _synthesize(g, values.copy(), zero_digits=zero)
    kept = [x for x in range(g.size) if not any(digit_decompose(x, g)[j] for j in zero)]
    assert got.group.digits == tuple(m for j, m in enumerate(g.digits) if j not in zero)
    assert got.values.tobytes() == _full_axis_inverse(Spectrum(g, values))[kept].tobytes()


def test_inverse_transform_holds_one_support_block_beside_the_tile():
    # 4,096-point support block tiled 16 times: 64 KB per block buffer, 1 MB of tile
    g = build_group_spec([2] * 16)
    s = Spectrum(g, _cut_with_signed_zeros(g, 3000, seed=5))
    block, tile = 16 * 4096, 16 * g.size
    tracemalloc.start()
    try:
        got = inverse_transform(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.values.nbytes == tile
    # the result block and the tile; a spare buffer still alive would add a block
    assert peak < tile + block + block // 2


@pytest.mark.parametrize(
    "entry, kind", [(inverse_transform, Spectrum), (forward_transform, CylinderFunction)], ids=["inverse", "forward"]
)
def test_public_transforms_peak_at_one_grid_vector_and_scratch(entry, kind):
    g = build_group_spec([3, 2, 5, 2, 3] + [2] * 9)  # 92,160 points, over five tiles
    arg = kind(g, _cut_with_signed_zeros(g, g.size, seed=8))
    vector, scratch = g.size * np.dtype(np.complex128).itemsize, 2 * transform.TILE_BYTES
    tracemalloc.start()
    try:
        entry(arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the result, which the transform runs in, and at most two tiles
    assert peak <= vector + scratch + vector // 8


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(2, 7), min_size=1, max_size=10), st.integers(0, 10), st.integers(0, 2**16))
@example([3, 5, 2], 0, 0)  # an all-zero spectrum of both signs: t = 0, no axis runs
@example([2, 7, 3, 2], 1, 1)  # t = 1 < N: odd axis count, the block tiled
@example([4, 2, 6, 3, 2], 2, 2)  # t = 2 < N: even axis count, the block tiled
@example([2, 3, 2, 5, 2], 5, 3)  # t = N odd
@example([7, 2, 3, 2], 4, 4)  # t = N even
def test_owned_inverse_is_the_public_inverse_byte_for_byte(digits, depth, seed):
    digits = list(digits)
    while np.prod(digits) > 1 << 14:
        digits.pop()
    g = build_group_spec(digits)
    t = min(depth, g.resolution)  # the support depth: coefficient M_t - 1 is nonzero
    values = _cut_with_signed_zeros(g, g.scales[t], seed)
    if t:
        values[g.scales[t] - 1] = 1.0 - 2.0j
    s, f = Spectrum(g, values), CylinderFunction(g, values)
    want = _full_axis_inverse(s).tobytes()
    assert inverse_transform(s).values.tobytes() == want
    assert s.coeffs.tobytes() == values.tobytes()  # the public entries only read
    forward_transform(f)
    assert f.values.tobytes() == values.tobytes()
    assert _synthesize(g, values.copy()).values.tobytes() == want


@pytest.mark.parametrize("transform, kind", [(inverse_transform, Spectrum), (forward_transform, CylinderFunction)])
def test_every_root_table_is_checked_before_any_work(transform, kind, monkeypatch):
    # the base-5000 axis comes last; the grid is refused before it is built,
    # so neither its data nor the transform is ever reached
    def refuse(digits):
        raise AssertionError("a grid was built before its root tables were checked")

    monkeypatch.setattr(vilenkin.group, "GroupSpec", refuse)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="base-5000 root table has 25000000 entries, cap is 16777216$"):
            g = build_group_spec([2] * 7 + [5000])
            transform(kind(g, np.zeros(g.size, dtype=np.complex128)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the grid's 640,000 points would take 10 MB


def test_random_function_refuses_a_negative_seed():
    g = build_group_spec([2, 3])
    with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
        random_cylinder_function(g, seed=-1)
    assert random_cylinder_function(g, seed=0).values.shape == (6,)


def test_spectrum_and_function_validate_shapes():
    g = build_group_spec([2, 3])
    with pytest.raises(DomainError):
        CylinderFunction(g, np.zeros(5, dtype=np.complex128))
    with pytest.raises(DomainError):
        Spectrum(g, np.zeros(7, dtype=np.complex128))


def test_coarsen_preserves_integral_and_projects():
    g = build_group_spec([2, 3, 2, 2])
    f = random_cylinder_function(g, seed=21)
    for level in range(g.resolution + 1):
        e = coarsen(f, level)
        assert e.group.resolution == level
        assert abs(e.integral() - f.integral()) < 1e-12
    # coarsening twice is the same as coarsening once to the lower level
    e2 = coarsen(f, 2)
    e1 = coarsen(f, 1)
    again = coarsen(e2, 1)
    assert sup_abs(again.values - e1.values) < 1e-12


def test_sup_rel_error_uses_unit_floor():
    a = np.array([1e-12 + 0j])
    b = np.array([0j])
    assert sup_rel_error(a, b) == pytest.approx(1e-12)
