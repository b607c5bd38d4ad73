"""Unit tests: characters, fast transform, naive oracle, coarsening."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vilenkin.errors import CapExceededError, DomainError
from vilenkin.group import build_group_spec, digit_decompose
from vilenkin.transform import (
    CylinderFunction,
    Spectrum,
    _root_matrix,
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
    f = random_cylinder_function(
        g, seed=data.draw(st.integers(0, 2**16)), complex_parts=False
    )
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
    g = build_group_spec([2] * 6)
    f = random_cylinder_function(g, seed=1)
    with pytest.raises(CapExceededError):
        naive_transform_oracle(f, cap=32)


def test_root_table_over_the_cap_is_refused_before_it_is_built():
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="base-4097 root table has 16785409 entries, cap is 16777216$"):
            _root_matrix(4097, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
