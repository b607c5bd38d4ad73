"""Acceptance gate: the nine headline checks, one printed verdict each.

The headline phenomenon (Cesaro means escaping every L_{1/2} bound while
the function stays in H_{1/2}) is certified exactly for eight levels; the
function-space identities behind it are verified outright on desk-scale
grids.  Each test prints a single pass/fail line even under pytest's
output capture.
"""
import time
from fractions import Fraction

import numpy as np
import pytest

from vilenkin.counterexample import (
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
    sigma_decomposition,
)
from vilenkin.group import GroupPattern, build_group_spec
from vilenkin.kernels import (
    dirichlet_kernel,
    fejer_mean_direct,
    maximal_function,
    partial_sum,
    validate_p_atom,
    zero_cylinder_indicator,
)
from vilenkin.transform import (
    character_basis,
    forward_transform,
    inverse_transform,
    naive_transform_oracle,
    random_cylinder_function,
    sup_abs,
    sup_rel_error,
)

PAT2 = GroupPattern((2,))
PAT3 = GroupPattern((3,))
THREE_GROUPS = ([2, 3, 2, 4], [2] * 12, [3] * 6)


@pytest.fixture
def report(capsys):
    def _emit(ok: bool, label: str, detail: str):
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
        assert ok, f"{label}: {detail}"

    return _emit


def test_criterion_1_transform_correctness(report):
    t0 = time.perf_counter()
    worst_rt = worst_oracle = worst_parseval = 0.0
    for digits in THREE_GROUPS:
        g = build_group_spec(digits)
        f = random_cylinder_function(g, seed=101)
        spec = forward_transform(f)
        back = inverse_transform(spec)
        worst_rt = max(worst_rt, sup_rel_error(back.values, f.values))
        worst_oracle = max(
            worst_oracle, sup_rel_error(spec.coeffs, naive_transform_oracle(f).coeffs)
        )
        lhs = float(np.mean(np.abs(f.values) ** 2))
        rhs = float(np.sum(np.abs(spec.coeffs) ** 2))
        worst_parseval = max(worst_parseval, abs(lhs - rhs) / max(1.0, lhs))
    elapsed = time.perf_counter() - t0
    ok = worst_rt <= 1e-9 and worst_oracle <= 1e-9 and worst_parseval <= 1e-9 and elapsed < 10
    report(
        ok,
        "criterion 1 (transform correctness)",
        f"round-trip {worst_rt:.2e}, oracle {worst_oracle:.2e}, "
        f"Parseval {worst_parseval:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_dirichlet_block_form(report):
    worst = 0.0
    for digits in THREE_GROUPS:
        g = build_group_spec(digits)
        for n in range(g.resolution + 1):
            d = dirichlet_kernel(g.scales[n], g)
            want = g.scales[n] * zero_cylinder_indicator(g, n).values
            worst = max(worst, sup_abs(d.values - want))
    report(
        worst <= 1e-10,
        "criterion 2 (Dirichlet block closed form)",
        f"max deviation {worst:.2e} over all scale orders on three groups",
    )


def test_criterion_3_shift_identity(report):
    g = build_group_spec([2] * 8)
    mb = g.scales[4]
    psi = character_basis(g).row(mb)
    d_mb = dirichlet_kernel(mb, g).values
    worst = 0.0
    for j in range(mb):
        lhs = dirichlet_kernel(j + mb, g).values
        rhs = d_mb + psi * dirichlet_kernel(j, g).values
        worst = max(worst, sup_abs(lhs - rhs))
    report(
        worst <= 1e-10,
        "criterion 3 (shift identity)",
        f"exhaustive j < {mb}, max deviation {worst:.2e}",
    )


def test_criterion_4_kernel_floor(report):
    t0 = time.perf_counter()
    cases = [(PAT2, 3), (PAT2, 4), (PAT2, 5), (PAT2, 6), (PAT3, 3), (GroupPattern((2, 3)), 4)]
    global_min = min(lemma2_verify(pat, a).global_min_ratio for pat, a in cases)
    elapsed = time.perf_counter() - t0
    ok = global_min >= 0.25 and elapsed < 30
    report(
        ok,
        "criterion 4 (kernel floor on regions)",
        f"global min ratio {global_min:.6f} over {len(cases)} cases, {elapsed:.2f}s",
    )


def test_criterion_5_coefficient_fidelity(report):
    seq = build_alpha_sequence(PAT2, 8)
    g = PAT2.group(13)
    f = materialize_f(seq, 13, g)
    spectrum = forward_transform(f)
    worst = max(
        abs(spectrum.coeffs[j] - float(coefficient_oracle(seq, j))) for j in range(g.size)
    )
    s12 = partial_sum(spectrum, g.scales[12]).values
    s13 = partial_sum(spectrum, g.scales[13]).values
    zero_level = materialize_f(seq, 12, g)
    dichotomy = (
        sup_abs(s12) <= 1e-9
        and sup_abs(zero_level.values) == 0.0
        and sup_abs(s13 - f.values) <= 1e-9 * max(1.0, sup_abs(f.values))
    )
    ok = worst <= 1e-10 and dichotomy
    report(
        ok,
        "criterion 5 (coefficient fidelity and level dichotomy)",
        f"max coefficient deviation {worst:.2e}, dichotomy at A=12/13 {'holds' if dichotomy else 'fails'}",
    )


def test_criterion_6_decomposition_identities(report):
    seq = build_alpha_sequence(PAT2, 8)
    g = PAT2.group(13)
    dec = sigma_decomposition(seq, 0, g)
    s = oracle_spectrum(seq, g)
    direct = fejer_mean_direct(s, dec.q_index).values
    err_sigma = sup_abs(dec.total().values - direct)

    orders = list(range(0, 4097, 129)) + list(range(4097, 5461, 87)) + [4096, 5460, 8192]
    worst_cf = 0.0
    for j in orders:
        worst_cf = max(
            worst_cf, sup_abs(closed_form_partial_sum(seq, j, g).values - partial_sum(s, j).values)
        )
    ok = err_sigma <= 1e-9 and worst_cf <= 1e-9 and len(orders) >= 50
    report(
        ok,
        "criterion 6 (three-piece split and closed-form sums)",
        f"sigma identity {err_sigma:.2e} on all {g.size} points, "
        f"closed form {worst_cf:.2e} over {len(orders)} orders",
    )


def test_criterion_7_pointwise_lower_bound(report):
    t0 = time.perf_counter()
    seq = build_alpha_sequence(PAT2, 8)
    led = bound_chain_evaluate(seq, 0)
    g = PAT2.group(13)
    sigma = fejer_mean_direct(oracle_spectrum(seq, g), led.q_index).values
    floor = g.scales[6] * g.scales[10] / (8 * 2**2 * 6)
    pointwise_ok = bool(np.min(np.abs(_region(sigma, g, 3, 5))) >= floor * (1 - 1e-9))
    direct = float(np.mean(np.sqrt(np.abs(sigma))))
    lb0 = 1 / (128 * 6**0.5)
    assembled_sq = led.region_sum_squared
    chain_ok = (
        direct**2 >= float(assembled_sq) * (1 - 1e-12)
        and assembled_sq >= led.lb_squared
        and led.lb_squared == Fraction(1, 98304)
        and direct >= lb0
    )
    elapsed = time.perf_counter() - t0
    ok = pointwise_ok and chain_ok and elapsed < 60
    report(
        ok,
        "criterion 7 (pointwise region bound and integral chain)",
        f"region (3,5) floor {floor:.1f} {'holds' if pointwise_ok else 'fails'}, "
        f"integral {direct:.4f} >= assembled {float(assembled_sq) ** 0.5:.4f} "
        f">= LB_0 {lb0:.4f}, {elapsed:.2f}s",
    )


def test_criterion_8_exact_ledger(report):
    t0 = time.perf_counter()
    seq = build_alpha_sequence(PAT2, 8)
    certs_ok = seq.certified
    ledgers = [bound_chain_evaluate(seq, k) for k in range(8)]
    verdicts_ok = all(led.all_ok for led in ledgers)
    lbs = [led.lb_squared for led in ledgers]
    increasing = all(b > a for a, b in zip(lbs, lbs[1:]))
    rate_ok = all(
        led.lb_squared >= Fraction(led.alpha, (32 * led.bound**4) ** 2)
        for led in ledgers
        if led.alpha >= 8
    )
    elapsed = time.perf_counter() - t0
    ok = certs_ok and verdicts_ok and increasing and rate_ok and elapsed < 10
    report(
        ok,
        "criterion 8 (exact eight-term ledger)",
        f"certificates {'ok' if certs_ok else 'FAIL'}, verdicts {'ok' if verdicts_ok else 'FAIL'}, "
        f"LB strictly increasing {'ok' if increasing else 'FAIL'}, "
        f"rate c=1/(32M^4) {'ok' if rate_ok else 'FAIL'}, {elapsed:.2f}s",
    )


def test_criterion_9_atoms_and_membership(report):
    seq = build_alpha_sequence(PAT2, 8)
    atom, interval = atom_function(seq, 0, PAT2.group(13))
    atom_report = validate_p_atom(atom, interval, Fraction(1, 2))
    star = maximal_function(atom)
    root_integral = float(np.mean(np.sqrt(np.abs(star.values))))
    series = divergence_report(seq).series
    ok = (
        atom_report.is_atom
        and root_integral <= 1 + 1e-9
        and series.doubling_ok
        and series.weight_sqrt_sum <= series.geometric_majorant * (1 + 1e-12)
        and series.ok
    )
    report(
        ok,
        "criterion 9 (atoms and H_{1/2} membership)",
        f"atom checks {'pass' if atom_report.is_atom else 'FAIL'}, "
        f"maximal root integral {root_integral:.4f} <= 1, "
        f"sqrt-weight sum {series.weight_sqrt_sum:.4f} bounded by {series.geometric_majorant:.4f}",
    )
