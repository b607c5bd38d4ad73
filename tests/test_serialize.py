"""Unit tests: canonical JSON/CSV encoding and decoding."""
import dataclasses
import decimal
import gc
import json
import random
import sys
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from vilenkin.counterexample import (
    bound_chain_evaluate,
    build_alpha_sequence,
    divergence_report,
    lemma2_verify,
)
from vilenkin.errors import SAFE_STR_BITS, DomainError, VerificationError
from vilenkin.group import GroupPattern, build_group_spec
from vilenkin.kernels import validate_p_atom
from vilenkin.serialize import (
    EXACT_INT_FIELDS,
    DecimalText,
    decode_group,
    doc_to_function,
    dumps_canonical,
    encode_group,
    float_str,
    function_to_doc,
    int_str,
    load_function_file,
    plot_csv,
    report_to_doc,
    summary_csv,
    write_function_csv,
    write_json,
)
from vilenkin.transform import (
    CylinderFunction,
    Spectrum,
    random_cylinder_function,
    sup_abs,
)


def test_canonical_scalars():
    assert dumps_canonical(None) == "null"
    assert dumps_canonical(True) == "true"
    assert dumps_canonical(3) == "3"
    assert dumps_canonical(1.0) == "1"
    assert dumps_canonical(0.1) == "0.10000000000000001"
    assert dumps_canonical("a\"b") == '"a\\"b"'
    assert dumps_canonical([1, (2, 3)]) == "[1,[2,3]]"
    assert dumps_canonical({"b": 1, "a": 2}) == '{"b":1,"a":2}'  # insertion order
    assert dumps_canonical(Fraction(-3, 7)) == '{"num":"-3","den":"7"}'
    assert dumps_canonical(np.float64(0.5)) == "0.5"
    assert dumps_canonical(np.int64(9)) == "9"
    assert dumps_canonical(np.bool_(True)) == "true"


def test_decimal_strings_quote_like_json():
    # digit strings skip json.dumps; the text must not change
    for text in ["0", "123", "-45", "-", "", "1-2", "12a", "\u0663\u0664", "a\"b", "a\\b", "1\n"]:
        assert dumps_canonical(text) == json.dumps(text, ensure_ascii=False)


def test_canonical_rejects_bad_values():
    with pytest.raises(DomainError):
        dumps_canonical(float("nan"))
    with pytest.raises(DomainError):
        dumps_canonical(float("inf"))
    with pytest.raises(TypeError):
        dumps_canonical({1: 2})
    with pytest.raises(TypeError):
        dumps_canonical(1j)


def test_int_str_handles_huge_integers(big_int_text):
    n = 10**5000
    s = int_str(n)
    assert len(s) == 5001
    assert int(s) == n
    assert int_str(-(7**3000)) == "-" + int_str(7**3000)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bits=st.integers(0, 300_000), seed=st.integers(0, 2**32 - 1), negative=st.booleans())
def test_int_str_matches_reference_decimal(big_int_text, bits, seed, negative):
    n = random.Random(seed).getrandbits(bits)
    n = -n if negative else n
    assert int_str(n) == str(n)


def test_int_str_edge_cases_around_the_fast_path():
    values = [0, 1, -1]
    for k in range(598, 608):  # 10^k: 2000 bits is about 602 digits
        values += [10**k, 10**k - 1, -(10**k)]
    for k in range(SAFE_STR_BITS - 4, SAFE_STR_BITS + 5):
        values += [2**k + 1, 2**k - 1, -(2**k + 1)]
    for n in values:
        assert int_str(n) == str(n), n.bit_length()


def _repeated_block(block: int, width: int, count: int) -> int:
    return block * ((1 << (width * count)) - 1) // ((1 << width) - 1)


@st.composite
def split_shaped_ints(draw):
    """Integers that reach the branches of the split at power-of-two widths:
    powers of two, repeated bit blocks (whose copies straddle the split
    widths unless the block width is a power of two), zero high or low
    chunks, bit lengths next to a power of two, and the scales and
    q-numbers of random digit patterns; any of them negated."""
    kind = draw(st.sampled_from(["power", "repeat", "chunks", "width", "pattern"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "power":
        n = 1 << draw(st.integers(0, 70_000))
    elif kind == "repeat":
        width = draw(st.one_of(st.sampled_from([2, 64, 128, 256, 1024]), st.integers(1, 3000)))
        block = rng.getrandbits(width) | 1
        n = _repeated_block(block, width, draw(st.integers(1, 40_000 // width + 2)))
    elif kind == "chunks":
        # a split at 2**j whose low chunk is zero or starts with zeros
        j = draw(st.integers(7, 15))
        low_bits = draw(st.integers(0, 1 << j))
        n = (rng.getrandbits(draw(st.integers(1, 1 << j))) << (1 << j)) | rng.getrandbits(low_bits)
    elif kind == "width":
        bits = (1 << draw(st.integers(11, 16))) + draw(st.sampled_from([-1, 0, 1]))
        shape = draw(st.sampled_from(["random", "ones", "power"]))
        n = {
            "random": (1 << (bits - 1)) | rng.getrandbits(bits - 1),
            "ones": (1 << bits) - 1,
            "power": 1 << (bits - 1),
        }[shape]
    else:
        pattern = GroupPattern(tuple(draw(st.lists(st.integers(2, 7), min_size=1, max_size=4))))
        a = draw(st.integers(0, 3000))
        n = pattern.q_number(a) if draw(st.booleans()) else pattern.scale(2 * a + draw(st.integers(0, 1)))
    return -n if draw(st.booleans()) else n


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(split_shaped_ints(), min_size=1, max_size=3))
def test_int_str_on_split_shaped_integers_matches_reference(big_int_text, values):
    text = DecimalText()  # one power table and memo across the values
    for n in values:
        assert int_str(n) == str(n)
        assert text(n) == str(n)


def test_int_str_leaves_the_digit_limit_alone(big_int_text):
    huge = -(7**20_000)  # 56k bits, 16,902 digits
    want = str(huge)
    edge = 2**SAFE_STR_BITS - 1
    for limit in (640, 4300):  # the smallest allowed limit and the default
        sys.set_int_max_str_digits(limit)
        assert int_str(huge) == want
        assert int_str(edge) == str(edge)
        assert sys.get_int_max_str_digits() == limit


def test_float_str_fixed_precision():
    assert float_str(2.0) == "2"
    assert float_str(1 / 3) == "0.33333333333333331"


def test_group_codec_round_trip():
    g = build_group_spec([2, 3, 2, 4])
    doc = encode_group(g)
    assert doc == {"digits": [2, 3, 2, 4], "resolution": 4}
    assert decode_group(doc) == g
    assert decode_group("const:2^8") == build_group_spec([2] * 8)
    assert decode_group("2,3,2,4") == g
    assert decode_group("const:3^4") == build_group_spec([3] * 4)
    assert decode_group({"digits": [2, 3, 2, 4]}) == g  # a dict's depth defaults to its digit count


def test_group_decode_cyclic_extension():
    g = decode_group({"digits": [2, 3], "resolution": 5})
    assert g.digits == (2, 3, 2, 3, 2)


def test_group_decode_errors():
    with pytest.raises(DomainError):
        decode_group("const:2")  # group text must carry its own depth
    with pytest.raises(DomainError):
        decode_group({"resolution": 3})
    with pytest.raises(DomainError):
        decode_group(42)
    for res in (2, 1, 0, -1):  # never a silent cut of the digit list
        with pytest.raises(DomainError):
            decode_group({"digits": [2, 3, 4], "resolution": res})


@pytest.mark.parametrize("kind", ["values", "coeffs"])
def test_function_doc_round_trip(kind):
    g = build_group_spec([2, 3, 2])
    data = random_cylinder_function(g, seed=2)
    obj = data if kind == "values" else Spectrum(g, data.values)
    doc = json.loads(dumps_canonical(function_to_doc(obj)))
    assert doc["kind"] == kind
    back = doc_to_function(doc)
    assert type(back) is type(obj)
    arr = back.values if kind == "values" else back.coeffs
    ref = obj.values if kind == "values" else obj.coeffs
    assert sup_abs(arr - ref) < 1e-15


def test_function_doc_validation():
    g = build_group_spec([2, 2])
    f = CylinderFunction(g, np.zeros(4, dtype=np.complex128))
    doc = function_to_doc(f)
    bad = dict(doc, kind="spectrum")
    with pytest.raises(DomainError):
        doc_to_function(bad)
    bad = dict(doc, re=[0.0])
    with pytest.raises(DomainError):
        doc_to_function(bad)
    with pytest.raises(DomainError):
        doc_to_function([1, 2, 3])


def test_function_csv_shape():
    g = build_group_spec([2, 2])
    f = CylinderFunction(g, np.array([1, 2j, -1, 0.5 + 0.5j]))
    parts = []
    write_function_csv(f, parts.extend)
    lines = "".join(parts).strip().split("\n")
    assert lines[0] == "index,re,im"
    assert len(lines) == 1 + g.size
    assert lines[1] == "0,1,0"
    assert lines[2] == "1,0,2"


def test_load_function_file(tmp_path):
    g = build_group_spec([2, 3])
    f = random_cylinder_function(g, seed=7)
    path = tmp_path / "f.json"
    path.write_text(dumps_canonical(function_to_doc(f)), encoding="utf-8")
    back = load_function_file(str(path))
    assert sup_abs(back.values - f.values) < 1e-15
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    with pytest.raises(DomainError):
        load_function_file(str(bad))
    with pytest.raises(DomainError):
        load_function_file(str(tmp_path / "missing.json"))


@pytest.mark.parametrize(
    "group, re, im",
    [
        ({"digits": [2.9, 3.2], "resolution": 2}, [0.5] * 6, [0.0] * 6),
        ({"digits": "23", "resolution": 2}, [0.5] * 6, [0.0] * 6),
        ({"digits": [2, 3], "resolution": "2"}, [0.5] * 6, [0.0] * 6),
        ({"digits": [2, 3], "resolution": 2.0}, [0.5] * 6, [0.0] * 6),
        ({"digits": [2], "resolution": True}, [0.5] * 2, [0.0] * 2),
        ({"digits": [2, 3], "resolution": 2}, ["1.5"] * 6, [0.0] * 6),
        ({"digits": [2, 3], "resolution": 2}, [0.5] * 6, [True] * 6),
    ],
)
def test_function_file_values_are_never_coerced(group, re, im):
    # each document once read as a function on a grid it does not name
    doc = {"group": group, "kind": "values", "re": re, "im": im}
    with pytest.raises(DomainError):
        doc_to_function(json.loads(json.dumps(doc)))


def test_atom_report_doc_has_three_verdicts():
    g = build_group_spec([2] * 4)
    vals = np.zeros(g.size, dtype=np.complex128)
    vals[[0, 8]] = 4.0
    vals[[4, 12]] = -4.0  # mean zero, supported on I_2, sup 4 <= 16
    from vilenkin.group import Cylinder

    report = validate_p_atom(CylinderFunction(g, vals), Cylinder(g, (0, 0)), Fraction(1, 2))
    doc = report_to_doc(report)
    assert set(doc) >= {"mean_ok", "support_ok", "size_ok", "is_atom", "sup_norm"}
    assert doc["interval"] == {"prefix": [0, 0], "measure": {"num": "1", "den": "4"}}
    assert doc["is_atom"] == (doc["mean_ok"] and doc["support_ok"] and doc["size_ok"])


PAT2 = GroupPattern((2,))


def test_report_doc_key_order_and_exact_ints():
    ledger = bound_chain_evaluate(build_alpha_sequence(PAT2, 2), 1)
    doc = report_to_doc(ledger)
    # declaration order, then the verdict property
    assert list(doc) == [f.name for f in dataclasses.fields(ledger)] + ["all_ok"]
    for name, value in doc.items():
        if name in EXACT_INT_FIELDS:
            assert value == str(getattr(ledger, name))
    assert doc["k"] == 1 and doc["bound"] == 2 and isinstance(doc["eta_lo"], int)
    assert doc["corner"]["product"] == str(ledger.corner.product)
    assert doc["regions"][0]["product"] == str(ledger.regions[0].product)


def test_kernel_report_doc():
    report = lemma2_verify(PAT2, 3)
    doc = report_to_doc(report)
    assert list(doc) == [
        "group", "level", "kernel_order", "threshold", "global_min_ratio", "passed", "regions",
    ]
    assert doc["level"] == 3
    assert doc["passed"] is True
    assert int(doc["kernel_order"]) == 21
    assert doc["global_min_ratio"] >= 0.25
    assert len(doc["regions"]) == 1


def test_ledger_doc_verdicts_reproducible_after_parse(big_int_text):
    seq = build_alpha_sequence(PAT2, 8)
    for k in (1, 7):
        doc = report_to_doc(bound_chain_evaluate(seq, k))
        q = int(doc["q_index"])
        q_inner = int(doc["q_inner"])
        m2a = q - q_inner
        assert doc["q_doubling_ok"] == (q <= 2 * m2a)
        low = Fraction(int(doc["low_part_bound"]["num"]), int(doc["low_part_bound"]["den"]))
        thr = Fraction(int(doc["threshold"]["num"]), int(doc["threshold"]["den"]))
        assert doc["history_ok"] == (low <= thr)
        corner = doc["corner"]
        assert corner["separation_ok"] == (
            (doc["bound"] - 1) * int(corner["product"]) >= doc["bound"] * int(doc["m_alpha"])
        )
        count = doc["eta_hi"] - doc["eta_lo"] + 1
        lb = Fraction(int(doc["lb_squared"]["num"]), int(doc["lb_squared"]["den"]))
        assert lb == Fraction(count * count, 64 * doc["bound"] ** 8 * int(doc["alpha"]))


def test_divergence_doc_and_csv():
    seq = build_alpha_sequence(PAT2, 8)
    report = divergence_report(seq)
    doc = report_to_doc(report)
    assert doc["passed"] is True
    assert len(doc["ledgers"]) == 8
    assert doc["rate_certified_from"] == 1

    table = summary_csv(report)
    lines = table.strip().split("\n")
    assert lines[0] == "k,alpha_k,q_alpha_k,LB_k_squared_num,LB_k_squared_den,direct_integral"
    assert len(lines) == 9
    first = lines[1].split(",")
    assert first[:5] == ["0", "6", "5461", "1", "98304"]
    assert first[5] != ""
    second = lines[2].split(",")
    assert second[5] == ""
    assert int(second[2]) == seq.pattern.q_number(33)

    plot = plot_csv(report)
    plines = plot.strip().split("\n")
    assert plines[0] == "k,sqrt_alpha_k,lb_squared"
    assert len(plines) == 9
    k, sq, lb = plines[1].split(",")
    assert float(sq) == pytest.approx(6**0.5)
    assert float(lb) == pytest.approx(1 / 98304)


def _record_int_str(monkeypatch):
    """Route every :func:`int_str` call of the serializer through a recorder."""
    from vilenkin import serialize

    calls = []
    original = serialize.int_str

    def recorded(n, powers=None):
        calls.append((int(n), powers))
        return original(n, powers)

    monkeypatch.setattr(serialize, "int_str", recorded)
    return calls


def test_a_document_converts_each_big_value_once_with_one_power_table(monkeypatch):
    from vilenkin import serialize

    report = divergence_report(build_alpha_sequence(PAT2, 6), cap=2)
    want = dumps_canonical(report)
    calls = _record_int_str(monkeypatch)
    texts = []

    class Tracked(DecimalText):
        def __init__(self):
            super().__init__()
            texts.append(self)

    monkeypatch.setattr(serialize, "DecimalText", Tracked)
    parts = []
    write_json(report, parts.extend)
    assert "".join(parts) == want
    [text] = texts
    big = [(n, powers) for n, powers in calls if n.bit_length() > SAFE_STR_BITS]
    values = [n for n, _ in big]
    assert len(values) == len(set(values)) > 0
    assert all(powers is text.powers for _, powers in big)
    # q_index is written in its ledger and again in its row, from the one
    # text its closed form put in the memo
    q = report.rows[-1].q_index
    assert q == report.ledgers[-1].q_index and q.bit_length() > SAFE_STR_BITS
    assert values.count(q) == 0
    assert text.memo[q] == int_str(q)


def test_summary_csv_converts_each_big_value_once(monkeypatch):
    report = divergence_report(build_alpha_sequence(PAT2, 6), cap=2)
    want = summary_csv(report)
    calls = _record_int_str(monkeypatch)
    assert summary_csv(report) == want
    big = [n for n, _ in calls if n.bit_length() > SAFE_STR_BITS]
    assert len(big) == len(set(big))
    # each q_alpha_k comes from its closed form, none through int_str
    q_numbers = {row.q_index for row in report.rows}
    assert max(q_numbers).bit_length() > SAFE_STR_BITS
    assert not set(big) & q_numbers


def test_summary_csv_checks_one_closed_form_text_per_ledger(monkeypatch):
    # the CSV writes q_alpha_k but never q_inner, whose text is not made
    from vilenkin import serialize

    report = divergence_report(build_alpha_sequence(PAT2, 9), cap=2)
    want = summary_csv(report)
    checked = []
    original = serialize._checked_text

    def counted(n, text):
        checked.append(n)
        return original(n, text)

    monkeypatch.setattr(serialize, "_checked_text", counted)
    assert summary_csv(report) == want
    big = [led.q_index for led in report.ledgers if led.q_inner.bit_length() > SAFE_STR_BITS]
    assert len(checked) == len(big) == 5  # 10 when q_inner's text was made too
    assert checked == big


def test_no_decimal_text_outlives_its_document(monkeypatch, capsys):
    from vilenkin import cli, serialize

    alive = []

    class Tracked(DecimalText):
        def __init__(self):
            super().__init__()
            alive.append(weakref.ref(self))

    monkeypatch.setattr(serialize, "DecimalText", Tracked)
    assert cli.main(["counterexample", "--group", "const:2", "--kmax", "6", "--json"]) == 0
    assert cli.main(["counterexample", "--group", "const:2", "--kmax", "6"]) == 0
    capsys.readouterr()
    gc.collect()
    assert len(alive) == 2
    assert all(ref() is None for ref in alive)


def _closed_form_texts(pattern, a):
    """The decimal text of ``(q_a, q_{a-1})`` from the closed form, in the
    writer's exact decimal context."""
    from vilenkin import serialize

    with serialize._exact_decimal():
        return tuple(map(str, pattern._q_pair(a, decimal.Decimal(1))))


@given(st.lists(st.integers(2, 7), min_size=1, max_size=4), st.integers(0, 2000))
@settings(max_examples=200, deadline=None)
def test_closed_form_text_of_q_numbers_is_int_str(bases, a):
    pattern = GroupPattern(tuple(bases))
    q, q_inner = _closed_form_texts(pattern, a)
    assert q == int_str(pattern.q_number(a))
    assert q_inner == (int_str(pattern.q_number(a - 1)) if a else "0")


@pytest.mark.parametrize(
    "bases, a",
    [((2,), 100_000), ((7,), 123_457), ((2, 3), 100_001), ((5, 2), 150_000), ((3, 3), 100_002)],
)
def test_closed_form_text_of_deep_q_numbers_is_int_str(bases, a):
    # periods 1 and 2 at a >= 10**5: integers of 0.4 to 1.2 million bits
    pattern = GroupPattern(bases)
    q, q_inner = pattern.q_number(a), pattern.q_number(a - 1)
    assert _closed_form_texts(pattern, a) == (int_str(q), int_str(q_inner))
    text = DecimalText()
    text.pattern = pattern
    text.add_q_pair(a, q, q_inner)
    assert text(q_inner) == int_str(q_inner)  # its text is made when first written
    assert text.memo == {q: int_str(q), q_inner: int_str(q_inner)}


def test_writing_a_report_converts_no_ledger_q_number_by_int_str(monkeypatch):
    report = divergence_report(build_alpha_sequence(PAT2, 9))
    want = dumps_canonical(report)
    calls = _record_int_str(monkeypatch)
    assert dumps_canonical(report) == want
    # the q-numbers over SAFE_STR_BITS bits, of ledgers 4 to 8; the short
    # ones are str(n) inside int_str, as is every short integer
    converted = {n for n, _ in calls if n.bit_length() > SAFE_STR_BITS}
    q_numbers = {n for led in report.ledgers for n in (led.q_index, led.q_inner)}
    assert max(q_numbers).bit_length() > 10**6
    assert sum(n.bit_length() > SAFE_STR_BITS for n in q_numbers) == 10
    assert converted and not converted & q_numbers  # each m_alpha still goes through it


@st.composite
def ledger_shaped_ints(draw):
    """Integers shaped like a ledger's: products ``M_i M_j`` of the scales
    of a random digit pattern, and ``M_{2a}`` of a q-pair added first,
    times a word-sized cofactor or divided by a short scale; values one
    off those, of the same bit length; any of them negated."""
    pattern = GroupPattern(tuple(draw(st.lists(st.integers(2, 7), min_size=1, max_size=4))))
    a = draw(st.integers(0, 1500))
    bases = [pattern.scale(2 * a)]
    for _ in range(draw(st.integers(1, 3))):
        bases.append(pattern.scale(draw(st.integers(700, 2200))) * pattern.scale(draw(st.integers(0, 2200))))
    values = []
    for _ in range(draw(st.integers(1, 8))):
        n = draw(st.sampled_from(bases))
        shape = draw(st.sampled_from(["times", "over", "plain", "off"]))
        if shape == "times":
            n *= draw(st.integers(1, 2**64 - 1))
        elif shape == "over":
            n //= pattern.scale(draw(st.integers(1, 20)))
        elif shape == "off":
            n += draw(st.sampled_from([-1, 1]))
        values.append(-n if draw(st.integers(0, 4)) == 0 else n)
    return pattern, a, values


@settings(max_examples=150, deadline=None)
@given(ledger_shaped_ints())
def test_text_from_a_neighbour_is_int_str(case):
    pattern, a, values = case
    text = DecimalText()  # one memo, anchor and power table across the values
    text.pattern = pattern
    text.add_q_pair(a, pattern.q_number(a), pattern.q_number(a - 1) if a else 0)
    for n in values:
        assert text(n) == int_str(n)
    assert all(text(n) == int_str(n) for n in values)  # from the memo


def test_writing_a_report_converts_one_integer_per_ledger_by_int_str(monkeypatch):
    # five ledgers hold integers over SAFE_STR_BITS bits, five each besides
    # their q-numbers; the others are a word-sized factor from the first
    # converted, or from M_{2 alpha}
    report = divergence_report(build_alpha_sequence(PAT2, 9))
    want = dumps_canonical(report)
    calls = _record_int_str(monkeypatch)
    assert dumps_canonical(report) == want
    big = [n for n, _ in calls if n.bit_length() > SAFE_STR_BITS]
    assert len(big) <= 5
    assert {led.m_alpha for led in report.ledgers[4:]} == set(big)


def test_a_neighbour_text_that_disagrees_with_its_integer_raises(monkeypatch):
    from vilenkin import serialize

    m = PAT2.scale(3000) * 3**20
    n = m * 12345
    original = serialize._cofactor

    def tampered(n, m):
        found = original(n, m)
        return found and (found[0] + 1, found[1])

    text = DecimalText()
    assert text(m) == int_str(m)
    monkeypatch.setattr(serialize, "_cofactor", tampered)
    with pytest.raises(VerificationError):
        text(n)
    with pytest.raises(VerificationError):
        text(m // 3)
    assert list(text.memo) == [m]


def test_a_ledger_outside_a_divergence_report_is_written_by_int_str():
    # after a report on const:2, a ledger of 2,3 takes no closed form of
    # const:2's q-numbers
    report = divergence_report(build_alpha_sequence(PAT2, 5), cap=2)
    ledger = bound_chain_evaluate(build_alpha_sequence(GroupPattern((2, 3)), 5), 4)
    assert ledger.q_inner.bit_length() > SAFE_STR_BITS
    doc = json.loads(dumps_canonical([report, ledger]))
    assert doc[1] == json.loads(dumps_canonical(ledger))
    assert doc[1]["q_inner"] == int_str(ledger.q_inner)


def test_a_closed_form_text_that_disagrees_with_its_integer_raises():
    # the closed form of another pattern, and texts a digit or a length off
    q, q_inner = PAT2.q_number(2000), PAT2.q_number(1999)
    text = DecimalText()
    text.pattern = GroupPattern((2, 3))
    with pytest.raises(VerificationError):
        text.add_q_pair(2000, q, q_inner)
    assert text.memo == {}
    from vilenkin.serialize import _checked_text

    right = int_str(q)
    assert _checked_text(q, right) == right
    last = str((int(right[-1]) + 1) % 10)
    for wrong in (right[:-1] + last, right + "0", right[:-2], "1" + right[1:-1] + "E1", "-" + right):
        with pytest.raises(VerificationError):
            _checked_text(q, wrong)


def test_json_writer_holds_only_the_decimal_text_of_the_document():
    # integers up to 1.18M bits, 2.26 MiB of distinct decimal text; a
    # document tree and the list of its 93,235 parts took 7.0 MiB
    report = divergence_report(build_alpha_sequence(PAT2, 9), cap=2)
    tracemalloc.start()
    try:
        write_json(report, lambda parts: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 2**20


def _hand_overs(write, obj):
    chunks = []
    write(obj, lambda parts: chunks.append(list(parts)))  # the list is reused
    return chunks


@pytest.mark.parametrize("every", [1, 2, 7])
def test_flush_size_does_not_change_the_bytes(every, monkeypatch):
    from vilenkin import serialize

    g = build_group_spec([2] * 13)  # two 4,096-value parts in each float array
    f = random_cylinder_function(g, seed=3)
    cases = [
        (write_json, divergence_report(build_alpha_sequence(PAT2, 6), cap=2)),
        (write_json, lemma2_verify(PAT2, 3)),
        (write_json, function_to_doc(f)),
        (write_function_csv, f),
    ]
    want = ["".join(map("".join, _hand_overs(write, obj))) for write, obj in cases]
    monkeypatch.setattr(serialize, "_FLUSH_PARTS", every)
    for (write, obj), text in zip(cases, want):
        chunks = _hand_overs(write, obj)
        assert "".join(map("".join, chunks)) == text
        assert len(chunks) > 1
        assert max(map(len, chunks)) <= every + 8  # a hand-over ends after the entry that fills it


def test_serialization_is_deterministic_across_runs():
    seq1 = build_alpha_sequence(PAT2, 4)
    seq2 = build_alpha_sequence(PAT2, 4)
    doc1 = dumps_canonical(divergence_report(seq1))
    doc2 = dumps_canonical(divergence_report(seq2))
    assert doc1 == doc2
