"""Deterministic JSON/CSV encoding for grids, spectra, and reports.

Numbers are rendered with fixed 17-significant-digit formatting, so
rerunning a command byte-reproduces its output.  Object keys are never
sorted: a report is written by one dataclass walker, :func:`report_to_doc`,
with fields in declaration order followed by the class's verdict properties
(``all_ok``, ``ok``, ``passed``, ``is_atom``).  The exact integers named in
:data:`EXACT_INT_FIELDS` (``alpha``, ``m_alpha``, ``q_index``, ``q_inner``,
``region_pair_count``, ``product``, ``kernel_order``) and the numerators and
denominators of rationals are decimal strings; every other integer is a
JSON number.  Exact integers in the ledgers can run to hundreds of
thousands of digits; they never pass through floats.

Decimal text is exact and subquadratic: :func:`int_str` converts a large
integer by divide and conquer on :mod:`decimal` numbers instead of the
quadratic ``str(int)``.  It splits at power-of-two bit widths, so one table
of ``2 ** 2 ** j`` serves every integer of a document; a zero low chunk
costs no addition, and a low chunk equal to its high chunk is converted
once, which makes powers of two and the 0101...01 q-numbers cheap.  A
:class:`DecimalText` holds that table and converts each distinct value
once per document; it is made per document (one :func:`report_to_doc`
with its :func:`canonical_parts`, or one :func:`summary_csv`) and kept by
nothing in this module.  The library never changes the interpreter's
integer digit limit, so a reader on Python >= 3.11 that turns the longest
decimal strings back into ``int`` must raise that limit itself.  Every
verdict stays re-derivable from the stored numbers.

:func:`canonical_parts` is the one emitter: the CLI streams its parts to
the destination, and :func:`dumps_canonical` joins them.
"""

from __future__ import annotations

import dataclasses
import decimal
import json
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from .errors import SAFE_STR_BITS, DomainError
from .group import Cylinder, GroupPattern, GroupSpec, parse_group_text

if TYPE_CHECKING:
    from .counterexample import KernelBoundReport
    from .exact import DivergenceReport

__all__ = [
    "EXACT_INT_FIELDS",
    "DecimalText",
    "int_str",
    "float_str",
    "canonical_parts",
    "dumps_canonical",
    "encode_group",
    "decode_group",
    "function_to_doc",
    "doc_to_function",
    "function_to_csv",
    "load_function_file",
    "report_to_doc",
    "kernel_report_to_doc",
    "divergence_to_doc",
    "summary_csv",
    "plot_csv",
]


def int_str(n: int, powers: list[decimal.Decimal] | None = None) -> str:
    """Exact decimal string of an integer, in subquadratic time.  Works
    under any interpreter digit limit, and never reads or changes it.

    ``powers`` is a power table to share between the calls of one
    document (see :class:`DecimalText`); it is filled as needed."""
    n = int(n)
    if n.bit_length() <= SAFE_STR_BITS:
        return str(n)
    return str(_int_to_decimal(n, [] if powers is None else powers))


_LEAF_BITS = 128  # up to this, Decimal(int) converts directly


def _int_to_decimal(n: int, powers: list[decimal.Decimal]) -> decimal.Decimal:
    """``n`` as an exact ``Decimal``: split at power-of-two bit widths and
    recombine in :mod:`decimal`, whose big multiplications are
    subquadratic.  ``powers[j]`` is ``2 ** 2 ** j``; a zero low chunk
    costs no addition, and a low chunk equal to the high one is converted
    once.  Any rounding traps, so a wrong digit can never be printed."""
    D = decimal.Decimal

    def inner(m: int) -> decimal.Decimal:
        bits = m.bit_length()
        if bits <= _LEAF_BITS:
            return D(m)
        j = (bits - 1).bit_length() - 1  # split at half = 2**j < bits <= 2**(j + 1)
        while len(powers) <= j:
            powers.append(powers[-1] * powers[-1] if powers else D(2))
        half = 1 << j
        hi = m >> half
        lo = m - (hi << half)
        if lo == hi:
            x = inner(lo)
            return x + x * powers[j]
        high = inner(hi) * powers[j]
        return high + inner(lo) if lo else high

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = 1
        result = inner(abs(n))
        return -result if n < 0 else result


class DecimalText:
    """The decimal text of the exact integers of one document: each value
    over ``SAFE_STR_BITS`` bits is converted once, by :func:`int_str`, and
    every conversion shares one power table.  Make one per document and
    drop it afterwards; nothing here outlives it."""

    def __init__(self) -> None:
        self.powers: list[decimal.Decimal] = []
        self.memo: dict[int, str] = {}

    def __call__(self, n: int) -> str:
        n = int(n)
        if n.bit_length() <= SAFE_STR_BITS:
            return int_str(n)
        text = self.memo.get(n)
        if text is None:
            text = self.memo[n] = int_str(n, self.powers)
        return text


def float_str(x: float) -> str:
    x = float(x)
    if x != x or x in (float("inf"), float("-inf")):
        raise DomainError(f"refusing to serialize non-finite value {x}")
    return format(x, ".17g")


_ARRAY_PART = 4096  # values of a float array joined into one part


def _emit(obj: Any, out: list[str], text: DecimalText) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        if obj.isdecimal():  # digits need no escaping: skip json.dumps's copy
            out += ('"', obj, '"')
        else:
            out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, Fraction):
        out += ('{"num":"', text(obj.numerator), '","den":"', text(obj.denominator), '"}')
    elif isinstance(obj, int):
        out.append(str(int(obj)))
    elif isinstance(obj, float):
        out.append(float_str(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {type(key).__name__}")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(":")
            _emit(val, out, text)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, val in enumerate(obj):
            if i:
                out.append(",")
            _emit(val, out, text)
        out.append("]")
    elif type(obj).__module__ == "numpy" and obj.ndim == 0:  # a numpy scalar, seen without importing numpy
        _emit(obj.item(), out, text)
    elif type(obj).__module__ == "numpy" and obj.ndim == 1 and obj.dtype.kind == "f":
        # a float array, written a part of _ARRAY_PART values at a time,
        # never as one Python float object per value
        out.append("[")
        for i in range(0, len(obj), _ARRAY_PART):
            if i:
                out.append(",")
            out.append(",".join(map(float_str, obj[i : i + _ARRAY_PART].tolist())))
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_parts(obj: Any, text: DecimalText | None = None) -> list[str]:
    """The canonical JSON text of ``obj`` as a list of parts, to be written
    in order (``writelines``) without joining them first.  ``text`` is the
    document's decimal text, shared with :func:`report_to_doc`."""
    out: list[str] = []
    _emit(obj, out, DecimalText() if text is None else text)
    return out


def dumps_canonical(obj: Any) -> str:
    return "".join(canonical_parts(obj))


# ---------------------------------------------------------------------------
# Groups
# ---------------------------------------------------------------------------


def encode_group(group: GroupSpec) -> dict:
    return {"digits": list(group.digits), "resolution": group.resolution}


def decode_group(raw) -> GroupSpec:
    """Accepts ``{"digits": [...], "resolution": N}`` or a shorthand string
    like ``"const:2^13"`` / ``"2,3,2,4"``.

    Group text carries its own depth: a digit list's length, or ``^N``;
    ``"const:b"`` alone has none and raises :class:`DomainError`.  A dict
    without ``"resolution"`` has the depth of its digit list.  A digit list
    shorter than the resolution repeats cyclically; one longer than the
    resolution raises :class:`DomainError` rather than being cut.  The grid
    comes from :meth:`GroupPattern.group`, so one over ``GRID_CAP`` points
    raises :class:`CapExceededError`.
    """
    if isinstance(raw, str):
        pattern, res = parse_group_text(raw)
        if res is None:
            raise DomainError(f"group {raw!r} carries no depth; add one as ^N (e.g. {raw}^8)")
        return pattern.group(res)
    if isinstance(raw, dict):
        try:
            digits = [int(d) for d in raw["digits"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"bad group object: {raw!r}") from exc
        res = raw.get("resolution")
        res = len(digits) if res is None else int(res)
        if res < 1:
            raise DomainError(f"resolution must be >= 1, got {res}")
        if res < len(digits):
            raise DomainError(f"group lists {len(digits)} digits, more than its resolution {res}")
        return GroupPattern(tuple(digits)).group(res)
    raise DomainError(f"cannot interpret {raw!r} as a group")


# ---------------------------------------------------------------------------
# Functions and spectra
# ---------------------------------------------------------------------------


def function_to_doc(obj) -> dict:
    """The function file document of ``obj``.  ``"re"`` and ``"im"`` are
    float64 views of its values, not lists: :func:`canonical_parts` writes
    them a part at a time, and :func:`doc_to_function` reads them back."""
    from .transform import CylinderFunction, Spectrum

    if isinstance(obj, CylinderFunction):
        kind, data = "values", obj.values
    elif isinstance(obj, Spectrum):
        kind, data = "coeffs", obj.coeffs
    else:
        raise TypeError(f"expected CylinderFunction or Spectrum, got {type(obj).__name__}")
    return {
        "group": encode_group(obj.group),
        "kind": kind,
        "re": data.real,
        "im": data.imag,
    }


def doc_to_function(doc):
    import numpy as np

    from .transform import CylinderFunction, Spectrum

    if not isinstance(doc, dict):
        raise DomainError("function file must contain a JSON object")
    try:
        group = decode_group(doc["group"])
        kind = doc["kind"]
        re = np.asarray(doc["re"], dtype=np.float64)
        im = np.asarray(doc["im"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed function file: {exc}") from exc
    if kind not in ("values", "coeffs"):
        raise DomainError(f'kind must be "values" or "coeffs", got {kind!r}')
    if re.shape != (group.size,) or im.shape != (group.size,):
        raise DomainError(
            f"group of size {group.size} with {re.size} real / {im.size} imaginary entries"
        )
    data = re + 1j * im
    return CylinderFunction(group, data) if kind == "values" else Spectrum(group, data)


def function_to_csv(obj) -> str:
    doc = function_to_doc(obj)
    lines = ["index,re,im"]
    for i, (re, im) in enumerate(zip(doc["re"].tolist(), doc["im"].tolist())):
        lines.append(f"{i},{float_str(re)},{float_str(im)}")
    return "\n".join(lines) + "\n"


def load_function_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path} is not valid JSON: {exc}") from exc
    return doc_to_function(doc)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


# Fields holding exact integers that outgrow a float (or any JSON reader's
# number type); every other int stays a JSON number.
EXACT_INT_FIELDS = frozenset(
    {"alpha", "m_alpha", "q_index", "q_inner", "region_pair_count", "product", "kernel_order"}
)


def report_to_doc(obj: Any, text: DecimalText | None = None) -> Any:
    """A report dataclass as a JSON-ready document.

    Fields come in declaration order, then the class's properties (the
    verdicts ``all_ok``, ``ok``, ``passed``, ``is_atom``).  Fields named in
    :data:`EXACT_INT_FIELDS` become decimal strings, converted by ``text``
    (pass the same one to :func:`canonical_parts`); ``Fraction`` values are
    left for :func:`canonical_parts`.  Groups, patterns and cylinders are
    written in their short forms.
    """
    if text is None:
        text = DecimalText()
    if isinstance(obj, GroupSpec):
        return encode_group(obj)
    if isinstance(obj, GroupPattern):
        return list(obj.base)
    if isinstance(obj, Cylinder):
        return {"prefix": list(obj.prefix), "measure": obj.measure}
    if dataclasses.is_dataclass(obj):
        doc = {}
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            doc[f.name] = text(value) if f.name in EXACT_INT_FIELDS else report_to_doc(value, text)
        for name, attr in vars(type(obj)).items():
            if isinstance(attr, property):
                doc[name] = report_to_doc(getattr(obj, name), text)
        return doc
    if isinstance(obj, (list, tuple)):
        return [report_to_doc(v, text) for v in obj]
    return obj


def kernel_report_to_doc(report: KernelBoundReport, text: DecimalText | None = None) -> dict:
    doc = report_to_doc(report, text)
    doc["regions"] = doc.pop("regions")  # after the verdict
    return doc


def divergence_to_doc(report: DivergenceReport, text: DecimalText | None = None) -> dict:
    return report_to_doc(report, text)


def summary_csv(report: DivergenceReport) -> str:
    lines = ["k,alpha_k,q_alpha_k,LB_k_squared_num,LB_k_squared_den,direct_integral"]
    text = DecimalText()
    for row in report.rows:
        direct = "" if row.direct_integral is None else float_str(row.direct_integral)
        lines.append(
            f"{row.k},{text(row.alpha)},{text(row.q_index)},"
            f"{text(row.lb_squared.numerator)},{text(row.lb_squared.denominator)},"
            f"{direct}"
        )
    return "\n".join(lines) + "\n"


def plot_csv(report: DivergenceReport) -> str:
    lines = ["k,sqrt_alpha_k,lb_squared"]
    for row in report.rows:
        lines.append(
            f"{row.k},{float_str(row.alpha ** 0.5)},{float_str(float(row.lb_squared))}"
        )
    return "\n".join(lines) + "\n"
