"""Deterministic JSON/CSV encoding for grids, spectra, and reports.

Numbers are rendered with fixed 17-significant-digit formatting, so
rerunning a command byte-reproduces its output.  Object keys are never
sorted: a report dataclass is written with its fields in declaration order
followed by the class's verdict properties (``all_ok``, ``ok``, ``passed``,
``is_atom``), and a kernel report's ``regions`` last.  The exact integers
named in :data:`EXACT_INT_FIELDS` (``alpha``, ``m_alpha``, ``q_index``,
``q_inner``, ``region_pair_count``, ``product``, ``kernel_order``) and the
numerators and denominators of rationals are decimal strings; every other
integer is a JSON number.  Exact integers in the ledgers can run to
hundreds of thousands of digits; they never pass through floats.

:func:`write_json` is the one JSON writer.  It walks a report in one pass,
each dataclass by a plan built once per class (its keys already encoded),
and hands the parts of the text to a ``writelines`` a few thousand at a
time without joining them, so no document tree and no list of the
document's parts is ever built.  :func:`dumps_canonical` joins what it
writes, and :func:`report_to_doc` parses that back; the CLI writes to its
destination directly.  :func:`write_function_csv` writes a function's CSV
the same way.

Decimal text is exact and subquadratic: :func:`int_str` converts a large
integer by divide and conquer on :mod:`decimal` numbers instead of the
quadratic ``str(int)``.  It splits at power-of-two bit widths, so one table
of ``2 ** 2 ** j`` serves every integer of a document; a zero low chunk
costs no addition, and a low chunk equal to its high chunk is converted
once, which makes powers of two cheap.  A :class:`DecimalText` holds that
table and converts each distinct value once per document; it is made per
document (one :func:`write_json`, or one :func:`summary_csv`) and kept by
nothing in this module.  Its memo, and the pattern of a divergence report
and the current ledger's ``M_{2 alpha}`` while it is written, are the only
state a document's writer keeps.  The sparse orders ``q_index`` and
``q_inner`` of a divergence report's ledgers never reach :func:`int_str`:
as :func:`write_json` or :func:`summary_csv` comes to each ledger, the
closed form of :meth:`GroupPattern.q_number`, evaluated in exact decimal
arithmetic, puts both in the memo from one decimal power: ``q_index`` as
text, ``q_inner`` as an exact decimal whose text is made only if it is
written.  Most of a ledger's other integers (``m_alpha``, the products,
the parts of its fractions) are a word-sized factor from one already
written or from
``M_{2 alpha}``, so their text is that neighbour's times or divided by the
factor, in one exact decimal operation; a ledger sends about one integer
to :func:`int_str`.  Each text that does not come from :func:`int_str` is
checked against its integer (last 18 digits and length) before it can be
written.  The library never changes the
interpreter's integer digit limit, so a reader on Python >= 3.11 that
turns the longest decimal strings back into ``int`` must raise that limit
itself.  Every verdict stays re-derivable from the stored numbers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import decimal
import functools
import json
import math
from collections.abc import Callable
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from .errors import SAFE_STR_BITS, DomainError, VerificationError
from .group import Cylinder, GroupPattern, GroupSpec, parse_group_text

if TYPE_CHECKING:
    from .exact import DivergenceReport

__all__ = [
    "EXACT_INT_FIELDS",
    "DecimalText",
    "int_str",
    "float_str",
    "write_json",
    "dumps_canonical",
    "encode_group",
    "decode_group",
    "function_to_doc",
    "doc_to_function",
    "write_function_csv",
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

    with _exact_decimal():
        result = inner(abs(n))
        return -result if n < 0 else result


@contextlib.contextmanager
def _exact_decimal():
    """A local :mod:`decimal` context in which integer arithmetic is exact
    at any size: unbounded precision and exponents, and any rounding
    traps."""
    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = 1
        yield


class DecimalText:
    """The decimal text of the exact integers of one document: each value
    over ``SAFE_STR_BITS`` bits is written once, from the memo after its
    first time.  A value that misses the memo takes one of three routes:

    * the q-numbers of a divergence report's ledgers come from their
      closed form (:meth:`add_q_pair`);
    * a positive value ``n`` with a *neighbour* ``m``, a positive value
      already in the memo or the current ledger's anchor ``M_{2 alpha}``,
      such that ``n = m * r`` or ``m = n * r`` with ``0 < r < 2**64``, is
      one exact decimal multiplication or division by ``r`` of ``m``'s
      text.  Candidates are looked up by bit length, at most 64 bits
      away, never by a scan of the memo;
    * anything else goes through :func:`int_str`, and every conversion
      shares one power table.

    The ledgers' integers are products of the scales ``M_j`` a word-sized
    factor apart, so a ledger converts about one of them by
    :func:`int_str`.  Every text of the first two routes is checked
    against its integer (:func:`_checked_text`) before it is written.
    Make one per document and drop it afterwards; nothing here outlives
    it.  ``pattern`` is the digit pattern of the divergence report being
    written, if any, and ``anchor`` the current ledger's ``(q_index,
    q_inner, M_{2 alpha})``: ``M_{2 alpha} = q_index - q_inner`` is kept
    only as an exact ``Decimal``, and never written, so it keeps no text
    and no integer of its own."""

    def __init__(self) -> None:
        self.powers: list[decimal.Decimal] = []
        self.memo: dict[int, str | decimal.Decimal] = {}  # q_inner's is a Decimal until written
        self.by_bits: dict[int, list[int]] = {}  # the memo's positive keys by bit length
        self.pattern: GroupPattern | None = None
        self.anchor: tuple[int, int, decimal.Decimal] | None = None

    def __call__(self, n: int) -> str:
        n = int(n)
        if n.bit_length() <= SAFE_STR_BITS:
            return int_str(n)
        text = self.memo.get(n)
        if isinstance(text, decimal.Decimal):
            text = self.memo[n] = _checked_text(n, str(text))
        elif text is None:
            text = self._from_neighbour(n) if n > 0 else None
            if text is None:
                text = int_str(n, self.powers)
            self._remember(n, text)
        return text

    def _remember(self, n: int, text: str | decimal.Decimal) -> None:
        self.memo[n] = text
        if n > 0:
            self.by_bits.setdefault(n.bit_length(), []).append(n)

    def _from_neighbour(self, n: int) -> str | None:
        """The checked text of ``n > 0`` from a neighbour, or ``None``."""
        bits = n.bit_length()
        # q_alpha has the bit length of M_{2 alpha} or one more
        if self.anchor is not None and abs(self.anchor[0].bit_length() - bits) <= _NEAR_BITS + 1:
            q, q_inner, top = self.anchor
            found = _cofactor(n, q - q_inner)
            if found is not None:
                return _scaled_text(n, top, *found)
        for b in range(bits - _NEAR_BITS, bits + _NEAR_BITS + 1):
            for m in self.by_bits.get(b, ()):
                found = _cofactor(n, m)
                if found is not None:
                    return _scaled_text(n, self.memo[m], *found)
        return None

    def add_q_pair(self, alpha: int, q: int, q_inner: int) -> None:
        """Put ``q = q_alpha`` and ``q_inner = q_{alpha-1}`` of
        :attr:`pattern` in the memo, from the closed form of
        :meth:`GroupPattern.q_number` evaluated in exact decimal
        arithmetic: one decimal power of the pattern's ratio for both, in
        place of splitting each integer into bits.  The text of ``q``,
        which every ledger and summary row writes, is checked against its
        integer (:func:`_checked_text`) before it enters the memo;
        ``q_inner`` enters it as its exact ``Decimal``, and :meth:`__call__`
        makes and checks its text only if it is written, which a summary
        CSV never does.  Their difference ``M_{2 alpha}`` becomes the
        :attr:`anchor` in place of the last ledger's."""
        self.anchor = None
        if q_inner.bit_length() <= SAFE_STR_BITS:
            return
        with _exact_decimal():
            pair = self.pattern._q_pair(alpha, decimal.Decimal(1))
            top = pair[0] - pair[1]
        self._remember(q, _checked_text(q, str(pair[0])))
        self._remember(q_inner, pair[1])
        self.anchor = (q, q_inner, top)


_NEAR_BITS = 64  # a neighbour's cofactor is below 2**_NEAR_BITS


def _scaled_text(n: int, value: str | decimal.Decimal, r: int, up: bool) -> str:
    """The checked text of ``n``, which is ``value`` times ``r`` if ``up``,
    else ``value`` divided by ``r``: one exact decimal operation."""
    with _exact_decimal():
        value = decimal.Decimal(value)
        value = value * r if up else value // r
    return _checked_text(n, str(value))


def _cofactor(n: int, m: int) -> tuple[int, bool] | None:
    """``(r, True)`` if ``n = m * r``, ``(r, False)`` if ``m = n * r``, for
    ``0 < r < 2**_NEAR_BITS``; otherwise ``None``.  The quotient is short,
    so the division takes time linear in the operands' length."""
    up = n >= m
    r, rest = divmod(n, m) if up else divmod(m, n)
    if rest or r >> _NEAR_BITS:
        return None
    return r, up


_LOG10_2 = math.log10(2)


def _checked_text(n: int, text: str) -> str:
    """``text``, if it can be the decimal text of ``n > 0``: digits only,
    as many as ``n``'s bit length allows, and the last 18 those of ``n``.
    Anything else raises :class:`VerificationError`, so that a text from
    another route than :func:`int_str` never prints a wrong digit."""
    bits = n.bit_length()
    if not (
        text.isdigit()
        and (bits - 1) * _LOG10_2 < len(text) < bits * _LOG10_2 + 1
        and text[-18:] == f"{n % 10**18:018d}"
    ):
        raise VerificationError(f"decimal text disagrees with the {bits}-bit integer it writes")
    return text


def float_str(x: float) -> str:
    x = float(x)
    if x != x or x in (float("inf"), float("-inf")):
        raise DomainError(f"refusing to serialize non-finite value {x}")
    return format(x, ".17g")


_ARRAY_PART = 4096  # values of a float array joined into one part
_FLUSH_PARTS = 4096  # parts handed to a writer's writelines at a time


class _Parts(list):
    """The parts of one output on their way to its ``writelines``: handed
    over :data:`_FLUSH_PARTS` at a time and never joined, so no part is
    copied and only the parts since the last hand-over are held."""

    __slots__ = ("writelines",)

    def __init__(self, writelines: Callable[[list[str]], object]) -> None:
        super().__init__()
        self.writelines = writelines

    def spill(self) -> None:
        if len(self) >= _FLUSH_PARTS:
            self.flush()

    def flush(self) -> None:
        if self:
            self.writelines(self)
            self.clear()


# (class name, field) written after the verdicts: a kernel report's long
# region list comes last
_WRITTEN_LAST = {"KernelBoundReport": "regions"}


@functools.cache
def _plan(cls: type) -> tuple[tuple[str, str, bool], ...]:
    """How :func:`_emit` writes a dataclass: for each entry its key, encoded
    with the ``{`` or ``,`` before it, the attribute it reads, and whether
    that attribute is an exact integer written as a decimal string.  Fields
    come in declaration order, then the class's properties."""
    fields = [f.name for f in dataclasses.fields(cls)]
    names = fields + [name for name, attr in vars(cls).items() if isinstance(attr, property)]
    last = _WRITTEN_LAST.get(cls.__name__)
    if last in names:
        names.remove(last)
        names.append(last)
    exact = EXACT_INT_FIELDS.intersection(fields)
    return tuple(
        (("," if i else "{") + json.dumps(name, ensure_ascii=False) + ":", name, name in exact)
        for i, name in enumerate(names)
    )


def _emit(obj: Any, out: _Parts, text: DecimalText) -> None:
    """Append the canonical JSON text of ``obj`` to ``out``, spilling it to
    the writer after each element of a container."""
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, Fraction):
        out += ('{"num":"', text(obj.numerator), '","den":"', text(obj.denominator), '"}')
    elif isinstance(obj, int):
        out.append(str(int(obj)))
    elif isinstance(obj, float):
        out.append(float_str(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, val in enumerate(obj):
            if i:
                out.append(",")
            _emit(val, out, text)
            out.spill()
        out.append("]")
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
            out.spill()
        out.append("}")
    elif isinstance(obj, GroupSpec):
        _emit(encode_group(obj), out, text)
    elif isinstance(obj, GroupPattern):
        _emit(obj.base, out, text)
    elif isinstance(obj, Cylinder):
        _emit({"prefix": obj.prefix, "measure": obj.measure}, out, text)
    elif dataclasses.is_dataclass(obj):
        cls_name = type(obj).__name__
        if cls_name == "DivergenceReport":
            text.pattern = obj.pattern  # its ledgers' pattern, while it is written
        elif cls_name == "BoundLedger" and text.pattern is not None:
            text.add_q_pair(obj.alpha, obj.q_index, obj.q_inner)
        plan = _plan(type(obj))
        for key, name, exact in plan:
            out.append(key)
            if exact:
                out += ('"', text(getattr(obj, name)), '"')
            else:
                _emit(getattr(obj, name), out, text)
            out.spill()
        out.append("}" if plan else "{}")
        if cls_name == "DivergenceReport":
            text.pattern = text.anchor = None
    elif type(obj).__module__ == "numpy" and obj.ndim == 0:  # a numpy scalar, seen without importing numpy
        _emit(obj.item(), out, text)
    elif type(obj).__module__ == "numpy" and obj.ndim == 1 and obj.dtype.kind == "f":
        # a float array, written a part of _ARRAY_PART values at a time,
        # never as one Python float object per value; each part is handed
        # over at once, as it holds thousands of numbers
        out.append("[")
        for i in range(0, len(obj), _ARRAY_PART):
            if i:
                out.append(",")
            out.append(",".join(map(float_str, obj[i : i + _ARRAY_PART].tolist())))
            out.flush()
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(obj: Any, writelines: Callable[[list[str]], object]) -> None:
    """Write the canonical JSON text of ``obj`` (a report dataclass, or any
    JSON value) in one pass: its parts go to ``writelines`` in order, a list
    of about :data:`_FLUSH_PARTS` at a time that is reused after each call,
    and are never joined.  The document's exact integers are converted by
    one :class:`DecimalText`, whose memo is the only state kept for the
    whole document; a divergence report's ledgers add the text of their
    q-numbers to it, and set its anchor ``M_{2 alpha}``, one ledger at a
    time (:meth:`DecimalText.add_q_pair`)."""
    out = _Parts(writelines)
    _emit(obj, out, DecimalText())
    out.flush()


def dumps_canonical(obj: Any) -> str:
    parts: list[str] = []
    write_json(obj, parts.extend)
    return "".join(parts)


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
    without ``"resolution"`` has the depth of its digit list.  Its digits
    and resolution must be JSON integers: a float, a string or a boolean
    raises :class:`DomainError` rather than being coerced.  A digit list
    shorter than the resolution repeats cyclically; one longer than the
    resolution raises :class:`DomainError` rather than being cut.  The grid
    comes from :meth:`GroupPattern.group`, so a grid it refuses raises
    :class:`CapExceededError`.
    """
    if isinstance(raw, str):
        pattern, res = parse_group_text(raw)
        if res is None:
            raise DomainError(f"group {raw!r} carries no depth; add one as ^N (e.g. {raw}^8)")
        return pattern.group(res)
    if isinstance(raw, dict):
        digits = raw.get("digits")
        # bool is an int to Python, but not to JSON
        if not (isinstance(digits, list) and set(map(type, digits)) <= {int}):
            raise DomainError(f"bad group object: {raw!r}")
        res = raw.get("resolution", len(digits))
        if type(res) is not int:
            raise DomainError(f"resolution must be an integer, got {res!r}")
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
    float64 views of its values, not lists: :func:`write_json` writes them
    a part at a time, and :func:`doc_to_function` reads them back."""
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
    from .transform import CylinderFunction, Spectrum

    if not isinstance(doc, dict):
        raise DomainError("function file must contain a JSON object")
    try:
        group = decode_group(doc["group"])
        kind = doc["kind"]
        re, im = _reals(doc["re"], "re"), _reals(doc["im"], "im")
    except KeyError as exc:
        raise DomainError(f"malformed function file: {exc}") from exc
    if kind not in ("values", "coeffs"):
        raise DomainError(f'kind must be "values" or "coeffs", got {kind!r}')
    if re.shape != (group.size,) or im.shape != (group.size,):
        raise DomainError(
            f"group of size {group.size} with {re.size} real / {im.size} imaginary entries"
        )
    data = re + 1j * im
    return CylinderFunction(group, data) if kind == "values" else Spectrum(group, data)


def _reals(values, name: str):
    """``values`` as a float64 array: a list of JSON numbers (not booleans,
    not numeric strings), or a float array as :func:`function_to_doc` gives."""
    import numpy as np

    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        return values
    if isinstance(values, list) and set(map(type, values)) <= {int, float}:
        try:
            return np.asarray(values, dtype=np.float64)
        except OverflowError as exc:  # an integer past the float range
            raise DomainError(f"malformed function file: {name!r} {exc}") from exc
    raise DomainError(f"malformed function file: {name!r} must be a list of numbers")


def write_function_csv(obj, writelines: Callable[[list[str]], object]) -> None:
    """Write ``obj`` as CSV (``index,re,im``, one line per point) to
    ``writelines`` as :func:`write_json` does, converting the values a
    hand-over's worth of lines at a time."""
    doc = function_to_doc(obj)
    re, im = doc["re"], doc["im"]
    out = _Parts(writelines)
    out.append("index,re,im\n")
    step = _FLUSH_PARTS
    for lo in range(0, len(re), step):
        pairs = zip(re[lo : lo + step].tolist(), im[lo : lo + step].tolist())
        out += [f"{i},{float_str(a)},{float_str(b)}\n" for i, (a, b) in enumerate(pairs, lo)]
        out.spill()
    out.flush()


def load_function_file(path: str):
    def refuse(token: str):
        # json reads the non-JSON tokens NaN, Infinity and -Infinity as floats
        raise DomainError(f"{path} is not valid JSON: {token} is not a finite number")

    def finite(token: str) -> float:
        # a literal past the float range, such as 1e400, reads as infinity
        x = float(token)
        if not math.isfinite(x):
            raise DomainError(f"{path}: number {token} is beyond the float range")
        return x

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=refuse, parse_float=finite)
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


def report_to_doc(obj: Any) -> Any:
    """A report dataclass as a JSON document: its canonical text (see
    :func:`write_json`) parsed back.  Fields come in declaration order, then
    the class's properties (the verdicts ``all_ok``, ``ok``, ``passed``,
    ``is_atom``); fields named in :data:`EXACT_INT_FIELDS` and the numerators
    and denominators of ``Fraction`` values are decimal strings; groups,
    patterns and cylinders are in their short forms."""
    return json.loads(dumps_canonical(obj))


# the names perfbench/spans.py traces: the CLI builds no document, so a
# traced run reads no call of either
divergence_to_doc = kernel_report_to_doc = report_to_doc


def summary_csv(report: DivergenceReport) -> str:
    lines = ["k,alpha_k,q_alpha_k,LB_k_squared_num,LB_k_squared_den,direct_integral"]
    text = DecimalText()
    text.pattern = report.pattern
    for row, ledger in zip(report.rows, report.ledgers):
        text.add_q_pair(ledger.alpha, ledger.q_index, ledger.q_inner)
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
