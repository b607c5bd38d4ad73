"""Exact arithmetic for finite truncations of bounded Vilenkin groups.

A group truncation is described by its digit bases ``m_0, ..., m_{N-1}``
(every entry at least 2).  Scale factors follow the mixed-radix recursion
``M_0 = 1``, ``M_{k+1} = m_k * M_k``, and every integer ``0 <= n < M_N``
has a unique expansion ``n = sum_j n_j * M_j`` with ``0 <= n_j < m_j``.
A point or a frequency is its digit tuple ``(n_0, ..., n_{N-1})``, so
:func:`digit_decompose` and :func:`digit_compose` move between points
and their indices; the depth-``n`` cylinder through a point fixes its
first ``n`` coordinates and carries Haar measure ``1 / M_n``.

Everything in this module is exact: bases, scale factors and digit values
are Python integers, measures are :class:`fractions.Fraction`.  Floating
point only enters in the transform layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import CapExceededError, DomainError, brief

__all__ = [
    "GRID_CAP",
    "LEMMA2_CAP",
    "NAIVE_ORACLE_CAP",
    "GroupSpec",
    "GroupPattern",
    "Cylinder",
    "build_group_spec",
    "digit_decompose",
    "digit_compose",
    "shifted_pow",
    "parse_group_text",
]

GRID_CAP = 1 << 24  # points in the largest grid GroupPattern.group builds by default
LEMMA2_CAP = 1 << 20  # grid points of the Lemma 2 brute force
NAIVE_ORACLE_CAP = 4096  # points in the largest grid the naive transform oracle sums over


@dataclass(frozen=True)
class GroupSpec:
    """A concrete truncated group: digit bases plus precomputed scales.

    ``scales`` has length ``resolution + 1`` with ``scales[0] == 1`` and
    ``scales[k + 1] == digits[k] * scales[k]``.  ``bound`` is the largest
    base; the group is "bounded" in the intended sense when ``bound`` stays
    fixed while the resolution grows.
    """

    digits: tuple[int, ...]
    scales: tuple[int, ...] = field(init=False, repr=False)
    bound: int = field(init=False)

    def __post_init__(self):
        if any(m < 2 for m in self.digits):
            raise DomainError(f"digit bases must all be >= 2, got {self.digits}")
        scales = [1]
        for m in self.digits:
            scales.append(scales[-1] * m)
        object.__setattr__(self, "scales", tuple(scales))
        object.__setattr__(self, "bound", max(self.digits, default=1))

    @property
    def resolution(self) -> int:
        return len(self.digits)

    @property
    def size(self) -> int:
        """Number of points, ``M_resolution``."""
        return self.scales[-1]

    def truncate(self, resolution: int) -> "GroupSpec":
        """The depth-``resolution`` prefix of this group."""
        if not 0 <= resolution <= self.resolution:
            raise DomainError(
                f"cannot truncate resolution-{self.resolution} group to {resolution}"
            )
        return GroupSpec(self.digits[:resolution])


def build_group_spec(digits) -> GroupSpec:
    """The grid with exactly these digit bases, through :meth:`GroupPattern.group`.

    The sequence must be nonempty with every entry at least 2, and the grid
    no larger than ``GRID_CAP`` points.
    """
    digits = tuple(int(m) for m in digits)
    return GroupPattern(digits).group(len(digits))


def digit_decompose(n: int, group: GroupSpec) -> tuple[int, ...]:
    """Expand ``0 <= n < M_N`` in the group's mixed-radix system."""
    n = int(n)
    if not 0 <= n < group.size:
        raise DomainError(f"index {n} outside [0, {group.size})")
    out = []
    for m in group.digits:
        n, d = divmod(n, m)
        out.append(d)
    return tuple(out)


def digit_compose(digits, group: GroupSpec) -> int:
    """Inverse of :func:`digit_decompose`; rejects out-of-range digits."""
    digits = tuple(int(d) for d in digits)
    if len(digits) != group.resolution:
        raise DomainError(
            f"expected {group.resolution} digits, got {len(digits)}"
        )
    n = 0
    for j in reversed(range(len(digits))):
        d = digits[j]
        if not 0 <= d < group.digits[j]:
            raise DomainError(f"digit {d} at position {j} outside base {group.digits[j]}")
        n = n * group.digits[j] + d
    return n


@dataclass(frozen=True)
class Cylinder:
    """The set of points agreeing with ``prefix`` on the first coordinates."""

    group: GroupSpec
    prefix: tuple[int, ...]

    def __post_init__(self):
        if len(self.prefix) > self.group.resolution:
            raise DomainError("cylinder deeper than the group resolution")
        for j, d in enumerate(self.prefix):
            if not 0 <= d < self.group.digits[j]:
                raise DomainError(f"prefix digit {d} outside base {self.group.digits[j]}")

    @property
    def depth(self) -> int:
        return len(self.prefix)

    @property
    def measure(self) -> Fraction:
        """Haar measure, exactly ``1 / M_depth``."""
        return Fraction(1, self.group.scales[self.depth])

    @property
    def base_index(self) -> int:
        """Index of the lexicographically least point of the cylinder."""
        n = 0
        for j in reversed(range(self.depth)):
            n = n * self.group.digits[j] + self.prefix[j]
        return n


def shifted_pow(x: int, n: int) -> int:
    """``x ** n`` for ``n >= 0``: the odd part of ``x`` to the ``n``, shifted
    left by ``n`` times the trailing zero bits of ``x``.  A power of two
    takes a shift alone, in time linear in the result's length, where a
    multiplication would take Karatsuba time."""
    zeros = (x ^ (x - 1)).bit_length() - 1
    odd = x >> zeros
    return (odd**n if odd != 1 else 1) << zeros * n


@dataclass(frozen=True)
class GroupPattern:
    """A periodic digit-base pattern, extendable to any resolution.

    This is how unbounded-resolution objects are described: the pattern
    pins the repeating bases while the consumer chooses how far to
    materialize.  All the scale arithmetic below is closed-form exact, so
    quantities like ``M_{2 * alpha}`` are available long before any grid of
    that size could exist.
    """

    base: tuple[int, ...]

    def __post_init__(self):
        if not self.base:
            raise DomainError("pattern must contain at least one digit base")
        if any(m < 2 for m in self.base):
            raise DomainError(f"digit bases must all be >= 2, got {self.base}")

    @property
    def bound(self) -> int:
        return max(self.base)

    def digit(self, j: int) -> int:
        if j < 0:
            raise DomainError(f"digit position must be >= 0, got {j}")
        return self.base[j % len(self.base)]

    def scale(self, j: int) -> int:
        """``M_j`` for the cyclically extended base sequence, exactly.

        The period ``P`` of the pattern is raised by :func:`shifted_pow`,
        so its power of two goes in as a shift."""
        if j < 0:
            raise DomainError(f"scale index must be >= 0, got {j}")
        period = 1
        for m in self.base:
            period *= m
        full, rest = divmod(j, len(self.base))
        tail = 1
        for m in self.base[:rest]:
            tail *= m
        return shifted_pow(period, full) * tail

    def group(self, resolution: int, cap: int = GRID_CAP) -> GroupSpec:
        """The depth-``resolution`` grid; :class:`CapExceededError` before
        anything is built if its exact size ``M_resolution`` exceeds
        ``cap``, or else if a base ``m`` of it has a root table of
        ``m * m > GRID_CAP`` entries, the first such base in axis order.

        Every base is at least 2, so ``M_N >= 2^N``: a depth beyond
        ``cap.bit_length()`` is refused without computing ``M_N``."""
        if resolution < 1:
            raise DomainError(f"resolution must be >= 1, got {resolution}")
        if resolution > cap.bit_length():
            raise CapExceededError(
                f"a depth-{resolution} grid has at least 2^{resolution} points, cap is {cap}"
            )
        size = self.scale(resolution)
        if size > cap:
            raise CapExceededError(
                f"a depth-{resolution} grid has {brief(size)} points, cap is {cap}"
            )
        for m in self.base[:resolution]:
            if m * m > GRID_CAP:
                raise CapExceededError(f"a base-{m} root table has {m * m} entries, cap is {GRID_CAP}")
        reps = -(-resolution // len(self.base))
        return GroupSpec((self.base * reps)[:resolution])

    def q_number(self, a: int) -> int:
        """The sparse index ``q_a = M_{2a} + M_{2a-2} + ... + M_2 + M_0``.

        Its digit expansion has a one in every even position up to ``2a``
        and zeros elsewhere, which makes it the canonical test order for
        the Cesaro-mean lower bounds.  Satisfies ``q_a = M_{2a} + q_{a-1}``
        and, with all bases at least 2, ``q_a <= 2 M_{2a}``.

        Evaluated in closed form by :meth:`_q_pair`, over ``int``.  This
        keeps ``q_a`` affordable for the enormous ``a`` the growth
        conditions force (the naive sum would add hundreds of thousands of
        huge integers).
        """
        a = int(a)
        if a < 0:
            raise DomainError(f"sparse-index level must be >= 0, got {a}")
        return self._q_pair(a)[0]

    def _q_pair(self, a: int, one=1):
        """``(q_a, q_{a-1})`` for ``a >= 0`` (``q_{-1} = 0``), in the
        arithmetic of ``one``: ``1`` for ``int``, or ``Decimal(1)`` under a
        decimal context exact at any size, where the results are exact
        integral decimals (how :mod:`vilenkin.serialize` writes their text
        without converting a big ``int``).

        The terms ``M_{2j}`` are grouped by ``j`` modulo the pattern's
        half-period ``L2``: each class is a geometric series in
        ``ratio``, the growth of ``M_{2j}`` per hop of ``L2``.  With
        ``a = count * L2 + last``, the classes up to ``last`` have
        ``count + 1`` terms and the others ``count``, so one power
        ``ratio**count`` gives both sums, and ``q_{a-1}`` is ``q_a``
        less its top term ``M_{2a}``.  Only that power, one exact division
        by ``ratio - 1`` and steps linear in its length touch a big
        number.  Over ``int`` the power comes from :func:`shifted_pow`, so
        the period's power of two goes in as a shift."""
        length = len(self.base)
        period = self.scale(length)
        # j and j + L2 give digit positions 2j and 2j + 2*L2 that agree mod
        # the pattern length, so scale(2j) grows by period**step per hop
        g = math.gcd(2, length)
        l2 = length // g
        step = 2 // g
        ratio = period**step
        count, last = divmod(a, l2)
        power = shifted_pow(ratio, count) if isinstance(one, int) else (one * ratio) ** count
        shorter = (power - 1) // (ratio - 1)  # a class of count terms
        longer = shorter * ratio + 1  # one of count + 1
        total = 0
        for r in range(min(l2, a + 1)):  # a class beyond a has no term
            e0, c = divmod(2 * r, length)
            weight = self.scale(c) * period**e0  # M_{2r}
            if r == last:
                top = weight * power  # M_{2a}
            total += weight * (longer if r <= last else shorter)
        return total, total - top


def parse_group_text(text: str) -> tuple[GroupPattern, int | None]:
    """Parse the command-line group syntax.

    ``"const:b"`` gives the constant pattern with base ``b`` and no fixed
    resolution; ``"const:b^N"`` fixes resolution ``N``; ``"a,b,c"`` gives the
    pattern ``(a, b, c)`` with default resolution equal to its length.
    """
    text = text.strip()
    if not text:
        raise DomainError("empty group description")
    if text.startswith("const:"):
        body = text[len("const:") :]
        if "^" in body:
            base_text, _, res_text = body.partition("^")
            try:
                base, res = int(base_text), int(res_text)
            except ValueError as exc:
                raise DomainError(f"cannot parse group description {text!r}") from exc
            if res < 1:
                raise DomainError(f"resolution must be >= 1, got {res}")
            return GroupPattern((base,)), res
        try:
            base = int(body)
        except ValueError as exc:
            raise DomainError(f"cannot parse group description {text!r}") from exc
        return GroupPattern((base,)), None
    try:
        bases = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise DomainError(f"cannot parse group description {text!r}") from exc
    return GroupPattern(bases), len(bases)
