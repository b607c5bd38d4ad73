"""The exact core: a lacunary martingale whose Cesaro means blow up in the
L_{1/2} quasinorm, planned and audited in integers and fractions.

The construction lives on a bounded-base group pattern with bound ``M``.
Pick levels ``alpha_0 < alpha_1 < ...`` subject to exact growth conditions
(see :func:`build_alpha_sequence`), set weights ``lambda_k = 1/alpha_k``,
and let

    a_k = (M_{2 alpha_k} / M) * (D_{M_{2 alpha_k + 1}} - D_{M_{2 alpha_k}}),
    f   = sum_k lambda_k * a_k.

Each ``a_k`` is a (1/2)-atom on the zero cylinder of depth ``2 alpha_k``,
so ``f`` sits in the martingale Hardy space H_{1/2} with quasinorm
controlled by ``(sum_k alpha_k^{-1/2})^2``.  Its Fourier coefficients are
constant on the blocks ``[M_{2 alpha_k}, M_{2 alpha_k + 1})`` and vanish
elsewhere.

Against that, the Cesaro mean at the sparse order ``q = q_number(alpha_k)``
splits into three pieces:

    sigma_q f = low + carried_history + block_kernel

where ``low`` averages the partial sums that never reach block ``k``,
``carried_history`` is the fully-summed history scaled by
``(q - M_{2 alpha_k}) / q``, and ``block_kernel`` is an exact modulated
Fejer kernel of inner order ``q' = q_number(alpha_k - 1)``.  The first two
pieces are uniformly small (growth condition "history_gap"), while the
kernel piece is provably large on an explicit family of disjoint
digit-pattern regions.  Summing the regions yields the rational lower
bound

    LB_k^2 = count_k^2 / (64 M^8 alpha_k),  count_k = alpha_k - 2 - floor(alpha_k/2),

which grows like ``alpha_k / (32 M^4)^2``: the means diverge even though
the function stays in H_{1/2}.

Everything on the inequality side of that story is here, in exact
integer/rational arithmetic: this module imports no numpy and computes no
float, apart from the display fields of :func:`_series_report` and the
tolerance of ``SeriesReport.verdicts``.  Grids enter only for desk-scale
cross-checks of the algebraic identities, in :mod:`vilenkin.counterexample`,
which :func:`divergence_report` imports only when some block's grid fits
its cap.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceededError, DomainError, VerificationError, brief
from .group import GRID_CAP, GroupPattern, GroupSpec

__all__ = [
    "Verdict",
    "LevelCertificate",
    "AlphaSequence",
    "RegionBound",
    "BoundLedger",
    "DivergenceRow",
    "SeriesReport",
    "DivergenceReport",
    "MIN_ALPHA0",
    "REGION_DETAIL_CAP",
    "rational_sqrt_lower",
    "rational_sqrt_upper",
    "build_alpha_sequence",
    "sequence_from_levels",
    "coefficient_oracle",
    "bound_chain_evaluate",
    "check_materialize_cap",
    "divergence_report",
]

MIN_ALPHA0 = 6
REGION_DETAIL_CAP = 4096  # region pairs a ledger evaluates one by one


def rational_sqrt_lower(x: Fraction) -> Fraction:
    """A rational lower bound for ``sqrt(x)``, tight to ``2**-40``."""
    if x < 0:
        raise DomainError("negative argument")
    s = 1 << 40
    return Fraction(math.isqrt((x.numerator * s * s) // x.denominator), s)


def rational_sqrt_upper(x: Fraction) -> Fraction:
    """A rational upper bound for ``sqrt(x)``, tight to ``2**-40``."""
    if x < 0:
        raise DomainError("negative argument")
    s = 1 << 40
    return Fraction(math.isqrt((x.numerator * s * s) // x.denominator) + 1, s)


def _brief_repr(self) -> str:
    """``repr`` of a certificate or ledger dataclass with every ``int`` and
    ``Fraction`` field through :func:`brief`, so that one holding integers
    past the interpreter's digit limit still prints."""
    parts = []
    for f in dataclasses.fields(self):
        if not f.repr:
            continue
        value = getattr(self, f.name)
        exact = isinstance(value, (int, Fraction)) and not isinstance(value, bool)
        parts.append(f"{f.name}={brief(value) if exact else repr(value)}")
    return f"{type(self).__name__}({', '.join(parts)})"


@dataclass(frozen=True)
class Verdict:
    """One check of a report: the field ``name`` that decides it, ``ok``
    (``None`` when skipped) and the ``reason`` it fails or is skipped with."""

    name: str
    ok: bool | None
    reason: str


def _verdicts(at: str, skipped: str, *checks: tuple) -> tuple[Verdict, ...]:
    """A verdict ``at + name`` per ``(name, ok, why)``: ``ok`` a Python bool, or ``None`` and ``skipped``."""
    return tuple(Verdict(at + n, None, skipped) if ok is None else Verdict(at + n, bool(ok), why)
                 for n, ok, why in checks)


class _Verdicts:
    """A report whose ``all_ok``, ``ok`` or ``passed`` means that none of its ``verdicts()`` fails."""

    def first_failure(self) -> str | None:
        return next((v.reason for v in self.verdicts() if v.ok is not None and not v.ok), None)

    def _none_fails(self) -> bool:
        return self.first_failure() is None


# ---------------------------------------------------------------------------
# Level sequences and their exact growth certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class LevelCertificate:
    """Exact verdicts for the growth conditions at one level.

    * ``doubling_ok``       -- ``alpha_k >= 2 alpha_{k-1}`` (at ``k = 0``:
      the ``alpha_0 >= 6`` floor), which makes ``sum alpha_k^{-1/2}``
      geometrically convergent for any infinite extension;
    * ``history_growth_*``  -- ``sum_{eta<k} M_{2 alpha_eta}^2 / alpha_eta
      < M_{2 alpha_k}^2 / alpha_k``;
    * ``history_gap_*``     -- ``32 M M_{2 alpha_{k-1}}^2 / alpha_{k-1}
      < M_{alpha_k} / alpha_k``.

    The last two are vacuous at ``k = 0`` and reported as passed.
    """

    __repr__ = _brief_repr

    k: int
    alpha: int
    doubling_ok: bool
    history_growth_lhs: Fraction
    history_growth_rhs: Fraction
    history_growth_ok: bool
    history_gap_lhs: Fraction
    history_gap_rhs: Fraction
    history_gap_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.doubling_ok and self.history_growth_ok and self.history_gap_ok


@dataclass(frozen=True)
class AlphaSequence:
    """Levels plus their certificates; ``certified`` means every check passed.

    The sequence is the counterexample: ``f = sum_k a_k / alpha_k`` runs
    over every level in ``alphas``, so its length is the block count.
    """

    pattern: GroupPattern
    alphas: tuple[int, ...]
    certificates: tuple[LevelCertificate, ...]

    @property
    def certified(self) -> bool:
        return all(c.all_ok for c in self.certificates)

    def require_certified(self, op: str) -> None:
        if not self.certified:
            bad = [c.k for c in self.certificates if not c.all_ok]
            raise VerificationError(
                f"{op} needs a fully certified level sequence; "
                f"growth conditions fail at k = {bad}"
            )


def _certificate(
    pattern: GroupPattern, k: int, t: int, prev: int, history: Fraction
) -> LevelCertificate:
    """The exact certificate of level ``t`` at position ``k``.

    ``prev`` is ``alpha_{k-1}`` (unused at ``k = 0``) and ``history`` is
    ``sum_{eta<k} M_{2 alpha_eta}^2 / alpha_eta``, which the caller keeps
    running: it is the sum of the earlier levels' ``history_growth_rhs``.
    """
    growth_rhs = Fraction(pattern.scale(2 * t) ** 2, t)
    gap_lhs = Fraction(32 * pattern.bound * pattern.scale(2 * prev) ** 2, prev) if k else Fraction(0)
    gap_rhs = Fraction(pattern.scale(t), t)
    return LevelCertificate(
        k=k,
        alpha=t,
        doubling_ok=t >= 2 * prev if k else t >= MIN_ALPHA0,
        history_growth_lhs=history,
        history_growth_rhs=growth_rhs,
        history_growth_ok=k == 0 or history < growth_rhs,
        history_gap_lhs=gap_lhs,
        history_gap_rhs=gap_rhs,
        history_gap_ok=k == 0 or gap_lhs < gap_rhs,
    )


def sequence_from_levels(pattern: GroupPattern, alphas) -> AlphaSequence:
    """Wrap explicit levels with honestly computed certificates.

    Useful for small structural experiments (the algebraic identities do
    not need the growth conditions); inequality-chain operations will
    refuse the result unless every certificate passes.
    """
    alphas = tuple(int(a) for a in alphas)
    if not alphas:
        raise DomainError("need at least one level")
    if any(a < 1 for a in alphas):
        raise DomainError("levels must be positive")
    if any(b >= a for a, b in zip(alphas[1:], alphas)):
        raise DomainError("levels must be strictly increasing")
    certs = []
    history = Fraction(0)
    for k, alpha in enumerate(alphas):
        certs.append(_certificate(pattern, k, alpha, alphas[k - 1] if k else 0, history))
        history += certs[-1].history_growth_rhs
    return AlphaSequence(pattern, alphas, tuple(certs))


def build_alpha_sequence(
    pattern: GroupPattern, count: int, alpha0: int = MIN_ALPHA0
) -> AlphaSequence:
    """Greedy-minimal certified levels: ``alpha_k`` is the smallest integer
    above ``alpha_{k-1}`` passing both history conditions.

    Both conditions compare a left side fixed for the level against
    ``M_{2t}^2 / t`` resp. ``M_t / t``; with every base at least 2, a step to
    ``t + 1`` multiplies these by at least ``16 t / (t + 1)`` resp.
    ``2 t / (t + 1)``, so neither decreases and the feasible set is upward
    closed.  The search predicts ``t = max(alpha_{k-1} + 1, 4 alpha_{k-1} + c)``
    with ``c`` the previous level's offset ``alpha_{k-1} - 4 alpha_{k-2}``
    (0 at ``k = 1``), steps up until ``t`` is feasible, then down while
    ``t - 1 > alpha_{k-1}`` is feasible.  It ends at a feasible ``t`` whose
    predecessor is ``alpha_{k-1}`` or infeasible, so by upward closure ``t``
    is the greedy minimum.  Each level keeps the certificate its accepting
    probe built.  In the bounded case the greedy choice always lands at
    ``alpha_k >= 2 alpha_{k-1}``; that is re-checked, not assumed, and
    certified in the result.
    """
    if count < 1:
        raise DomainError(f"need at least one level, got {count}")
    if alpha0 < MIN_ALPHA0:
        raise DomainError(
            f"alpha0 must be >= {MIN_ALPHA0} so the region family is nonempty, got {alpha0}"
        )

    def feasible(cert: LevelCertificate) -> bool:
        return cert.history_growth_ok and cert.history_gap_ok

    certs = [_certificate(pattern, 0, int(alpha0), 0, Fraction(0))]
    history = Fraction(0)
    c = 0
    for k in range(1, count):
        prev = certs[-1].alpha
        history += certs[-1].history_growth_rhs
        t = max(prev + 1, 4 * prev + c)
        while not feasible(cert := _certificate(pattern, k, t, prev, history)):
            t += 1
        while t - 1 > prev and feasible(below := _certificate(pattern, k, t - 1, prev, history)):
            t, cert = t - 1, below
        certs.append(cert)
        c = t - 4 * prev
    seq = AlphaSequence(pattern, tuple(cert.alpha for cert in certs), tuple(certs))
    if not seq.certified:
        raise VerificationError("greedy construction produced an uncertified sequence")
    return seq


# ---------------------------------------------------------------------------
# The martingale itself
# ---------------------------------------------------------------------------


def coefficient_oracle(seq: AlphaSequence, j: int) -> Fraction:
    """The exact Fourier coefficient of ``f`` at index ``j``.

    Piecewise constant by construction: ``M_{2 alpha_k} / (M alpha_k)`` on
    block ``k``, zero off all blocks.  Pure bookkeeping — no function is
    evaluated — and ``j`` may be arbitrarily large.
    """
    j = int(j)
    if j < 0:
        raise DomainError(f"coefficient index must be >= 0, got {j}")
    pattern = seq.pattern
    for alpha in seq.alphas:
        lo = pattern.scale(2 * alpha)
        if j < lo:
            return Fraction(0)
        if j < pattern.scale(2 * alpha + 1):
            return Fraction(lo, pattern.bound * alpha)
    return Fraction(0)


# ---------------------------------------------------------------------------
# The exact inequality chain, one ledger per block
# ---------------------------------------------------------------------------


def _region_measure(pattern: GroupPattern, eta: int, s: int, scale) -> Fraction:
    """``(m_{2 eta} - 1)(m_{2 s} - 1) / M_{2 s + 1}``; ``scale(j)`` gives ``M_j``."""
    m_eta, m_s = pattern.digit(2 * eta), pattern.digit(2 * s)
    return Fraction((m_eta - 1) * (m_s - 1), scale(2 * s + 1))


@dataclass(frozen=True, repr=False)
class RegionBound:
    """One region's exact contribution to the lower bound at block ``k``.

    ``separation_ok`` is the cleared comparison
    ``(M - 1) * product >= M * M_alpha`` — equivalently
    ``product - M_alpha >= product / M`` — which absorbs the history noise
    into the kernel floor, leaving ``product / (8 M^2 alpha)`` on the
    region.  ``sqrt_term`` is ``measure * sqrt(product / (8 M^2 alpha))``
    rounded down in rational arithmetic (zero unless detailed).
    """

    __repr__ = _brief_repr

    eta: int
    s: int
    product: int  # M_{2 eta} * M_{2 s}
    separation_ok: bool
    measure: Fraction
    sqrt_term: Fraction


@dataclass(frozen=True, repr=False)
class BoundLedger(_Verdicts):
    """Everything needed to audit the lower bound for one block, exactly.

    Every verdict is reproducible from the stored exact values alone.
    """

    __repr__ = _brief_repr

    k: int
    alpha: int
    bound: int  # M, the largest digit base
    m_alpha: int  # M_alpha
    q_index: int  # q_number(alpha_k)
    q_inner: int  # q_number(alpha_k - 1)
    q_doubling_ok: bool  # q_index <= 2 M_{2 alpha}
    low_part_bound: Fraction  # sup bound for the low piece: 2 M_{2 alpha_{k-1}}^2 / alpha_{k-1}
    carried_history_bound: Fraction  # same bound for the carried history
    threshold: Fraction  # M_alpha / (16 M alpha)
    history_ok: bool  # both bounds below the threshold
    eta_lo: int
    eta_hi: int
    region_pair_count: int
    corner: RegionBound  # extremal region (eta_lo, eta_lo + 2)
    monotone_certified: bool  # corner verdict extended by product monotonicity
    regions: tuple[RegionBound, ...] | None
    separation_all_ok: bool
    lb_squared: Fraction  # LB_k^2 = count^2 / (64 M^8 alpha)
    region_sum_squared: Fraction | None  # exact region-assembled integral bound, squared
    c_certified: bool  # LB_k^2 >= alpha / (32 M^4)^2, i.e. 4 count >= alpha

    all_ok = property(_Verdicts._none_fails)

    def verdicts(self, at: str = "") -> tuple[Verdict, ...]:
        k, c, q = self.k, self.corner, self.q_index
        return _verdicts(
            at, "",
            ("q_doubling_ok", self.q_doubling_ok,
             f"k={k}: q = {brief(q)} > 2 M_2a = {brief(2 * (q - self.q_inner))}"),
            ("history_ok", self.history_ok,
             f"k={k}: history pieces {brief(self.low_part_bound)} exceed threshold {brief(self.threshold)}"),
            ("separation_all_ok", self.separation_all_ok, f"k={k}: region separation fails at corner "
             f"(eta, s) = ({c.eta}, {c.s}): (M-1) * {brief(c.product)} < M * {brief(self.m_alpha)}"),
        )


def _region_bound(
    pattern: GroupPattern, alpha: int, m_alpha: int, eta: int, s: int, scale, detailed: bool
) -> RegionBound:
    """``scale(j)`` gives ``M_j`` for ``j`` in ``2 eta``, ``2 s``, ``2 s + 1``."""
    bound = pattern.bound
    prod = scale(2 * eta) * scale(2 * s)
    ok = (bound - 1) * prod >= bound * m_alpha
    measure = _region_measure(pattern, eta, s, scale)
    if detailed:
        # rational_sqrt_lower(prod / (8 M^2 alpha)), whose floor is the same
        # for the unreduced fraction, times the measure
        root = math.isqrt((prod << 80) // (8 * bound**2 * alpha))
        sqrt_term = Fraction(measure.numerator * root, measure.denominator << 40)
    else:
        sqrt_term = Fraction(0)
    return RegionBound(
        eta=eta, s=s, product=prod, separation_ok=ok, measure=measure, sqrt_term=sqrt_term
    )


def bound_chain_evaluate(seq: AlphaSequence, k: int) -> BoundLedger:
    """Audit every inequality behind ``LB_k``, in exact arithmetic.

    A region family of at most ``REGION_DETAIL_CAP`` pairs (read at call
    time) is evaluated region by region, and its first region is the
    corner.  A larger one evaluates only the extremal corner
    ``(eta, s) = (floor(alpha/2), floor(alpha/2) + 2)``: the products
    ``M_{2 eta} M_{2 s}`` are strictly increasing in both indices while the
    compared value ``M * M_alpha`` is fixed, so the corner verdict covers
    the whole family (and the exact region sum is skipped, leaving the
    closed-form ``lb_squared``).
    """
    seq.require_certified("bound_chain_evaluate")
    if not 0 <= k < len(seq.alphas):
        raise DomainError(f"block index {k} outside [0, {len(seq.alphas)})")
    pattern = seq.pattern
    bound = pattern.bound
    alpha = seq.alphas[k]
    q, q_inner = pattern._q_pair(alpha)
    q_doubling_ok = q <= 2 * (q - q_inner)  # q_alpha = M_{2 alpha} + q_{alpha-1}

    eta_lo = alpha // 2
    eta_hi = alpha - 3
    count = eta_hi - eta_lo + 1
    if count < 1:
        raise DomainError(f"alpha = {alpha} leaves no usable regions")
    pair_count = count * (count + 1) // 2  # sum over eta of (alpha - 2 - eta)
    detailed = pair_count <= REGION_DETAIL_CAP

    # M_j for 2 eta_lo <= j <= 2 s + 1 of the last region used, by running
    # product; M_alpha is among them, since alpha is 2 eta_lo or 2 eta_lo + 1
    lo = 2 * eta_lo
    run = [pattern.scale(lo)]
    for j in range(lo, 2 * alpha - 1 if detailed else lo + 5):
        run.append(run[-1] * pattern.digit(j))

    def scale(j: int) -> int:
        return run[j - lo]

    m_alpha = scale(alpha)

    if k:
        prev = seq.alphas[k - 1]
        piece_bound = 2 * Fraction(pattern.scale(2 * prev) ** 2, prev)
    else:
        piece_bound = Fraction(0)
    threshold = Fraction(m_alpha, 16 * bound * alpha)
    history_ok = piece_bound <= threshold

    if detailed:
        regions = tuple(
            _region_bound(pattern, alpha, m_alpha, eta, s, scale, True)
            for eta in range(eta_lo, eta_hi + 1)
            for s in range(eta + 2, alpha)
        )
        corner = regions[0]
        # each sqrt_term's denominator divides M_{2 s + 1} << 40, and so
        # the common denominator M_{2 alpha - 1} << 40
        common = scale(2 * alpha - 1) << 40
        total = sum(rb.sqrt_term.numerator * (common // rb.sqrt_term.denominator) for rb in regions)
        region_sum_squared = Fraction(total, common) ** 2
        separation_all_ok = all(rb.separation_ok for rb in regions)
    else:
        corner = _region_bound(pattern, alpha, m_alpha, eta_lo, eta_lo + 2, scale, False)
        regions = region_sum_squared = None
        separation_all_ok = corner.separation_ok

    lb_squared = Fraction(count * count, 64 * bound**8 * alpha)
    return BoundLedger(
        k=k,
        alpha=alpha,
        bound=bound,
        m_alpha=m_alpha,
        q_index=q,
        q_inner=q_inner,
        q_doubling_ok=q_doubling_ok,
        low_part_bound=piece_bound,
        carried_history_bound=piece_bound,
        threshold=threshold,
        history_ok=history_ok,
        eta_lo=eta_lo,
        eta_hi=eta_hi,
        region_pair_count=pair_count,
        corner=corner,
        monotone_certified=not detailed,
        regions=regions,
        separation_all_ok=separation_all_ok,
        lb_squared=lb_squared,
        region_sum_squared=region_sum_squared,
        c_certified=4 * count >= alpha,
    )


# ---------------------------------------------------------------------------
# The full report: divergence on one side, H_{1/2} membership on the other
# ---------------------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class DivergenceRow:
    __repr__ = _brief_repr

    k: int
    alpha: int
    q_index: int
    lb_squared: Fraction
    region_pair_count: int
    region_sum_squared: Fraction | None
    materialized_resolution: int | None
    direct_integral: float | None  # integral of |sigma_q f|^(1/2) on the grid
    pointwise_ok: bool | None  # per-region floor holds at every grid point
    integral_dominates_ok: bool | None  # direct integral >= exact region sum

    def verdicts(self, at: str = "") -> tuple[Verdict, ...]:
        return _verdicts(
            at, f"k={self.k}: its grid is over the cap",
            ("pointwise_ok", self.pointwise_ok, f"k={self.k}: pointwise region floor violated on the grid"),
            ("integral_dominates_ok", self.integral_dominates_ok,
             f"k={self.k}: direct integral {self.direct_integral} below the exact region bound"),
        )


@dataclass(frozen=True)
class SeriesReport(_Verdicts):
    """The membership side: ``f`` really lives in H_{1/2}.

    ``weight_sqrt_sum`` upper-bounds ``sum_k alpha_k^{-1/2}`` (rational
    arithmetic, rounded up); ``hardy_upper`` is its square.  When a grid is
    affordable, every materialized atom is validated as a (1/2)-atom whose
    maximal function has unit-bounded root integral, and the materialized
    maximal function of ``f`` itself is measured against ``hardy_upper``.
    """

    weight_sqrt_sum: float
    geometric_majorant: float
    doubling_ok: bool
    hardy_upper: float
    atoms_validated: int
    atoms_ok: bool | None = None
    atom_maximal_ok: bool | None = None
    hardy_estimate_on_grid: float | None = None
    grid_estimate_ok: bool | None = None

    ok = property(_Verdicts._none_fails)

    def verdicts(self, at: str = "") -> tuple[Verdict, ...]:
        why = "H_{1/2} membership side failed: "
        return _verdicts(
            at, "no block's grid fits the cap",
            ("doubling_ok", self.doubling_ok, why + "alpha_{k+1} >= 2 alpha_k fails"),
            ("weight_sqrt_sum", self.weight_sqrt_sum <= self.geometric_majorant * (1 + 1e-12),
             why + f"weight sum {self.weight_sqrt_sum} exceeds its majorant {self.geometric_majorant}"),
            ("atoms_ok", self.atoms_ok, why + "a block is not a (1/2)-atom on its grid"),
            ("atom_maximal_ok", self.atom_maximal_ok,
             why + "an atom's maximal function has a root integral above 1"),
            ("grid_estimate_ok", self.grid_estimate_ok,
             why + f"grid estimate {self.hardy_estimate_on_grid} exceeds hardy_upper {self.hardy_upper}"),
        )


@dataclass(frozen=True, repr=False)
class DivergenceReport(_Verdicts):
    __repr__ = _brief_repr

    pattern: GroupPattern
    alpha0: int
    k_range: tuple[int, ...] = dataclasses.field(init=False)  # the ledgers' block indices
    ledgers: tuple[BoundLedger, ...]
    rows: tuple[DivergenceRow, ...]
    lb_strictly_increasing: bool
    rate_certified_from: int | None  # first k with c_certified there and beyond
    series: SeriesReport

    def __post_init__(self):
        object.__setattr__(self, "k_range", tuple(led.k for led in self.ledgers))

    passed = property(_Verdicts._none_fails)

    def verdicts(self) -> tuple[Verdict, ...]:
        """Each ledger's checks, LB order, the series, the grid rows, then the rate."""
        drops = ((a, b) for a, b in zip(self.ledgers, self.ledgers[1:]) if b.lb_squared <= a.lb_squared)
        lb_why = next((f"LB not increasing: LB_{b.k}^2 = {brief(b.lb_squared)} <= "
                       f"LB_{a.k}^2 = {brief(a.lb_squared)}" for a, b in drops), "LB not strictly increasing")
        rate = ("rate_certified_from", None if len(self.k_range) == 1 else self.rate_certified_from is not None,
                "rate certificate 4 count_k >= alpha_k never stabilizes")
        return (
            *(v for i, led in enumerate(self.ledgers) for v in led.verdicts(f"ledgers[{i}].")),
            *_verdicts("", "", ("lb_strictly_increasing", self.lb_strictly_increasing, lb_why)),
            *self.series.verdicts("series."),
            *(v for i, row in enumerate(self.rows) for v in row.verdicts(f"rows[{i}].")),
            *_verdicts("", "one block, no rate to certify", rate),
        )


def _series_report(seq: AlphaSequence, grids: list[GroupSpec]) -> SeriesReport:
    """The membership side.  The weight sums are exact and shown rounded to
    floats (``weight_sqrt_sum``, ``geometric_majorant``, ``hardy_upper``);
    ``grids[k]`` is block ``k``'s depth-``2 alpha_k + 1`` grid, for the
    blocks that fit, where the grid side validates the atoms and ``f``."""
    alphas = seq.alphas
    total = Fraction(0)
    for a in alphas:
        total += rational_sqrt_upper(Fraction(1, a))
    doubling_ok = all(b >= 2 * a for a, b in zip(alphas, alphas[1:]))
    # sum_k alpha_k^{-1/2} <= alpha_0^{-1/2} / (1 - 2^{-1/2}) under doubling
    majorant = float(rational_sqrt_upper(Fraction(1, alphas[0]))) / (1 - 2**-0.5)
    hardy_upper = float(total) ** 2
    grid_checks = {}
    if grids:
        from .counterexample import _grid_series_checks

        grid_checks = _grid_series_checks(seq, grids, hardy_upper)
    return SeriesReport(
        weight_sqrt_sum=float(total),
        geometric_majorant=majorant,
        doubling_ok=doubling_ok,
        hardy_upper=hardy_upper,
        atoms_validated=len(grids),
        **grid_checks,
    )


def check_materialize_cap(cap: int) -> None:
    """:class:`DomainError` unless the audit cap lies in ``[2, GRID_CAP]``:
    below 2 every audit would be skipped, and above ``GRID_CAP`` a grid
    would pass that every other command refuses."""
    if cap < 2:
        raise DomainError(f"materialization cap must be >= 2, got {brief(cap)}")
    if cap > GRID_CAP:
        raise DomainError(f"materialization cap must be <= {GRID_CAP}, got {brief(cap)}")


def divergence_report(seq: AlphaSequence, cap: int = GRID_CAP) -> DivergenceReport:
    """Evaluate the whole argument, block by block.

    Every block gets its exact ledger.  A block whose natural grid of
    ``M_{2 alpha_k + 1}`` points fits under ``cap`` also gets a desk-scale
    audit on that grid, built once: the Cesaro mean is computed outright
    and checked against the per-region floors and the exact region sum,
    and the same grid then serves the membership side.  ``cap`` is checked
    by :func:`check_materialize_cap`.  The grid side,
    :mod:`vilenkin.counterexample`, is imported only when a block fits.
    """
    seq.require_certified("divergence_report")
    check_materialize_cap(cap)
    ledgers = []
    rows = []
    grids = []
    for k in range(len(seq.alphas)):
        ledger = bound_chain_evaluate(seq, k)
        ledgers.append(ledger)
        res = direct = pw = dom = None
        depth = 2 * ledger.alpha + 1
        try:
            grid = seq.pattern.group(depth, cap)
        except CapExceededError:  # no audit on a grid over the cap
            pass
        else:
            from .counterexample import _materialized_checks

            grids.append(grid)
            res = depth
            direct, pw, dom = _materialized_checks(seq, ledger, grid)
        rows.append(
            DivergenceRow(
                k=k,
                alpha=ledger.alpha,
                q_index=ledger.q_index,
                lb_squared=ledger.lb_squared,
                region_pair_count=ledger.region_pair_count,
                region_sum_squared=ledger.region_sum_squared,
                materialized_resolution=res,
                direct_integral=direct,
                pointwise_ok=pw,
                integral_dominates_ok=dom,
            )
        )
    lbs = [led.lb_squared for led in ledgers]
    increasing = all(b > a for a, b in zip(lbs, lbs[1:]))
    certified_from = None
    for i in range(len(ledgers)):
        if all(led.c_certified for led in ledgers[i:]):
            certified_from = ledgers[i].k
            break
    return DivergenceReport(
        pattern=seq.pattern,
        alpha0=seq.alphas[0],
        ledgers=tuple(ledgers),
        rows=tuple(rows),
        lb_strictly_increasing=increasing,
        rate_certified_from=certified_from,
        series=_series_report(seq, grids),
    )
