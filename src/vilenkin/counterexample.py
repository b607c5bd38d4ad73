"""A lacunary martingale whose Cesaro means blow up in the L_{1/2} quasinorm.

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
the function stays in H_{1/2}.  Everything on the inequality side of that
story is verified here in exact integer/rational arithmetic; grids enter
only for desk-scale cross-checks of the algebraic identities, and every
function that evaluates on a grid takes that ``GroupSpec`` as an argument.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, VerificationError, brief
from .group import GRID_CAP, Cylinder, GroupPattern, GroupSpec
from .kernels import (
    dirichlet_kernel,
    fejer_kernel,
    fejer_mean_direct,
    hardy_quasinorm_estimate,
    maximal_function,
    summed_partial_sums,
    validate_p_atom,
    zero_cylinder_indicator,
)
from .transform import (
    CylinderFunction,
    Spectrum,
    character_basis,
    coarsen,
)

__all__ = [
    "LevelCertificate",
    "AlphaSequence",
    "SigmaDecomposition",
    "RegionBound",
    "BoundLedger",
    "RegionKernelMinimum",
    "KernelBoundReport",
    "DivergenceRow",
    "SeriesReport",
    "DivergenceReport",
    "MIN_ALPHA0",
    "LEMMA2_CAP",
    "rational_sqrt_lower",
    "rational_sqrt_upper",
    "build_alpha_sequence",
    "sequence_from_levels",
    "coefficient_oracle",
    "oracle_spectrum",
    "atom_function",
    "materialize_f",
    "closed_form_partial_sum",
    "sigma_decomposition",
    "lemma2_verify",
    "bound_chain_evaluate",
    "divergence_report",
]

MIN_ALPHA0 = 6
LEMMA2_CAP = 1 << 20


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
    growth_rule: str

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
    return AlphaSequence(pattern, alphas, tuple(certs), "explicit")


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
    seq = AlphaSequence(pattern, tuple(cert.alpha for cert in certs), tuple(certs), "greedy-minimal")
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


def oracle_spectrum(seq: AlphaSequence, group: GroupSpec) -> Spectrum:
    """All coefficients below ``M_resolution`` as a grid spectrum.

    Blocks are never split by a resolution cut: block ``k`` occupies
    ``[M_{2 alpha_k}, M_{2 alpha_k + 1})``, and an integer resolution is
    either ``<= 2 alpha_k`` (block absent) or ``>= 2 alpha_k + 1`` (block
    complete).
    """
    coeffs = np.zeros(group.size, dtype=np.complex128)
    pattern = seq.pattern
    for alpha in seq.alphas:
        if 2 * alpha + 1 > group.resolution:
            break
        lo = pattern.scale(2 * alpha)
        hi = pattern.scale(2 * alpha + 1)
        coeffs[lo:hi] = float(Fraction(lo, pattern.bound * alpha))
    return Spectrum(group, coeffs)


def atom_function(
    seq: AlphaSequence, k: int, group: GroupSpec
) -> tuple[CylinderFunction, Cylinder]:
    """The k-th atom on ``group``, from indicator closed forms (no transform).

    ``a_k = (M_{2a}/M) (M_{2a+1} 1_{I_{2a+1}} - M_{2a} 1_{I_{2a}})`` with
    ``a = alpha_k``; the supporting interval is the zero cylinder of depth
    ``2 alpha_k``.
    """
    if not 0 <= k < len(seq.alphas):
        raise DomainError(f"atom index {k} outside [0, {len(seq.alphas)})")
    alpha = seq.alphas[k]
    if group.resolution < 2 * alpha + 1:
        raise DomainError(
            f"atom {k} needs resolution >= {2 * alpha + 1}, got {group.resolution}"
        )
    lo = group.scales[2 * alpha]
    hi = group.scales[2 * alpha + 1]
    vals = hi * zero_cylinder_indicator(group, 2 * alpha + 1).values
    vals -= lo * zero_cylinder_indicator(group, 2 * alpha).values
    vals *= lo / seq.pattern.bound
    interval = Cylinder(group, (0,) * (2 * alpha))
    return CylinderFunction(group, vals), interval


def _atom_history(seq: AlphaSequence, count: int, group: GroupSpec) -> np.ndarray:
    """``sum_{eta < count} a_eta / alpha_eta`` on ``group``, from the atom
    closed forms."""
    vals = np.zeros(group.size, dtype=np.complex128)
    for eta in range(count):
        atom, _ = atom_function(seq, eta, group)
        vals += atom.values / seq.alphas[eta]
    return vals


def materialize_f(seq: AlphaSequence, A: int, group: GroupSpec) -> CylinderFunction:
    """The depth-``A`` martingale level of ``f`` on ``group``.

    A block with ``2 alpha_k >= A`` integrates to zero over every
    depth-``A`` cylinder, so the level function is exactly the sum of the
    atoms with ``2 alpha_k < A`` — there is no partially-resolved case.
    """
    A = int(A)
    if A < 0:
        raise DomainError(f"level must be >= 0, got {A}")
    if A > group.resolution:
        raise DomainError(
            f"insufficient resolution: level {A} on a depth-{group.resolution} grid"
        )
    count = sum(1 for alpha in seq.alphas if 2 * alpha < A)
    return CylinderFunction(group, _atom_history(seq, count, group))


def closed_form_partial_sum(seq: AlphaSequence, j: int, group: GroupSpec) -> CylinderFunction:
    """``S_j f`` assembled from block structure instead of coefficient cuts.

    Two admissible regimes, mirroring how the divergence argument reads
    partial sums:

    * history-only: ``M_{2 alpha_{k-1} + 1} <= j <= M_{2 alpha_k}`` (for
      ``k = 0``: ``0 <= j <= M_{2 alpha_0}``) — the cut sits in the gap
      between blocks, so ``S_j f`` is the plain sum of earlier atoms;
    * in-block: ``M_{2 alpha_k} <= j < q_number(alpha_k)`` — the tail is
      ``c_k (D_j - D_{M_B})`` with ``M_B = M_{2 alpha_k}``, rewritten via
      the carry decomposition ``D_j - D_{M_B} = psi_{M_B} D_{j - M_B}``
      (valid because ``j - M_B < q_number(alpha_k - 1) <= M_B``).

    Everything else raises a domain error naming the regime bounds.  This
    route shares no indexing logic with the coefficient-truncation route,
    which is the point: the two must agree wherever both are defined.
    """
    j = int(j)
    if j < 0:
        raise DomainError(f"partial-sum order must be >= 0, got {brief(j)}")
    if j > group.size:
        raise DomainError(f"order {brief(j)} exceeds the grid size {group.size}")
    pattern = seq.pattern
    history_count = None
    tail = None
    prev_hi = 0
    for k, alpha in enumerate(seq.alphas):
        lo = pattern.scale(2 * alpha)
        if j <= lo:
            if j < prev_hi:
                raise DomainError(
                    f"order {brief(j)} is inside block {k - 1} beyond its sparse order: "
                    f"admissible there is [{brief(pattern.scale(2 * seq.alphas[k - 1]))}, "
                    f"{brief(pattern.q_number(seq.alphas[k - 1]))})"
                )
            history_count = k
            break
        q = pattern.q_number(alpha)
        if j < q:
            history_count = k
            tail = (k, alpha, lo, j - lo)
            break
        prev_hi = pattern.scale(2 * alpha + 1)
    else:
        last = seq.alphas[-1]
        raise DomainError(
            f"order {brief(j)} is beyond the last admissible regime "
            f"[{brief(pattern.scale(2 * last))}, {brief(pattern.q_number(last))})"
        )

    vals = _atom_history(seq, history_count, group)
    if tail is not None:
        k, alpha, lo, inner = tail
        if inner:
            coeff = float(Fraction(lo, pattern.bound * alpha))
            basis = character_basis(group)
            vals += coeff * basis.row(lo) * dirichlet_kernel(inner, group).values
    return CylinderFunction(group, vals)


# ---------------------------------------------------------------------------
# The three-piece split of the Cesaro mean at a sparse order
# ---------------------------------------------------------------------------


@dataclass
class SigmaDecomposition:
    """``sigma_q f = low + carried_history + block_kernel`` exactly.

    * ``low`` averages ``S_j f`` over ``j < M_{2 alpha_k}`` (these never
      see block ``k``);
    * ``carried_history`` is ``((q - M_{2 alpha_k}) / q) * history``, the
      history built from atom closed forms;
    * ``block_kernel`` is ``c_k (q'/q) psi_{M_{2 alpha_k}} K_{q'}``, with
      inner sparse order ``q' = q_number(alpha_k - 1)``; the reports name
      it explicitly as ``q_inner``.
    """

    k: int
    q_index: int
    q_inner: int
    low: CylinderFunction
    carried_history: CylinderFunction
    block_kernel: CylinderFunction

    def total(self) -> CylinderFunction:
        return CylinderFunction(
            self.low.group,
            self.low.values + self.carried_history.values + self.block_kernel.values,
        )


def sigma_decomposition(seq: AlphaSequence, k: int, group: GroupSpec) -> SigmaDecomposition:
    """The three pieces of ``sigma_q f`` at ``q = q_number(alpha_k)`` on ``group``."""
    if not 0 <= k < len(seq.alphas):
        raise DomainError(f"block index {k} outside [0, {len(seq.alphas)})")
    alpha = seq.alphas[k]
    pattern = seq.pattern
    q = pattern.q_number(alpha)
    q_inner = pattern.q_number(alpha - 1)
    block_lo = pattern.scale(2 * alpha)
    if q > group.size:
        raise DomainError(
            f"sparse order {brief(q)} exceeds the grid size {group.size}; raise the resolution"
        )

    spectrum = oracle_spectrum(seq, group)
    low_vals = summed_partial_sums(spectrum, 0, block_lo) / q
    low = CylinderFunction(group, low_vals)

    hist_vals = _atom_history(seq, k, group)
    carried = CylinderFunction(group, hist_vals * ((q - block_lo) / q))

    coeff = float(Fraction(block_lo, pattern.bound * alpha))
    basis = character_basis(group)
    kernel = fejer_kernel(q_inner, group)
    block_vals = (coeff * q_inner / q) * basis.row(block_lo) * kernel.values
    block = CylinderFunction(group, block_vals)
    return SigmaDecomposition(k, q, q_inner, low, carried, block)


# ---------------------------------------------------------------------------
# Kernel lower bound on digit-pattern regions (brute force)
# ---------------------------------------------------------------------------


def _region(values: np.ndarray, group: GroupSpec, eta: int, s: int) -> np.ndarray:
    """The values on the points with digits ``< 2 eta`` zero, digit ``2 eta``
    nonzero, digits strictly between ``2 eta`` and ``2 s`` zero, digit
    ``2 s`` nonzero and everything above ``2 s`` free: a view, in grid order."""
    sc, m = group.scales, group.digits
    return values.reshape(
        group.size // sc[2 * s + 1], m[2 * s], sc[2 * s] // sc[2 * eta + 1], m[2 * eta], sc[2 * eta]
    )[:, 1:, 0, 1:, 0]


def _region_measure(pattern: GroupPattern, eta: int, s: int, scale=None) -> Fraction:
    """``(m_{2 eta} - 1)(m_{2 s} - 1) / M_{2 s + 1}``; ``scale(j)`` gives
    ``M_j`` (default :meth:`GroupPattern.scale`)."""
    m_eta, m_s = pattern.digit(2 * eta), pattern.digit(2 * s)
    return Fraction((m_eta - 1) * (m_s - 1), (scale or pattern.scale)(2 * s + 1))


@dataclass(frozen=True)
class RegionKernelMinimum:
    eta: int
    s: int
    point_count: int
    measure: Fraction
    min_ratio: float  # min over the region of q' |K_{q'}| / (M_{2 eta} M_{2 s})


@dataclass(frozen=True)
class KernelBoundReport:
    group: GroupSpec
    level: int  # regions live at depth 2 * level
    kernel_order: int  # q_number(level - 1)
    threshold: float  # 1/4
    regions: tuple[RegionKernelMinimum, ...]
    global_min_ratio: float

    @property
    def passed(self) -> bool:
        return self.global_min_ratio >= self.threshold * (1 - 1e-12)


def lemma2_verify(pattern: GroupPattern, level: int, cap: int = LEMMA2_CAP) -> KernelBoundReport:
    """Brute-force the kernel floor ``q' |K_{q'}| >= M_{2 eta} M_{2 s} / 4``.

    ``q' = q_number(level - 1)`` and the regions range over
    ``0 <= eta <= level - 3``, ``eta + 2 <= s <= level - 1``.  Every point
    of every region on the depth-``2 level`` grid is checked; the report
    carries per-region minima of the ratio and the global minimum.  Region
    point counts and measures come from the grid itself (the tests check
    them against the closed form ``(m_{2 eta} - 1)(m_{2 s} - 1) / M_{2 s + 1}``).
    Refused when the grid would exceed ``cap`` points.
    """
    level = int(level)
    if level < 3:
        raise DomainError(f"need level >= 3 for a nonempty region family, got {level}")
    group = pattern.group(2 * level, cap)
    q_inner = pattern.q_number(level - 1)
    kernel = np.abs(fejer_kernel(q_inner, group).values) * q_inner
    regions = []
    for eta in range(0, level - 2):
        for s in range(eta + 2, level):
            view = _region(kernel, group, eta, s)
            prod = group.scales[2 * eta] * group.scales[2 * s]
            regions.append(
                RegionKernelMinimum(
                    eta=eta,
                    s=s,
                    point_count=view.size,
                    measure=Fraction(view.size, group.size),
                    min_ratio=float(view.min()) / prod,
                )
            )
    return KernelBoundReport(
        group=group,
        level=level,
        kernel_order=q_inner,
        threshold=0.25,
        regions=tuple(regions),
        global_min_ratio=min(r.min_ratio for r in regions),
    )


# ---------------------------------------------------------------------------
# The exact inequality chain, one ledger per block
# ---------------------------------------------------------------------------


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
class BoundLedger:
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

    @property
    def all_ok(self) -> bool:
        return self.q_doubling_ok and self.history_ok and self.separation_all_ok


def _region_bound(
    pattern: GroupPattern, alpha: int, m_alpha: int, eta: int, s: int, scale, detailed: bool
) -> RegionBound:
    """``scale(j)`` gives ``M_j`` for ``j`` in ``2 eta``, ``2 s``, ``2 s + 1``."""
    bound = pattern.bound
    prod = scale(2 * eta) * scale(2 * s)
    ok = (bound - 1) * prod >= bound * m_alpha
    measure = _region_measure(pattern, eta, s, scale)
    sqrt_term = Fraction(0)
    if detailed:
        per_point = Fraction(prod, 8 * bound**2 * alpha)
        sqrt_term = measure * rational_sqrt_lower(per_point)
    return RegionBound(
        eta=eta, s=s, product=prod, separation_ok=ok, measure=measure, sqrt_term=sqrt_term
    )


def bound_chain_evaluate(
    seq: AlphaSequence, k: int, region_detail_cap: int = 4096
) -> BoundLedger:
    """Audit every inequality behind ``LB_k``, in exact arithmetic.

    When the region family has more than ``region_detail_cap`` pairs, only
    the extremal corner ``(eta, s) = (floor(alpha/2), floor(alpha/2) + 2)``
    is evaluated: the products ``M_{2 eta} M_{2 s}`` are strictly
    increasing in both indices while the compared value ``M * M_alpha`` is
    fixed, so the corner verdict covers the whole family (and the exact
    region sum is skipped, leaving the closed-form ``lb_squared``).
    """
    seq.require_certified("bound_chain_evaluate")
    if not 0 <= k < len(seq.alphas):
        raise DomainError(f"block index {k} outside [0, {len(seq.alphas)})")
    pattern = seq.pattern
    bound = pattern.bound
    alpha = seq.alphas[k]
    q = pattern.q_number(alpha)
    q_inner = pattern.q_number(alpha - 1)
    q_doubling_ok = q <= 2 * pattern.scale(2 * alpha)

    eta_lo = alpha // 2
    eta_hi = alpha - 3
    count = eta_hi - eta_lo + 1
    if count < 1:
        raise DomainError(f"alpha = {alpha} leaves no usable regions")
    pair_count = count * (count + 1) // 2  # sum over eta of (alpha - 2 - eta)
    detailed = pair_count <= region_detail_cap

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

    corner = _region_bound(pattern, alpha, m_alpha, eta_lo, eta_lo + 2, scale, detailed)
    regions = None
    region_sum_squared = None
    if detailed:
        entries = []
        total = Fraction(0)
        all_ok = True
        for eta in range(eta_lo, eta_hi + 1):
            for s in range(eta + 2, alpha):
                rb = _region_bound(pattern, alpha, m_alpha, eta, s, scale, True)
                entries.append(rb)
                total += rb.sqrt_term
                all_ok &= rb.separation_ok
        regions = tuple(entries)
        region_sum_squared = total * total
        separation_all_ok = all_ok
    else:
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


@dataclass(frozen=True)
class SeriesReport:
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
    atoms_ok: bool | None
    atom_maximal_ok: bool | None
    hardy_estimate_on_grid: float | None
    grid_estimate_ok: bool | None

    @property
    def ok(self) -> bool:
        checks = [
            self.doubling_ok,
            self.weight_sqrt_sum <= self.geometric_majorant * (1 + 1e-12),
        ]
        for flag in (self.atoms_ok, self.atom_maximal_ok, self.grid_estimate_ok):
            if flag is not None:
                checks.append(flag)
        return all(checks)


@dataclass(frozen=True, repr=False)
class DivergenceReport:
    __repr__ = _brief_repr

    pattern: GroupPattern
    alpha0: int
    k_range: tuple[int, ...]
    ledgers: tuple[BoundLedger, ...]
    rows: tuple[DivergenceRow, ...]
    lb_strictly_increasing: bool
    rate_certified_from: int | None  # first k with c_certified there and beyond
    series: SeriesReport

    @property
    def passed(self) -> bool:
        return self.first_failure() is None

    def first_failure(self) -> str | None:
        """Human-readable description of the first failing verdict, if any."""
        for led in self.ledgers:
            if not led.q_doubling_ok:
                return (
                    f"k={led.k}: q = {brief(led.q_index)} > 2 M_2a = "
                    f"{brief(2 * (led.q_index - led.q_inner))}"
                )
            if not led.history_ok:
                return (
                    f"k={led.k}: history pieces {brief(led.low_part_bound)} exceed "
                    f"threshold {brief(led.threshold)}"
                )
            if not led.separation_all_ok:
                return (
                    f"k={led.k}: region separation fails at corner "
                    f"(eta, s) = ({led.corner.eta}, {led.corner.s}): "
                    f"(M-1) * {brief(led.corner.product)} < M * {brief(led.m_alpha)}"
                )
        if not self.lb_strictly_increasing:
            pairs = list(zip(self.ledgers, self.ledgers[1:]))
            for a, b in pairs:
                if b.lb_squared <= a.lb_squared:
                    return (
                        f"LB not increasing: LB_{b.k}^2 = {brief(b.lb_squared)} <= "
                        f"LB_{a.k}^2 = {brief(a.lb_squared)}"
                    )
            return "LB not strictly increasing"
        if not self.series.ok:
            return "H_{1/2} membership side failed (see series report)"
        for row in self.rows:
            if row.pointwise_ok is False:
                return f"k={row.k}: pointwise region floor violated on the grid"
            if row.integral_dominates_ok is False:
                return (
                    f"k={row.k}: direct integral {row.direct_integral} below "
                    f"the exact region bound"
                )
        if len(self.k_range) > 1 and self.rate_certified_from is None:
            return "rate certificate 4 count_k >= alpha_k never stabilizes"
        return None


def _materialized_checks(
    seq: AlphaSequence, ledger: BoundLedger, group: GroupSpec
) -> tuple[int, float, bool, bool | None]:
    """Grid-side audit of one block on its depth-``2 alpha + 1`` grid: direct
    integral, per-region floors, and domination of the exact region sum."""
    alpha = ledger.alpha
    sigma = fejer_mean_direct(oracle_spectrum(seq, group), ledger.q_index).values
    direct = float(np.mean(np.sqrt(np.abs(sigma))))
    pointwise_ok = True
    bound = seq.pattern.bound
    for eta in range(ledger.eta_lo, ledger.eta_hi + 1):
        for s in range(eta + 2, alpha):
            floor = float(
                Fraction(group.scales[2 * eta] * group.scales[2 * s], 8 * bound**2 * alpha)
            )
            if float(np.abs(_region(sigma, group, eta, s)).min()) < floor * (1 - 1e-9):
                pointwise_ok = False
    dominates = None
    if ledger.region_sum_squared is not None:
        dominates = direct * direct >= float(ledger.region_sum_squared) * (1 - 1e-9)
    return group.resolution, direct, pointwise_ok, dominates


def _series_report(seq: AlphaSequence, cap: int) -> SeriesReport:
    alphas = seq.alphas
    total = Fraction(0)
    for a in alphas:
        total += rational_sqrt_upper(Fraction(1, a))
    doubling_ok = all(b >= 2 * a for a, b in zip(alphas, alphas[1:]))
    # sum_k alpha_k^{-1/2} <= alpha_0^{-1/2} / (1 - 2^{-1/2}) under doubling
    majorant = float(rational_sqrt_upper(Fraction(1, alphas[0]))) / (1 - 2**-0.5)
    hardy_upper = float(total) ** 2

    atoms_ok = None
    atom_maximal_ok = None
    grid_estimate = None
    grid_ok = None
    validated = 0
    materializable = [
        k for k, a in enumerate(alphas) if seq.pattern.scale(2 * a + 1) <= cap
    ]
    if materializable:
        atoms_ok = True
        atom_maximal_ok = True
        for k in materializable:
            atom, interval = atom_function(seq, k, seq.pattern.group(2 * alphas[k] + 1, cap))
            report = validate_p_atom(atom, interval, Fraction(1, 2))
            atoms_ok &= report.is_atom
            star = maximal_function(atom)
            root_integral = float(np.mean(np.sqrt(np.abs(star.values))))
            atom_maximal_ok &= root_integral <= 1 + 1e-9
            validated += 1
        depth = 2 * alphas[max(materializable)] + 1
        f = materialize_f(seq, depth, seq.pattern.group(depth, cap))
        levels = [coarsen(f, r) for r in range(depth)] + [f]
        grid_estimate = hardy_quasinorm_estimate(levels, Fraction(1, 2))
        grid_ok = grid_estimate <= hardy_upper * (1 + 1e-9)
    return SeriesReport(
        weight_sqrt_sum=float(total),
        geometric_majorant=majorant,
        doubling_ok=doubling_ok,
        hardy_upper=hardy_upper,
        atoms_validated=validated,
        atoms_ok=atoms_ok,
        atom_maximal_ok=atom_maximal_ok,
        hardy_estimate_on_grid=grid_estimate,
        grid_estimate_ok=grid_ok,
    )


def divergence_report(
    seq: AlphaSequence,
    k_range=None,
    region_detail_cap: int = 4096,
    cap: int = GRID_CAP,
) -> DivergenceReport:
    """Evaluate the whole argument for the requested blocks.

    Exact ledgers are produced for every block in ``k_range`` (default:
    all of them).  Blocks whose natural grid ``M_{2 alpha_k + 1}`` fits
    under ``cap`` points additionally get a desk-scale audit: the Cesaro
    mean is computed outright and checked against the per-region floors
    and the exact region sum.  A ``cap`` below 2 would skip every audit.
    """
    seq.require_certified("divergence_report")
    if cap < 2:
        raise DomainError(f"materialization cap must be >= 2, got {cap}")
    if k_range is None:
        k_range = range(len(seq.alphas))
    ks = tuple(int(k) for k in k_range)
    if any(not 0 <= k < len(seq.alphas) for k in ks):
        raise DomainError(f"k_range entries must lie in [0, {len(seq.alphas)})")
    ledgers = []
    rows = []
    for k in ks:
        ledger = bound_chain_evaluate(seq, k, region_detail_cap)
        ledgers.append(ledger)
        res = direct = pw = dom = None
        depth = 2 * ledger.alpha + 1
        if seq.pattern.scale(depth) <= cap:
            group = seq.pattern.group(depth, cap)
            res, direct, pw, dom = _materialized_checks(seq, ledger, group)
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
    series = _series_report(seq, cap)
    return DivergenceReport(
        pattern=seq.pattern,
        alpha0=seq.alphas[0],
        k_range=ks,
        ledgers=tuple(ledgers),
        rows=tuple(rows),
        lb_strictly_increasing=increasing,
        rate_certified_from=certified_from,
        series=series,
    )
