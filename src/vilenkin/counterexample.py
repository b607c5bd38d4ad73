"""The grid side of the counterexample: desk-scale cross-checks of the
identities that :mod:`vilenkin.exact` certifies in integers and fractions.

Every function here evaluates on a grid and takes that ``GroupSpec`` as an
argument: the martingale's spectrum and atoms, its partial sums in closed
form, the three-piece split of its Cesaro mean, the brute-force kernel
floor of Lemma 2, and the audit of one block and of the membership side
on the blocks whose grid fits.  No verdict of the exact side comes from
here; :func:`vilenkin.exact.divergence_report` imports this module only
when some block's grid fits its cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, brief
# the exact core; the names that tests and perfbench's span tracer look up
# here are bound here too
from .exact import (
    MIN_ALPHA0,
    AlphaSequence,
    BoundLedger,
    RegionBound,
    Verdict,
    _Verdicts,
    bound_chain_evaluate,
    build_alpha_sequence,
    coefficient_oracle,
    divergence_report,
    rational_sqrt_lower,
    rational_sqrt_upper,
    sequence_from_levels,
)
from .group import LEMMA2_CAP, Cylinder, GroupPattern, GroupSpec
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
)

__all__ = [
    "SigmaDecomposition",
    "RegionKernelMinimum",
    "KernelBoundReport",
    "oracle_spectrum",
    "atom_function",
    "materialize_f",
    "closed_form_partial_sum",
    "sigma_decomposition",
    "lemma2_verify",
]


# ---------------------------------------------------------------------------
# The martingale on a grid
# ---------------------------------------------------------------------------


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
    # the depth-(2a+1) indicator scaled in place, then the depth-2a
    # cylinder's points (every M_{2a}-th) lowered by M_{2a}: one grid vector
    vals = zero_cylinder_indicator(group, 2 * alpha + 1).values
    vals *= hi
    vals[::lo] -= lo
    vals *= lo / seq.pattern.bound
    interval = Cylinder(group, (0,) * (2 * alpha))
    return CylinderFunction(group, vals), interval


def _atom_history(seq: AlphaSequence, count: int, group: GroupSpec) -> np.ndarray:
    """``sum_{eta < count} a_eta / alpha_eta`` on ``group``, from the atom
    closed forms."""
    vals = np.zeros(group.size, dtype=np.complex128)
    for eta in range(count):
        atom = atom_function(seq, eta, group)[0].values
        atom /= seq.alphas[eta]
        vals += atom
        del atom  # freed before the next atom is built
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


def _region(values: np.ndarray, group: GroupSpec, lo: int, hi: int) -> np.ndarray:
    """The values on the points with digits ``< lo`` zero, digit ``lo``
    nonzero, digits strictly between ``lo`` and ``hi`` zero, digit ``hi``
    nonzero and everything above ``hi`` free: a view, in grid order.
    Region ``(eta, s)`` has ``lo = 2 eta`` and ``hi = 2 s``."""
    sc, m = group.scales, group.digits
    return values.reshape(group.size // sc[hi + 1], m[hi], sc[hi] // sc[lo + 1], m[lo], sc[lo])[:, 1:, 0, 1:, 0]


@dataclass(frozen=True)
class RegionKernelMinimum:
    eta: int
    s: int
    point_count: int
    measure: Fraction
    min_ratio: float  # min over the region of q' |K_{q'}| / (M_{2 eta} M_{2 s})


@dataclass(frozen=True)
class KernelBoundReport(_Verdicts):
    group: GroupSpec
    level: int  # regions live at depth 2 * level
    kernel_order: int  # q_number(level - 1)
    threshold: float  # 1/4
    regions: tuple[RegionKernelMinimum, ...]
    global_min_ratio: float

    passed = property(_Verdicts._none_fails)

    def verdicts(self) -> tuple[Verdict, ...]:
        ratio = self.global_min_ratio
        return (Verdict("global_min_ratio", bool(ratio >= self.threshold * (1 - 1e-12)),
                        f"kernel floor fails: global min ratio {ratio} < {self.threshold}"),)


def lemma2_verify(pattern: GroupPattern, level: int) -> KernelBoundReport:
    """Brute-force the kernel floor ``q' |K_{q'}| >= M_{2 eta} M_{2 s} / 4``.

    ``q' = q_number(level - 1)`` and the regions range over
    ``0 <= eta <= level - 3``, ``eta + 2 <= s <= level - 1``.  Every point
    of every region on the depth-``2 level`` grid is checked; the report
    carries per-region minima of the ratio and the global minimum.  Region
    point counts and measures are those of the depth-``2 level`` grid (the
    tests check them against the closed form
    ``(m_{2 eta} - 1)(m_{2 s} - 1) / M_{2 s + 1}``).  Refused with
    :class:`CapExceededError` when that grid would exceed ``LEMMA2_CAP``
    points (on ``const:2``, past level 10).

    The kernel is evaluated once on the depth-``2 level - 1`` grid, its
    support grid.  ``q_a = M_{2a} + q_{a-1}`` gives ``q' > M_{2 level - 2}``,
    and every base is at least 2, so ``q_a < (4/3) M_{2a}`` gives
    ``q' <= M_{2 level - 1}``: ``K_{q'}`` ignores digit ``2 level - 1``.
    On the depth-``2 level`` grid :func:`inverse_transform` would run the
    same axes on this same block and only tile it, turning ``-0.0`` into
    ``+0.0``, which ``np.abs`` erases.  Every region has ``s <= level - 1``,
    so it leaves digit ``2 level - 1`` free: its minimum is the same float
    on either grid, and its point count is the support-grid count times
    ``m_{2 level - 1}``.  Only a region's own ``|K|`` is made, never the
    whole grid's, and its least value is scaled by ``q'``: rounding is
    monotone, so that is the least of the scaled values.

    Digits 1 and 3 are zero on every region: ``s >= eta + 2 >= 2`` puts
    each of them below ``2 eta`` or strictly between ``2 eta`` and ``2 s``.
    So the kernel is synthesized on the ``x_1 = x_3 = 0`` sub-grid alone,
    as the grid of the other digits (``fejer_kernel``'s ``zero_digits``),
    and each region is read there, at the positions its digits ``2 eta``
    and ``2 s`` take once digits 1 and 3 are left out.  Those two axes
    run to their digit-0 output alone, which is the same sum, in the same
    order, as the full axis makes there: every value a region reads is the
    same float as on the whole support grid.
    """
    level = int(level)
    if level < 3:
        raise DomainError(f"need level >= 3 for a nonempty region family, got {level}")
    group = pattern.group(2 * level, LEMMA2_CAP)
    support = group.truncate(2 * level - 1)
    copies = group.digits[2 * level - 1]
    q_inner = pattern.q_number(level - 1)
    zero = (1, 3)
    kernel = fejer_kernel(q_inner, support, zero_digits=zero)
    regions = []
    for eta in range(0, level - 2):
        for s in range(eta + 2, level):
            # digits 2 eta and 2 s, at their positions once digits 1 and 3 are left out
            lo, hi = (d - sum(z < d for z in zero) for d in (2 * eta, 2 * s))
            view = _region(kernel.values, kernel.group, lo, hi)
            prod = group.scales[2 * eta] * group.scales[2 * s]
            least = np.abs(view).min() * q_inner
            regions.append(
                RegionKernelMinimum(
                    eta=eta,
                    s=s,
                    point_count=view.size * copies,
                    measure=Fraction(view.size * copies, group.size),
                    min_ratio=float(least) / prod,
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
# The audit of the blocks that fit on a grid
# ---------------------------------------------------------------------------


def _materialized_checks(
    seq: AlphaSequence, ledger: BoundLedger, group: GroupSpec
) -> tuple[float, bool, bool]:
    """Grid-side audit of one block on its depth-``2 alpha + 1`` grid: direct
    integral, per-region floors, and domination of the exact region sum.

    The regions and their products come from the ledger, which lists them
    one by one whenever the block fits on a grid: the cap is at most
    ``GRID_CAP = 2^24`` and every base is at least 2, so ``M_{2 alpha + 1}
    <= 2^24`` gives ``alpha <= 11``, hence at most 10 region pairs, far
    under ``REGION_DETAIL_CAP``.
    """
    alpha = ledger.alpha
    sigma = fejer_mean_direct(oracle_spectrum(seq, group), ledger.q_index).values
    direct = float(np.mean(np.sqrt(np.abs(sigma))))
    pointwise_ok = True
    for rb in ledger.regions:
        floor = float(Fraction(rb.product, 8 * ledger.bound**2 * alpha))
        if float(np.abs(_region(sigma, group, 2 * rb.eta, 2 * rb.s)).min()) < floor * (1 - 1e-9):
            pointwise_ok = False
    dominates = direct * direct >= float(ledger.region_sum_squared) * (1 - 1e-9)
    return direct, pointwise_ok, dominates


def _grid_series_checks(seq: AlphaSequence, grids: list[GroupSpec], hardy_upper: float) -> dict:
    """The grid half of the membership side, as ``SeriesReport`` fields:
    ``grids[k]`` is block ``k``'s depth-``2 alpha_k + 1`` grid, for the
    blocks that fit, so atom ``k`` is validated there and ``f`` is built
    on the last of them."""
    atoms_ok = True
    atom_maximal_ok = True
    for k, group in enumerate(grids):
        atom, interval = atom_function(seq, k, group)
        report = validate_p_atom(atom, interval, Fraction(1, 2))
        atoms_ok &= report.is_atom
        star = maximal_function(atom)
        root_integral = float(np.mean(np.sqrt(np.abs(star.values))))
        atom_maximal_ok &= root_integral <= 1 + 1e-9
    f = materialize_f(seq, grids[-1].resolution, grids[-1])
    grid_estimate = hardy_quasinorm_estimate(f, Fraction(1, 2))
    return dict(
        atoms_ok=atoms_ok,
        atom_maximal_ok=atom_maximal_ok,
        hardy_estimate_on_grid=grid_estimate,
        grid_estimate_ok=grid_estimate <= hardy_upper * (1 + 1e-9),
    )
