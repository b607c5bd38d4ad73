"""Characters and the mixed-radix Fourier transform.

The character indexed by ``n`` acts on a point ``x`` as

    psi_n(x) = prod_k exp(2*pi*i * n_k * x_k / m_k)

with ``n_k`` and ``x_k`` the mixed-radix digits of the frequency and the
point.  Because the transform factors over coordinates, the forward and
inverse maps run in ``O(M_N * sum_k m_k)`` by contracting one small DFT
matrix per axis, instead of the ``O(M_N^2)`` literal double sum.  The
literal sum is retained as :func:`naive_transform_oracle` (with a hard
size cap) so the fast path can always be cross-checked against an
implementation that shares none of its machinery.

Normalization: the forward transform divides by ``M_N`` (coefficients are
integrals against conjugate characters), the inverse does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CapExceededError, DomainError
from .group import GRID_CAP, GroupSpec, digit_decompose

__all__ = [
    "CylinderFunction",
    "Spectrum",
    "CharacterBasis",
    "character_eval",
    "character_basis",
    "step_character",
    "forward_transform",
    "inverse_transform",
    "naive_transform_oracle",
    "coarsen",
    "random_cylinder_function",
    "sup_abs",
    "sup_rel_error",
    "NAIVE_ORACLE_CAP",
]

NAIVE_ORACLE_CAP = 4096


def _as_values(group: GroupSpec, values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.shape != (group.size,):
        raise DomainError(
            f"expected {group.size} samples for resolution {group.resolution}, "
            f"got shape {arr.shape}"
        )
    return arr


@dataclass
class CylinderFunction:
    """A function constant on the points of the finest grid.

    ``values[i]`` is the value on the point whose index is ``i``; every
    point carries Haar mass ``1 / M_N``.
    """

    group: GroupSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = _as_values(self.group, self.values)

    @property
    def resolution(self) -> int:
        return self.group.resolution

    def integral(self) -> complex:
        """Haar integral, ``(1 / M_N) * sum_x f(x)``."""
        return complex(self.values.mean())

    def copy(self) -> "CylinderFunction":
        return CylinderFunction(self.group, self.values.copy())


@dataclass
class Spectrum:
    """Fourier coefficients indexed like the points (same mixed radix)."""

    group: GroupSpec
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = _as_values(self.group, self.coeffs)

    @property
    def resolution(self) -> int:
        return self.group.resolution

    def copy(self) -> "Spectrum":
        return Spectrum(self.group, self.coeffs.copy())


def character_eval(n: int, x: tuple[int, ...], group: GroupSpec) -> complex:
    """Evaluate ``psi_n`` at the point with digits ``x`` through exact
    rational phase accumulation."""
    nd = digit_decompose(n, group)
    if len(x) != group.resolution:
        raise DomainError("point has the wrong number of coordinates")
    phase = Fraction(0)
    for nk, xk, mk in zip(nd, x, group.digits):
        if not 0 <= xk < mk:
            raise DomainError(f"coordinate {xk} outside base {mk}")
        phase += Fraction((nk * xk) % mk, mk)
    phase %= 1
    return complex(np.exp(2j * np.pi * float(phase)))


@lru_cache(maxsize=64)
def _root_matrix(m: int, conjugate: bool) -> np.ndarray:
    """The ``m x m`` table ``exp(+-2*pi*i * (a*b mod m) / m)``;
    :class:`CapExceededError` before it is built if it has more than
    ``GRID_CAP`` entries."""
    if m * m > GRID_CAP:
        raise CapExceededError(f"a base-{m} root table has {m * m} entries, cap is {GRID_CAP}")
    ab = (np.outer(np.arange(m), np.arange(m)) % m).astype(np.float64)
    sign = -1.0 if conjugate else 1.0
    return np.exp(sign * 2j * np.pi * ab / m)


def _axis_dft(flat: np.ndarray, group: GroupSpec, axis: int, conjugate: bool) -> np.ndarray:
    m = group.digits[axis]
    low = group.scales[axis]
    high = group.size // (low * m)
    cube = flat.reshape(high, m, low)
    out = np.einsum("ab,hbl->hal", _root_matrix(m, conjugate), cube)
    return out.reshape(-1)


def forward_transform(f: CylinderFunction) -> Spectrum:
    """All Fourier coefficients of ``f``: ``c_n = integral of f * conj(psi_n)``."""
    arr = f.values.copy()
    for axis in range(f.group.resolution):
        arr = _axis_dft(arr, f.group, axis, conjugate=True)
    arr /= f.group.size
    return Spectrum(f.group, arr)


def inverse_transform(s: Spectrum) -> CylinderFunction:
    """Synthesize ``sum_n c_n * psi_n`` on the full grid (no normalization)."""
    arr = s.coeffs.copy()
    for axis in range(s.group.resolution):
        arr = _axis_dft(arr, s.group, axis, conjugate=False)
    return CylinderFunction(s.group, arr)


def naive_transform_oracle(f: CylinderFunction, cap: int = NAIVE_ORACLE_CAP) -> Spectrum:
    """Literal ``O(M_N^2)`` transform used only to cross-check the fast path.

    Characters are rebuilt here from scratch (digit grids plus one complex
    exponential per row), deliberately sharing nothing with the per-axis
    contraction above.
    """
    g = f.group
    if g.size > cap:
        raise CapExceededError(
            f"naive transform is capped at M_N <= {cap}, group has {g.size} points"
        )
    idx = np.arange(g.size)
    frac = [
        ((idx // g.scales[k]) % m) / float(m) for k, m in enumerate(g.digits)
    ]
    out = np.empty(g.size, dtype=np.complex128)
    for n in range(g.size):
        nd = digit_decompose(n, g)
        phase = np.zeros(g.size, dtype=np.float64)
        for k, nk in enumerate(nd):
            if nk:
                phase += nk * frac[k]
        out[n] = np.exp(-2j * np.pi * phase) @ f.values
    return Spectrum(g, out / g.size)


class CharacterBasis:
    """Characters on every point of a grid, built from each base's roots
    of unity.

    ``row(n)`` is ``psi_n`` on all points.  ``unit_step(a)`` is
    ``exp(2*pi*i * x_a / m_a)`` on all points: the factor by which a row
    changes when digit ``a`` of its frequency goes up by one.
    """

    def __init__(self, group: GroupSpec):
        self.group = group
        self._steps: dict[int, np.ndarray] = {}

    def unit_step(self, axis: int) -> np.ndarray:
        """``exp(2*pi*i * x_axis / m_axis)`` on every point; lazily cached,
        so a caller that reads the cache from threads fetches it first."""
        step = self._steps.get(axis)
        if step is None:
            g = self.group
            m, low = g.digits[axis], g.scales[axis]
            roots = np.exp(2j * np.pi * np.arange(m) / m)
            step = np.tile(np.repeat(roots, low), g.size // (m * low))
            self._steps[axis] = step
        return step

    def row(self, n: int) -> np.ndarray:
        """``psi_n`` on all points, via a single phase accumulation."""
        g = self.group
        phase = np.zeros(g.size, dtype=np.float64)
        for k, nk in enumerate(digit_decompose(n, g)):
            if nk:
                m = g.digits[k]
                by_digit = phase.reshape(-1, m, g.scales[k])
                by_digit += ((nk / m) * np.arange(m))[:, None]
        return np.exp(2j * np.pi * phase)


def step_character(psi: np.ndarray, counter: list[int], digits, steps) -> None:
    """Multiply ``psi_n`` into ``psi_{n+1}`` in place along the carry chain.

    ``counter`` holds n's digits and is advanced too; ``steps[j]`` is the
    axis-``j`` unit step on the same points as ``psi`` and must exist for
    every axis the carry reaches.  Only numpy runs here, on ``psi`` and
    ``steps`` alone, so disjoint point ranges may be stepped at once.
    """
    j = 0
    while True:
        psi *= steps[j]
        counter[j] += 1
        if counter[j] < digits[j]:
            return
        counter[j] = 0
        j += 1
        if j == len(digits):
            return  # counter wrapped all the way around


@lru_cache(maxsize=8)
def character_basis(group: GroupSpec) -> CharacterBasis:
    return CharacterBasis(group)


def coarsen(f: CylinderFunction, level: int) -> CylinderFunction:
    """Conditional expectation onto depth-``level`` cylinders.

    The result lives on the truncated group: one value per cylinder, equal
    to the average of ``f`` over it.
    """
    g = f.group
    if not 0 <= level <= g.resolution:
        raise DomainError(f"level {level} outside [0, {g.resolution}]")
    block = f.values.reshape(-1, g.scales[level]).mean(axis=0)
    return CylinderFunction(g.truncate(level), block)


def random_cylinder_function(group: GroupSpec, seed: int = 0, complex_parts: bool = True) -> CylinderFunction:
    """Standard normal values (real and imaginary parts) from ``seed >= 0``."""
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    re = rng.standard_normal(group.size)
    im = rng.standard_normal(group.size) if complex_parts else 0.0
    return CylinderFunction(group, re + 1j * im)


def sup_abs(values: np.ndarray) -> float:
    return float(np.max(np.abs(values))) if len(values) else 0.0


def sup_rel_error(got: np.ndarray, want: np.ndarray) -> float:
    """Sup-norm error of ``got`` against ``want``, relative to ``max(1, sup|want|)``."""
    scale = max(1.0, sup_abs(np.asarray(want)))
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) / scale
