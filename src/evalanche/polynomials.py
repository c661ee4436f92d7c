"""Multiaffine merging polynomials: validation and symmetric decomposition.

A merging function of K martingale values is exactly a positive, normalized
multiaffine polynomial; the symmetric ones are the convex mixtures of the
NESPs.  This module is a desk-scale tool (K <= 20, bitmask subset keys) for
checking candidate polynomials and recovering mixture weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import AsymmetricPolynomialError, DomainError
from .merging import MergeSpec

MAX_VARIABLES = 20
COEFF_TOL = 1e-12


def _mask_to_subset(mask: int) -> tuple[int, ...]:
    """Bitmask to sorted 1-based variable indices."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def subset_to_mask(subset: Sequence[int], k: int) -> int:
    mask = 0
    for i in subset:
        if not 1 <= i <= k:
            raise DomainError(f"variable index {i} outside 1..{k}")
        mask |= 1 << (i - 1)
    return mask


@dataclass(frozen=True)
class MultiaffinePoly:
    """Sparse multiaffine polynomial over variables 1..k.

    ``coeffs`` maps a subset bitmask (bit i-1 set <=> variable i occurs in
    the monomial) to its coefficient; absent masks have coefficient 0.
    Multiaffinity holds by construction: a bitmask cannot repeat a variable.
    """

    k: int
    coeffs: Mapping[int, float]

    def __post_init__(self) -> None:
        if not 1 <= self.k <= MAX_VARIABLES:
            raise DomainError(f"polynomial arity must be in 1..{MAX_VARIABLES}, got {self.k}")
        for mask, c in self.coeffs.items():
            if not 0 <= mask < (1 << self.k):
                raise DomainError(f"bitmask {mask:#x} does not fit {self.k} variables")
            if math.isnan(c) or math.isinf(c):
                raise DomainError(f"coefficient of mask {mask:#x} must be finite, got {c!r}")

    def evaluate(self, xs: Sequence[float]) -> float:
        if len(xs) != self.k:
            raise DomainError(f"expected {self.k} arguments, got {len(xs)}")
        total = 0.0
        for mask, c in self.coeffs.items():
            term = c
            m = mask
            while m:
                i = (m & -m).bit_length() - 1
                term *= xs[i]
                m &= m - 1
            total += term
        return total

    def coefficient(self, subset: Sequence[int]) -> float:
        return self.coeffs.get(subset_to_mask(subset, self.k), 0.0)


def merging_polynomial(k: int, spec: MergeSpec) -> MultiaffinePoly:
    """The explicit multiaffine polynomial of a NESP mixture on k variables."""
    weights = spec.weight_vector()
    coeffs: dict[int, float] = {}
    for deg, w in enumerate(weights):
        if w == 0.0 or deg > k:
            continue
        c = w / math.comb(k, deg)
        for mask in range(1 << k):
            if mask.bit_count() == deg:
                coeffs[mask] = coeffs.get(mask, 0.0) + c
    return MultiaffinePoly(k=k, coeffs=coeffs)


@dataclass(frozen=True)
class PolyVerdict:
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def validate_merging_polynomial(p: MultiaffinePoly) -> PolyVerdict:
    """Check positivity of every stored coefficient and normalization.

    The value at all-ones is the plain coefficient sum, so normalization is
    checked as sum == 1 within 1e-12.
    """
    violations: list[str] = []
    for mask in sorted(p.coeffs):
        c = p.coeffs[mask]
        if c <= 0.0:
            subset = set(_mask_to_subset(mask)) or "{}"
            violations.append(f"nonpositive coefficient {c!r} at {subset}")
    try:
        total = math.fsum(p.coeffs.values())
    except OverflowError:  # a partial sum passed the largest double: the plain sum is +-inf
        total = sum(p.coeffs.values())
    if abs(total - 1.0) > COEFF_TOL:
        violations.append(f"not normalized: coefficients sum to {total!r}")
    return PolyVerdict(ok=not violations, violations=tuple(violations))


def decompose_symmetric(p: MultiaffinePoly) -> tuple[float, ...]:
    """Recover NESP mixture weights lambda_0..lambda_k of a symmetric polynomial.

    Each degree-n weight is the common degree-n coefficient times
    binomial(k, n).  Raises AsymmetricPolynomialError (with the first
    witnessing pair of subsets) when two equal-size subsets carry different
    coefficients; convexity of the result is not checked here, so invalid but
    symmetric polynomials decompose to non-convex weights.
    """
    by_degree: dict[int, list[int]] = {}
    for mask in range(1 << p.k):
        by_degree.setdefault(mask.bit_count(), []).append(mask)
    weights = []
    for deg in range(p.k + 1):
        masks = by_degree[deg]
        first = masks[0]
        c0 = p.coeffs.get(first, 0.0)
        for mask in masks[1:]:
            c = p.coeffs.get(mask, 0.0)
            if abs(c - c0) > COEFF_TOL:
                raise AsymmetricPolynomialError(
                    _mask_to_subset(first), _mask_to_subset(mask), c0, c
                )
        weights.append(float(c0 * math.comb(p.k, deg)))
    return tuple(weights)
