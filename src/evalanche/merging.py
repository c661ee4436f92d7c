"""Merging functions for uncorrelated test-martingale values.

The symmetric merging functions are the normalized elementary symmetric
polynomials (NESPs)

    U_n(s_1, ..., s_K) = elementary_symmetric_n(s) / binomial(K, n)

and their convex mixtures (with U_0 understood to be the constant 1).  One
log-domain recurrence, ``suffix_esp_levels``, computes every elementary
symmetric level, for a batch of rows at once:

    e_b(suffix_i) = e_b(suffix_{i+1}) + s_i * e_{b-1}(suffix_{i+1})

Every term is nonnegative, so there is no cancellation at any input scale.
``mixture_from_logs`` (behind ``nesp_log`` and ``mixture_merge``) reads a
whole set's levels from column 0 of its reversed row, which adds the values
in their given order.  The linear-scale power-sum and Bell paths and the
subset enumeration that certify it live in ``oracles``.

Arity rule: a merge of degree n applied to m < n arguments evaluates
U_min(n, m), extending the degree-2-on-one-argument fallback to every arity
so the merge family is total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError
from .logvalue import INFINITE, LogValue, check_log_bound, log_add

WEIGHT_TOL = 1e-12
# weight_vector holds degree+1 weights and the discovery tables (degree+1) x
# (K+1) doubles.  A degree above the number of merged values acts as that
# number (U_n of m <= n values is their product), so a higher limit would
# only let a typo exhaust memory.
MAX_DEGREE = 1_000


@dataclass(frozen=True)
class MergeSpec:
    """A symmetric merging function: one NESP or a convex mixture of NESPs.

    ``kind`` is "nesp" (with ``n`` >= 1) or "mixture" (with ``weights[i]``
    the coefficient of U_i, summing to 1).
    """

    kind: str
    n: int | None = None
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind == "nesp":
            if self.n is None or not 1 <= self.n <= MAX_DEGREE:
                raise DomainError(f"nesp degree must lie in 1..{MAX_DEGREE}, got {self.n!r}")
            if self.weights is not None:
                raise DomainError("nesp spec takes no weights")
        elif self.kind == "mixture":
            if self.n is not None:
                raise DomainError("mixture spec takes no single degree")
            w = self.weights
            if not w:
                raise DomainError("mixture needs at least one weight")
            if len(w) - 1 > MAX_DEGREE:
                raise DomainError(f"mixture degree must be at most {MAX_DEGREE}, got {len(w) - 1}")
            if any(math.isnan(x) or x < 0.0 for x in w):
                raise DomainError(f"mixture weights must be nonnegative, got {w}")
            try:
                total = math.fsum(w)
            except OverflowError:  # nonnegative weights summing past the largest double
                total = math.inf
            if abs(total - 1.0) > WEIGHT_TOL:
                raise DomainError(f"mixture weights must sum to 1, got {w} summing to {total!r}")
        else:
            raise DomainError(f"unknown merge kind {self.kind!r}")

    @classmethod
    def nesp(cls, n: int) -> "MergeSpec":
        return cls(kind="nesp", n=n)

    @classmethod
    def mixture(cls, weights: Iterable[float]) -> "MergeSpec":
        return cls(kind="mixture", weights=tuple(float(w) for w in weights))

    @property
    def max_degree(self) -> int:
        """Highest NESP degree with positive weight."""
        if self.kind == "nesp":
            return self.n  # type: ignore[return-value]
        top = 0
        for i, w in enumerate(self.weights):  # type: ignore[union-attr]
            if w > 0.0:
                top = i
        return top

    @property
    def has_positive_degree(self) -> bool:
        """True when some weight sits at degree >= 1 (infinity propagates)."""
        return self.max_degree >= 1

    def weight_vector(self) -> tuple[float, ...]:
        """Weights indexed by degree 0..max_degree."""
        if self.kind == "nesp":
            return (0.0,) * self.n + (1.0,)  # type: ignore[operator]
        return self.weights  # type: ignore[return-value]


U1 = MergeSpec.nesp(1)
U2 = MergeSpec.nesp(2)
U1_U2_HALF = MergeSpec.mixture((0.0, 0.5, 0.5))


def as_log_array(values: Sequence[LogValue]) -> np.ndarray:
    """Validate a sequence of LogValue and return the raw log array."""
    logs = np.array([v.log_e for v in values], dtype=np.float64)
    if logs.size == 0:
        raise DomainError("merge requires at least one value")
    check_log_bound(logs)
    return logs


@lru_cache(maxsize=None)
def log_comb(m: int, n: int) -> float:
    """log of the exact integer binomial coefficient."""
    return math.log(math.comb(m, n))


def suffix_esp_levels(logs: np.ndarray, n_max: int) -> np.ndarray:
    """Per-suffix elementary symmetric levels, one reverse pass per degree.

    ``logs`` has shape (..., K), one row of values per leading index.
    Returns an array of shape (..., n_max + 1, K + 1) whose column i holds
    the log-levels of the suffix logs[..., i:]; the final column is the empty
    suffix (e_0 = 1, higher levels 0).  Degree b uses the identity
    e_b(suffix_i) = sum_{j >= i} s_j * e_{b-1}(suffix_{j+1}), a suffix
    log-sum-exp of nonnegative terms.

    Any +inf inputs must sit at the front of each row (descending order);
    their columns are forced to +inf for degrees >= 1.  The finite columns
    never read them, so they enter the recurrence as -inf.
    """
    k = logs.shape[-1]
    out = np.full(logs.shape[:-1] + (n_max + 1, k + 1), -np.inf)
    out[..., 0, :] = 0.0
    inf = np.isposinf(logs)
    if (inf[..., 1:] & ~inf[..., :-1]).any():
        raise DomainError("suffix levels require descending order")
    finite = np.where(inf, -np.inf, logs)
    for b in range(1, n_max + 1):
        terms = finite + out[..., b - 1, 1:]
        out[..., b, :k] = np.logaddexp.accumulate(terms[..., ::-1], axis=-1)[..., ::-1]
    np.copyto(out[..., 1:, :k], np.inf, where=inf[..., None, :])
    return out


def nesp_log(values: Sequence[LogValue], n: int) -> LogValue:
    """U_n of the inputs via the log-domain DP (the production path)."""
    return LogValue(mixture_from_logs(MergeSpec.nesp(n), as_log_array(values)))


def mixture_merge(spec: MergeSpec, values: Sequence[LogValue]) -> LogValue:
    """Evaluate a MergeSpec: sum_n lambda_n U_n, accumulated by log-sum-exp."""
    return LogValue(mixture_from_logs(spec, as_log_array(values)))


def mixture_from_logs(spec: MergeSpec, logs: np.ndarray) -> float | np.ndarray:
    """log of the merge of each row of ``logs`` (shape (..., m)), a float for
    one 1-D row; a NESP is the mixture with one unit weight."""
    logs = np.asarray(logs, dtype=np.float64)
    m = logs.shape[-1]
    inf = np.isposinf(logs).any(axis=-1)
    weights = spec.weight_vector()
    finite = np.where(inf[..., None], 0.0, logs)
    levels = suffix_esp_levels(finite[..., ::-1], min(len(weights) - 1, m))[..., 0]
    acc = np.full(logs.shape[:-1], -np.inf)
    for deg, w in enumerate(weights):
        if w > 0.0:
            d = min(deg, m)
            acc = np.logaddexp(acc, math.log(w) + levels[..., d] - log_comb(m, d))
    acc = np.where(inf, np.inf if spec.has_positive_degree else 0.0, acc)
    return float(acc) if acc.ndim == 0 else acc


def ie_example_f(e1: LogValue, e2: LogValue) -> LogValue:
    """The symmetric two-argument merge (e1/(1+e1) + e2/(1+e2))(1 + e1*e2)/2.

    Valid for merging independent e-values but not sequential ones; computed
    in the log domain so huge arguments do not overflow.
    """
    if e1.is_infinite or e2.is_infinite:
        return INFINITE
    a, b = e1.log_e, e2.log_e
    # e/(1+e) in logs: a - log(1 + e^a)
    frac1 = a - log_add(0.0, a)
    frac2 = b - log_add(0.0, b)
    lhs = log_add(frac1, frac2)
    rhs = log_add(0.0, a + b)
    return LogValue(math.log(0.5) + lhs + rhs)
