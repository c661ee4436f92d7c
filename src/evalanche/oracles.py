"""Reference paths that certify the production kernels: ``nesp_powersum``
and ``nesp_bell`` are linear-scale, accurate only on well-conditioned inputs
(one dominating input cancels catastrophically in p_1^2 - p_2);
``nesp_enumerate`` and ``brute_force_bound`` enumerate subsets.  ``certify``
is the one battery that runs them, for ``evalanche oracle-check`` and the
acceptance suite.  It scores a check by its worst absolute log error, where
equal values (equal infinities included) score 0 and a NaN scores +inf, so
no check passes with a NaN in it."""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .discovery import diagonal_row, discovery_matrix, subdiagonal_row
from .errors import DomainError, NumericalError
from .logvalue import INFINITE, LN10, LogValue, ZERO, log_add
from .martingales import RankedValues
from .merging import U1, U1_U2_HALF, U2, MergeSpec, as_log_array, log_comb, mixture_from_logs, nesp_log

BRUTE_FORCE_MAX = 16

CONSTRAINT_INTERSECTS_TOP_R = "intersects-top-r"
CONSTRAINT_GE2_IN_TOP_R = "ge2-in-top-r"
CONSTRAINT_EXACTLY_J_MISSING = "exactly-j-missing-from-top-r"


def _linear_values(values: Sequence[LogValue]) -> np.ndarray:
    logs = as_log_array(values)
    if (logs == np.inf).any():
        return np.full(len(logs), np.inf)
    with np.errstate(over="ignore"):
        lin = np.exp(logs)
    if np.isinf(lin).any():
        raise NumericalError("input overflows the linear double range")
    return lin


def _power_sum(lin: np.ndarray, i: int) -> float:
    with np.errstate(over="ignore"):
        total = float(np.sum(lin ** i))
    if math.isinf(total):
        raise NumericalError(f"power sum p_{i} overflows the double range")
    return total


def _finish_linear(raw: float, scale: float, m: int, n_eff: int) -> LogValue:
    """Shared tail of the linear-scale oracle paths: normalize and guard."""
    if not math.isfinite(raw) or not math.isfinite(scale):
        raise NumericalError("intermediate overflow in linear-scale merge")
    denom = 1.0
    for i in range(n_eff):
        denom *= m - i
    result = raw / denom
    if result < 0.0:
        if result < -1e-9 * max(1.0, scale / denom):
            raise NumericalError(
                f"catastrophic cancellation: merge of nonnegative inputs came out {result!r}"
            )
        return ZERO
    return LogValue.of(result)


def nesp_powersum(values: Sequence[LogValue], n: int) -> LogValue:
    """U_n for n in 1..4 via the explicit power-sum formulas (oracle path)."""
    if not 1 <= n <= 4:
        raise DomainError(f"power-sum path supports n in 1..4 (got {n}); use nesp_bell")
    lin = _linear_values(values)
    if np.isinf(lin).any():
        return INFINITE
    m = len(lin)
    n_eff = min(n, m)
    try:
        p = [float(_power_sum(lin, i)) for i in range(1, n_eff + 1)]
        if n_eff == 1:
            terms = [p[0]]
        elif n_eff == 2:
            terms = [p[0] ** 2, -p[1]]
        elif n_eff == 3:
            terms = [p[0] ** 3, -3.0 * p[1] * p[0], 2.0 * p[2]]
        else:
            terms = [
                p[0] ** 4,
                -6.0 * p[1] * p[0] ** 2,
                8.0 * p[2] * p[0],
                3.0 * p[1] ** 2,
                -6.0 * p[3],
            ]
    except OverflowError as exc:
        raise NumericalError("intermediate overflow in power-sum merge") from exc
    raw = math.fsum(terms)
    scale = max(abs(t) for t in terms)
    return _finish_linear(raw, scale, m, n_eff)


def nesp_bell(values: Sequence[LogValue], n: int) -> LogValue:
    """U_n via the complete Bell polynomial of the signed power sums.

    B_0 = 1, B_r = sum_i C(r-1, i) B_{r-1-i} x_{i+1} with
    x_i = (-1)^(i-1) (i-1)! p_i, and U_n = B_n / (m falling n).  Signed terms
    appear, so this path is an oracle for well-conditioned inputs only.
    """
    if n < 1:
        raise DomainError(f"nesp degree must be >= 1, got {n}")
    lin = _linear_values(values)
    if np.isinf(lin).any():
        return INFINITE
    m = len(lin)
    n_eff = min(n, m)
    x = [
        (-1.0) ** (i - 1) * math.factorial(i - 1) * _power_sum(lin, i)
        for i in range(1, n_eff + 1)
    ]
    bell = [1.0]
    scale = 1.0
    for r in range(1, n_eff + 1):
        try:
            terms = [math.comb(r - 1, i) * bell[r - 1 - i] * x[i] for i in range(r)]
        except OverflowError as exc:
            raise NumericalError("intermediate overflow in Bell recursion") from exc
        val = math.fsum(terms)
        if not math.isfinite(val):
            raise NumericalError("intermediate overflow in Bell recursion")
        scale = max(scale, max((abs(t) for t in terms), default=0.0))
        bell.append(val)
    return _finish_linear(bell[n_eff], scale, m, n_eff)


def nesp_enumerate(values: Sequence[LogValue], n: int) -> LogValue:
    """Reference path: U_n by explicit enumeration of all n-subsets.

    Exponential in the input size; exists to certify nesp_log, never for
    production work.
    """
    logs = as_log_array(values)
    if n < 1:
        raise DomainError(f"nesp degree must be >= 1, got {n}")
    m = len(logs)
    n_eff = min(n, m)
    if (logs == np.inf).any():
        return INFINITE
    acc = -math.inf
    for combo in itertools.combinations(range(m), n_eff):
        acc = log_add(acc, float(sum(logs[i] for i in combo)))
    return LogValue(acc - log_comb(m, n_eff))


@lru_cache(maxsize=32)
def _subset_table(logs: tuple[float, ...], spec: MergeSpec) -> np.ndarray:
    """F over every subset of the (descending) values, indexed by bitmask.

    Bit i set means rank i+1 belongs to the subset.  The empty set gets the
    conventional value 1.  Each subset is evaluated through the public
    mixture semantics, keeping this path independent of the tail merges it
    certifies; the subsets of one size are merged as one batch of rows.
    """
    k = len(logs)
    masks = np.arange(1 << k)
    bits = (masks[:, None] >> np.arange(k)) & 1
    out = np.empty(1 << k)
    out[0] = 0.0
    for size in range(1, k + 1):
        rows = masks[np.bitwise_count(masks) == size]
        members = np.nonzero(bits[rows])[1].reshape(len(rows), size)
        out[rows] = mixture_from_logs(spec, np.asarray(logs)[members])
    out.setflags(write=False)
    return out


def brute_force_bound(
    values: Sequence[LogValue],
    constraint: str,
    r: int,
    spec: MergeSpec,
    j: int | None = None,
) -> LogValue:
    """Exact minimum of F over every qualifying index set (K <= 16).

    Constraints, over rank positions of the descending values:
      * ``intersects-top-r``: the set meets {1..r};
      * ``ge2-in-top-r``: the set holds at least two of {1..r};
      * ``exactly-j-missing-from-top-r``: exactly j of {1..r} are absent
        (requires ``j``; the empty set qualifies at j = r and counts as 1).

    Returns +inf when no set qualifies (the empty infimum).
    """
    logs = as_log_array(values)
    k = len(logs)
    if k > BRUTE_FORCE_MAX:
        raise DomainError(f"brute force capped at {BRUTE_FORCE_MAX} values, got {k}")
    if not 1 <= r <= k:
        raise DomainError(f"row {r} outside 1..{k}")
    order = np.argsort(-logs, kind="stable")
    table = _subset_table(tuple(float(x) for x in logs[order]), spec)
    masks = np.arange(1 << k, dtype=np.uint32)
    top = np.uint32((1 << r) - 1)
    in_top = np.bitwise_count(masks & top)
    if constraint == CONSTRAINT_INTERSECTS_TOP_R:
        qualify = in_top >= 1
    elif constraint == CONSTRAINT_GE2_IN_TOP_R:
        qualify = in_top >= 2
    elif constraint == CONSTRAINT_EXACTLY_J_MISSING:
        if j is None or not 0 <= j <= r:
            raise DomainError(f"need a column j in 0..{r}, got {j!r}")
        qualify = in_top == r - j
    else:
        raise DomainError(f"unknown constraint {constraint!r}")
    if not qualify.any():
        return LogValue(math.inf)
    return LogValue(table[qualify].min())


def _enumeration_pairs(rng: np.random.Generator):
    k = int(rng.integers(1, 13))
    n = int(rng.integers(1, k + 1))
    values = [LogValue.of(v) for v in 10.0 ** rng.uniform(-6, 6, size=k)]
    yield nesp_log(values, n).log_e, nesp_enumerate(values, n).log_e


def _linear_path_pairs(rng: np.random.Generator):
    values = [LogValue.of(v) for v in rng.uniform(0.1, 10.0, size=int(rng.integers(1, 51)))]
    for n in range(1, 7):
        ref = nesp_log(values, n).log_e
        if n <= 4:
            yield nesp_powersum(values, n).log_e, ref
        yield nesp_bell(values, n).log_e, ref


def _scan_pairs(rng: np.random.Generator):
    k = int(rng.integers(1, 11))
    values = [LogValue.of(v) for v in 10.0 ** rng.uniform(-4, 4, size=k)]
    ranked = RankedValues.from_values(values)
    for spec in (U1, U2, U1_U2_HALF):
        m = discovery_matrix(ranked, spec)
        for r in range(1, k + 1):
            sub = CONSTRAINT_GE2_IN_TOP_R if r >= 2 else CONSTRAINT_INTERSECTS_TOP_R
            yield (diagonal_row(ranked, r, spec).log_e,
                   brute_force_bound(values, CONSTRAINT_INTERSECTS_TOP_R, r, spec).log_e)
            yield subdiagonal_row(ranked, r, spec).log_e, brute_force_bound(values, sub, r, spec).log_e
            for j in range(r + 1):
                o = brute_force_bound(values, CONSTRAINT_EXACTLY_J_MISSING, r, spec, j=j)
                yield m.log10_entry(r, j) * LN10, o.log_e


_CHECKS = (
    ("nesp_log vs subset enumeration", 1e-9, _enumeration_pairs),
    ("power-sum and Bell paths vs nesp_log", 1e-8, _linear_path_pairs),
    ("scans vs brute-force subset minima", 1e-9, _scan_pairs),
)


def _worst_error(pairs) -> float:
    """Largest |got - want| over one instance's ``(got, want)`` pairs of log
    values: equal values (equal infinities included) score 0 and a NaN scores
    +inf, so the result is never NaN and ``max`` over instances keeps it."""
    got, want = np.array(list(pairs), dtype=float).reshape(-1, 2).T
    with np.errstate(invalid="ignore"):
        err = np.where(got == want, 0.0, np.abs(got - want))
    return float(np.where(np.isnan(err), np.inf, err).max(initial=0.0))


def certify(instances: int, seed: int) -> list[tuple[str, float, float]]:
    """One ``(name, worst, tol)`` row per check in ``_CHECKS``, each over
    ``instances`` draws from one generator seeded with ``seed``; a check
    passes when ``worst <= tol`` (absolute, natural log)."""
    rng = np.random.default_rng(seed)
    return [(name, max(_worst_error(pairs(rng)) for _ in range(instances)), tol)
            for name, tol, pairs in _CHECKS]
