"""Discovery bounds over ranked martingale values.

Given the descending values S^1 >= ... >= S^K and a symmetric merging
function F, every bound here is a minimum of F over a base extended by
whole tails {k..K}, evaluated by one log-domain kernel, ``tail_merges``: a
matrix cell (r, j) takes the base {j+1..r} and the tails k = r+1..K+1
(k = K+1 is the base alone).

  * discovery_matrix: the lower-triangular D[r, j] of those cell minima;
    row r read at level alpha as {j : D[r, j] < alpha} yields a confidence
    region for the number of justified discoveries among the top r.
  * diagonal_row: evidence that every one of the top-r discoveries is
    justified; the running minimum of row r through column r-1 (equivalently
    the regularized matrix diagonal), which equals the true minimum of F
    over every index set meeting the top-r set.
  * subdiagonal_row: the same allowing one exception; the running minimum
    through column r-2.
  * RowTracker: both row bounds for fixed rows, per simulation step, with
    one kernel call per merge spec.

``brute_force_bound`` evaluates the unrestricted minima over all 2^K index
sets and certifies the scans at desk scale.

Matrix and series containers store log10 floats (the serialization scale);
all scan arithmetic happens in natural logs and is converted once on storage.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DomainError
from .logvalue import LN10, LogValue
from .martingales import RankedValues
from .merging import (
    MergeSpec,
    as_log_array,
    log_comb,
    mixture_from_logs,
    suffix_esp_levels,
)

BRUTE_FORCE_MAX = 16

CONSTRAINT_INTERSECTS_TOP_R = "intersects-top-r"
CONSTRAINT_GE2_IN_TOP_R = "ge2-in-top-r"
CONSTRAINT_EXACTLY_J_MISSING = "exactly-j-missing-from-top-r"


# ---------------------------------------------------------------------------
# containers


@dataclass(frozen=True)
class DiagonalSeries:
    """Per-step values of one tracked row of the diagonal or subdiagonal."""

    row: int
    kind: str  # "diagonal" | "subdiagonal"
    log10_values: np.ndarray

    def __len__(self) -> int:
        return int(self.log10_values.size)

    def __getitem__(self, i: int) -> LogValue:
        return LogValue.from_log10(float(self.log10_values[i]))

    def final(self) -> LogValue:
        if not len(self):
            raise DomainError("empty series has no final value")
        return self[-1]


@dataclass(frozen=True)
class DiscoveryMatrix:
    """Lower-triangular bounds D[r, j], rows r = 1..K, columns j = 0..r.

    ``rows[r-1]`` holds the log10 entries of row r.  After ``regularize``
    each row is non-increasing in j, so row slices read as upper intervals.
    """

    rows: tuple[np.ndarray, ...]
    regularized: bool = False

    def __post_init__(self) -> None:
        for i, row in enumerate(self.rows):
            if row.size != i + 2:
                raise DomainError(f"row {i + 1} must have {i + 2} entries, got {row.size}")

    @property
    def k(self) -> int:
        return len(self.rows)

    def _check(self, r: int, j: int | None = None) -> None:
        if not 1 <= r <= self.k:
            raise DomainError(f"row {r} outside 1..{self.k}")
        if j is not None and not 0 <= j <= r:
            raise DomainError(f"column {j} outside 0..{r}")

    def log10_entry(self, r: int, j: int) -> float:
        self._check(r, j)
        return float(self.rows[r - 1][j])

    def entry(self, r: int, j: int) -> LogValue:
        return LogValue.from_log10(self.log10_entry(r, j))

    def row_log10(self, r: int) -> np.ndarray:
        self._check(r)
        return self.rows[r - 1].copy()


@dataclass(frozen=True)
class ConfidenceRegion:
    """{ j : D[r, j] < alpha } on a regularized row, plus its smallest member.

    On a non-increasing row the members form the upper interval
    {lower_bound, ..., r}; lower_bound is None when no column qualifies.
    """

    r: int
    alpha: float
    members: frozenset[int]
    lower_bound: int | None


# ---------------------------------------------------------------------------
# the tail-merge kernel


@lru_cache(maxsize=64)
def _tables(spec: MergeSpec, k: int) -> tuple:
    """Weight tables of one spec over set sizes m = 0..k, built once per (spec, k).

    Returns the (degree, log weight) pairs of positive weight; ``lc[deg, m]``,
    log C(m, deg) for m > deg and +inf for m <= deg (sizes whose degree-deg
    weight goes to the product term instead); and ``log_tail[m]``, the log of
    the weight at degrees >= m, -inf above the top degree and 0 at m = 0 (the
    empty set merges to 1).  The padding turns every out-of-range term into
    an exact ``logaddexp`` no-op.
    """
    weights = spec.weight_vector()
    tail = np.zeros(len(weights) + 1)
    tail[:-1] = np.cumsum(np.asarray(weights)[::-1])[::-1]
    with np.errstate(divide="ignore"):
        head = np.log(tail)[: k + 1]
    log_tail = np.full(k + 1, -np.inf)
    log_tail[: head.size] = head
    log_tail[0] = 0.0
    lc = np.full((len(weights), k + 1), np.inf)
    active = []
    for deg, w in enumerate(weights):
        if w > 0.0:
            active.append((deg, math.log(w)))
            lc[deg, deg + 1:] = [log_comb(m, deg) for m in range(deg + 1, k + 1)]
    lc.setflags(write=False)
    log_tail.setflags(write=False)
    return tuple(active), lc, log_tail


def suffix_logsums(logs: np.ndarray) -> np.ndarray:
    """Log of the product over each suffix logs[i:]; +inf columns for +inf
    entries (which must lead, descending order)."""
    k = len(logs)
    out = np.zeros(k + 1)
    n_inf = int(np.count_nonzero(np.isposinf(logs)))
    tail = logs[n_inf:]
    if tail.size:
        out[n_inf:k] = np.cumsum(tail[::-1])[::-1]
    out[:n_inf] = np.inf
    return out


def tail_merges(S, T, r, P, Psum, arity, spec: MergeSpec) -> np.ndarray:
    """F(base + {k..K}) for k = r+1..K+1 in natural log; k = K+1 is the base alone.

    ``S`` and ``T`` are ``suffix_esp_levels`` (through the spec's top degree)
    and ``suffix_logsums`` of the K descending values.  The base is given by
    its log esp levels ``P[a]`` (a = 0..top, -inf above its size), its log
    product ``Psum`` and its size ``arity``; each broadcasts against the
    K-r+1 tail columns, so one call scores a batch of bases, or a row whose
    base changes from cell to cell.  No set holding a +inf value may reach
    the kernel (its padding would meet it as inf - inf): callers fill those
    cells themselves.
    """
    k = T.size - 1
    active, lc, log_tail = _tables(spec, k)
    m = arity + np.arange(k - r, -1, -1)  # size of each candidate set
    out = None
    for deg, log_w in active:
        acc = P[0] + S[deg, r:]
        for a in range(1, deg + 1):
            acc = np.logaddexp(acc, P[a] + S[deg - a, r:])
        term = (log_w + acc) - lc[deg, m]
        out = term if out is None else np.logaddexp(out, term)
    # only sets of size <= top carry product weight: the last top+1 columns
    end = -spec.max_degree - 1
    tail = out[..., end:]
    np.logaddexp(tail, log_tail[m[..., end:]] + (Psum + T[r:])[..., end:], out=tail)
    return out


def _row_cells(
    logs: np.ndarray, S: np.ndarray, T: np.ndarray, r: int, spec: MergeSpec
) -> np.ndarray:
    """Raw matrix cells (r, 0..r) in natural log: base {j+1..r}, minimized over its tails."""
    n_inf = int(np.count_nonzero(np.isposinf(logs)))  # +inf values lead
    lo = min(n_inf, r)  # bases of the columns j < lo hold a +inf value
    prefix = logs[:r]
    levels = suffix_esp_levels(prefix, spec.max_degree)[:, lo:, None]
    sums = suffix_logsums(prefix)[lo:, None]
    arity = np.arange(r - lo, -1, -1)[:, None]
    merged = tail_merges(S, T, max(r, n_inf), levels, sums, arity, spec)
    cells = np.full(r + 1, math.inf if spec.has_positive_degree else 0.0)
    cells[lo:] = merged.min(axis=1)
    return cells


class RowTracker:
    """Diagonal and subdiagonal values of fixed rows, recomputed per step.

    Each row r is one candidate row over the tails {i+1..K}, i = 0..K, whose
    base changes per cell: the empty set for i <= r-1-w (the whole-suffix
    family of the exchange argument behind ``diagonal_row``) and the row's
    width-w base for i >= r, where w is 1 for the diagonal (base {r}) and 2
    for the subdiagonal (base {r-1, r}; 1 at r = 1).  The cells in between
    are left out.  A step makes one kernel call per spec, whatever the
    number of rows.
    """

    def __init__(self, k: int, rows: Sequence[int], diag_spec: MergeSpec, sub_spec: MergeSpec):
        self.rows = np.asarray(rows, dtype=np.int64)
        if not ((self.rows >= 1) & (self.rows <= k)).all():
            raise DomainError(f"tracked rows must lie in 1..{k}, got {list(rows)}")
        self._top = max(diag_spec.max_degree, sub_spec.max_degree)
        r = self.rows[:, None]
        self._last, self._prev = r - 1, np.maximum(r - 2, 0)
        cols = np.arange(k + 1)
        anchored = cols >= r
        self._anchored = anchored
        self._empty = np.where(anchored, 0.0, -np.inf)  # sends empty-base levels to -inf
        self._specs = []
        for spec, width in ((diag_spec, 1), (sub_spec, 2)):
            w = np.minimum(width, r)
            valid = anchored | (cols <= r - 1 - w)
            two = w == 2 if width == 2 else None
            self._specs.append((spec, width, two, valid, np.where(anchored, w, 0)))

    def step(self, sorted_logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Natural-log diagonal and subdiagonal values of each row, given the
        descending values."""
        S = suffix_esp_levels(sorted_logs, self._top)
        T = suffix_logsums(sorted_logs)
        if sorted_logs[0] == math.inf:  # kept out of the kernel: score raw matrix rows
            return tuple(
                np.array([_row_cells(sorted_logs, S, T, r, spec)[: max(r + 1 - width, 1)].min()
                          for r in self.rows])
                for spec, width, *_ in self._specs
            )
        last, prev = sorted_logs[self._last], sorted_logs[self._prev]
        out = []
        for spec, _, two, valid, arity in self._specs:
            # levels e_1, e_2 and log product of each row's base
            if two is None:
                e1, e2, prod = last + self._empty, -np.inf, last
            else:
                pair = prev + last
                e1 = np.where(two, np.logaddexp(last, prev), last) + self._empty
                e2 = np.where(two, pair, -np.inf) + self._empty
                prod = np.where(two, pair, last)
            levels = [0.0, e1, e2] + [-np.inf] * (spec.max_degree - 2)
            v = tail_merges(S, T, 0, levels, np.where(self._anchored, prod, 0.0), arity, spec)
            out.append(np.minimum.reduce(v, axis=1, where=valid, initial=np.inf))
        return tuple(out)


def _check_rank(ranked: RankedValues, r: int) -> None:
    if not 1 <= r <= ranked.k:
        raise DomainError(f"row {r} outside 1..{ranked.k}")


def _bound(ranked: RankedValues, r: int, j_hi: int, spec: MergeSpec) -> LogValue:
    """min over columns 0..j_hi of the raw matrix cells of row r.

    This running-minimum reading makes the bound the true minimum of F over
    every qualifying index set, not just the narrower family the plain scan
    reaches: by an exchange argument any qualifying set is dominated by
    either a single-anchor candidate or a whole-tail suffix {j..K}, and both
    families are covered by the row's cells.  It also makes the value agree
    bit for bit with the regularized matrix cell (r, j_hi).
    """
    _check_rank(ranked, r)
    logs = ranked.sorted_logs
    S = suffix_esp_levels(logs, spec.max_degree)
    cells = _row_cells(logs, S, suffix_logsums(logs), r, spec)
    return LogValue(float(cells[: j_hi + 1].min()))


def diagonal_row(ranked: RankedValues, r: int, spec: MergeSpec) -> LogValue:
    """Evidence that every one of the top-r discoveries is justified.

    The minimum of F over all index sets meeting the top-r set, equal to the
    regularized matrix entry at (r, r-1).
    """
    return _bound(ranked, r, r - 1, spec)


def subdiagonal_row(ranked: RankedValues, r: int, spec: MergeSpec) -> LogValue:
    """The same bound allowing one exception among the top-r discoveries.

    The minimum of F over all index sets holding at least two of the top r
    (at least one when r = 1), equal to the regularized matrix entry at
    (r, r-2); degree-2 merges fall back to the mean on singleton sets.
    """
    return _bound(ranked, r, max(r - 2, 0), spec)


def discovery_matrix(ranked: RankedValues, spec: MergeSpec) -> DiscoveryMatrix:
    """The full lower-triangular matrix of tail-merge minima (unregularized).

    Row r is one kernel call over its r+1 bases and K-r+1 tails: O(K^3)
    vectorized work for the fixed small-degree specs.  On a 2-vCPU Xeon
    (Python 3.11.7, numpy 2.4.6) K = 200 takes 0.07 s under u1, 0.10 s under
    u2 and 0.17 s under the u1/u2 mixture; K = 500 under u1 takes 0.8 s.
    """
    logs = ranked.sorted_logs
    S = suffix_esp_levels(logs, spec.max_degree)
    T = suffix_logsums(logs)
    rows = []
    for r in range(1, ranked.k + 1):
        row = _row_cells(logs, S, T, r, spec) / LN10
        row.setflags(write=False)
        rows.append(row)
    return DiscoveryMatrix(rows=tuple(rows), regularized=False)


def regularize(m: DiscoveryMatrix) -> DiscoveryMatrix:
    """Replace each row by its running minimum in j (idempotent)."""
    rows = []
    for row in m.rows:
        reg = np.minimum.accumulate(row)
        reg.setflags(write=False)
        rows.append(reg)
    return DiscoveryMatrix(rows=tuple(rows), regularized=True)


def confidence_region(m: DiscoveryMatrix, r: int, alpha: float) -> ConfidenceRegion:
    """Columns of row r lying strictly below alpha, on a regularized matrix."""
    if not m.regularized:
        raise DomainError("confidence_region requires a regularized matrix")
    if math.isnan(alpha) or alpha <= 0.0:
        raise DomainError(f"significance level must be positive, got {alpha!r}")
    m._check(r)
    alpha_log10 = math.log10(alpha) if alpha != math.inf else math.inf
    row = m.rows[r - 1]
    members = frozenset(int(j) for j in np.flatnonzero(row < alpha_log10))
    lower = min(members) if members else None
    return ConfidenceRegion(r=r, alpha=alpha, members=members, lower_bound=lower)


# ---------------------------------------------------------------------------
# brute-force oracle


@lru_cache(maxsize=32)
def _subset_table(logs: tuple[float, ...], spec: MergeSpec) -> np.ndarray:
    """F over every subset of the (descending) values, indexed by bitmask.

    Bit i set means rank i+1 belongs to the subset.  The empty set gets the
    conventional value 1.  Each subset is evaluated through the public
    mixture semantics, keeping this path independent of the suffix scans it
    certifies.
    """
    k = len(logs)
    arr = np.asarray(logs)
    out = np.empty(1 << k)
    out[0] = 0.0
    for mask in range(1, 1 << k):
        idx = [i for i in range(k) if mask >> i & 1]
        out[mask] = mixture_from_logs(spec, arr[idx])
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
    return LogValue(float(table[qualify].min()))


# ---------------------------------------------------------------------------
# color buckets


class ColorBucket(enum.Enum):
    GREEN = "green"
    YELLOW = "yellow"
    ORANGE = "orange"
    RED = "red"
    DARKRED = "darkred"
    BLACK = "black"


# Half-open buckets; each boundary belongs to the bucket above it.
_BUCKET_EDGES = (
    (math.log(1e20), ColorBucket.BLACK),
    (math.log(1e14), ColorBucket.DARKRED),
    (math.log(1e8), ColorBucket.RED),
    (math.log(100.0), ColorBucket.ORANGE),
    (math.log(10.0), ColorBucket.YELLOW),
)


def colorize(v: LogValue) -> ColorBucket:
    """Evidence bucket of a merged value: [0,10) green, [10,100) yellow,
    [100,1e8) orange, [1e8,1e14) red, [1e14,1e20) dark red, [1e20,inf] black."""
    for edge, bucket in _BUCKET_EDGES:
        if v.log_e >= edge:
            return bucket
    return ColorBucket.GREEN
