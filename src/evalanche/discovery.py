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
  * RowTracker: both row bounds for fixed rows over a block of simulation
    steps, with two kernel calls per merge spec; the anchored call scores
    only the steps that change a value it reads.

``oracles.brute_force_bound`` evaluates the unrestricted minima over all 2^K
index sets and certifies the scans at desk scale.

Threshold walk.  Under a spec of top degree 1 (u1, or a mixture of U_0 and
U_1) F is an increasing affine function of the mean, and the matrix and row
bounds skip most tails.  Fix a cell (r, j) and let e(k) be the exact log of F
over the base and the tail {k..K} of the stored doubles.  Going from
{k+1..K} to {k..K} adds S^k, no smaller than any value already in the tail:
it lowers the mean only if S^k lies below the mean, and once it does not, no
later (larger) value does.  So e is non-increasing and then non-decreasing
in k, a valley over the cell's tails (for the empty base, the base-alone end
k = K+1 merges the empty set to 1 and stands outside it).  Let delta bound
|c - e| for every computed cell c.  Score a window of tails [L, R] and let w
be its smallest c, taken at m.  If c(L) > w + 2 delta, then e(L) > w + delta
>= e(m) with m > L, the valley gives e(k) >= e(L) for every k < L, and so
c(k) >= e(k) - delta > w; likewise on the right.  When both edges pass, or
sit at the ends of the valley, no unscored tail computes to a value <= w,
and the stored minimum carries the bits of the minimum over all tails.  A
window holding a set of zeros (w = -inf) needs no check.

Per block of rows a vectorised binary search places each cell's valley at
the first k with S^k (a + D_k) <= the base's sum, where a is the base's size
and D_k the sum of 1 - S^t / S^k over the tail {k..K}.  The walk scores the
tails within 2 of it, and the two product-term columns (tail sizes 1 and 0),
through ``tail_merges``.  A cell whose window fails the check (flat stretches
such as ties, all-equal values or spreads near delta) goes to ``_row_cells``,
which scores every tail.  The search only places the window; correctness
rests on the check.

Rounding margin.  Let u = 2^-53, M = max |finite log| + log(K+1), which
bounds every partial log-sum, and W = max |log w| over the spec's weights.
Logs enter through ``RankedValues.from_logs``, ``merging.as_log_array`` or a
run's increments (``simulate.draw_streams``), each of which rejects a finite
log beyond ``MAX_ABS_LOG`` = 1e300; so M <= 1e300 + log(K+1), and a log
product of at most K + 1 <= 10,001 values stays finite: 10,001 x 1e300 <
1.8e308.  One ``np.logaddexp``, z = max + log1p(exp(-|x - y|)), adds a
local error below u(|z| + 3): u|z| from the final addition, and under 3u
from the rounded difference, exp and log1p, each within an ulp.  It passes
its inputs' errors on with weights summing to 1, so errors along a chain
add.

  * The suffix ``logaddexp.accumulate``: each tail level S[1, k] and each
    base level P[1] is a chain of at most K steps, within K u (M + 3).
  * The kernel's own steps: P[0] + S[1] and P[1] + S[0] add 0 exactly; its
    ``logaddexp`` adds u(M + 3); "+ log w" and "- log m" add u(M + W) each,
    plus 2uW and 2u log(K+1) for the ``math.log`` of w and m; a mixture's
    ``logaddexp`` with log w_0 adds u(M + W + 3) + 2uW.  The product term
    is an exact no-op on sets of two or more values; a one-value set takes
    its "+ log w" and ``logaddexp`` there instead, and the empty set is
    exact.  The product of a tail of s values is read from its top suffix
    level S[s, K-s]; at top degree 1, s <= 1 and that level is the value
    itself plus the empty set's 0.0, exact.

Together |c - e| < (K + 8) u (M + W + 4); the walk takes delta =
2^-50 (K + 8)(M + W + 4), eight times that.

Matrix and series containers store log10 floats (the serialization scale);
all scan arithmetic happens in natural logs and is converted once on storage.
A matrix is one (K, K+1) array whose cells above the diagonal are NaN.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DomainError
from .logvalue import LN10, LogValue
from .martingales import RankedValues
from .merging import MergeSpec, suffix_esp_levels


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

    ``log10`` is one (K, K+1) array of log10 entries, made read-only on
    construction: row r is ``log10[r-1, :r+1]`` and the cells with j > r hold
    NaN and are never read.  ``rows[r-1]`` is a read-only view of row r.
    After ``regularize`` each row is non-increasing in j, so row slices read
    as upper intervals.
    """

    log10: np.ndarray
    regularized: bool = False

    def __post_init__(self) -> None:
        if self.log10.ndim != 2 or self.log10.shape[1] != self.k + 1:
            raise DomainError(f"matrix must be a (K, K+1) array, got shape {self.log10.shape}")
        self.log10.setflags(write=False)

    @property
    def k(self) -> int:
        return self.log10.shape[0]

    @property
    def rows(self) -> tuple[np.ndarray, ...]:
        return tuple(self.log10[i, : i + 2] for i in range(self.k))

    def _check(self, r: int, j: int | None = None) -> None:
        if not 1 <= r <= self.k:
            raise DomainError(f"row {r} outside 1..{self.k}")
        if j is not None and not 0 <= j <= r:
            raise DomainError(f"column {j} outside 0..{r}")

    def log10_entry(self, r: int, j: int) -> float:
        self._check(r, j)
        return float(self.log10[r - 1, j])

    def entry(self, r: int, j: int) -> LogValue:
        return LogValue.from_log10(self.log10_entry(r, j))


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

# Cells per block: a tracked run scores B = max(1, TRACK_BLOCK_CELLS // (K+1))
# steps per RowTracker.step call (40 at K = 200), and discovery_matrix scores
# B rows per block.  That already amortises the per-call numpy overhead: on a
# 2-vCPU Xeon (Python 3.11.7, numpy 2.4.6) 256-step blocks tracked the paper
# study no faster and raised a 2,000-step run's Python-heap peak from 1.25 MB
# to 6.6 MB.
TRACK_BLOCK_CELLS = 2 ** 13


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
            # C(m, deg) = C(m-1, deg) * m / (m - deg) from C(deg, deg) = 1: the
            # exact integers math.comb gives, one multiply and divide per cell
            combs = itertools.accumulate(range(deg + 1, k + 1), lambda c, m: c * m // (m - deg),
                                         initial=1)
            lc[deg, deg + 1:] = list(map(math.log, itertools.islice(combs, 1, None)))
    lc.setflags(write=False)
    log_tail.setflags(write=False)
    return tuple(active), lc, log_tail


def tail_merges(S, tails, P, Psum, arity, spec: MergeSpec) -> np.ndarray:
    """F(base + {i+1..K}) in natural log for tail starts i; i = K is the base alone.

    ``S`` is ``suffix_esp_levels`` (through the spec's top degree) of K
    descending values, with any leading batch axes, and K comes from it.
    ``tails`` is an int r, for the contiguous tails i = r..K, or a slice
    r:stop of them, i = r..stop-1 (the result columns read only
    ``S[..., :, r:stop]``), or an integer array of tail starts gathered from
    one unbatched ``S`` and broadcasting against the bases.  The base is given
    by its log esp levels ``P[a]`` (a = 0..len(P)-1; the levels above are zero
    and their exact ``logaddexp`` no-ops are skipped), its log product ``Psum``
    and its size ``arity``; each broadcasts against the tail columns (in a
    contiguous call ``Psum`` is the same for every column), so one call scores
    a batch of bases, or a row whose base changes from cell to cell.  ``Psum``
    is read only for bases of at most top values, top being the spec's top
    degree.  Only sets of at most top values carry the product term, and the
    product of a tail of s <= top values is its top level, ``S[..., s, K-s]``.
    Every cell takes the same elementwise operations either way, so a gathered
    cell, or a cell of a shorter run, carries the bits of its counterpart in
    the full contiguous call.  No set holding a +inf value may reach the
    kernel (its padding would meet it as inf - inf): callers fill those cells
    themselves.
    """
    k = S.shape[-1] - 1
    active, lc, log_tail = _tables(spec, k)
    contiguous = np.ndim(tails) == 0
    if contiguous:
        start, stop, _ = (tails if isinstance(tails, slice) else slice(tails, None)).indices(k + 1)
        cols, size = slice(start, stop), np.arange(k - start, k - stop, -1)  # tail sizes
    else:
        cols, size = tails, k - tails
    m = arity + size  # size of each candidate set
    out = None
    for deg, log_w in active:
        acc = P[0] + S[..., deg, cols]
        for a in range(1, min(deg, len(P) - 1) + 1):
            acc = np.logaddexp(acc, P[a] + S[..., deg - a, cols])
        term = (log_w + acc) - lc[deg, m]
        out = term if out is None else np.logaddexp(out, term)
    top = spec.max_degree
    if contiguous:
        p = max(start, k - top)  # the first product-term column
        if p < stop:
            i = np.arange(p, stop)
            tail, prod = out[..., p - start:], Psum + S[..., k - i, i]
            np.logaddexp(tail, log_tail[m[..., p - start:]] + prod, out=tail)
    else:
        carry = size <= top  # the other cells read the empty tail's e_0 = 0.0
        i = np.where(carry, tails, k)
        np.logaddexp(out, log_tail[m] + (Psum + S[..., k - i, i]), out=out, where=carry)
    return out


def _row_cells(logs: np.ndarray, S: np.ndarray, r: int, cols: np.ndarray,
               spec: MergeSpec) -> np.ndarray:
    """Raw cells (r, j) of the columns j in ``cols`` in natural log, each over
    all tails of its base {j+1..r}, which must hold no +inf value: one kernel
    call on the row's prefix levels, whose top level holds the product of
    each base of at most top values."""
    top = spec.max_degree
    levels = suffix_esp_levels(logs[:r], top)
    prod = levels[np.minimum(r - cols, top), cols][:, None]
    i0 = max(r, int(np.count_nonzero(np.isposinf(logs))))  # tails hold no +inf value
    return tail_merges(S, i0, levels[:, cols, None], prod, (r - cols)[:, None], spec).min(axis=1)


def _walk_margin(logs: np.ndarray, spec: MergeSpec) -> float:
    """The rounding margin delta of the threshold walk (module docstring)."""
    k = logs.size
    active, _, _ = _tables(spec, k)
    scale = (float(np.abs(logs[np.isfinite(logs)]).max(initial=0.0)) + math.log(k + 1)
             + max(abs(log_w) for _, log_w in active))
    return 2.0 ** -50 * (k + 8) * (scale + 4.0)


def _walk(logs: np.ndarray, S: np.ndarray, r: np.ndarray, n_inf: int,
          spec: MergeSpec) -> tuple[np.ndarray, np.ndarray]:
    """The threshold walk (module docstring) over the rows r, a column, under a
    spec of top degree 1: the cells of columns 0..max(r) and the mask of those
    it certified, each of which carries the bits of ``_row_cells``.  The
    product term reads a base's product only when it holds at most one
    value: 0.0 for the empty base, else its e_1 level, the value itself."""
    k = logs.size
    r1 = int(r[-1, 0])
    jc = np.clip(np.arange(r1 + 1), np.minimum(n_inf, r), r)  # outside lo..r: a row cell's copy
    # each row's bases {j+1..r} from its own padded prefix: -inf is an exact
    # identity of the suffix logaddexp, so every base carries the bits of the
    # row's unpadded suffix levels
    pad = np.arange(r1) >= r
    levels = suffix_esp_levels(np.where(pad, -np.inf, logs[:r1]), 1)
    base_sum = np.take_along_axis(levels[:, 1], jc, axis=1)  # log of the base's sum
    arity = r - jc
    prod = np.where(arity == 0, 0.0, base_sum)  # read for bases of at most one value

    def score(tails):
        return tail_merges(S, tails, (0.0, base_sum), prod, arity, spec)

    # the valley runs over the tail starts i0..hi; the base-alone end i = K is
    # a mean only for a nonempty base
    i0 = np.maximum(r, n_inf)
    hi = np.maximum(np.where(arity == 0, k - 1, k), i0)
    # place each valley: the first i with x_i (a + D_i) <= the base's sum,
    # where D_i is the sum of 1 - x_t / x_i over t >= i
    finite = np.where(np.isfinite(logs), logs, 0.0)
    dev = np.maximum(np.arange(k, 0, -1) - np.exp(S[1, :k] - finite), 0.0)
    a, b = np.broadcast_to(i0, hi.shape), hi
    with np.errstate(divide="ignore"):  # log 0 for an empty base over tied values
        while (a < b).any():
            mid = np.minimum((a + b) // 2, k - 1)
            falls = logs[mid] + np.log(arity + dev[mid]) > base_sum
            a, b = np.where((a < b) & falls, mid + 1, a), np.where((a < b) & ~falls, mid, b)
    # score the window [left, right] of the five tails within 2 of the valley
    left = np.maximum(i0, np.minimum(a - 2, hi - 4))
    right = np.minimum(left + 4, hi)
    first = low = score(left)
    for t in range(1, 5):
        last = score(np.minimum(left + t, right))
        low = np.minimum(low, last)
    edge = low + 2.0 * _walk_margin(logs, spec)
    certified = ((left == i0) | (first > edge)) & ((right == hi) | (last > edge))
    certified |= low == -math.inf  # a set of zeros: nothing computes lower
    # the two product-term columns, tail sizes 1 and 0
    cells = np.minimum(low, np.minimum(score(np.maximum(k - 1, i0)), score(np.full_like(i0, k))))
    return cells, certified


def _rows(logs: np.ndarray, S: np.ndarray, r0: int, r1: int, spec: MergeSpec) -> np.ndarray:
    """Raw cells of rows r0..r1 in natural log, shape (r1-r0+1, r1+1), NaN above
    the diagonal: the cells the threshold walk certifies under a spec of top
    degree 1, and every other cell over all its tails."""
    n_inf = int(np.count_nonzero(np.isposinf(logs)))
    r = np.arange(r0, r1 + 1)[:, None]
    j = np.arange(r1 + 1)
    lo = np.minimum(n_inf, r)  # bases of the columns j < lo hold a +inf value
    todo = (j >= lo) & (j <= r)  # in-row cells whose bases hold no +inf value
    if spec.max_degree == 1:
        cells, certified = _walk(logs, S, r, n_inf, spec)
        todo &= ~certified
    else:
        cells = np.empty(todo.shape)
    for n in np.flatnonzero(todo.any(axis=1)):
        cols = np.flatnonzero(todo[n])
        cells[n, cols] = _row_cells(logs, S, r0 + n, cols, spec)
    cells[j < lo] = math.inf if spec.has_positive_degree else 0.0
    cells[j > r] = math.nan
    return cells


class RowTracker:
    """Diagonal and subdiagonal values of fixed rows over blocks of steps.

    Each row r is one candidate row over the tails {i+1..K}, i = 0..K, whose
    base changes per cell: the empty set for i <= r-1-w (the whole-suffix
    family of the exchange argument behind ``diagonal_row``) and the row's
    width-w base for i >= r, where w is 1 for the diagonal (base {r}) and 2
    for the subdiagonal (base {r-1, r}; 1 at r = 1).  The cells in between
    are left out.  The empty-base cells are the same for every row, so a
    step scores them once per spec, through the largest cut r-1-w of its rows
    (fixed on construction; column 0 when every row's cut is -1), and each
    row reads their prefix minimum through its own cut; the anchored cells
    take one kernel call per spec over the columns from the smallest tracked
    row on, whatever the number of rows.  Both calls read the block's one
    table of suffix levels.

    The anchored cells read only the values from position c = max(lo-2, 0)
    on (0-based), lo being the smallest tracked row: the suffix levels from
    column lo on are right-to-left ``logaddexp`` chains over the values from
    lo on, the base values sit at positions r-2 and r-1 >= c, and the
    product term reads tails from lo on.  So a step whose values from c on
    carry the int64 bits of the step before it in the block (+0.0 and -0.0
    differ) takes that step's anchored minima unscored, with the same bits.
    The first step of each block is always scored; the tracker keeps no
    state between calls.
    """

    def __init__(self, k: int, rows: Sequence[int], diag_spec: MergeSpec, sub_spec: MergeSpec):
        self.rows = np.asarray(rows, dtype=np.int64)
        if not ((self.rows >= 1) & (self.rows <= k)).all():
            raise DomainError(f"tracked rows must lie in 1..{k}, got {list(rows)}")
        self._top = max(diag_spec.max_degree, sub_spec.max_degree)
        r = self.rows[:, None]
        self._last, self._prev = r - 1, np.maximum(r - 2, 0)
        self._lo = int(self.rows.min(initial=k))  # first anchored column of any row
        self._c = max(self._lo - 2, 0)  # the first value any anchored cell reads
        self._anchored = anchored = np.arange(self._lo, k + 1) >= r
        self._specs = []
        for spec, width in ((diag_spec, 1), (sub_spec, 2)):
            w = np.minimum(width, r)
            # last empty-base column of each row (-1: none), the end of the
            # empty-base run, and the anchored arity
            cut = (r - 1 - w)[:, 0]
            self._specs.append((spec, width, w == 2, cut, int(cut.max(initial=0)) + 1,
                                np.where(anchored, w, 0)))

    def step(self, block: np.ndarray) -> np.ndarray:
        """Natural-log (diagonal, subdiagonal) values, shape (2, B, R), of the
        R rows after each of B steps, given a (B, K) block of descending values."""
        out = np.empty((2, len(block), self.rows.size))
        inf_rows = block[:, 0] == math.inf
        for b in np.flatnonzero(inf_rows):  # kept out of the kernel: the row bounds themselves
            out[:, b] = [[_bound(block[b], r, max(r - width, 0), spec) for r in self.rows]
                         for spec, width, *_ in self._specs]
        block = block[~inf_rows]
        S = suffix_esp_levels(block, self._top)
        # a step whose values from position c on carry the bits of the step
        # before it takes that step's anchored minima
        bits = block[:, self._c:].view(np.int64)
        fresh = np.ones(len(block), dtype=bool)
        fresh[1:] = (bits[1:] != bits[:-1]).any(axis=1)
        idx = np.flatnonzero(fresh)
        # the fresh steps' levels from column c on, as if over K - c values:
        # the kernel reads its tables by set size, and no anchored set holds more
        S_fresh = S[idx, None, :, self._c:]
        last, prev = block[:, self._last][idx], block[:, self._prev][idx]
        for n, (spec, _, two, cut, stop, arity) in enumerate(self._specs):
            # levels e_0, e_1, e_2 and log product of each row's base, {r} or
            # {r-1, r}; a width-1 base's e_2 of -inf is an exact no-op
            pair = prev + last
            e1 = np.where(two, np.logaddexp(last, prev), last)
            levels, prod = (0.0, e1, np.where(two, pair, -np.inf)), np.where(two, pair, last)
            empty = np.minimum.accumulate(tail_merges(S, slice(0, stop), (0.0,), 0.0, 0, spec),
                                          axis=-1)
            v = tail_merges(S_fresh, self._lo - self._c, levels, prod, arity, spec)
            anchored = np.minimum.reduce(v, axis=-1, where=self._anchored, initial=np.inf)
            out[n, ~inf_rows] = np.minimum(np.where(cut < 0, np.inf, empty[:, cut]),
                                           anchored[np.cumsum(fresh) - 1])
        return out


def _bound(logs: np.ndarray, r: int, j_hi: int, spec: MergeSpec) -> float:
    """min over columns 0..j_hi of the natural-log raw cells of row r of the logs.

    This running-minimum reading makes the bound the true minimum of F over
    every qualifying index set, not just the narrower family the plain scan
    reaches: by an exchange argument any qualifying set is dominated by
    either a single-anchor candidate or a whole-tail suffix {j..K}, and both
    families are covered by the row's cells.  It also makes the value agree
    bit for bit with the regularized matrix cell (r, j_hi).
    """
    if not 1 <= r <= logs.size:
        raise DomainError(f"row {r} outside 1..{logs.size}")
    S = suffix_esp_levels(logs, spec.max_degree)
    return float(_rows(logs, S, r, r, spec)[0, : j_hi + 1].min())


def diagonal_row(ranked: RankedValues, r: int, spec: MergeSpec) -> LogValue:
    """Evidence that every one of the top-r discoveries is justified.

    The minimum of F over all index sets meeting the top-r set, equal to the
    regularized matrix entry at (r, r-1).
    """
    return LogValue(_bound(ranked.sorted_logs, r, r - 1, spec))


def subdiagonal_row(ranked: RankedValues, r: int, spec: MergeSpec) -> LogValue:
    """The same bound allowing one exception among the top-r discoveries.

    The minimum of F over all index sets holding at least two of the top r
    (at least one when r = 1), equal to the regularized matrix entry at
    (r, r-2); degree-2 merges fall back to the mean on singleton sets.
    """
    return LogValue(_bound(ranked.sorted_logs, r, max(r - 2, 0), spec))


def discovery_matrix(ranked: RankedValues, spec: MergeSpec) -> DiscoveryMatrix:
    """The full lower-triangular matrix of tail-merge minima (unregularized).

    Rows are scored in blocks of ``max(1, TRACK_BLOCK_CELLS // (K+1))``.
    Under a spec of top degree 1 (u1, or a mixture of U_0 and U_1) the
    threshold walk scores seven kernel cells per matrix cell after an
    O(log K) search, O(K^2 log K) work in all; every other spec scores each
    cell over all its tails, one kernel call per row and O(K^3) work.
    README's numerical design notes give the timings and how they were
    taken.
    """
    logs = ranked.sorted_logs
    S = suffix_esp_levels(logs, spec.max_degree)
    k = ranked.k
    out = np.full((k, k + 1), np.nan)
    block = max(1, TRACK_BLOCK_CELLS // (k + 1))
    for r0 in range(1, k + 1, block):
        r1 = min(r0 + block - 1, k)
        out[r0 - 1 : r1, : r1 + 1] = _rows(logs, S, r0, r1, spec)
    out /= LN10
    return DiscoveryMatrix(out)


def regularize(m: DiscoveryMatrix) -> DiscoveryMatrix:
    """Replace each row by its running minimum in j (idempotent); the NaN
    cells above the diagonal follow the row's last cell and stay NaN."""
    return DiscoveryMatrix(np.minimum.accumulate(m.log10, axis=1), regularized=True)


def confidence_region(m: DiscoveryMatrix, r: int, alpha: float) -> ConfidenceRegion:
    """Columns of row r lying strictly below alpha, on a regularized matrix."""
    if not m.regularized:
        raise DomainError("confidence_region requires a regularized matrix")
    if math.isnan(alpha) or alpha <= 0.0:
        raise DomainError(f"significance level must be positive, got {alpha!r}")
    m._check(r)
    row = m.log10[r - 1, : r + 1]
    members = frozenset(int(j) for j in np.flatnonzero(row < math.log10(alpha)))
    lower = min(members) if members else None
    return ConfidenceRegion(r=r, alpha=float(alpha), members=members, lower_bound=lower)

