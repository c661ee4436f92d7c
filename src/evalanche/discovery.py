"""Discovery bounds over ranked martingale values.

Given the descending values S^1 >= ... >= S^K and a symmetric merging
function F, every bound here is a minimum of F over a base extended by
whole tails {k..K}, evaluated by one log-domain kernel, ``tail_merges``: a
matrix cell (r, j) takes the base {j+1..r} and the tails k = r+1..K+1
(k = K+1 is the base alone).

  * discovery_matrix: the lower-triangular D[r, j] of those cell minima;
    row r read at level alpha as {j : D[r, j] < alpha} yields a confidence
    region for the number of justified discoveries among the top r.
  * row_bounds: the running minimum of given rows r through column
    max(r - width, 0), scored through the matrix's row blocks: at width 1
    (diagonal_row) the true minimum of F over every index set meeting the
    top-r set, at width 2 (subdiagonal_row) the same allowing one exception.
  * RowTracker: both row bounds for fixed rows over a block of simulation
    steps, with two kernel calls per merge spec; the anchored call scores
    only the steps that change a value it reads, and the whole-suffix cells
    are scored from one column below the smallest cut, under a certificate.
    A step led by +inf values takes the same calls over a finite stand-in
    for them, and its cells whose sets hold one are set to +inf after.

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
the full-tail scorer below.  The search only places the window; correctness
rests on the check.

Tail-block bound.  Every cell under a spec of top degree t >= 2 (u2, u5, the
mixtures), and every cell the walk leaves uncertified, goes to the full-tail
scorer ``_row_cells``, which skips blocks of tails under a bound that needs
no valley.  For tail starts s <= i <= e the sets are nested: base + {e+1..K}
lies in base + {i+1..K}, which lies in base + {s+1..K}, of sizes m(e) <= m(i)
<= m(s).  Each e_n grows with the set (the values are nonnegative) and
C(m, n) grows with m, so when m(e) > t, F(set(i)) = sum_n w_n e_n(set(i)) /
C(m(i), n) >= sum_n w_n e_n(set(e)) / C(m(s), n) for nonnegative weights,
which ``MergeSpec`` enforces: one kernel cell, at tail e with log C(m, n)
read at m(s), bounds the whole block.  The last t + 1 tails, which carry the
product term, are always scored; a block of the others is skipped when its
computed bound b exceeds w + 2 delta, w the smallest cell of (r, j) scored so
far.  Then b's exact value exceeds w + delta and lies below e(i) for every i
in the block, so no cell there computes to a value <= w, and since w only
falls as cells are scored, a block skipped against an earlier w stays
skipped: the stored minimum carries the bits of the one over all tails, as
in the walk.  Delta covers b: it is a kernel cell whose one other operation,
"- log C(m(s), n)", reads the log of an integer C(m(s), n) <= (K+1)^t, within
2uM as every C(m, n) is (below).  The scorer takes blocks of 16 tails, then
blocks of 4 within the blocks it keeps, then single tails (``TAIL_BLOCKS``);
each level scores each block's last cell, a candidate for w, and its bound in
one kernel call.  A cell that keeps every block of 16 (ties, all-equal
values) scores its tails in one contiguous call instead.

Whole-suffix certificate.  The empty-base cell of tail start i is F over the
K - i smallest values, and it does not decrease as i moves left from a
column where K - i is at least the top degree.  Adding x >= max A to a set A
of m >= n values never lowers U_n: U_n(A + {x}) >= U_n(A) exactly when x >=
U_n(A) / U_{n-1}(A), and by Newton's inequalities that ratio is at most
U_1(A) / U_0(A), the mean of A, which is at most x.  So the same holds for
every mixture with nonnegative weights.  ``RowTracker`` scores these cells
from a column a on and takes w, a row's minimum through its cut.  If c(a) >
w + 2 delta, then e(i) >= e(a) > w + delta for every i < a, so no cell left
of a computes to a value <= w, and the minimum over columns 0..cut carries
the bits of the one over a..cut.  A minimum of -inf needs no check, nor
does one of +inf: the tracker's cell a is +inf only when its tail holds a
+inf value, and then so does the tail of every cell left of a.

Rounding margin.  Let u = 2^-53, t >= 1 the top degree, L = max |finite
log|, M = t (L + log(K+1)) and W = max |log w| over the spec's weights.  M
bounds every partial log-sum: a nonzero level e_b, b <= t, of at most K
values lies between e^(-bL) and C(K, b) e^(bL) <= (K+1)^b e^(bL), and so
does each product e_a e_(d-a) of a base level and a tail level the kernel
forms.  Logs enter through ``RankedValues.from_logs``,
``merging.as_log_array`` or a run's increments (``simulate.draw_streams``),
each of which rejects a finite log beyond ``MAX_ABS_LOG`` = 1e300; so a log
product of at most K + 1 <= 10,001 values stays finite: 10,001 x 1e300 <
1.8e308.  One ``np.logaddexp``, z = max + log1p(exp(-|x - y|)), adds a
local error below u(|z| + 3): u|z| from the final addition, and under 3u
from the rounded difference, exp and log1p, each within an ulp.  It passes
its inputs' errors on with weights summing to 1, so errors along a chain
add.  With X = M + W + 4, each rounding below adds at most u X.

  * The suffix ``logaddexp.accumulate``: level b at column i is a chain of
    at most K steps over the terms x_j + S[b-1, j+1], each sum rounded once
    (exact at b = 1, where S[0] is 0.0).  So level b is within (bK + b - 1)
    u X, and so is a base's level b built from the values: the walk's e_1
    level, the tracker's e_1 and e_2 of one or two values.
  * The kernel's ``acc`` at degree d: each term P[a] + S[d-a] is within
    (dK + d - 1) u X (two levels and one rounding, or one level plus an
    exact 0.0), and its at most d ``logaddexp`` steps add d u X.
  * "+ log w" and "- log C(m, d)" round once each, and the ``math.log`` of w
    and of the integer C(m, d) <= (K+1)^t are within 2uW and 2uM: 4 u X in
    all.  The mixture's ``logaddexp`` over at most t + 1 degrees adds t u X.
  * The product term of a set of at most t values: the base's product and
    the tail's top level S[s, K-s] are within (tK + t - 2) u X together;
    their sum and "+ log_tail" round once each, ``log_tail`` (the log of a
    float sum of at most t + 1 weights) is within 2 u X, and the
    ``logaddexp`` adds u X.

Together |c - e| <= (tK + 3t + 4) u X <= t (K + 8) u (M + W + 4); the walk
and the tracker's certificate take delta = 2^-50 t (K + 8)(M + W + 4), eight
times that.

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

# Cells per block of the row scans: _row_blocks scores max(1,
# TRACK_BLOCK_CELLS // (K+1)) rows per block and _row_cells at most
# TRACK_BLOCK_CELLS * 144 // (top+1)^2 cells x tails a chunk, so neither heap
# grows with K.  A tracked run's blocks are sized by STEP_BLOCK_CELLS instead
# (RowTracker).
TRACK_BLOCK_CELLS = 2 ** 13
STEP_BLOCK_CELLS = 60_000


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


def tail_merges(S, tails, P, Psum, arity, spec: MergeSpec, k: int, comb_size=None) -> np.ndarray:
    """F(base + {i+1..K}) in natural log for tail starts i; i = K is the base alone.

    ``S`` is ``suffix_esp_levels`` (through the spec's top degree) of K = ``k``
    descending values, with any leading batch axes; only the columns read
    need be there.  ``tails`` is an int r, for the contiguous tails i = r..K,
    or a slice r:stop of them, i = r..stop-1 (the result columns read only
    ``S[..., :, r:stop]``), or an integer array of tail starts gathered from
    one unbatched ``S`` and broadcasting against the bases.  ``comb_size``,
    when given, is the set size at which each cell reads log C(m, deg), in
    place of its own: a tail-block bound (module docstring).  The base is given
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
    kernel (its padding would meet it as inf - inf): ``_row_cells`` skips
    those cells, and ``RowTracker`` scores them over a finite stand-in and
    sets them to +inf after.
    """
    active, lc, log_tail = _tables(spec, k)
    contiguous = np.ndim(tails) == 0
    if contiguous:
        start, stop, _ = (tails if isinstance(tails, slice) else slice(tails, None)).indices(k + 1)
        cols, size = slice(start, stop), np.arange(k - start, k - stop, -1)  # tail sizes
    else:
        cols, size = tails, k - tails
    m = arity + size  # size of each candidate set
    comb = m if comb_size is None else comb_size
    level = (lambda b: S[..., b, cols]) if contiguous else (lambda b: S[b].take(tails))
    # in place: each degree's base-and-tail sums in acc and part (acc widens
    # once if a base level is wider than P[0]), and its term in acc too when
    # its lc cells do not widen it
    out = acc = part = None
    for deg, log_w in active:
        acc = np.add(P[0], level(deg), out=acc)
        for a in range(1, min(deg, len(P) - 1) + 1):
            part = np.add(P[a], level(deg - a), out=part)
            acc = np.logaddexp(acc, part, out=acc if acc.shape == part.shape else None)
        np.add(log_w, acc, out=acc)
        lcd = lc[deg].take(comb)
        term = np.subtract(acc, lcd, out=acc if lcd.shape == acc.shape[acc.ndim - lcd.ndim:] else None)
        if out is None:
            out, acc = term, None if term is acc else acc
        else:
            np.logaddexp(out, term, out=out)
    top = spec.max_degree
    if contiguous:
        p = max(start, k - top)  # the first product-term column
        if p < stop:
            i = np.arange(p, stop)
            tail, prod = out[..., p - start:], Psum + S[..., k - i, i]
            np.logaddexp(tail, log_tail[m[..., p - start:]] + prod, out=tail)
    else:
        carry = size <= top  # the other cells read the empty tail's e_0 = 0.0
        if carry.any():
            i = np.where(carry, tails, k)
            np.logaddexp(out, log_tail[m] + (Psum + S[..., k - i, i]), out=out, where=carry)
    return out


# Tail-block lengths of the full-tail scorer, widest first (module docstring).
TAIL_BLOCKS = (16, 4, 1)


def _row_cells(logs: np.ndarray, S: np.ndarray, r, cols: np.ndarray, spec: MergeSpec) -> np.ndarray:
    """Raw cells (r, j) of the columns j in ``cols`` in natural log, r one row
    or one per column, in ascending order, each the minimum over all tails of
    its base {j+1..r}, which must hold no +inf value, scored by tail blocks
    (``_tail_minima``).

    The cells go in chunks of consecutive cells, so the heap stays flat in
    K.  A chunk's work is its cells x tails, with each cell's top + 1 product
    tails counted four times over (their call holds about four times the
    temporaries per tail of the blocked calls), and since the temporaries
    grow with the degree a chunk holds at most TRACK_BLOCK_CELLS * 144 //
    (top + 1)^2 of it (``TRACK_BLOCK_CELLS * 16`` at top degree 2), and at
    least one cell."""
    k, top = logs.size, spec.max_degree
    r = np.broadcast_to(r, cols.shape)
    i0 = np.maximum(r, np.count_nonzero(np.isposinf(logs)))  # tails hold no +inf value
    edge = 2.0 * _margin(np.abs(logs[np.isfinite(logs)]).max(initial=0.0), k, spec)
    work = np.cumsum(k + 1 - i0 + 4 * (top + 1))
    budget = TRACK_BLOCK_CELLS * 144 // (top + 1) ** 2
    out, start = np.empty(cols.size), 0
    while start < cols.size:
        stop = max(int(np.searchsorted(work, (work[start - 1] if start else 0) + budget, side="right")), start + 1)
        out[start:stop] = _tail_minima(logs, S, r[start:stop], cols[start:stop], i0[start:stop], spec, edge)
        start = stop
    return out


def _tail_minima(logs, S, r, j, i0, spec: MergeSpec, edge: float) -> np.ndarray:
    """The cells (r, j) of one chunk over the tails i0..K, by tail blocks
    (module docstring).

    Each base's levels come from its row's prefix, padded with -inf past r:
    an exact identity of the suffix ``logaddexp``, so every base carries the
    bits of its row's own prefix levels, whose top level holds the product of
    a base of at most top values.  The last top + 1 tails carry the product
    term and are always scored.  The others go in blocks of ``TAIL_BLOCKS``
    tails: each level scores its blocks' last cells and bounds in one call
    and passes on the rest of each block whose bound is not above the cell's
    best by ``edge`` (2 delta); the last level scores single tails.  A cell
    that keeps every block of the first level scores its tails in one
    contiguous call per tail start instead, which costs less per tail."""
    k, top = logs.size, spec.max_degree
    first = np.diff(r, prepend=-1) != 0  # each row's first cell (r ascends)
    rows, row = r[first], np.cumsum(first) - 1
    levels = suffix_esp_levels(np.where(np.arange(rows[-1]) >= rows[:, None], -np.inf, logs[:rows[-1]]), top)
    arity = r - j
    P = levels[row, :, j].T  # each base's levels, (top+1, cells)
    prod = P[np.minimum(arity, top), np.arange(j.size)]

    def score(cell, tails, comb_size=None):
        return tail_merges(S, tails, P[:, cell], prod[cell], arity[cell], spec, k, comb_size)

    best = score(np.arange(j.size)[:, None], np.maximum(k - top + np.arange(top + 1), i0[:, None])).min(axis=1)
    # live blocks: a cell and its tails lo..hi, at first every tail before the product tails
    own = np.flatnonzero(i0 < k - top)
    lo, hi = i0[own], np.full(own.size, k - top - 1)
    for length in TAIL_BLOCKS:
        if not own.size:
            break
        start = lo[:, None] + length * np.arange(-(-int((hi - lo).max() + 1) // length))
        last = np.minimum(start + length - 1, hi[:, None])  # a block past hi repeats its last tail
        if length == 1:
            np.minimum.at(best, own, score(own[:, None], last).min(axis=1))
            break
        # each block's last cell and its bound, lc read at the sizes m(last) and m(start)
        start = np.minimum(start, last)
        ends, bound = score(own[:, None], last, arity[own, None] + (k - np.stack([last, start])))
        np.minimum.at(best, own, ends.min(axis=1))
        keep = (start < last) & (bound <= best[own, None] + edge)
        if length == TAIL_BLOCKS[0]:  # a cell that keeps every block: its tails in one call per tail start
            dense = (keep | (start == last)).all(axis=1)
            for i in set(lo[dense].tolist()):
                c = own[dense & (lo == i)]
                best[c] = np.minimum(best[c], score(c[:, None], slice(i, k - top)).min(axis=1))
            keep[dense] = False
        n, b = np.nonzero(keep)
        own, lo, hi = own[n], start[n, b], last[n, b] - 1
    return best


def _margin(big, k: int, spec: MergeSpec):
    """The rounding margin delta (module docstring) of the kernel cells over
    K values whose largest |finite log| is ``big`` (a float, or an array of
    them), under a spec of top degree at least 1."""
    top = spec.max_degree
    active, _, _ = _tables(spec, k)
    scale = top * (big + math.log(k + 1)) + max(abs(log_w) for _, log_w in active)
    return 2.0 ** -50 * top * (k + 8) * (scale + 4.0)


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
        return tail_merges(S, tails, (0.0, base_sum), prod, arity, spec, k)

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
    edge = low + 2.0 * _margin(np.abs(logs[np.isfinite(logs)]).max(initial=0.0), k, spec)
    certified = ((left == i0) | (first > edge)) & ((right == hi) | (last > edge))
    certified |= low == -math.inf  # a set of zeros: nothing computes lower
    # the two product-term columns, tail sizes 1 and 0
    cells = np.minimum(low, np.minimum(score(np.maximum(k - 1, i0)), score(np.full_like(i0, k))))
    return cells, certified


def _row_blocks(logs: np.ndarray, rows: np.ndarray, spec: MergeSpec):
    """Yields (r, cells) for each block of ``max(1, TRACK_BLOCK_CELLS // (K+1))``
    of the ascending rows, all over one table of suffix levels: the rows and
    their raw cells in natural log, NaN above the diagonal, the cells the walk
    certifies under a spec of top degree 1 and every other cell through the
    full-tail scorer, in one call per block."""
    S = suffix_esp_levels(logs, spec.max_degree)
    n_inf = int(np.count_nonzero(np.isposinf(logs)))
    size = max(1, TRACK_BLOCK_CELLS // (logs.size + 1))
    for b in range(0, rows.size, size):
        r = rows[b : b + size, None]
        j = np.arange(r[-1, 0] + 1)
        lo = np.minimum(n_inf, r)  # bases of the columns j < lo hold a +inf value
        todo = (j >= lo) & (j <= r)  # in-row cells whose bases hold no +inf value
        if spec.max_degree == 1:
            cells, certified = _walk(logs, S, r, n_inf, spec)
            todo &= ~certified
        else:
            cells = np.empty(todo.shape)
        n, cols = np.nonzero(todo)
        if cols.size:
            cells[n, cols] = _row_cells(logs, S, r[n, 0], cols, spec)
        cells[j < lo] = math.inf if spec.has_positive_degree else 0.0
        cells[j > r] = math.nan
        yield r[:, 0], cells


def row_bounds(logs: np.ndarray, rows: Sequence[int], width: int, spec: MergeSpec) -> np.ndarray:
    """Natural-log bounds of the given rows of the descending logs, in the
    order given: for each row r the minimum of its raw cells over the columns
    0..max(r - width, 0), width 1 for the diagonal and 2 for the subdiagonal.

    This running-minimum reading makes the bound the true minimum of F over
    every qualifying index set, not just the narrower family the plain scan
    reaches: by an exchange argument any qualifying set is dominated by
    either a single-anchor candidate or a whole-tail suffix {j..K}, and both
    families are covered by the row's cells.  It also makes the value agree
    bit for bit with the regularized matrix cell (r, max(r - width, 0)).
    """
    for r in rows:  # in the order given, before int64: a huge row is out of range, not an overflow
        if not 1 <= r <= logs.size:
            raise DomainError(f"row {r} outside 1..{logs.size}")
    distinct, order = np.unique(np.asarray(rows, dtype=np.int64), return_inverse=True)
    bounds = [row[: max(r - width, 0) + 1].min()
              for block, cells in _row_blocks(logs, distinct, spec) for r, row in zip(block, cells)]
    return np.array(bounds, dtype=float)[order]


class RowTracker:
    """Diagonal and subdiagonal values of fixed rows over blocks of steps.

    Each row r is one candidate row over the tails {i+1..K}, i = 0..K, whose
    base changes per cell: the empty set for i <= r-1-w (the whole-suffix
    family of the exchange argument behind ``row_bounds``) and the row's
    width-w base for i >= r, where w is 1 for the diagonal (base {r}) and 2
    for the subdiagonal (base {r-1, r}; 1 at r = 1).  The cells in between
    are left out.  The empty-base cells are the same for every row, so a
    step scores them once per spec, through the largest cut r-1-w of its rows
    (fixed on construction), and each row reads their prefix minimum through
    its own cut; the anchored cells take one kernel call per spec over the
    columns from the smallest tracked row on, whatever the number of rows.
    Both calls read one table of suffix levels per block, built over its
    fresh steps only (below): the anchored call reads it as built, and the
    empty-base call reads it expanded to every step.

    That table covers the values from column a on, one column below the
    smallest cut and no further right than c below: each level is a
    right-to-left chain, so its columns carry the bits of the whole table's
    columns a..K.  The empty-base cells are scored from column a on, and a
    step is certified by the whole-suffix certificate (module docstring):
    cell a exceeds every row's minimum by 2 delta, or that minimum is -inf
    or +inf (the +inf-led steps below).
    The steps it leaves open, such as early steps whose values from a on are
    all tied, score their empty-base cells again from column 0 over the whole
    table.  a is 0 when the smallest cut is at most 1, and when K - a would
    be below the top degree; then every step takes that path.

    A step led by n_inf values of +inf takes the same calls, over a copy of
    the block that stands 0.0 in for them: no suffix level from column n_inf
    on reads them, and the fresh mask (below) reads the original bits.
    Under a spec of positive degree each empty-base cell whose tail starts
    before n_inf is then set to +inf, and so is each row whose base holds a
    +inf value (r - w < n_inf); under top degree 0 every set merges to log
    w_0 already.  Like finite steps, these carry the tracker's bits, which
    may differ from ``row_bounds``' in the last few places.

    The anchored cells read only the values from position c = max(lo-2, 0)
    on (0-based), lo being the smallest tracked row: the suffix levels from
    column lo on are right-to-left ``logaddexp`` chains over the values from
    lo on, the base values sit at positions r-2 and r-1 >= c, and the
    product term reads tails from lo on.  So a step whose values from c on
    carry the int64 bits of the step before it in the block (+0.0 and -0.0
    differ) takes that step's anchored minima unscored, with the same bits,
    and its table from column c on, computing only the columns a..c-1 of its
    own (``_step_levels``).  The first step of each block is always scored;
    the tracker keeps no state between calls.  Tests certify its values
    against ``oracles.brute_force_bound`` to 1e-9, as well as against the
    row scans, and against the same tracker with a = 0 bit for bit.

    ``block`` is the number of steps one call should take, which
    ``run_experiment`` uses as its block length: max(1, STEP_BLOCK_CELLS //
    max(n, 2K)), n = (top+1)(K-a+1) + R(K-lo+1) being the cells a step
    holds in its table and scores in its anchored call, R the number of
    rows.  A call has a fixed cost that a longer block spreads over more
    steps, while the heap grows with the block, by about 10 KB a step for
    rows 98-101 at K = 200: the table, the anchored kernel's temporaries
    and the block's copies of its K values a step, which the 2K floor
    counts for rows near K, where n is small.  That gives 81 steps for rows
    98-101 at K = 200, 144 for row 100, 17 for rows 500-503 at K = 1000 and
    30 for row 1000 there, and keeps a 2,000-step run's heap under 2 MB
    (``test_tracked_run_peak_memory``).  A step's values do not depend on
    the block it is scored in.
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
            self._specs.append((spec, w == 2, cut, int(cut.max(initial=0)) + 1, np.where(anchored, w, 0)))
        # the table's first column a (docstring); 0 without rows
        a = min(max(min(int(cut.min(initial=k)) for *_, cut, _, _ in self._specs) - 1, 0), self._c)
        self._a = a if k - a >= self._top and self.rows.size else 0
        # steps per call (docstring)
        scored = (self._top + 1) * (k - self._a + 1) + self.rows.size * (k - self._lo + 1)
        self.block = max(1, STEP_BLOCK_CELLS // max(scored, 2 * k))

    def step(self, block: np.ndarray) -> np.ndarray:
        """Natural-log (diagonal, subdiagonal) values, shape (2, B, R), of the
        R rows after each of B steps, given a (B, K) block of descending values."""
        out = np.empty((2, len(block), self.rows.size))
        # a step whose values from position c on carry the bits of the step
        # before it takes that step's table from column c on and its anchored minima
        bits = block[:, self._c:].view(np.int64)
        fresh = np.ones(len(block), dtype=bool)
        fresh[1:] = (bits[1:] != bits[:-1]).any(axis=1)
        n_inf = np.zeros((len(block), 1), dtype=np.int64)  # each step's count of leading +inf values
        if (block[:, 0] == math.inf).any():  # a copy only then: the block's copies bound its length
            inf = block == math.inf
            n_inf, block = inf.sum(axis=1, keepdims=True), np.where(inf, 0.0, block)
        S_fresh, S = self._step_levels(block, fresh)
        lows, certified = self._empty_base(S, block, self._a, n_inf)
        del S  # the anchored call reads only the fresh steps' table: a lower heap peak
        redo = np.flatnonzero(~certified)
        if redo.size:  # a minimum the certificate leaves open: every column from 0
            lows[:, redo] = self._empty_base(suffix_esp_levels(block[redo], self._top), block[redo], 0,
                                             n_inf[redo])[0]
        # the fresh steps' levels from column c on, as if over K - c values:
        # the kernel reads its tables by set size, and no anchored set holds more
        S_fresh = S_fresh[:, None, :, self._c - self._a:]
        last, prev = block[:, self._last][fresh], block[:, self._prev][fresh]
        for n, (spec, two, cut, _, arity) in enumerate(self._specs):
            # levels e_0, e_1, e_2 and log product of each row's base, {r} or
            # {r-1, r}; a width-1 base's e_2 of -inf is an exact no-op
            pair = prev + last
            e1 = np.where(two, np.logaddexp(last, prev), last)
            levels, prod = (0.0, e1, np.where(two, pair, -np.inf)), np.where(two, pair, last)
            v = tail_merges(S_fresh, self._lo - self._c, levels, prod, arity, spec, block.shape[1] - self._c)
            anchored = np.minimum.reduce(v, axis=-1, where=self._anchored, initial=np.inf)
            out[n] = np.minimum(lows[n], anchored[np.cumsum(fresh) - 1])
            if spec.has_positive_degree:  # a base {r-w+1..r} holding a +inf value: r - w < n_inf
                out[n, cut + 1 < n_inf] = math.inf
        return out

    def _step_levels(self, block: np.ndarray, fresh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Suffix levels of the block's values from column a on, built over the
        fresh steps only: the fresh steps' table, shape (F, top+1, K-a+1), which
        the anchored call reads, and every step's, shape (B, top+1, W), over
        only the W = max(stop - a, c - a + 1) columns that the empty-base call
        (through the largest stop of the two specs) and the reused steps read,
        with the bits of those columns of ``suffix_esp_levels(block[:, a:],
        top)``.  A reused step takes its fresh step's row, whose columns from c
        on are its own, and recomputes columns a..c-1 by continuing each
        degree's chain from column c in one ``logaddexp.accumulate``: the
        operations of ``suffix_esp_levels``, in top calls whatever c - a."""
        a, c = self._a, self._c
        width = max(max(stop for *_, stop, _ in self._specs) - a, c - a + 1)
        S_fresh = suffix_esp_levels(block[fresh, a:], self._top)
        if fresh.all():
            return S_fresh, S_fresh[..., :width]
        S = S_fresh[np.cumsum(fresh) - 1, :, :width]
        reused = np.flatnonzero(~fresh)
        x, n = block[reused, a:c], c - a
        for b in range(1, self._top + 1):
            chain = np.concatenate([S[reused, b, n, None], (x + S[reused, b - 1, 1:n + 1])[:, ::-1]], axis=1)
            S[reused, b, :n + 1] = np.logaddexp.accumulate(chain, axis=1)[:, ::-1]
        return S_fresh, S

    def _empty_base(self, S: np.ndarray, block: np.ndarray, a: int,
                    n_inf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each row's minimum of the empty-base cells over columns a..cut per
        spec, shape (2, B, R) (+inf for a row with none), from the levels S of
        the block's values from column a on, each step's n_inf leading +inf
        values stood in for (shape (B, 1)); and the mask of the steps at
        which it is certified to be the minimum over columns 0..cut (every
        step at a = 0)."""
        lows = np.empty((2, len(block), self.rows.size))
        certified = np.ones(len(block), dtype=bool)
        if a:  # each step's largest |finite log|, for the margin
            big = np.abs(block, out=np.zeros(block.shape), where=np.isfinite(block)).max(axis=-1)
        for n, (spec, _, cut, stop, _) in enumerate(self._specs):
            cells = tail_merges(S, slice(0, stop - a), (0.0,), 0.0, 0, spec, block.shape[1] - a)
            if spec.has_positive_degree:  # the tails i < n_inf hold a +inf value
                cells[np.arange(a, stop) < n_inf] = math.inf
            low = np.minimum.accumulate(cells, axis=-1)[:, cut - a]
            lows[n] = np.where(cut < 0, np.inf, low)
            # cell a over every row's minimum through its cut, by 2 delta; at
            # top degree 0 every nonempty set merges to the same bits, log w_0
            if a and spec.max_degree:
                edge = low + 2.0 * _margin(big, block.shape[1], spec)[:, None]
                certified &= ((cells[:, :1] > edge) | np.isinf(low)).all(axis=1)
        return lows, certified


def diagonal_row(ranked: RankedValues, r: int, spec: MergeSpec) -> LogValue:
    """Evidence that every one of the top-r discoveries is justified.

    The minimum of F over all index sets meeting the top-r set, equal to the
    regularized matrix entry at (r, r-1).
    """
    return LogValue(row_bounds(ranked.sorted_logs, [r], 1, spec)[0])


def subdiagonal_row(ranked: RankedValues, r: int, spec: MergeSpec) -> LogValue:
    """The same bound allowing one exception among the top-r discoveries.

    The minimum of F over all index sets holding at least two of the top r
    (at least one when r = 1), equal to the regularized matrix entry at
    (r, r-2); degree-2 merges fall back to the mean on singleton sets.
    """
    return LogValue(row_bounds(ranked.sorted_logs, [r], 2, spec)[0])


def discovery_matrix(ranked: RankedValues, spec: MergeSpec) -> DiscoveryMatrix:
    """The full lower-triangular matrix of tail-merge minima (unregularized).

    Under a spec of top degree 1 (u1, or a mixture of U_0 and U_1) the
    threshold walk scores seven kernel cells per matrix cell after an
    O(log K) search, O(K^2 log K) work in all; every other spec goes through
    the tail-block bound, in kernel calls over chunks of cells of many rows:
    O(K^3) work at worst (all-equal values keep every block), and 23% of the
    full kernel's cells x tails at K = 500 and 36% at K = 200 on the
    benchmark's values under u2, block ends and bounds counted.  README's
    numerical design notes give the timings and how they were taken.
    """
    out = np.full((ranked.k, ranked.k + 1), np.nan)
    for r, cells in _row_blocks(ranked.sorted_logs, np.arange(1, ranked.k + 1), spec):
        out[r - 1, : r[-1] + 1] = cells
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

