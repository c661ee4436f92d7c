"""Independent reference implementations used to certify the fast paths.

Everything here deliberately avoids the library's own kernels: subset sums
are enumerated with itertools and reduced with scipy's logsumexp, so a bug
in the production DP or suffix scans cannot hide in its own oracle.  The
matrix CSV oracle reads a line at a time, where the library reads a row at
a time; it shares only the header split.  The bucket oracle multiplies a
cell by ln 10 and compares the product with ``colorize``'s natural-log
edges, where the library compares the cell with log10 edges.  The linear
value oracle goes through ``LogValue``, which ``formats.linear_value`` skips.
The matrix and series CSV writer oracles format every cell and line afresh,
where the library reuses the text of a value equal bit for bit to the one
before it in its column; the series SVG oracle formats every point's x and y
in one format call per series, where the library shares x texts across
series and reuses y texts down runs; the matrix JSON oracle dumps the whole report at
once, where the library streams it a row at a time.  The two-table tail-merge
kernel is the library's earlier ``tail_merges``, which read each tail's
product from a second table of suffix log products; the library now reads
it from the suffix levels' top level, and must carry the same bits.  The
full-kernel oracle does call the library's ``tail_merges``, but over every
tail of every matrix cell, with neither the threshold walk nor the
tail-block bound: it certifies what those skip, while the kernel itself is
certified by the two-table oracle and by brute force.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import logsumexp

from evalanche import LogValue, MergeSpec
from evalanche import discovery
from evalanche.discovery import DiscoveryMatrix, _tables
from evalanche.errors import DomainError
from evalanche.formats import (
    _BUCKET_NAMES, _LINE_COLORS, MATRIX_HEADER, SERIES_HEADER, _data_lines, _json_float_out, _svg,
    bucket_indexes, json_text, linear_cell,
)
from evalanche.logvalue import LN10


def nesp_log_oracle(values: list[LogValue], n: int) -> float:
    """log U_n by full enumeration of n-subsets."""
    logs = np.array([v.log_e for v in values])
    m = len(logs)
    n_eff = min(n, m)
    combos = [sum(logs[i] for i in c) for c in itertools.combinations(range(m), n_eff)]
    return float(logsumexp(combos) - math.log(math.comb(m, n_eff)))


def mixture_log_oracle(spec: MergeSpec, values: list[LogValue]) -> float:
    m = len(values)
    weights = spec.weight_vector()
    terms = []
    for deg, w in enumerate(weights):
        if w <= 0.0:
            continue
        if deg == 0:
            terms.append(math.log(w))
        else:
            terms.append(math.log(w) + nesp_log_oracle(values, deg))
    return float(logsumexp(terms))


def subset_min_oracle(
    values: list[LogValue], spec: MergeSpec, qualifies
) -> float:
    """min of the merge over every index subset passing ``qualifies(subset)``.

    The empty set counts as 1 when it qualifies.  Exponential; K <= 12 or so.
    """
    k = len(values)
    best = math.inf
    for size in range(k + 1):
        for combo in itertools.combinations(range(k), size):
            if not qualifies(frozenset(combo)):
                continue
            if size == 0:
                best = min(best, 0.0)
            else:
                best = min(best, mixture_log_oracle(spec, [values[i] for i in combo]))
    return best


def linear_value_oracle(log10_value: float) -> float | None:
    """The linear value of a series or report cell read off a ``LogValue``:
    None when it is infinite or a nonzero value reads 0.0.  NaN raises
    DomainError."""
    v = LogValue.from_log10(log10_value)
    x = v.value
    if math.isinf(x) or (x == 0.0 and not v.is_zero):
        return None
    return x


def bucket_oracle(log10: np.ndarray) -> np.ndarray:
    """Bucket indexes of log10 cells as ``colorize`` buckets ``LogValue.from_log10``
    of each: the natural log ``log10 * LN10``, +-inf where it overflows, against
    the natural-log edges."""
    with np.errstate(over="ignore"):
        return bucket_indexes(np.asarray(log10) * LN10)


def matrix_csv_oracle(m: DiscoveryMatrix) -> str:
    """``formats.matrix_csv`` a cell at a time: every cell's repr and bucket name."""
    lines = [f"{MATRIX_HEADER}\n"]
    for r, row in enumerate(m.rows, start=1):
        for j, (x, b) in enumerate(zip(row.tolist(), bucket_oracle(row).tolist())):
            lines.append(f"{r},{j},{x!r},{_BUCKET_NAMES[b]}\n")
    return "".join(lines)


def matrix_json_oracle(m: DiscoveryMatrix) -> str:
    """``matrix --format json`` as one ``json_text`` of the whole report."""
    rows = [[_json_float_out(x) for x in row.tolist()] for row in m.rows]
    return json_text({"k": m.k, "regularized": m.regularized, "rows": rows})


def series_csv_oracle(records) -> str:
    """``formats.series_csv`` a line at a time: every value's repr and linear cell."""
    lines = [f"{SERIES_HEADER}\n"]
    for step, row, kind, l10 in records:
        lines.append(f"{step},{row},{kind},{l10!r},{linear_cell(l10)}\n")
    return "".join(lines)


def series_svg_oracle(series) -> str:
    """``formats.series_svg`` with each series' points made in one format call
    of all its x and y values."""
    width, height = 640, 400
    logs = np.concatenate([np.empty(0), *(s.log10_values for s in series)])
    finite = logs[np.isfinite(logs)]
    lo = (float(finite.min()) if finite.size else -1.0) - 0.5
    hi = (float(finite.max()) if finite.size else 1.0) + 0.5
    span = hi - lo if hi > lo else 1.0
    n = max((len(s) for s in series), default=1)
    lines = []
    if lo < 0.0 < hi:
        y0 = height - (0.0 - lo) / span * height
        lines.append(
            f'<line x1="0" y1="{y0:.2f}" x2="{width}" y2="{y0:.2f}" '
            f'stroke="#cccccc" stroke-width="1"/>\n'
        )
    for idx, s in enumerate(sorted(series, key=lambda s: (s.kind, s.row))):
        color = _LINE_COLORS[idx % len(_LINE_COLORS)]
        v = np.nan_to_num(s.log10_values, nan=hi, posinf=hi, neginf=lo)
        x = np.arange(1, len(s) + 1) / n * width
        y = height - (v - lo) / span * height
        xy = np.column_stack((x, y)).ravel().tolist()
        points = " ".join(["%.2f,%.2f"] * len(s)) % tuple(xy)
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>\n'
        )
    return "".join(_svg(width, height, lines))


def parse_matrix_csv_oracle(text: str) -> DiscoveryMatrix:
    """``formats.parse_matrix_csv`` a line at a time: every line's fields,
    index and NaN checks in file order, then the end-of-text check, then the
    first wrong bucket."""
    index = ["0", "1"]  # str(i) for i = 0..r: one more entry per row
    r, j = 1, 0  # the next cell
    values, buckets = [], []
    for n, line in _data_lines(text, MATRIX_HEADER, "matrix"):
        try:
            r_s, j_s, l10, bucket = line.split(",")
            value = float(l10)
        except ValueError:
            raise DomainError(f"line {n}: expected r,j,log10_value,bucket, got {line!r}") from None
        if r_s != index[r] or j_s != index[j]:
            raise DomainError(f"line {n}: expected cell ({r},{j}), got {line!r}")
        if math.isnan(value):
            raise DomainError(f"line {n}: cell ({r},{j}) is NaN")
        values.append(value)
        buckets.append(_BUCKET_NAMES.index(bucket) if bucket in _BUCKET_NAMES else -1)
        j += 1
        if j > r:
            r, j = r + 1, 0
            index.append(str(r))
    if not values:
        raise DomainError("matrix CSV has no cells")
    if j:
        raise DomainError(f"matrix CSV ends at line {n}, inside row {r}: missing cell ({r},{j})")
    log10 = np.array(values)
    want = bucket_oracle(log10)
    wrong = np.flatnonzero(np.array(buckets) != want)
    if wrong.size:
        i = int(wrong[0])
        n, line = next(itertools.islice(_data_lines(text, MATRIX_HEADER, "matrix"), i, None))
        raise DomainError(f"line {n}: bucket of {line!r} must be {_BUCKET_NAMES[want[i]]}")
    k = r - 1
    out = np.full((k, k + 1), np.nan)
    out[np.tril_indices(k, 1, k + 1)] = log10
    return DiscoveryMatrix(out)


def suffix_logsums_oracle(logs: np.ndarray) -> np.ndarray:
    """Log of the product over each suffix logs[..., i:], shape (..., K+1); +inf
    columns for +inf entries (which must lead, descending order)."""
    inf = np.isposinf(logs)
    out = np.zeros(logs.shape[:-1] + (logs.shape[-1] + 1,))
    sums = np.cumsum(np.where(inf, 0.0, logs)[..., ::-1], axis=-1)[..., ::-1]
    out[..., :-1] = np.where(inf, np.inf, sums)
    return out


def tail_merges_oracle(S, T, tails, P, Psum, arity, spec: MergeSpec) -> np.ndarray:
    """``discovery.tail_merges`` with the tail products taken from ``T``, the
    ``suffix_logsums_oracle`` of the last t >= min(top, K) values, whose
    column c holds the product of the tail from i = K - t + c."""
    k = S.shape[-1] - 1
    active, lc, log_tail = _tables(spec, k)
    contiguous = np.ndim(tails) == 0
    if contiguous:
        start, stop, _ = (tails if isinstance(tails, slice) else slice(tails, None)).indices(k + 1)
        cols, size = slice(start, stop), np.arange(k - start, k - stop, -1)
    else:
        cols, size = tails, k - tails
    m = arity + size
    out = None
    for deg, log_w in active:
        acc = P[0] + S[..., deg, cols]
        for a in range(1, min(deg, len(P) - 1) + 1):
            acc = np.logaddexp(acc, P[a] + S[..., deg - a, cols])
        term = (log_w + acc) - lc[deg, m]
        out = term if out is None else np.logaddexp(out, term)
    top = spec.max_degree
    first = k + 1 - T.shape[-1]
    if contiguous:
        p = max(start, k - top)
        if p < stop:
            tail, prod = out[..., p - start:], Psum + T[..., p - first:stop - first]
            np.logaddexp(tail, log_tail[m[..., p - start:]] + prod, out=tail)
    else:
        carry = size <= top
        at = np.where(carry, tails - first, -1)
        np.logaddexp(out, log_tail[m] + (Psum + T[..., at]), out=out, where=carry)
    return out


def full_kernel_oracle(logs: np.ndarray, spec: MergeSpec) -> np.ndarray:
    """Natural-log raw cells of every row of the descending logs, a (K, K+1)
    array with NaN above the diagonal: each cell the minimum of
    ``discovery.tail_merges`` over every tail of its base, called on the
    row's own prefix levels for a chunk of the row's columns at a time, at
    most ``TRACK_BLOCK_CELLS * 64`` cells x tails."""
    k, top = logs.size, spec.max_degree
    S = discovery.suffix_esp_levels(logs, top)
    n_inf = int(np.isposinf(logs).sum())
    out = np.full((k, k + 1), np.nan)
    for r in range(1, k + 1):
        lo, i0 = min(n_inf, r), max(r, n_inf)  # bases of the columns j < lo hold a +inf value
        out[r - 1, :lo] = math.inf if spec.has_positive_degree else 0.0
        levels = discovery.suffix_esp_levels(logs[:r], top)
        cols = np.arange(lo, r + 1)
        step = max(1, discovery.TRACK_BLOCK_CELLS * 64 // (k + 1 - i0))  # columns per call
        for j in (cols[c:c + step] for c in range(0, cols.size, step)):
            cells = discovery.tail_merges(S, i0, levels[:, j, None], levels[np.minimum(r - j, top), j, None],
                                          (r - j)[:, None], spec, k)
            out[r - 1, j] = cells.min(axis=1)
    return out
