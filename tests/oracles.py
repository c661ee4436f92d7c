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
before it in its column; the matrix JSON oracle dumps the whole report at
once, where the library streams it a row at a time.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import logsumexp

from evalanche import LogValue, MergeSpec
from evalanche.discovery import DiscoveryMatrix
from evalanche.errors import DomainError
from evalanche.formats import (
    _BUCKET_NAMES, MATRIX_HEADER, SERIES_HEADER, _data_lines, _json_float_out, bucket_indexes,
    json_text, linear_cell,
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
