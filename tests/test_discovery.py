import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evalanche import (
    CONSTRAINT_EXACTLY_J_MISSING,
    CONSTRAINT_GE2_IN_TOP_R,
    CONSTRAINT_INTERSECTS_TOP_R,
    ColorBucket,
    LogValue,
    RankedValues,
    U1,
    U1_U2_HALF,
    U2,
    brute_force_bound,
    colorize,
    confidence_region,
    diagonal_row,
    discovery_matrix,
    regularize,
    subdiagonal_row,
)
from evalanche.discovery import DiscoveryMatrix, RowTracker
from evalanche.errors import DomainError
from oracles import subset_min_oracle


def lv(*xs):
    return [LogValue.of(float(x)) for x in xs]


def ranked(*xs):
    return RankedValues.from_values(lv(*xs))


SPECS = (U1, U2, U1_U2_HALF)


# ---------------------------------------------------------------------------
# worked values


def test_diagonal_worked_values():
    r = ranked(8, 4, 1)
    assert diagonal_row(r, 2, U1).value == pytest.approx(2.5, rel=1e-12)
    assert diagonal_row(r, 1, U1).value == pytest.approx(13.0 / 3.0, rel=1e-12)
    ones = ranked(1, 1, 1, 1)
    for row in range(1, 5):
        for spec in SPECS:
            assert diagonal_row(ones, row, spec).value == pytest.approx(1.0, abs=1e-12)


def test_subdiagonal_worked_values():
    r = ranked(8, 4, 1)
    assert subdiagonal_row(r, 2, U2).value == pytest.approx(44.0 / 3.0, rel=1e-12)
    # row 1 keeps a singleton base, so degree 2 falls back to the mean
    assert subdiagonal_row(r, 1, U2).value == pytest.approx(8.0, rel=1e-12)
    ones = ranked(1, 1, 1)
    assert subdiagonal_row(ones, 2, U2).value == pytest.approx(1.0, abs=1e-12)


def test_matrix_worked_values():
    m = discovery_matrix(ranked(8, 4, 1), U1)
    expected = {
        (1, 0): 13 / 3, (1, 1): 1.0,
        (2, 0): 13 / 3, (2, 1): 2.5, (2, 2): 1.0,
        (3, 0): 13 / 3, (3, 1): 2.5, (3, 2): 1.0, (3, 3): 1.0,
    }
    for (row, col), want in expected.items():
        assert m.entry(row, col).value == pytest.approx(want, rel=1e-12)


def test_matrix_all_ones_and_single_value():
    m = discovery_matrix(ranked(1, 1, 1), U1_U2_HALF)
    for row in range(1, 4):
        for col in range(row + 1):
            assert m.entry(row, col).value == pytest.approx(1.0, abs=1e-12)
    m1 = discovery_matrix(ranked(7), U2)
    assert m1.entry(1, 0).value == pytest.approx(7.0)
    assert m1.entry(1, 1).value == 1.0


def test_brute_force_worked_values():
    vals = lv(8, 4, 1)
    assert brute_force_bound(vals, CONSTRAINT_INTERSECTS_TOP_R, 2, U1).value == pytest.approx(2.5)
    assert brute_force_bound(vals, CONSTRAINT_GE2_IN_TOP_R, 2, U2).value == pytest.approx(44 / 3)
    assert brute_force_bound(lv(9), CONSTRAINT_EXACTLY_J_MISSING, 1, U1, j=1).value == 1.0
    # no subset can put two members in a one-element top set
    assert brute_force_bound(lv(9, 3), CONSTRAINT_GE2_IN_TOP_R, 1, U1).is_infinite


def test_brute_force_guards():
    vals = lv(*range(1, 18))
    with pytest.raises(DomainError):
        brute_force_bound(vals, CONSTRAINT_INTERSECTS_TOP_R, 1, U1)
    with pytest.raises(DomainError):
        brute_force_bound(lv(1, 2), "bogus", 1, U1)
    with pytest.raises(DomainError):
        brute_force_bound(lv(1, 2), CONSTRAINT_EXACTLY_J_MISSING, 1, U1)  # j missing


# ---------------------------------------------------------------------------
# oracle certification (the acceptance suite runs the full battery)


def test_scans_match_brute_force_random():
    rng = np.random.default_rng(404)
    for _ in range(40):
        k = int(rng.integers(1, 9))
        vals = [LogValue.of(v) for v in 10.0 ** rng.uniform(-4, 4, size=k)]
        rk = RankedValues.from_values(vals)
        for spec in SPECS:
            m = discovery_matrix(rk, spec)
            for row in range(1, k + 1):
                d = diagonal_row(rk, row, spec).log_e
                o = brute_force_bound(vals, CONSTRAINT_INTERSECTS_TOP_R, row, spec).log_e
                assert abs(d - o) <= 1e-9
                ds = subdiagonal_row(rk, row, spec).log_e
                constraint = CONSTRAINT_GE2_IN_TOP_R if row >= 2 else CONSTRAINT_INTERSECTS_TOP_R
                assert abs(ds - brute_force_bound(vals, constraint, row, spec).log_e) <= 1e-9
                for col in range(row + 1):
                    cell = m.log10_entry(row, col) * math.log(10.0)
                    o = brute_force_bound(
                        vals, CONSTRAINT_EXACTLY_J_MISSING, row, spec, j=col
                    ).log_e
                    assert abs(cell - o) <= 1e-9


def test_brute_force_itself_matches_independent_enumeration():
    rng = np.random.default_rng(17)
    for _ in range(8):
        k = int(rng.integers(2, 7))
        vals = [LogValue.of(v) for v in 10.0 ** rng.uniform(-2, 2, size=k)]
        srt = sorted(range(k), key=lambda i: (-vals[i].log_e, i))
        for row in (1, k // 2 + 1):
            want = subset_min_oracle(
                [vals[i] for i in srt], U1_U2_HALF,
                lambda s, row=row: bool(s & set(range(row))),
            )
            got = brute_force_bound(vals, CONSTRAINT_INTERSECTS_TOP_R, row, U1_U2_HALF).log_e
            assert got == pytest.approx(want, abs=1e-9)


def test_diagonal_consistency_is_exact():
    """Row scans equal regularized matrix cells bit for bit."""
    rng = np.random.default_rng(88)
    for _ in range(25):
        k = int(rng.integers(2, 12))
        vals = [LogValue.of(v) for v in 10.0 ** rng.uniform(-8, 8, size=k)]
        rk = RankedValues.from_values(vals)
        for spec in SPECS:
            reg = regularize(discovery_matrix(rk, spec))
            for row in range(1, k + 1):
                assert diagonal_row(rk, row, spec).log10 == reg.log10_entry(row, row - 1)
                if row >= 2:
                    assert subdiagonal_row(rk, row, spec).log10 == reg.log10_entry(row, row - 2)


def test_diagonal_full_row_covers_small_pairs():
    """At r = K a pair of small values can undercut the single smallest."""
    rk = ranked(8, 0.5, 0.1)
    got = diagonal_row(rk, 3, U2)
    assert got.value == pytest.approx(0.05, rel=1e-12)
    want = brute_force_bound(lv(8, 0.5, 0.1), CONSTRAINT_INTERSECTS_TOP_R, 3, U2)
    assert got.log_e == pytest.approx(want.log_e, abs=1e-12)


def test_row_tracker_matches_row_bounds():
    """The tracker's per-cell bases reach the same minima as the matrix rows."""
    rng = np.random.default_rng(21)
    for trial in range(60):
        k = int(rng.integers(1, 13))
        logs = rng.normal(0.0, 6.0, size=k)
        logs[k - int(rng.integers(0, 3)):] = -math.inf  # some values are exactly 0
        rk = RankedValues.from_logs(logs)
        rows = sorted({1, k, *(int(x) for x in rng.integers(1, k + 1, size=2))})
        diag_spec, sub_spec = SPECS[trial % 3], SPECS[(trial // 3) % 3]
        d, s = RowTracker(k, rows, diag_spec, sub_spec).step(rk.sorted_logs)
        for n, r in enumerate(rows):
            assert d[n] == pytest.approx(diagonal_row(rk, r, diag_spec).log_e, abs=1e-12)
            assert s[n] == pytest.approx(subdiagonal_row(rk, r, sub_spec).log_e, abs=1e-12)


def test_row_tracker_with_leading_infinite_values():
    rk = RankedValues.from_values([LogValue(math.inf)] * 2 + lv(3, 0.5, 0.2, 0.1))
    rows = [1, 2, 3, 4, 6]
    for spec in SPECS:
        d, s = RowTracker(rk.k, rows, spec, spec).step(rk.sorted_logs)
        assert list(d) == [diagonal_row(rk, r, spec).log_e for r in rows]
        assert list(s) == [subdiagonal_row(rk, r, spec).log_e for r in rows]
        assert np.isinf(d[:2]).all() and np.isfinite(d[2:]).all()
        assert np.isinf(s[:3]).all() and np.isfinite(s[3:]).all()
    with pytest.raises(DomainError):
        RowTracker(3, [0, 2], U1, U2)


@given(st.lists(st.floats(min_value=1e-4, max_value=1e4), min_size=1, max_size=9))
@settings(max_examples=40, deadline=None)
def test_permutation_equivariance(values):
    rng = np.random.default_rng(len(values))
    perm = rng.permutation(len(values))
    a = RankedValues.from_values(lv(*values))
    b = RankedValues.from_values(lv(*[values[i] for i in perm]))
    for spec in (U1, U2):
        for row in range(1, len(values) + 1):
            assert diagonal_row(a, row, spec).log_e == diagonal_row(b, row, spec).log_e
    ma = discovery_matrix(a, U1)
    mb = discovery_matrix(b, U1)
    for row in range(1, len(values) + 1):
        assert np.array_equal(ma.rows[row - 1], mb.rows[row - 1])


def test_infinite_values_rank_first_and_propagate():
    inf = LogValue(math.inf)
    rk = RankedValues.from_values(lv(3, 1) + [inf])
    two = RankedValues.from_values([inf, inf] + lv(2))
    assert rk.value_at(1).is_infinite
    for spec in SPECS:
        assert diagonal_row(rk, 1, spec).is_infinite
        m = discovery_matrix(rk, spec)
        assert m.entry(1, 0).is_infinite
        assert m.entry(3, 3).value == 1.0  # the empty set still caps the last column
        # excluding the infinite value leaves finite bounds
        assert not m.entry(3, 1).is_infinite
        # two leading +inf values: every set holding one merges to +inf
        m = discovery_matrix(two, spec)
        assert [m.entry(2, j).value for j in range(3)] == [math.inf, math.inf, 1.0]
        assert [m.entry(3, j).value for j in range(4)] == [math.inf, math.inf, 2.0, 1.0]


# ---------------------------------------------------------------------------
# regularization and confidence regions


def _matrix_from_log10_rows(rows):
    return DiscoveryMatrix(rows=tuple(np.asarray(r, dtype=float) for r in rows))


def test_regularize_running_minimum():
    m = _matrix_from_log10_rows([[5.0, 7.0], [5.0, 7.0, 2.0]])
    reg = regularize(m)
    assert list(reg.rows[1]) == [5.0, 5.0, 2.0]
    assert reg.regularized
    again = regularize(reg)
    assert all(np.array_equal(a, b) for a, b in zip(reg.rows, again.rows))


def test_regularize_keeps_monotone_rows():
    m = _matrix_from_log10_rows([[3.0, 3.0], [9.0, 4.0, 1.0]])
    reg = regularize(m)
    assert list(reg.rows[1]) == [9.0, 4.0, 1.0]


def test_confidence_region_worked_values():
    m = regularize(discovery_matrix(ranked(8, 4, 1), U1))
    region = confidence_region(m, 2, 3.0)
    assert region.members == {1, 2}
    assert region.lower_bound == 1
    region = confidence_region(m, 2, 10.0)
    assert region.members == {0, 1, 2}
    assert region.lower_bound == 0
    region = confidence_region(m, 2, math.inf)
    assert region.members == {0, 1, 2}


def test_confidence_region_empty_when_alpha_tiny():
    m = regularize(discovery_matrix(ranked(8, 4, 1), U1))
    region = confidence_region(m, 2, 1e-9)
    assert region.members == frozenset()
    assert region.lower_bound is None


def test_confidence_region_guards():
    m = discovery_matrix(ranked(8, 4, 1), U1)
    with pytest.raises(DomainError):
        confidence_region(m, 2, 3.0)  # not regularized
    reg = regularize(m)
    with pytest.raises(DomainError):
        confidence_region(reg, 2, 0.0)
    with pytest.raises(DomainError):
        confidence_region(reg, 2, -1.0)
    with pytest.raises(DomainError):
        confidence_region(reg, 9, 1.0)


def test_confidence_regions_nest_in_alpha():
    rng = np.random.default_rng(55)
    vals = [LogValue.of(v) for v in 10.0 ** rng.uniform(-3, 3, size=8)]
    m = regularize(discovery_matrix(RankedValues.from_values(vals), U1_U2_HALF))
    for row in range(1, 9):
        previous = frozenset()
        for alpha in (0.01, 1.0, 10.0, 1e6):
            members = confidence_region(m, row, alpha).members
            assert previous <= members
            previous = members


def test_regularized_regions_are_upper_intervals():
    rng = np.random.default_rng(56)
    vals = [LogValue.of(v) for v in 10.0 ** rng.uniform(-3, 3, size=9)]
    m = regularize(discovery_matrix(RankedValues.from_values(vals), U1))
    for row in range(1, 10):
        region = confidence_region(m, row, 5.0)
        if region.members:
            assert region.members == frozenset(range(region.lower_bound, row + 1))


# ---------------------------------------------------------------------------
# color buckets


@pytest.mark.parametrize(
    "value,bucket",
    [
        (0.0, ColorBucket.GREEN),
        (1.13e-20, ColorBucket.GREEN),
        (5.0, ColorBucket.GREEN),
        (9.999999, ColorBucket.GREEN),
        (10.0, ColorBucket.YELLOW),
        (99.0, ColorBucket.YELLOW),
        (100.0, ColorBucket.ORANGE),
        (1e7, ColorBucket.ORANGE),
        (1e8, ColorBucket.RED),
        (1e13, ColorBucket.RED),
        (1e14, ColorBucket.DARKRED),
        (1e19, ColorBucket.DARKRED),
        (1e20, ColorBucket.BLACK),
        (math.inf, ColorBucket.BLACK),
    ],
)
def test_colorize_buckets(value, bucket):
    assert colorize(LogValue.of(value)) is bucket


def test_colorize_boundaries_belong_to_the_upper_bucket():
    for boundary, upper in [
        (10.0, ColorBucket.YELLOW),
        (100.0, ColorBucket.ORANGE),
        (1e8, ColorBucket.RED),
        (1e14, ColorBucket.DARKRED),
        (1e20, ColorBucket.BLACK),
    ]:
        assert colorize(LogValue.of(boundary)) is upper
        assert colorize(LogValue.of(boundary * 0.999999)) is not upper


# ---------------------------------------------------------------------------
# monotonicity spot checks (the acceptance suite runs the full battery)


def test_simulated_matrix_monotonicity_small():
    from evalanche import ExperimentConfig, rank, run_experiment

    cfg = ExperimentConfig(
        k=30, n_false=15, null_dist=(0, 1), true_dist_false_nulls=(-1, 1),
        bet_dist=(-0.82, 1), steps=600, seed=9, tracked_rows=(), checkpoints=(),
    )
    rk = rank(run_experiment(cfg).final_table)
    for spec in (U1, U1_U2_HALF):
        m = discovery_matrix(rk, spec)
        reg = regularize(m)
        for row in range(1, m.k + 1):
            assert (np.diff(reg.rows[row - 1]) <= 0.0).all()
        tol = 1e-9 / math.log(10.0)
        for row in range(1, m.k):
            below = m.rows[row][: row + 1]
            assert (below - m.rows[row - 1] >= -tol).all()
