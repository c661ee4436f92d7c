import math

import numpy as np
import pytest

from evalanche import LogValue, MartingaleTable, RankedValues, lr_increment, rank, step
from evalanche.errors import DomainError
from evalanche.logvalue import MAX_ABS_LOG


def table_of(*values):
    t = MartingaleTable.fresh(len(values))
    for i, v in enumerate(values, start=1):
        t = step(t, i, LogValue.of(v))
    return MartingaleTable(log_values=t.log_values, step=0)


def test_fresh_table_starts_at_one():
    t = MartingaleTable.fresh(4)
    assert all(v.value == 1.0 for v in t.current)
    assert t.step == 0
    with pytest.raises(DomainError):
        MartingaleTable.fresh(0)
    with pytest.raises(DomainError, match="at least one stream"):
        MartingaleTable(log_values=np.empty(0))
    with pytest.raises(DomainError, match="NaN"):
        MartingaleTable(log_values=np.array([0.0, math.nan]))


def test_lr_increment_worked_values():
    assert lr_increment(0.0, (0, 1), (-1, 1)).value == pytest.approx(math.exp(-0.5), rel=1e-14)
    assert lr_increment(-1.0, (0, 1), (-1, 1)).value == pytest.approx(math.exp(0.5), rel=1e-14)
    assert lr_increment(3.7, (0, 1), (0, 1)).value == 1.0


def test_lr_increment_domain():
    with pytest.raises(DomainError):
        lr_increment(math.nan, (0, 1), (-1, 1))
    with pytest.raises(DomainError):
        lr_increment(math.inf, (0, 1), (-1, 1))
    with pytest.raises(DomainError):
        lr_increment(0.0, (0, 0.0), (-1, 1))


def test_step_updates_exactly_one_stream():
    t = MartingaleTable.fresh(3)
    t2 = step(t, 2, LogValue.of(3.0))
    # multiplication is exact on the log scale
    assert list(t2.log_values) == [0.0, math.log(3.0), 0.0]
    assert [v.value for v in t2.current] == pytest.approx([1.0, 3.0, 1.0], rel=1e-15)
    assert t2.step == 1
    # the original value is untouched
    assert [v.value for v in t.current] == [1.0, 1.0, 1.0]
    changed = np.flatnonzero(t2.log_values != t.log_values)
    assert list(changed) == [1]


def test_step_identity_multiplier_only_advances_the_clock():
    t = table_of(2.0, 5.0)
    t2 = step(t, 1, LogValue.of(1.0))
    assert np.array_equal(t2.log_values, t.log_values)
    assert t2.step == t.step + 1


def test_step_bankruptcy_is_absorbing():
    t = table_of(2.0, 5.0)
    t2 = step(t, 1, LogValue.of(0.0))
    assert t2.value_of(1).is_zero
    t3 = step(t2, 1, LogValue.of(100.0))
    assert t3.value_of(1).is_zero
    assert t3.value_of(2).value == pytest.approx(5.0, rel=1e-15)


def test_scalar_fold_keeps_the_log_bound():
    """lr_increment and step reject a finite log beyond +-MAX_ABS_LOG, as
    run_experiment does, with no RuntimeWarning (tier-1 makes one an error);
    a stream that lands exactly on the bound is still legal."""
    with pytest.raises(DomainError, match="natural log"):
        lr_increment(1.5, (0.0, 1e-154), (-0.82, 1.0))  # log 1.125e308
    huge = LogValue(1.125e308)
    with pytest.raises(DomainError, match="beyond"):
        step(MartingaleTable.fresh(2), 1, huge)
    with pytest.raises(DomainError, match="beyond"):  # the sum overflows to +inf
        step(MartingaleTable(log_values=np.array([1.125e308, 0.0])), 1, huge)
    with pytest.raises(DomainError, match="beyond"):
        step(MartingaleTable(log_values=np.array([-MAX_ABS_LOG])), 1, LogValue(-1e290))
    for sign in (1.0, -1.0):
        half = LogValue(sign * MAX_ABS_LOG / 2)
        t = step(step(MartingaleTable.fresh(1), 1, half), 1, half)
        assert t.log_values[0] == sign * MAX_ABS_LOG
    # an infinite factor or stream is a legal value, not a finite overflow
    assert step(MartingaleTable.fresh(1), 1, LogValue(math.inf)).value_of(1).is_infinite
    t = MartingaleTable(log_values=np.array([math.inf]))
    assert step(t, 1, LogValue(MAX_ABS_LOG)).value_of(1).is_infinite


def test_step_index_bounds():
    t = MartingaleTable.fresh(2)
    with pytest.raises(DomainError):
        step(t, 0, LogValue.of(2.0))
    with pytest.raises(DomainError):
        step(t, 3, LogValue.of(2.0))
    with pytest.raises(DomainError, match="stream index 3"):
        t.value_of(3)


def test_rank_sorts_descending_with_stable_ties():
    r = rank(table_of(4.0, 8.0, 1.0))
    assert [v.value for v in r.values] == pytest.approx([8.0, 4.0, 1.0], rel=1e-15)
    assert r.perm == (2, 1, 3)

    r = rank(table_of(5.0, 5.0))
    assert r.perm == (1, 2)

    r = rank(table_of(3.0, 3.0, 3.0, 3.0))
    assert r.perm == (1, 2, 3, 4)
    assert r.original_index(2) == 2
    with pytest.raises(DomainError, match="rank 5"):
        r.value_at(5)
    with pytest.raises(DomainError, match="rank 0"):
        r.original_index(0)
    with pytest.raises(DomainError, match="NaN"):
        RankedValues.from_logs(np.array([1.0, math.nan]))


def test_rank_handles_zeros_and_infinities():
    t = MartingaleTable(log_values=np.array([0.0, -math.inf, math.inf]))
    r = rank(t)
    assert r.perm == (3, 1, 2)
    assert r.value_at(1).is_infinite
    assert r.value_at(3).is_zero


def test_uncorrelated_stepping_changes_one_entry_per_step():
    rng = np.random.default_rng(3)
    t = MartingaleTable.fresh(6)
    for _ in range(50):
        k = int(rng.integers(1, 7))
        mult = LogValue.of(float(np.exp(rng.normal())))
        t2 = step(t, k, mult)
        diffs = np.flatnonzero(t2.log_values != t.log_values)
        assert len(diffs) <= 1  # zero when the multiplier is exactly 1
        if len(diffs) == 1:
            assert diffs[0] == k - 1
        t = t2


def _simulate_product_and_streams(n_trials, n_steps, k, seed):
    """Monte Carlo under the null: per-trial final per-stream logs."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_trials, n_steps))
    # likelihood ratio of N(-1,1) against the true N(0,1)
    inc = -x - 0.5
    which = rng.integers(0, k, size=(n_trials, n_steps))
    per_stream = np.zeros((n_trials, k))
    for j in range(k):
        per_stream[:, j] = np.where(which == j, inc, 0.0).sum(axis=1)
    return per_stream


def test_product_of_uncorrelated_streams_has_unit_mean():
    per_stream = _simulate_product_and_streams(10_000, 30, 3, seed=77)
    product = np.exp(per_stream.sum(axis=1))
    se = product.std(ddof=1) / math.sqrt(len(product))
    assert product.mean() <= 1.0 + 3.0 * se


def test_each_stream_has_unit_mean_under_the_null():
    per_stream = _simulate_product_and_streams(10_000, 30, 3, seed=78)
    for j in range(per_stream.shape[1]):
        s = np.exp(per_stream[:, j])
        se = s.std(ddof=1) / math.sqrt(len(s))
        assert s.mean() <= 1.0 + 3.0 * se


def test_mc_increments_match_lr_increment():
    # the vectorized -x - 1/2 shortcut equals the density-ratio computation
    for x in (-2.0, -0.5, 0.0, 1.3):
        assert lr_increment(x, (0, 1), (-1, 1)).log_e == pytest.approx(-x - 0.5, abs=1e-12)
