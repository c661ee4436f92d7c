import ast
import math
import os
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from evalanche import (
    ExperimentConfig,
    LogValue,
    U1,
    U2,
    diagonal_row,
    lr_increment,
    paper_experiment_config,
    rank,
    replicate,
    run_experiment,
    step,
    subdiagonal_row,
)
from evalanche.errors import DomainError
from evalanche.discovery import DiagonalSeries, RowTracker, discovery_matrix
from evalanche.logvalue import LN10
from evalanche.martingales import RankedValues
from evalanche.merging import U1_U2_HALF, MergeSpec
from evalanche.simulate import (
    MAX_K,
    MAX_RUN_VALUES,
    MAX_STEPS,
    SeedSummary,
    draw_streams,
)


def small_config(**overrides):
    base = dict(
        k=6,
        n_false=3,
        null_dist=(0.0, 1.0),
        true_dist_false_nulls=(-1.0, 1.0),
        bet_dist=(-0.82, 1.0),
        steps=40,
        seed=7,
        tracked_rows=(1, 2),
        checkpoints=(40,),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config validation


@pytest.mark.parametrize(
    "overrides",
    [
        dict(k=0),
        dict(n_false=7),
        dict(steps=-1),
        dict(null_dist=(0.0, 0.0)),
        dict(bet_dist=(0.0, -1.0)),
        dict(scheduler="round-robin"),
        dict(tracked_rows=(7,)),
        dict(checkpoints=(41,)),
        dict(seed=-1),
        dict(seed=2 ** 64),
        dict(k=MAX_K + 1),
        dict(steps=MAX_STEPS + 1),
        # a checkpoint counts two (K, K+1) matrices, its stored one and the
        # regularized copy write_bundle makes: over MAX_RUN_VALUES
        dict(k=MAX_K, checkpoints=(0,)),
    ],
)
def test_config_validation(overrides):
    with pytest.raises(DomainError):
        small_config(**overrides)


def test_config_size_limits_are_inclusive():
    small_config(k=MAX_K, checkpoints=())
    small_config(steps=MAX_STEPS, checkpoints=())
    at_budget = dict(k=MAX_K, steps=MAX_STEPS, checkpoints=())
    assert 2 * 50 * MAX_STEPS == MAX_RUN_VALUES
    small_config(tracked_rows=tuple(range(1, 51)), **at_budget)
    with pytest.raises(DomainError, match="tracked_rows"):
        small_config(tracked_rows=tuple(range(1, 52)), **at_budget)


# ---------------------------------------------------------------------------
# degenerate and deterministic behavior


def test_zero_steps_run():
    run = run_experiment(small_config(steps=0, checkpoints=(0,), tracked_rows=(1, 2)))
    assert all(v.value == 1.0 for v in run.final_table.current)
    assert all(len(s) == 0 for s in run.diagonal_series.values())
    assert all(len(s) == 0 for s in run.subdiagonal_series.values())
    raw = run.matrices[0]
    assert not raw.regularized
    for r in range(1, 7):
        for j in range(r + 1):
            assert raw.entry(r, j).value == pytest.approx(1.0, abs=1e-12)


def test_bit_level_determinism():
    a = run_experiment(small_config())
    b = run_experiment(small_config())
    assert np.array_equal(a.final_table.log_values, b.final_table.log_values)
    for r in a.diagonal_series:
        assert np.array_equal(
            a.diagonal_series[r].log10_values, b.diagonal_series[r].log10_values
        )
    c = run_experiment(small_config(seed=8))
    assert not np.array_equal(a.final_table.log_values, c.final_table.log_values)


def test_tracked_and_untracked_paths_agree_bitwise():
    """Stopping at every step or only at the checkpoints gives the same bits."""
    checkpoints = (0, 1, 77, 200)
    tracked = run_experiment(small_config(steps=200, checkpoints=checkpoints))
    untracked = run_experiment(small_config(steps=200, tracked_rows=(), checkpoints=checkpoints))
    assert np.array_equal(tracked.final_table.log_values, untracked.final_table.log_values)
    assert sorted(tracked.matrices) == sorted(untracked.matrices) == list(checkpoints)
    for c in checkpoints:
        assert np.array_equal(tracked.matrices[c].log10, untracked.matrices[c].log10, equal_nan=True)
    assert untracked.diagonal_series == untracked.subdiagonal_series == {}


def test_tiny_sd_sends_increments_to_infinity_silently():
    """Runs under tier-1's error::RuntimeWarning: no overflow warning escapes."""
    _, _, inc = draw_streams(small_config(bet_dist=(-0.82, 1e-300)))
    assert (inc == -np.inf).all()
    run = run_experiment(small_config(null_dist=(0.0, 5e-324)))
    assert np.isposinf(run.final_table.log_values).any()


@pytest.mark.parametrize("null_sd", [1e-154, 1e-153, 3e-154])
def test_increments_summing_past_the_log_bound_raise(null_sd):
    """A false null's increment under these null sds is about 1e305-1e308: the
    runs stop with DomainError before any stream sum can overflow to a NaN bound."""
    for seed in range(10):
        cfg = small_config(k=8, n_false=4, steps=200, seed=seed, null_dist=(0.0, null_sd),
                           tracked_rows=(1, 4), checkpoints=(200,))
        with pytest.raises(DomainError, match="sum to .* more than 1e\\+300"):
            run_experiment(cfg)


def test_a_stream_sent_to_both_infinities_raises():
    """Two sd-1e-154 bands that meet at x = 1.896 (where -0.5 z z overflows):
    left of it the bet's density is 0 (increment -inf), right of it the null's
    (+inf), and no increment is finite.  A stream with both has no value."""
    cfg = small_config(k=3, n_false=3, null_dist=(0.0, 1e-154),
                       bet_dist=(3.792300763243671, 1e-154), true_dist_false_nulls=(1.9, 0.3))
    _, _, inc = draw_streams(replace(cfg, k=10, n_false=0))  # true nulls: -inf only
    assert (inc == -np.inf).all()
    with pytest.raises(DomainError, match="both \\+inf and -inf"):
        draw_streams(cfg)


def test_mid_run_checkpoints_match_replayed_prefix():
    cfg = small_config(steps=50, tracked_rows=(), checkpoints=(20, 50))
    run = run_experiment(cfg)
    k_idx, _, inc = draw_streams(cfg)
    logs = np.zeros(cfg.k)
    for i in range(20):
        logs[k_idx[i]] += inc[i]
    from evalanche import discovery
    from evalanche.martingales import RankedValues

    want = discovery.discovery_matrix(RankedValues.from_logs(logs), cfg.merge_matrix)
    got = run.matrices[20]
    for r in range(1, cfg.k + 1):
        assert np.array_equal(want.rows[r - 1], got.rows[r - 1])


@pytest.mark.parametrize("null_sd", [1.0, 1e-160])  # 1e-160 sends false nulls to +inf
def test_tracked_blocks_match_per_step_tracking(null_sd):
    """Blocks of steps, split at checkpoints inside them, score each step
    exactly as one tracker step per increment does, sign bits included.
    Tracked from row 20 on, a step that moves none of the top 18 values
    reuses the anchored minima of the step before it."""
    k = 40
    for tracked_rows in ((1, 2, 20, 39, 40), (20, 39, 40)):
        cfg = small_config(
            k=k, n_false=20, tracked_rows=tracked_rows, null_dist=(0.0, null_sd),
            merge_diagonal=U1_U2_HALF, merge_subdiagonal=U2,
        )
        tracker = RowTracker(k, cfg.tracked_rows, cfg.merge_diagonal, cfg.merge_subdiagonal)
        block = tracker.block  # the run's passes follow the tracker's own rule
        steps = 2 * block + 37
        checkpoints = (block // 2, block + 3, steps)
        cfg = replace(cfg, steps=steps, checkpoints=checkpoints)
        with mock.patch.object(RowTracker, "step", autospec=True, side_effect=RowTracker.step) as spy:
            run = run_experiment(cfg)
        # two whole rule blocks, each split by a checkpoint strictly inside it, then the rest
        passes = [len(c.args[1]) for c in spy.call_args_list]
        assert passes == [block // 2, block - block // 2, 3, block - 3, 37] and block >= 4, passes
        k_idx, _, inc = draw_streams(cfg)
        logs = np.zeros(k)
        want = np.empty((2, steps, len(cfg.tracked_rows)))
        for t in range(steps):
            logs[k_idx[t]] += inc[t]
            want[:, t] = tracker.step(np.sort(logs)[::-1][None])[:, 0]
            if t + 1 in checkpoints:
                raw = discovery_matrix(RankedValues.from_logs(logs.copy()), cfg.merge_matrix)
                assert np.array_equal(run.matrices[t + 1].log10, raw.log10, equal_nan=True)
        assert np.array_equal(run.final_table.log_values, logs)
        if null_sd < 1.0:
            assert np.isposinf(logs).any()
        want = (want / LN10).view(np.int64)
        for n, r in enumerate(cfg.tracked_rows):
            assert np.array_equal(run.diagonal_series[r].log10_values.view(np.int64),
                                  want[0, :, n])
            assert np.array_equal(run.subdiagonal_series[r].log10_values.view(np.int64),
                                  want[1, :, n])


def test_checkpoint_zero_scores_no_empty_block():
    """A checkpoint at step 0 gets the matrix of the all-zero start, and the
    tracker is called only on blocks that hold steps."""
    cfg = small_config(steps=12, checkpoints=(0, 12))
    with mock.patch.object(RowTracker, "step", autospec=True, side_effect=RowTracker.step) as spy:
        run = run_experiment(cfg)
    assert [len(c.args[1]) for c in spy.call_args_list] == [12]
    want = discovery_matrix(RankedValues.from_logs(np.zeros(cfg.k)), cfg.merge_matrix)
    assert np.array_equal(run.matrices[0].log10, want.log10, equal_nan=True)


_PAPER_2000 = paper_experiment_config(steps=2_000, checkpoints=())


@pytest.mark.parametrize("cfg", [
    _PAPER_2000,
    replace(_PAPER_2000, tracked_rows=(100,)),
    replace(_PAPER_2000, tracked_rows=(1, 2)),
    replace(_PAPER_2000, tracked_rows=(10, 190)),
    replace(_PAPER_2000, merge_subdiagonal=MergeSpec.nesp(5)),
    replace(_PAPER_2000, k=1_000, tracked_rows=(500, 501, 502, 503)),
    replace(_PAPER_2000, null_dist=(0.0, 1e-160)),
], ids=["rows-98-101", "row-100", "rows-1-2", "rows-10-190", "u5-subdiagonal", "k1000-rows-500-503",
        "null-sd-1e-160"])
def test_tracked_run_peak_memory(cfg):
    """The Python-heap peak of a 2,000-step tracked run guards the tracker's
    block length, ``RowTracker.block``.

    Measured (tracemalloc, numpy 2.4.6): 0.91-1.50 MB over these shapes,
    rows 98-101 1.15 MB in blocks of 81 steps, row 100 the least (its
    every-step table holds only the columns the empty-base call reads) and
    rows 500-503 at K = 1000 the most, in blocks of 17.  Rows 98-101 in
    blocks of 163 steps reach 1.90 MB and in blocks of 327 steps 3.36 MB,
    and rows 500-503 at K = 1000 in blocks of 18 steps 1.64 MB and of 37
    steps 2.75 MB.  Null sd 1e-160 makes all 2,000 steps +inf-led, and each
    block of them takes a finite stand-in copy: 1.30 MB in blocks of 81
    steps, 2.11 MB in blocks of 163.
    """
    run_experiment(replace(cfg, steps=10))  # first-call caches stay out of the peak
    tracemalloc.start()
    try:
        run_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_ground_truth_labels():
    run = run_experiment(small_config())
    assert run.ground_truth == frozenset({1, 2, 3})


def test_run_matches_public_step_fold():
    """The vectorized runner agrees with folding step()/lr_increment."""
    cfg = small_config(steps=30, tracked_rows=(), checkpoints=())
    run = run_experiment(cfg)
    k_idx, x, _ = draw_streams(cfg)
    from evalanche import MartingaleTable

    table = MartingaleTable.fresh(cfg.k)
    for i in range(cfg.steps):
        table = step(table, int(k_idx[i]) + 1, lr_increment(float(x[i]), cfg.null_dist, cfg.bet_dist))
    assert table.step == cfg.steps
    assert np.allclose(table.log_values, run.final_table.log_values, rtol=0, atol=1e-12)


def test_tracked_series_equal_row_scans_at_every_step():
    cfg = small_config(steps=25, tracked_rows=(1, 2, 5), checkpoints=())
    run = run_experiment(cfg)
    k_idx, _, inc = draw_streams(cfg)
    logs = np.zeros(cfg.k)
    from evalanche.martingales import RankedValues

    # the tracker evaluates a reduced (but exactly equivalent) candidate
    # family, so agreement is to rounding, not bit-for-bit
    for i in range(cfg.steps):
        logs[k_idx[i]] += inc[i]
        rk = RankedValues.from_logs(logs.copy())
        for r in cfg.tracked_rows:
            assert run.diagonal_series[r].log10_values[i] == pytest.approx(
                diagonal_row(rk, r, cfg.merge_diagonal).log10, abs=1e-12
            )
            assert run.subdiagonal_series[r].log10_values[i] == pytest.approx(
                subdiagonal_row(rk, r, cfg.merge_subdiagonal).log10, abs=1e-12
            )


# ---------------------------------------------------------------------------
# statistical behavior


def test_scheduler_is_uniform():
    cfg = small_config(k=20, n_false=0, steps=100_000, tracked_rows=(), checkpoints=())
    k_idx, _, _ = draw_streams(cfg)
    counts = np.bincount(k_idx, minlength=20)
    p = 1.0 / 20.0
    sd = math.sqrt(cfg.steps * p * (1 - p))
    assert (abs(counts - cfg.steps * p) <= 5.0 * sd).all()


def test_global_null_rarely_rejects():
    """With no false nulls, evidence stays modest across seeds."""
    maxes, d1s = [], []
    for seed in range(1, 21):
        cfg = ExperimentConfig(
            k=200, n_false=0, null_dist=(0, 1), true_dist_false_nulls=(-1, 1),
            bet_dist=(-0.82, 1), steps=10_000, seed=seed, tracked_rows=(), checkpoints=(),
        )
        run = run_experiment(cfg)
        rk = rank(run.final_table)
        maxes.append(rk.value_at(1).log10)
        d1s.append(diagonal_row(rk, 1, U1).log10)
    assert 10.0 ** float(np.median(maxes)) < 100.0
    assert 10.0 ** float(np.median(d1s)) < 10.0


def test_final_martingales_have_unit_mean_under_global_null():
    from dataclasses import replace

    cfg = ExperimentConfig(
        k=5, n_false=0, null_dist=(0, 1), true_dist_false_nulls=(-1, 1),
        bet_dist=(-0.82, 1), steps=60, seed=0, tracked_rows=(), checkpoints=(),
    )
    finals = np.array([
        run_experiment(replace(cfg, seed=s)).final_table.log_values
        for s in range(400)
    ])
    values = np.exp(finals)
    for k in range(5):
        col = values[:, k]
        se = col.std(ddof=1) / math.sqrt(len(col))
        assert col.mean() <= 1.0 + 3.0 * se


# ---------------------------------------------------------------------------
# replication sweeps


def test_replicate_single_seed_matches_run():
    cfg = small_config(steps=60, tracked_rows=(2, 4), checkpoints=(60,))
    summary = replicate(cfg, [cfg.seed])
    run = run_experiment(cfg)
    got = summary["diagonal_r2"].median
    assert got.log10 == float(run.diagonal_series[2].log10_values[-1])
    assert summary["matrix60_r4_j3"].median.log10 == run.matrices[60].log10_entry(4, 3)


def test_replicate_identical_seeds_have_zero_spread():
    cfg = small_config(steps=30, tracked_rows=(3,), checkpoints=())
    summary = replicate(cfg, [5, 5, 5])
    stat = summary["diagonal_r3"]
    assert stat.minimum.log10 == stat.maximum.log10


def test_replicate_counts_a_repeated_row_once():
    cfg = small_config(steps=30, tracked_rows=(2, 2), checkpoints=(30,))
    summary = replicate(cfg, [1, 2, 3])
    assert {"diagonal_r2", "matrix30_r2_j1"} <= set(summary)
    assert all(len(stat.log10_values) == 3 for stat in summary.values())


def test_replicate_requires_seeds():
    cfg = small_config(steps=30, tracked_rows=(1,), checkpoints=())
    with pytest.raises(DomainError):
        replicate(cfg, [])


def test_seed_summary_order_statistics():
    cfg = small_config(steps=30, tracked_rows=(1,), checkpoints=())
    summary = replicate(cfg, list(range(1, 10)))
    stat = summary["diagonal_r1"]
    assert stat.minimum.log10 <= stat.q1.log10 <= stat.median.log10
    assert stat.median.log10 <= stat.q3.log10 <= stat.maximum.log10



@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_seed_summary_percentiles_take_infinite_limits():
    """Infinite per-seed values give the limit of the log-scale interpolation,
    never NaN; finite brackets keep np.percentile's bits."""
    cfg = small_config(k=5, n_false=2, null_dist=(0.0, 1e-160), tracked_rows=(1,), checkpoints=())
    stat = replicate(cfg, [1, 2, 3])["diagonal_r1"]
    assert np.isposinf(stat.log10_values).all()
    assert stat.q1.is_infinite and stat.median.is_infinite and stat.q3.is_infinite
    inf = math.inf
    for values, want in (
        ([1.0, inf, inf], (inf, inf, inf)),
        ([-inf, -inf, 1.0, 2.0], (-inf, -inf, 1.25)),
        ([-inf, 1.0], (-inf, -inf, -inf)),
        ([2.0, inf], (inf, inf, inf)),
    ):
        stat = SeedSummary(np.array(values))
        assert (stat.q1.log10, stat.median.log10, stat.q3.log10) == want, values
    stat = SeedSummary(np.array([-inf, inf]))
    assert all(math.isinf(v.log_e) for v in (stat.q1, stat.median, stat.q3))
    finite = np.random.default_rng(5).normal(0.0, 50.0, size=7)
    stat = SeedSummary(finite)
    for q, got in ((25.0, stat.q1), (50.0, stat.median), (75.0, stat.q3)):
        assert got.log10 == LogValue.from_log10(float(np.percentile(finite, q))).log10

def test_paper_config_shape():
    cfg = paper_experiment_config(seed=3)
    assert cfg.k == 200 and cfg.n_false == 100 and cfg.steps == 10_000
    assert cfg.merge_diagonal == U1 and cfg.merge_subdiagonal == U2
    assert cfg.checkpoints == (10_000,)
    assert cfg.tracked_rows == (98, 99, 100, 101)


def test_readme_quick_tour():
    """The README "Library quick tour" block runs as written, and each bare
    expression in it returns what its comment says."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Library quick tour\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    results = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            results.append(eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    pairwise, mixture, d2, members, final = results
    assert pairwise == pytest.approx(44 / 3, rel=1e-12)  # (8*4 + 8*1 + 4*1) / 3
    assert isinstance(mixture, LogValue) and mixture.value == pytest.approx((44 / 3 + 13 / 3) / 2)
    assert d2 == pytest.approx(2.5, rel=1e-12)
    assert members == {1, 2}
    series = namespace["run"].diagonal_series[100]
    assert isinstance(series, DiagonalSeries) and len(series) == 10_000
    assert isinstance(final, LogValue) and final.log10 == float(series.log10_values[-1])
