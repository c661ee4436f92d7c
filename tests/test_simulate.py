import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from evalanche import (
    ExperimentConfig,
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
from evalanche.discovery import RowTracker, discovery_matrix
from evalanche.logvalue import LN10
from evalanche.martingales import RankedValues
from evalanche.merging import U1_U2_HALF
from evalanche.simulate import (
    MAX_K,
    MAX_RUN_VALUES,
    MAX_STEPS,
    TRACK_BLOCK_CELLS,
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
        dict(k=MAX_K, checkpoints=(0,)),  # two (K, K+1) matrices, over MAX_RUN_VALUES
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
    raw, reg = run.matrices[0]
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
        for a, b in zip(tracked.matrices[c], untracked.matrices[c]):
            assert np.array_equal(a.log10, b.log10, equal_nan=True)
    assert untracked.diagonal_series == untracked.subdiagonal_series == {}


def test_tiny_sd_sends_increments_to_infinity_silently():
    """Runs under tier-1's error::RuntimeWarning: no overflow warning escapes."""
    _, _, inc = draw_streams(small_config(bet_dist=(-0.82, 1e-300)))
    assert (inc == -np.inf).all()
    run = run_experiment(small_config(null_dist=(0.0, 5e-324)))
    assert np.isposinf(run.final_table.log_values).any()


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
    got, _ = run.matrices[20]
    for r in range(1, cfg.k + 1):
        assert np.array_equal(want.rows[r - 1], got.rows[r - 1])


@pytest.mark.parametrize("null_sd", [1.0, 1e-160])  # 1e-160 sends false nulls to +inf
def test_tracked_blocks_match_per_step_tracking(null_sd):
    """Blocks of steps, split at checkpoints inside them, score each step
    exactly as one tracker step per increment does."""
    k = 40
    block = TRACK_BLOCK_CELLS // (k + 1)
    steps = 2 * block + 37
    checkpoints = (block // 2, block + 3, steps)
    cfg = small_config(
        k=k, n_false=20, steps=steps, tracked_rows=(1, 2, 20, 39, 40), checkpoints=checkpoints,
        null_dist=(0.0, null_sd), merge_diagonal=U1_U2_HALF, merge_subdiagonal=U2,
    )
    assert steps % block and 0 < checkpoints[0] < block < checkpoints[1] < 2 * block
    run = run_experiment(cfg)
    k_idx, _, inc = draw_streams(cfg)
    tracker = RowTracker(k, cfg.tracked_rows, cfg.merge_diagonal, cfg.merge_subdiagonal)
    logs = np.zeros(k)
    want = np.empty((2, steps, len(cfg.tracked_rows)))
    for t in range(steps):
        logs[k_idx[t]] += inc[t]
        want[:, t] = tracker.step(np.sort(logs)[::-1][None])[:, 0]
        if t + 1 in checkpoints:
            raw = discovery_matrix(RankedValues.from_logs(logs.copy()), cfg.merge_matrix)
            assert np.array_equal(run.matrices[t + 1][0].log10, raw.log10, equal_nan=True)
    assert np.array_equal(run.final_table.log_values, logs)
    if null_sd < 1.0:
        assert np.isposinf(logs).any()
    for n, r in enumerate(cfg.tracked_rows):
        assert np.array_equal(run.diagonal_series[r].log10_values, want[0, :, n] / LN10)
        assert np.array_equal(run.subdiagonal_series[r].log10_values, want[1, :, n] / LN10)


def test_tracked_run_peak_memory():
    """The Python-heap peak of a tracked run guards the tracker's block size.

    1.25 MB measured with blocks of 40 steps at K = 200; 81-step blocks
    reach 2.3 MB and 256-step blocks 6.6 MB.
    """
    cfg = paper_experiment_config(steps=2_000, checkpoints=())
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
    assert summary["matrix60_r4_j3"].median.log10 == run.matrices[60][0].log10_entry(4, 3)


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


def test_paper_config_shape():
    cfg = paper_experiment_config(seed=3)
    assert cfg.k == 200 and cfg.n_false == 100 and cfg.steps == 10_000
    assert cfg.merge_diagonal == U1 and cfg.merge_subdiagonal == U2
    assert cfg.checkpoints == (10_000,)
    assert cfg.tracked_rows == (98, 99, 100, 101)
