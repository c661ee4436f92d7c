import math
import os

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
from evalanche.simulate import draw_streams


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
    ],
)
def test_config_validation(overrides):
    with pytest.raises(DomainError):
        small_config(**overrides)


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
    tracked = run_experiment(small_config(steps=200, checkpoints=()))
    untracked = run_experiment(small_config(steps=200, tracked_rows=(), checkpoints=()))
    assert np.array_equal(tracked.final_table.log_values, untracked.final_table.log_values)


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
