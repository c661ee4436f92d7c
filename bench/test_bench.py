"""Tests of the benchmark itself: its metric descriptions, its steadiness
arithmetic, that corrupted outputs count as failures, and that it refuses
to run without the library's sources.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from evalanche import formats, simulate  # noqa: E402

import numpy  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import steadiness  # noqa: E402
import workloads  # noqa: E402


def test_every_metric_is_described():
    bench = run.BENCHMARK
    described = json.loads((BENCH / "metrics.json").read_text())
    for kind in ("end_to_end", "per_layer"):
        assert [m["name"] for m in bench[kind]] == list(described[kind])
        for spec in described[kind].values():
            assert spec["layer"] and spec["what"]
    for spec in described["per_layer"].values():
        for e2e, names in spec["moves"].items():
            assert e2e in described["end_to_end"] or e2e == "failed_ratio"
            assert set(names) <= set(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_spread_is_the_quartile_distance_over_the_median():
    values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 1.0, 0.98, 1.02, 1.01]
    q1, _, q3 = statistics.quantiles(values, n=4)
    med, got_q1, got_q3, sp = steadiness.spread(values)
    assert (med, got_q1, got_q3) == (statistics.median(values), q1, q3)
    assert sp == (q3 - q1) / med
    bounds = {"wall_s": 0.2, "setup_s": 0.25}
    steady = {"w": {"wall_s": [1.0, 1.01, 0.99, 1.0], "setup_s": [1.0, 1.1, 0.9, 1.0]}}
    assert steadiness.judge(steady, bounds, None) == []
    assert steadiness.judge({"w": {"wall_s": [1, 2, 3, 4]}}, bounds, None)
    assert steadiness.judge({"w": {"setup_s": [1, 2, 3, 9]}}, bounds, None)
    slower = {"w": {"wall_s": [1.3, 1.31, 1.29, 1.3]}}
    assert steadiness.judge(slower, bounds, steady)


def test_speed_probe_rescales_each_stretch_by_the_sample_after_it():
    probe = speed.SpeedProbe(numpy)
    probe.start, probe.end = 0.0, 1.0
    probe.samples = [(0.4, 2 * speed.NOMINAL_SLICE_S)]  # machine at half speed
    assert probe.wall_s == pytest.approx(1.0 - 2 * speed.NOMINAL_SLICE_S)
    assert probe.nominal_s == pytest.approx(probe.wall_s / 2)

    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(numpy) as live:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    assert len(live.samples) >= 2 and 0 < live.nominal_s
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_setup_times_each_rep_and_writes_the_same_inputs(tmp_path):
    times, nominal, reps, same = run.setup(3, tmp_path)
    assert len(times) == len(nominal) == len(reps) == run.SETUP_REPS
    assert same and min(times) > 0 and min(nominal) > 0
    assert set(reps[0]) == {"paper", "sweep", "seeds", "values_k200", "values_k500"}


@pytest.fixture
def small_inputs(tmp_path):
    """Desk-sized inputs with the layout inputs.generate writes."""
    paper = replace(simulate.paper_experiment_config(seed=7, steps=300, tracked_rows=(5, 6)),
                    k=12, n_false=6)
    sweep = replace(paper, steps=50, tracked_rows=(5,), checkpoints=())
    values = simulate.run_experiment(replace(paper, tracked_rows=(), checkpoints=()))
    paths = {
        "paper": tmp_path / "paper.json",
        "sweep": tmp_path / "sweep.json",
        "seeds": tmp_path / "seeds.json",
        "values_k200": tmp_path / "values_small.csv",
        "values_k500": tmp_path / "values_small.csv",
    }
    paths["paper"].write_text(formats.config_to_json(paper))
    paths["sweep"].write_text(formats.config_to_json(sweep))
    paths["seeds"].write_text(json.dumps([3, 4, 5]))
    paths["values_k200"].write_text(formats.values_csv(values.final_table.current))
    return paths


class SmallScan(workloads.MatrixScan):
    ROWS = (3, 4)
    REGIONS = ((4, 10.0), (11, 100.0))


def failed_ops(wl, passes) -> int:
    run.verify(wl, passes, seed=1, numpy=None, record=False)
    return sum(1 for p in passes for op in p.ops if p.problems.get(op.label))


def two_passes(wl, tmp_path):
    return [run.Pass(i, False, *wl.run(tmp_path / f"pass-{i}"), 0.0, 0.0, 0.0, 0, 0.0, 0.0)
            for i in (0, 1)]


def test_paper_study_corruption_is_a_failure(small_inputs, tmp_path):
    wl = workloads.PaperStudy(small_inputs)
    passes = two_passes(wl, tmp_path)
    assert failed_ops(wl, passes) == 0

    series = passes[1].ops[0].files["series.csv"]
    lines = series.read_text().splitlines()
    step, row, kind, _l10, value = lines[-2].split(",")
    assert kind == "diagonal"
    lines[-2] = f"{step},{row},{kind},1e-3,{value}"
    series.write_text("\n".join(lines) + "\n")
    assert failed_ops(wl, passes) == 1
    assert any("final diagonal" in p for p in passes[1].problems["simulate"])

    passes[0].ops[0].files["series.svg"].unlink()
    assert failed_ops(wl, passes) == 2


def test_matrix_scan_corruption_is_a_failure(small_inputs, tmp_path):
    wl = SmallScan(small_inputs)
    passes = two_passes(wl, tmp_path)
    assert len(passes[0].ops) == 8 and failed_ops(wl, passes) == 0

    by = {op.label: op for op in passes[1].ops}
    rows = by["diagonal"].files["rows.csv"]
    lines = rows.read_text().splitlines()
    lines[1] = lines[1].split(",")[0] + ",1e-3,"
    rows.write_text("\n".join(lines) + "\n")
    region = by["region_r4_a10"].files["region.txt"]
    region.write_text(region.read_text() + "r=4 alpha=10.0 members={} lower_bound=None\n")
    assert failed_ops(wl, passes) == 2
    assert passes[1].problems["diagonal"] and passes[1].problems["region_r4_a10"]


def test_seed_sweep_checks_its_first_seed(small_inputs, tmp_path):
    wl = workloads.SeedSweep(small_inputs)
    passes = two_passes(wl, tmp_path)
    assert failed_ops(wl, passes) == 0
    summary = json.loads(passes[0].ops[0].value)
    summary["diagonal_r5"][0] += 1e-9
    passes[0].ops[0].value = json.dumps(summary).encode()
    # pass 0 fails its first-seed check, pass 1 no longer matches pass 0
    assert failed_ops(wl, passes) == 2
    assert any("run_experiment" in p for p in passes[0].problems["replicate"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "seed_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
