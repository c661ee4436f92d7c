"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run pytest with -s or -rA to see them on success).

Every tolerance and runtime budget is pinned here; nothing is deferred to
later calibration.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from evalanche import (
    ColorBucket,
    ExperimentConfig,
    LogValue,
    MergeSpec,
    ONE,
    RankedValues,
    U1,
    U1_U2_HALF,
    U2,
    colorize,
    decompose_symmetric,
    diagonal_row,
    discovery_matrix,
    ie_example_f,
    merging_polynomial,
    nesp_log,
    paper_experiment_config,
    rank,
    regularize,
    run_experiment,
    subdiagonal_row,
    validate_merging_polynomial,
)
from evalanche.merging import mixture_from_logs
from evalanche.oracles import certify
from evalanche.simulate import draw_streams
from evalanche.polynomials import MultiaffinePoly, subset_to_mask
from evalanche import formats
from oracles import nesp_log_oracle

GOLDEN = Path(__file__).parent / "golden"
SEEDS = tuple(range(1, 21))


def report(n, text):
    print(f"[criterion {n}] PASS - {text}")


# ---------------------------------------------------------------------------
# shared paper-study sweep (criteria 4 and 5)


@pytest.fixture(scope="module")
def paper_sweep():
    """20 seeded runs of the 200-hypothesis study plus final matrices."""
    t0 = time.perf_counter()
    runs = []
    for seed in SEEDS:
        cfg = paper_experiment_config(seed=seed, tracked_rows=(), checkpoints=(10_000,))
        result = run_experiment(cfg)
        ranked = rank(result.final_table)
        runs.append({"seed": seed, "ranked": ranked, "matrix_u1": result.matrices[10_000]})
    elapsed = time.perf_counter() - t0
    return {"runs": runs, "elapsed": elapsed}


# ---------------------------------------------------------------------------
# the oracle battery of `evalanche oracle-check` (criteria 2 and 3)


@pytest.fixture(scope="module")
def battery():
    """Worst error per ``certify`` row over 200 instances, plus the battery's
    wall time.  Criterion 1 keeps its own oracle, independent of the library."""
    t0 = time.perf_counter()
    worst = {name: w for name, w, _ in certify(200, 303)}
    return {**worst, "elapsed": time.perf_counter() - t0}


def test_criterion_1_nesp_oracle_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 13))
        n = int(rng.integers(1, k + 1))
        values = [LogValue.of(v) for v in 10.0 ** rng.uniform(-6.0, 6.0, size=k)]
        err = abs(nesp_log(values, n).log_e - nesp_log_oracle(values, n))
        worst = max(worst, math.inf if math.isnan(err) else err)  # max() drops a NaN
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9, f"worst |dlog| {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f} s"
    report(1, f"200 enumeration-oracle instances, worst |dlog| {worst:.2e}, {elapsed:.1f} s")


def test_criterion_2_power_sum_and_bell_cross_paths(battery):
    worst = battery["power-sum and Bell paths vs nesp_log"]
    assert worst <= 1e-8, f"worst |dlog| {worst:.3e}"
    report(2, f"200 cross-path instances (power sums n<=4, Bell n<=6), worst |dlog| {worst:.2e}")


def test_criterion_3_scans_vs_brute_force(battery):
    worst = battery["scans vs brute-force subset minima"]
    assert worst <= 1e-9, f"worst |dlog| {worst:.3e}"
    assert battery["elapsed"] < 60.0, f"took {battery['elapsed']:.1f} s"
    report(3, f"200 instances x 3 specs, every matrix cell, worst |dlog| {worst:.2e}, "
              f"battery {battery['elapsed']:.1f} s")


def test_criterion_4_paper_experiment_bands(paper_sweep):
    t0 = time.perf_counter()
    d100, sub100, dd100, u2pair = [], [], [], []
    for entry in paper_sweep["runs"]:
        ranked = entry["ranked"]
        d100.append(diagonal_row(ranked, 100, U1).log10)
        sub100.append(subdiagonal_row(ranked, 100, U2).log10)
        dd100.append(entry["matrix_u1"].log10_entry(100, 100))
        u2pair.append(nesp_log([ranked.value_at(100), ranked.value_at(200)], 2).log10)
    med = lambda xs: 10.0 ** float(np.median(np.asarray(xs)))
    med_d, med_sub, med_dd, med_u2 = med(d100), med(sub100), med(dd100), med(u2pair)
    elapsed = paper_sweep["elapsed"] + (time.perf_counter() - t0)
    assert 5.0 <= med_d <= 5000.0, f"median diagonal at row 100 = {med_d:.3g}"
    assert med_dd <= 1e-6, f"median matrix (100,100) entry = {med_dd:.3g}"
    assert med_sub >= 1e4, f"median subdiagonal at row 100 = {med_sub:.3g}"
    assert med_u2 <= 1e-10, f"median pair merge of ranks 100,200 = {med_u2:.3g}"
    assert elapsed <= 120.0, f"took {elapsed:.1f} s"
    report(4, (
        f"20-seed medians: d100={med_d:.3g} in [5,5000], D(100,100)={med_dd:.3g}<=1e-6, "
        f"subdiag100={med_sub:.3g}>=1e4, pair={med_u2:.3g}<=1e-10, total {elapsed:.1f} s"
    ))


def test_criterion_5_matrix_monotonicity(paper_sweep):
    tol = 1e-9 / math.log(10.0)  # 1e-9 in natural log, columns stored as log10
    n_checked = 0
    for entry in paper_sweep["runs"][:5]:
        matrices = [entry["matrix_u1"], discovery_matrix(entry["ranked"], U1_U2_HALF)]
        for raw in matrices:
            reg = regularize(raw)
            for r in range(1, raw.k + 1):
                row = reg.rows[r - 1]
                assert (np.diff(row) <= 0.0).all(), f"row {r} not non-increasing"
            for r in range(1, raw.k):
                upper = raw.rows[r - 1]
                lower = raw.rows[r][: r + 1]
                assert (lower - upper >= -tol).all(), f"southern violation at row {r}"
                n_checked += r + 1
    report(5, f"5 seeds x (u1, mix) matrices: regularized rows exact, southern holds at {n_checked} cells")


def test_criterion_6_e_value_preservation():
    rng = np.random.default_rng(20240542)
    n, k = 100_000, 5
    x = rng.standard_normal((n, k))
    logs = -x - 0.5  # log likelihood ratios, unit mean under the null
    samples = {name: np.exp(mixture_from_logs(spec, logs)) for name, spec in
               (("u1", U1), ("u2", U2), ("mix", U1_U2_HALF))}
    # ie_example_f's log-domain formula over all rows at once
    a, b = logs[:, 0], logs[:, 1]
    ie_f = (math.log(0.5) + np.logaddexp(a - np.logaddexp(0.0, a), b - np.logaddexp(0.0, b))
            + np.logaddexp(0.0, a + b))
    assert np.array_equal(ie_f[:1000], [ie_example_f(LogValue(x), LogValue(y)).log_e
                                        for x, y in zip(a[:1000], b[:1000])])
    samples["ie_f"] = np.exp(ie_f)
    # kernel outputs match the public operations on a sample of trials
    for i in (0, 1, 17):
        values = [LogValue(v) for v in logs[i]]
        assert nesp_log(values, 2).value == pytest.approx(samples["u2"][i], rel=1e-12)
    means = {}
    for name, sample in samples.items():
        mean = float(sample.mean())
        se = float(sample.std(ddof=1)) / math.sqrt(n)
        means[name] = (mean, se)
        assert mean <= 1.0 + 3.0 * se, f"{name}: mean {mean:.4f} > 1 + 3*{se:.4f}"
    assert ie_example_f(ONE, ONE).value == 1.0
    summary = ", ".join(f"{k}={m:.4f}" for k, (m, _) in means.items())
    report(6, f"1e5-trial means within 1 + 3se ({summary}); merge of two unit values is exactly 1")


def test_criterion_7_validator_and_decomposer():
    # exact unit weight vectors for every plain NESP polynomial
    for k in range(1, 9):
        for n in range(1, k + 1):
            weights = decompose_symmetric(merging_polynomial(k, MergeSpec.nesp(n)))
            assert weights == tuple(1.0 if d == n else 0.0 for d in range(k + 1))
    # mixtures validate and decompose back
    rng = np.random.default_rng(707)
    for _ in range(25):
        k = int(rng.integers(1, 7))
        raw = rng.uniform(0.1, 1.0, size=k + 1)
        weights = tuple(raw / raw.sum())
        poly = merging_polynomial(k, MergeSpec.mixture(weights))
        assert validate_merging_polynomial(poly).ok
        assert decompose_symmetric(poly) == pytest.approx(weights, abs=1e-12)
    # the two violation shapes are rejected
    unnormalized = MultiaffinePoly(
        k=2, coeffs={subset_to_mask((1,), 2): 0.5, subset_to_mask((1, 2), 2): 0.6}
    )
    verdict = validate_merging_polynomial(unnormalized)
    assert not verdict.ok and any("not normalized" in v for v in verdict.violations)
    negative = MultiaffinePoly(
        k=2, coeffs={0: 1.5, subset_to_mask((1,), 2): -0.5}
    )
    verdict = validate_merging_polynomial(negative)
    assert not verdict.ok and any("nonpositive" in v for v in verdict.violations)
    report(7, "unit decompositions exact for K<=8; mixtures accepted; both violation shapes rejected")


def test_criterion_8_golden_formats_and_thresholds():
    values = [LogValue.of(v) for v in (8, 4, 1)]
    first = discovery_matrix(RankedValues.from_values(values), U1)
    second = discovery_matrix(RankedValues.from_values(values), U1)
    csv_a, csv_b = formats.matrix_csv(first), formats.matrix_csv(second)
    svg_a, svg_b = formats.heatmap_svg(first), formats.heatmap_svg(second)
    assert csv_a == csv_b and svg_a == svg_b
    assert csv_a == (GOLDEN / "matrix_8_4_1_u1.csv").read_text()
    assert svg_a == (GOLDEN / "heatmap_8_4_1_u1.svg").read_text()
    boundaries = [
        (10.0, ColorBucket.YELLOW, ColorBucket.GREEN),
        (100.0, ColorBucket.ORANGE, ColorBucket.YELLOW),
        (1e8, ColorBucket.RED, ColorBucket.ORANGE),
        (1e14, ColorBucket.DARKRED, ColorBucket.RED),
        (1e20, ColorBucket.BLACK, ColorBucket.DARKRED),
    ]
    for edge, upper, lower in boundaries:
        assert colorize(LogValue.of(edge)) is upper, f"{edge} must sit in the upper bucket"
        assert colorize(LogValue.of(edge * (1 - 1e-9))) is lower
    assert colorize(LogValue.of(1.13e-20)) is ColorBucket.GREEN
    report(8, "golden CSV/SVG byte-stable; all five thresholds bucket upward")


def test_criterion_9_anytime_validity():
    """Ville's inequality on the simulated process: over every step and row,
    the diagonal reaches 1/alpha while the top r holds a true null, and the
    subdiagonal while it holds two (one at r = 1), each in at most an alpha
    share of seeds; ranks follow RankedValues' stable order.  Pathwise, each
    such bound is at most the merge of the true-null set, one of the index
    sets it minimises over, whose supremum Ville's inequality bounds."""
    t0 = time.perf_counter()
    alpha, n_seeds = 0.1, 150
    bound = alpha + 3.0 * math.sqrt(alpha * (1.0 - alpha) / n_seeds)
    level = -math.log10(alpha)
    cfg = ExperimentConfig(k=20, n_false=10, null_dist=(0.0, 1.0), true_dist_false_nulls=(-1.0, 1.0),
                           bet_dist=(-0.82, 1.0), steps=400, tracked_rows=tuple(range(1, 21)),
                           merge_diagonal=U1, merge_subdiagonal=U2)
    rows = np.arange(1, cfg.k + 1)
    errors = np.zeros(3)  # diagonal, subdiagonal, and the mean of the top r alone
    for seed in range(n_seeds):
        run_cfg = replace(cfg, seed=seed)
        run = run_experiment(run_cfg)
        k_idx, _, log_inc = draw_streams(run_cfg)
        logs = np.zeros((cfg.steps, cfg.k))
        logs[np.arange(cfg.steps), k_idx] = log_inc
        logs = np.cumsum(logs, axis=0)
        order = np.argsort(-logs, axis=1, kind="stable")  # RankedValues' order
        nulls = np.cumsum(order >= cfg.n_false, axis=1)  # true nulls among the top r, column r-1
        for n, (table, need, spec) in enumerate(((run.diagonal_series, 1, U1),
                                                 (run.subdiagonal_series, np.minimum(rows, 2), U2))):
            log10 = np.column_stack([table[r].log10_values for r in rows])
            held = nulls >= need
            null_merge = mixture_from_logs(spec, logs[:, cfg.n_false:])[:, None] / math.log(10.0)
            over = held & (log10 > null_merge + 1e-9)
            assert not over.any(), (seed, n, np.argwhere(over)[0])
            errors[n] += (held & (log10 >= level)).any()
        top = np.take_along_axis(logs, order, axis=1)
        top_mean = (np.logaddexp.accumulate(top, axis=1) - np.log(rows)) / math.log(10.0)
        errors[2] += ((nulls >= 1) & (top_mean >= level)).any()
    diagonal, subdiagonal, control = errors / n_seeds
    assert diagonal <= bound and subdiagonal <= bound, (diagonal, subdiagonal, bound)
    assert control > bound, control  # the gate can fail: an invalid bound does
    report(9, f"{n_seeds} seeds: error rates diagonal {diagonal:.3f}, subdiagonal "
              f"{subdiagonal:.3f} <= {bound:.3f}, top-r-only control {control:.3f} "
              f"({time.perf_counter() - t0:.1f}s)")
