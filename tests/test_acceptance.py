"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run pytest with -s or -rA to see them on success).

Every tolerance and runtime budget is pinned here; nothing is deferred to
later calibration.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from evalanche import (
    CONSTRAINT_EXACTLY_J_MISSING,
    CONSTRAINT_GE2_IN_TOP_R,
    CONSTRAINT_INTERSECTS_TOP_R,
    ColorBucket,
    LogValue,
    MergeSpec,
    ONE,
    RankedValues,
    U1,
    U1_U2_HALF,
    U2,
    brute_force_bound,
    colorize,
    decompose_symmetric,
    diagonal_row,
    discovery_matrix,
    ie_example_f,
    merging_polynomial,
    nesp_bell,
    nesp_log,
    nesp_powersum,
    paper_experiment_config,
    rank,
    regularize,
    run_experiment,
    subdiagonal_row,
    validate_merging_polynomial,
)
from evalanche.merging import mixture_from_logs
from evalanche.polynomials import MultiaffinePoly, subset_to_mask
from evalanche import formats
from oracles import nesp_log_oracle

GOLDEN = Path(__file__).parent / "golden"
SEEDS = tuple(range(1, 21))
SPECS = (U1, U2, U1_U2_HALF)


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
        raw_u1, _ = result.matrices[10_000]
        runs.append({"seed": seed, "ranked": ranked, "matrix_u1": raw_u1})
    elapsed = time.perf_counter() - t0
    return {"runs": runs, "elapsed": elapsed}


def test_criterion_1_nesp_oracle_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 13))
        n = int(rng.integers(1, k + 1))
        values = [LogValue.of(v) for v in 10.0 ** rng.uniform(-6.0, 6.0, size=k)]
        got = nesp_log(values, n).log_e
        want = nesp_log_oracle(values, n)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9, f"worst |dlog| {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f} s"
    report(1, f"200 enumeration-oracle instances, worst |dlog| {worst:.2e}, {elapsed:.1f} s")


def test_criterion_2_power_sum_and_bell_cross_paths():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 51))
        values = [LogValue.of(v) for v in rng.uniform(0.1, 10.0, size=k)]
        for n in range(1, 5):
            ref = nesp_log(values, n).log_e
            worst = max(worst, abs(nesp_powersum(values, n).log_e - ref))
        for n in range(1, 7):
            ref = nesp_log(values, n).log_e
            worst = max(worst, abs(nesp_bell(values, n).log_e - ref))
    assert worst <= 1e-8, f"worst relative error {worst:.3e}"
    report(2, f"200 cross-path instances (power sums n<=4, Bell n<=6), worst {worst:.2e}")


def test_criterion_3_scans_vs_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    checked = 0
    for _ in range(100):
        k = int(rng.integers(1, 11))
        values = [LogValue.of(v) for v in 10.0 ** rng.uniform(-4.0, 4.0, size=k)]
        ranked = RankedValues.from_values(values)
        for spec in SPECS:
            matrix = discovery_matrix(ranked, spec)
            for r in range(1, k + 1):
                d = diagonal_row(ranked, r, spec).log_e
                o = brute_force_bound(values, CONSTRAINT_INTERSECTS_TOP_R, r, spec).log_e
                worst = max(worst, abs(d - o))
                ds = subdiagonal_row(ranked, r, spec).log_e
                constraint = CONSTRAINT_GE2_IN_TOP_R if r >= 2 else CONSTRAINT_INTERSECTS_TOP_R
                os_ = brute_force_bound(values, constraint, r, spec).log_e
                if math.isinf(ds) and math.isinf(os_):
                    pass
                else:
                    worst = max(worst, abs(ds - os_))
                for j in range(r + 1):
                    cell = matrix.log10_entry(r, j) * math.log(10.0)
                    o = brute_force_bound(
                        values, CONSTRAINT_EXACTLY_J_MISSING, r, spec, j=j
                    ).log_e
                    worst = max(worst, abs(cell - o))
                    checked += 1
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9, f"worst |dlog| {worst:.3e}"
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    report(3, f"100 instances x 3 specs ({checked} matrix cells), worst |dlog| {worst:.2e}, {elapsed:.1f} s")


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
