import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evalanche import (
    INFINITE,
    LogValue,
    MergeSpec,
    U1,
    U1_U2_HALF,
    U2,
    ie_example_f,
    mixture_merge,
    nesp_bell,
    nesp_enumerate,
    nesp_log,
    nesp_powersum,
)
from evalanche.errors import DomainError, NumericalError
from evalanche.merging import MAX_DEGREE, mixture_from_logs, suffix_esp_levels
from evalanche.oracles import _subset_table
from oracles import nesp_log_oracle


def lv(*xs):
    return [LogValue.of(float(x)) for x in xs]


# ---------------------------------------------------------------------------
# worked values (verified against the enumeration oracle where nontrivial)


@pytest.mark.parametrize(
    "values,n,expected",
    [
        ((1, 1, 1, 1), 2, 1.0),
        ((8, 4), 2, 32.0),
        ((1, 2, 3, 4), 2, 35.0 / 6.0),  # six pairs summing to 35
        ((8, 4, 1), 2, 44.0 / 3.0),
        ((1, 2, 3, 4), 3, 12.5),
        ((8, 4, 1), 1, 13.0 / 3.0),
    ],
)
def test_nesp_log_worked_values(values, n, expected):
    got = nesp_log(lv(*values), n)
    assert got.value == pytest.approx(expected, rel=1e-12)
    assert got.log_e == pytest.approx(nesp_log_oracle(lv(*values), n), abs=1e-10)


def test_nesp_log_rejects_empty_and_bad_degree():
    with pytest.raises(DomainError):
        nesp_log([], 1)
    with pytest.raises(DomainError):
        nesp_log(lv(1, 2), 0)


def test_arity_shortfall_falls_back_to_lower_degree():
    # degree capped at the argument count: one argument behaves like the mean
    assert nesp_log(lv(8), 2).value == pytest.approx(8.0)
    # two arguments with degree 5 behave like the product
    assert nesp_log(lv(3, 5), 5).value == pytest.approx(15.0)


def test_nesp_enumerate_agrees_with_external_oracle():
    rng = np.random.default_rng(99)
    for _ in range(20):
        k = int(rng.integers(1, 10))
        n = int(rng.integers(1, k + 1))
        values = [LogValue.of(v) for v in 10.0 ** rng.uniform(-3, 3, size=k)]
        assert nesp_enumerate(values, n).log_e == pytest.approx(
            nesp_log_oracle(values, n), abs=1e-10
        )


# ---------------------------------------------------------------------------
# properties


@given(
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=300),
)
@settings(max_examples=60, deadline=None)
def test_normalized_at_all_ones(m, n):
    got = nesp_log([LogValue.of(1.0)] * m, n)
    assert abs(got.log_e) <= 1e-12


@given(
    st.lists(st.floats(min_value=1e-4, max_value=1e4), min_size=1, max_size=10),
    st.integers(min_value=1, max_value=10),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_monotone_in_each_input(values, n, data):
    base = [LogValue.of(v) for v in values]
    i = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
    bumped = list(base)
    bumped[i] = LogValue.of(values[i] * 1.5)
    assert nesp_log(bumped, n).log_e >= nesp_log(base, n).log_e - 1e-12


def test_infinity_propagation():
    vals = lv(2, 3) + [INFINITE]
    assert nesp_log(vals, 1).is_infinite
    assert nesp_log(vals, 3).is_infinite
    assert mixture_merge(U1_U2_HALF, vals).is_infinite
    # a mixture with all weight on the constant never sees its arguments
    only_const = MergeSpec.mixture([1.0])
    assert mixture_merge(only_const, vals).value == 1.0
    # the suffix levels take +inf values only at the front, as ranking puts them
    with pytest.raises(DomainError, match="descending"):
        suffix_esp_levels(np.array([1.0, math.inf]), 1)


def test_zeros_are_handled():
    assert nesp_log(lv(0, 0, 5), 1).value == pytest.approx(5.0 / 3.0)
    assert nesp_log(lv(0, 0, 5), 2).is_zero
    assert nesp_log(lv(0, 4), 2).is_zero


# ---------------------------------------------------------------------------
# mixtures


def test_mixture_worked_values():
    assert mixture_merge(U1_U2_HALF, lv(8, 4)).value == pytest.approx(19.0, rel=1e-12)
    assert mixture_merge(MergeSpec.mixture([1.0]), lv(7, 9)).value == pytest.approx(1.0)
    assert mixture_merge(U1, lv(8, 4, 1)).value == pytest.approx(13.0 / 3.0, rel=1e-12)


def test_nesp_kind_routes_to_nesp_log_exactly():
    vals = lv(3, 7, 11)
    assert mixture_merge(U2, vals).log_e == nesp_log(vals, 2).log_e


def test_mixture_arity_collapse():
    # on two arguments, weight at degrees >= 2 all lands on the product
    spec = MergeSpec.mixture([0.0, 0.25, 0.25, 0.5])
    got = mixture_merge(spec, lv(8, 4))
    assert got.value == pytest.approx(0.25 * 6 + 0.75 * 32, rel=1e-12)


def test_merge_spec_validation():
    with pytest.raises(DomainError):
        MergeSpec.nesp(0)
    with pytest.raises(DomainError):
        MergeSpec.mixture([0.5, 0.6])
    with pytest.raises(DomainError):
        MergeSpec.mixture([1.5, -0.5])
    with pytest.raises(DomainError):
        MergeSpec.mixture([])
    with pytest.raises(DomainError, match="no weights"):
        MergeSpec(kind="nesp", n=1, weights=(1.0,))
    with pytest.raises(DomainError, match="no single degree"):
        MergeSpec(kind="mixture", n=1, weights=(0.0, 1.0))
    with pytest.raises(DomainError, match="unknown merge kind"):
        MergeSpec(kind="median")
    assert MergeSpec.mixture([0.25, 0.75]).max_degree == 1
    assert MergeSpec.nesp(MAX_DEGREE).max_degree == MAX_DEGREE
    assert MergeSpec.mixture([0.0] * MAX_DEGREE + [1.0]).max_degree == MAX_DEGREE
    with pytest.raises(DomainError, match="degree"):
        MergeSpec.nesp(MAX_DEGREE + 1)
    with pytest.raises(DomainError, match="degree"):
        MergeSpec.mixture([0.0] * (MAX_DEGREE + 1) + [1.0])


# ---------------------------------------------------------------------------
# batched rows


_BATCH_SPECS = (U1, U2, MergeSpec.nesp(9), U1_U2_HALF, MergeSpec.mixture([1.0]),
                MergeSpec.mixture([0.25, 0.0, 0.0, 0.0, 0.0, 0.75]))
# finite logs, exact zeros and +inf, drawn from a few values so rows hold ties
_batch_logs = st.sampled_from([-700.0, -3.5, -1.0, 0.0, 0.0, 2.25, 2.25, 699.0, -math.inf, math.inf])


@given(
    st.integers(min_value=1, max_value=7).flatmap(
        lambda m: st.lists(st.lists(_batch_logs, min_size=m, max_size=m), min_size=1, max_size=12)
    ),
    st.sampled_from(_BATCH_SPECS),
)
@settings(max_examples=150, deadline=None)
def test_batched_rows_equal_single_row_calls(rows, spec):
    """An (N, m) batch merges each row exactly as a 1-D call does; m runs
    below the top degree of u9 and of the degree-5 mixture."""
    logs = np.array(rows)
    got = mixture_from_logs(spec, logs)
    assert got.shape == (len(rows),)
    assert np.array_equal(got, [mixture_from_logs(spec, row) for row in logs])
    assert np.array_equal(mixture_from_logs(spec, logs[None]), got[None])


@pytest.mark.parametrize("spec", (U1, U2, U1_U2_HALF, MergeSpec.mixture([0.1, 0.2, 0.3, 0.4])))
def test_subset_table_matches_per_subset_merges(spec):
    rng = np.random.default_rng(31)
    for k in range(1, 9):
        logs = np.sort(rng.uniform(-9.0, 9.0, size=k))[::-1]
        if k >= 4:
            logs[1], logs[-1] = logs[2], -math.inf  # a tie and a zero
        table = _subset_table(tuple(float(x) for x in logs), spec)
        want = [0.0] + [
            mixture_from_logs(spec, logs[[i for i in range(k) if mask >> i & 1]])
            for mask in range(1, 1 << k)
        ]
        assert np.array_equal(table, want), k


# ---------------------------------------------------------------------------
# linear-scale oracle paths


def test_powersum_worked_values():
    assert nesp_powersum(lv(1, 2, 3, 4), 2).value == pytest.approx(35.0 / 6.0, rel=1e-12)
    assert nesp_powersum(lv(7, 7, 7, 7, 7), 3).value == pytest.approx(343.0, rel=1e-12)
    assert nesp_powersum([LogValue.of(1.0)] * 50, 4).value == pytest.approx(1.0, rel=1e-12)


def test_powersum_degree_range():
    with pytest.raises(DomainError):
        nesp_powersum(lv(1, 2, 3, 4, 5), 5)
    with pytest.raises(DomainError):
        nesp_powersum(lv(1, 2), 0)


def test_powersum_overflow_is_reported():
    with pytest.raises(NumericalError):
        nesp_powersum(lv(1e200, 1e200), 2)


def test_bell_worked_values():
    assert nesp_bell(lv(1, 2, 3, 4), 1).value == pytest.approx(2.5, rel=1e-12)
    assert nesp_bell(lv(1, 2, 3, 4), 3).value == pytest.approx(12.5, rel=1e-10)
    assert nesp_bell(lv(2, 2), 2).value == pytest.approx(4.0, rel=1e-12)
    # zeros make the high-degree polynomials vanish exactly
    assert nesp_bell(lv(0, 0, 1), 2).is_zero


def test_bell_overflow_is_reported():
    with pytest.raises(NumericalError):
        nesp_bell(lv(1e200, 1e200, 1e200), 3)


# ---------------------------------------------------------------------------
# the two-argument independent-e-value merge


def test_ie_example_worked_values():
    assert ie_example_f(LogValue.of(1.0), LogValue.of(1.0)).value == 1.0
    assert ie_example_f(LogValue.of(0.0), LogValue.of(0.0)).is_zero
    assert ie_example_f(LogValue.of(1.0), LogValue.of(3.0)).value == pytest.approx(2.5, rel=1e-12)
    assert ie_example_f(INFINITE, LogValue.of(2.0)).is_infinite


@given(
    st.floats(min_value=1e-6, max_value=1e6),
    st.floats(min_value=1e-6, max_value=1e6),
)
@settings(max_examples=60, deadline=None)
def test_ie_example_symmetric(a, b):
    x = ie_example_f(LogValue.of(a), LogValue.of(b)).log_e
    y = ie_example_f(LogValue.of(b), LogValue.of(a)).log_e
    assert x == pytest.approx(y, abs=1e-12)


def test_ie_example_huge_arguments_stay_in_log_domain():
    big = LogValue.from_log10(300.0)
    got = ie_example_f(big, big)
    # each e/(1+e) saturates at 1, so f -> 1 + e^2
    assert got.log10 == pytest.approx(600.0, abs=1e-9)


def test_merged_unit_mean_e_values_stay_e_values():
    """Monte Carlo: merging independent unit-mean e-values keeps mean <= 1."""
    rng = np.random.default_rng(20240542)
    n, k = 30_000, 5
    x = rng.standard_normal((n, k))
    e = np.exp(-x - 0.5)  # unit mean under the standard normal
    p1 = e.sum(axis=1)
    p2 = (e * e).sum(axis=1)
    merged = {
        "u1": p1 / k,
        "u2": (p1 * p1 - p2) / (k * (k - 1)),
        "ie_f": 0.5 * (e[:, 0] / (1 + e[:, 0]) + e[:, 1] / (1 + e[:, 1])) * (1 + e[:, 0] * e[:, 1]),
    }
    merged["mix"] = 0.5 * merged["u1"] + 0.5 * merged["u2"]
    # the vectorized formulas agree with the library on a sample trial
    first = [LogValue.of(v) for v in e[0]]
    assert nesp_log(first, 2).value == pytest.approx(merged["u2"][0], rel=1e-10)
    assert mixture_merge(U1_U2_HALF, first).value == pytest.approx(merged["mix"][0], rel=1e-10)
    assert ie_example_f(first[0], first[1]).value == pytest.approx(merged["ie_f"][0], rel=1e-10)
    for name, sample in merged.items():
        mean = sample.mean()
        se = sample.std(ddof=1) / math.sqrt(n)
        assert mean <= 1.0 + 3.0 * se, f"{name}: mean {mean} exceeds 1 + 3se"
