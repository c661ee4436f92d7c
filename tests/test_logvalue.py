import math

import pytest
from hypothesis import given, strategies as st

from evalanche import INFINITE, LogValue, ONE, ZERO
from evalanche.errors import DomainError


def test_of_and_back():
    assert LogValue.of(2.5).value == pytest.approx(2.5, rel=1e-15)
    assert LogValue.of(0.0) is not None and LogValue.of(0.0).is_zero
    assert LogValue.of(math.inf).is_infinite
    assert LogValue.of(1.0).log_e == 0.0


@given(st.floats(min_value=1e-300, max_value=1e300))
def test_round_trip_within_float_precision(x):
    # exp(log(x)) carries |log x| * eps of relative error, ~1e-13 at the extremes
    assert LogValue.of(x).value == pytest.approx(x, rel=1e-12)


def test_rejects_bad_inputs():
    with pytest.raises(DomainError):
        LogValue.of(-1.0)
    with pytest.raises(DomainError):
        LogValue.of(math.nan)
    with pytest.raises(DomainError):
        LogValue(math.nan)


def test_multiplication_is_log_addition():
    a, b = LogValue.of(8.0), LogValue.of(4.0)
    assert (a * b).value == pytest.approx(32.0, rel=1e-15)
    assert (a * ZERO).is_zero
    assert (a * INFINITE).is_infinite
    with pytest.raises(DomainError):
        ZERO * INFINITE


def test_addition_is_logsumexp():
    a, b = LogValue.of(3.0), LogValue.of(5.0)
    assert (a + b).value == pytest.approx(8.0, rel=1e-15)
    assert (a + ZERO).log_e == a.log_e
    assert (a + INFINITE).is_infinite
    # values far outside the linear range still add exactly on the log scale
    huge = LogValue.from_log10(400.0)
    assert (huge + huge).log10 == pytest.approx(400.0 + math.log10(2.0), abs=1e-12)


def test_ordering_matches_represented_values():
    vals = [ZERO, LogValue.of(0.5), ONE, LogValue.of(7.0), INFINITE]
    assert sorted(vals) == vals
    assert max(vals).is_infinite


def test_log10_and_value_extremes():
    assert LogValue.from_log10(500.0).value == math.inf  # beyond double range
    assert LogValue.from_log10(-500.0).value == 0.0
    assert ZERO.log10 == -math.inf
    assert INFINITE.log10 == math.inf
    assert LogValue(math.inf).value == math.inf
