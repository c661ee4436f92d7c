import math

import numpy as np
import pytest

from evalanche import (
    LogValue,
    MergeSpec,
    MultiaffinePoly,
    U1,
    U1_U2_HALF,
    decompose_symmetric,
    merging_polynomial,
    mixture_merge,
    validate_merging_polynomial,
)
from evalanche.errors import AsymmetricPolynomialError, DomainError
from evalanche.polynomials import subset_to_mask


def poly(k, mapping):
    return MultiaffinePoly(
        k=k, coeffs={subset_to_mask(s, k): c for s, c in mapping.items()}
    )


def test_validator_accepts_a_convex_symmetric_polynomial():
    p = poly(2, {(): 0.2, (1,): 0.15, (2,): 0.15, (1, 2): 0.5})
    verdict = validate_merging_polynomial(p)
    assert verdict.ok and not verdict.violations


def test_validator_rejects_unnormalized():
    p = poly(2, {(1,): 0.5, (1, 2): 0.6})
    verdict = validate_merging_polynomial(p)
    assert not verdict.ok
    assert any("not normalized" in v for v in verdict.violations)


def test_validator_rejects_negative_coefficient():
    p = poly(2, {(): 1.5, (1,): -0.5})
    verdict = validate_merging_polynomial(p)
    assert not verdict.ok
    assert any("nonpositive" in v for v in verdict.violations)


def test_decompose_worked_example():
    p = poly(2, {(): 0.2, (1,): 0.15, (2,): 0.15, (1, 2): 0.5})
    weights = decompose_symmetric(p)
    assert weights == pytest.approx((0.2, 0.3, 0.5), abs=1e-15)


def test_decompose_identity_on_the_mean():
    p = poly(3, {(1,): 1 / 3, (2,): 1 / 3, (3,): 1 / 3})
    assert decompose_symmetric(p) == (0.0, 1.0, 0.0, 0.0)


def test_decompose_rejects_asymmetric_with_witness():
    p = poly(2, {(): 0.2, (1,): 0.5, (2,): 0.3})
    with pytest.raises(AsymmetricPolynomialError) as err:
        decompose_symmetric(p)
    assert {err.value.subset_a, err.value.subset_b} == {(1,), (2,)}


def test_unit_weight_round_trip_is_exact():
    for k in range(1, 9):
        for n in range(1, k + 1):
            weights = decompose_symmetric(merging_polynomial(k, MergeSpec.nesp(n)))
            expected = tuple(1.0 if d == n else 0.0 for d in range(k + 1))
            assert weights == expected  # exact, no tolerance


def test_mixture_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(20):
        k = int(rng.integers(1, 7))
        raw = rng.uniform(0.0, 1.0, size=k + 1)
        w = tuple(raw / raw.sum())
        spec = MergeSpec.mixture(w)
        p = merging_polynomial(k, spec)
        assert validate_merging_polynomial(p).ok or 0.0 in w
        got = decompose_symmetric(p)
        assert got == pytest.approx(w, abs=1e-12)


def test_decomposed_mixture_matches_direct_evaluation():
    """Re-evaluating the recovered mixture reproduces the polynomial."""
    rng = np.random.default_rng(11)
    p = poly(4, {
        (): 0.1,
        (1,): 0.05, (2,): 0.05, (3,): 0.05, (4,): 0.05,
        (1, 2): 0.1, (1, 3): 0.1, (1, 4): 0.1, (2, 3): 0.1, (2, 4): 0.1, (3, 4): 0.1,
        (1, 2, 3, 4): 0.1,
    })
    weights = decompose_symmetric(p)
    spec = MergeSpec.mixture(weights)
    for _ in range(100):
        xs = rng.uniform(0.0, 5.0, size=4)
        direct = p.evaluate(list(xs))
        via_mixture = mixture_merge(spec, [LogValue.of(x) for x in xs]).value
        assert via_mixture == pytest.approx(direct, rel=1e-10)


def test_evaluate_and_coefficient_access():
    p = poly(2, {(): 0.25, (1, 2): 0.75})
    assert p.evaluate([1.0, 1.0]) == pytest.approx(1.0)
    assert p.evaluate([2.0, 3.0]) == pytest.approx(0.25 + 0.75 * 6.0)
    assert p.coefficient((1, 2)) == 0.75
    assert p.coefficient((1,)) == 0.0


def test_arity_limits():
    with pytest.raises(DomainError):
        MultiaffinePoly(k=21, coeffs={})
    with pytest.raises(DomainError):
        MultiaffinePoly(k=2, coeffs={8: 1.0})  # mask needs 4 variables
    with pytest.raises(DomainError):
        MultiaffinePoly(k=2, coeffs={0: math.inf})
    with pytest.raises(DomainError, match="expected 2 arguments, got 3"):
        MultiaffinePoly(k=2, coeffs={}).evaluate([1.0, 1.0, 1.0])


def test_merging_polynomial_of_u1():
    p = merging_polynomial(3, U1)
    assert p.coefficient((1,)) == pytest.approx(1 / 3)
    assert p.coefficient(()) == 0.0
    assert validate_merging_polynomial(p).ok


def test_merging_polynomial_of_mixture_sums_to_one():
    p = merging_polynomial(4, U1_U2_HALF)
    assert math.fsum(p.coeffs.values()) == pytest.approx(1.0, abs=1e-12)
