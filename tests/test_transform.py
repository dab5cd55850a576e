import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import analyze_direct
from primeframes import (HtfParams, analyze_fast, analyze_naive, htf, plan,
                         synthesize_fast)
from primeframes.numtheory import prime_power_factorization


def seeded_signal(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_plan_structure():
    tplan = plan(2, 10, 5)
    assert tplan.factor_size == 5 and tplan.coset_count == 2
    w = np.exp(2j * np.pi / 10)
    # column q-1 serves coset q: w^{-t(q-1)}/sqrt(n), w^{t(q-1)} p sqrt(n)/m
    assert np.allclose(tplan.analysis_twist,
                       np.array([[1, 1], [1, np.conj(w)]]) / np.sqrt(2))
    assert np.allclose(tplan.synthesis_twist,
                       np.array([[1, 1], [1, w]]) * 5 * np.sqrt(2) / 10)
    assert plan(2, 4, 2).coset_count == 2


def test_plan_rejects_non_minimal_sizes():
    with pytest.raises(ValueError):
        plan(2, 10, 3)
    with pytest.raises(ValueError):
        plan(2, 10, 10)
    with pytest.raises(ValueError):
        plan(2, 24, 4)
    with pytest.raises(ValueError):
        plan(2, 7, 7)


def test_analyze_fast_matches_inner_products():
    for n, m, p in ((2, 4, 2), (2, 10, 2), (2, 10, 5), (3, 24, 3),
                    (3, 24, 4), (4, 24, 4), (4, 24, 6)):
        tplan = plan(n, m, p)
        entries = htf(HtfParams(n, m)).entries
        for seed in range(5):
            x = seeded_signal(n, seed)
            fast = analyze_fast(tplan, x)
            direct = analyze_direct(entries, x)
            assert np.max(np.abs(fast - direct)) < 1e-12, (n, m, p)


def test_analyze_fast_matches_naive():
    for n, m, p in ((2, 4, 2), (2, 10, 5), (3, 24, 4), (4, 24, 4)):
        tplan = plan(n, m, p)
        for seed in range(20):
            x = seeded_signal(n, seed)
            assert np.max(np.abs(analyze_fast(tplan, x)
                                 - analyze_naive(n, m, x))) < 1e-12


def test_analyze_naive_matches_inner_products():
    for n, m in ((2, 4), (3, 7), (4, 4), (5, 13)):
        entries = htf(HtfParams(n, m)).entries
        x = seeded_signal(n, 7)
        assert np.max(np.abs(analyze_naive(n, m, x)
                             - analyze_direct(entries, x))) < 1e-12


def test_coefficients_follow_analysis_convention():
    # c_1 pairs the signal with the all-ones column: <x, phi_1>
    tplan = plan(2, 4, 2)
    e1 = np.array([1.0, 0.0])
    coeffs = analyze_fast(tplan, e1)
    assert np.max(np.abs(coeffs - 1 / np.sqrt(2))) < 1e-14


def test_round_trip_reconstruction():
    for n, m, p in ((2, 4, 2), (2, 10, 5), (3, 24, 4), (4, 24, 6)):
        tplan = plan(n, m, p)
        for seed in range(20):
            x = seeded_signal(n, seed)
            back = synthesize_fast(tplan, analyze_fast(tplan, x))
            assert np.max(np.abs(back - x)) < 1e-12


def test_synthesize_matches_direct_sum():
    for n, m, p in ((2, 10, 5), (3, 24, 3)):
        tplan = plan(n, m, p)
        entries = htf(HtfParams(n, m)).entries
        rng = np.random.default_rng(3)
        c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        want = (entries @ c) * (n / m)
        assert np.max(np.abs(synthesize_fast(tplan, c) - want)) < 1e-12


def test_batches_match_the_per_signal_loop_exactly():
    for n, m, p in ((3, 24, 3), (100, 30030, 105)):
        tplan = plan(n, m, p)
        xs = np.array([seeded_signal(n, seed) for seed in range(7)])
        coeffs = analyze_fast(tplan, xs)
        assert coeffs.shape == (7, m)
        assert np.all(coeffs == [analyze_fast(tplan, x) for x in xs])
        assert np.all(analyze_naive(n, m, xs)
                      == [analyze_naive(n, m, x) for x in xs])
        back = synthesize_fast(tplan, coeffs)
        assert back.shape == (7, n)
        assert np.all(back == [synthesize_fast(tplan, c) for c in coeffs])
        grid = analyze_fast(tplan, xs[:6].reshape(2, 3, n))
        assert np.all(grid.reshape(6, m) == coeffs[:6])


def test_plan_arrays_are_read_only():
    tplan = plan(2, 10, 5)
    assert tplan.analysis_twist.shape == tplan.synthesis_twist.shape == (2, 2)
    for a in (tplan.analysis_twist, tplan.synthesis_twist):
        with pytest.raises(ValueError):
            a[0] = 0


@st.composite
def transform_cases(draw):
    """(n, m, p, batch shape, seed) with p a minimal divisor size.

    p is a proper divisor of m (above 1 unless m is prime), so p <= m - p.
    n lies above every proper divisor of p and is at most p, which makes
    p a minimal divisor size of (n, m); plan() rejects any other p.
    """
    m = draw(st.integers(2, 400))
    p = draw(st.sampled_from([d for d in range(2, m) if m % d == 0] or [1]))
    below = max((p // q for q, _ in prime_power_factorization(p)), default=0)
    n = draw(st.integers(below + 1, p))
    batch = draw(st.sampled_from(((), (3,), (2, 2))))
    return n, m, p, batch, draw(st.integers(0, 2**32 - 1))


@given(transform_cases())
def test_property_synthesis_inverts_analysis(case):
    n, m, p, batch, seed = case
    tplan = plan(n, m, p)
    x = seeded_signal(batch + (n,), seed)
    back = synthesize_fast(tplan, analyze_fast(tplan, x))
    assert back.shape == x.shape
    assert np.max(np.abs(back - x)) < 1e-12


@given(transform_cases())
def test_property_fast_analysis_matches_naive(case):
    n, m, p, batch, seed = case
    x = seeded_signal(batch + (n,), seed)
    fast = analyze_fast(plan(n, m, p), x)
    assert fast.shape == batch + (m,)
    assert np.max(np.abs(fast - analyze_naive(n, m, x))) < 1e-12


def test_transform_input_validation():
    tplan = plan(2, 10, 5)
    with pytest.raises(ValueError):
        analyze_fast(tplan, np.zeros(3))
    with pytest.raises(ValueError):
        synthesize_fast(tplan, np.zeros(9))
    with pytest.raises(ValueError):
        analyze_naive(2, 10, np.zeros((2, 1)))

