import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import analyze_direct
from primeframes import (HtfParams, analyze_fast, analyze_naive, htf, plan,
                         synthesize_fast)
from primeframes.numtheory import prime_power_factorization
from primeframes.transform import _PRODUCT_MAX_ENTRIES

# Each side of the size rule: plans up to _PRODUCT_MAX_ENTRIES = n m
# transform by one matrix product, larger ones per coset.  (8, 4096, 8)
# sits at the constant and (9, 4096, 16) just above it; (100, 30030, 105)
# has p > n, so its coset transforms are zero-padded.
PRODUCT_SHAPES = ((3, 24, 3), (8, 1024, 8), (8, 4096, 8))
COSET_SHAPES = ((9, 4096, 16), (64, 4096, 64), (100, 30030, 105))


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
    for n, m in ((2, 0), (0, 3), (2, -4)):
        with pytest.raises(ValueError, match="need n >= 1 and m >= 1"):
            plan(n, m, 1)


def test_analyze_fast_matches_inner_products():
    for n, m, p in ((2, 4, 2), (2, 10, 2), (2, 10, 5), (3, 24, 4), (4, 24, 4),
                    (4, 24, 6)) + PRODUCT_SHAPES + COSET_SHAPES:
        tplan = plan(n, m, p)
        entries = htf(HtfParams(n, m)).entries
        for seed in range(5):
            x = seeded_signal(n, seed)
            fast = analyze_fast(tplan, x)
            direct = analyze_direct(entries, x)
            assert np.max(np.abs(fast - direct)) < 1e-12, (n, m, p)


def test_analyze_fast_matches_naive():
    for n, m, p in ((2, 4, 2), (2, 10, 5), (3, 24, 4),
                    (4, 24, 4)) + PRODUCT_SHAPES + COSET_SHAPES:
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
    for n, m, p in ((2, 4, 2), (2, 10, 5), (3, 24, 4),
                    (4, 24, 6)) + PRODUCT_SHAPES + COSET_SHAPES:
        tplan = plan(n, m, p)
        for seed in range(20):
            x = seeded_signal(n, seed)
            back = synthesize_fast(tplan, analyze_fast(tplan, x))
            assert np.max(np.abs(back - x)) < 1e-12


def test_synthesize_matches_direct_sum():
    for n, m, p in ((2, 10, 5), (3, 24, 3), (8, 4096, 8), (9, 4096, 16)):
        tplan = plan(n, m, p)
        entries = htf(HtfParams(n, m)).entries
        rng = np.random.default_rng(3)
        c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        want = (entries @ c) * (n / m)
        assert np.max(np.abs(synthesize_fast(tplan, c) - want)) < 1e-12


def test_batches_match_the_per_signal_loop_exactly():
    for n, m, p in ((3, 24, 3), (64, 4096, 64), (100, 30030, 105)):
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
    assert tplan.analysis_matrix.shape == (10, 2)
    assert tplan.synthesis_matrix.shape == (2, 10)
    for a in (tplan.analysis_twist, tplan.synthesis_twist,
              tplan.analysis_matrix, tplan.synthesis_matrix):
        with pytest.raises(ValueError):
            a[0] = 0


def test_plan_takes_the_product_up_to_the_size_constant():
    assert 8 * 4096 == _PRODUCT_MAX_ENTRIES < 9 * 4096
    for n, m, p in PRODUCT_SHAPES:
        tplan = plan(n, m, p)
        # Phi* and (n/m) Phi of the unit-norm frame
        phi = htf(HtfParams(n, m)).entries
        assert np.max(np.abs(tplan.analysis_matrix - phi.conj().T)) < 1e-15
        assert np.max(np.abs(tplan.synthesis_matrix - phi * (n / m))) < 1e-15
    for n, m, p in COSET_SHAPES:
        tplan = plan(n, m, p)
        assert tplan.analysis_matrix is None and tplan.synthesis_matrix is None


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

