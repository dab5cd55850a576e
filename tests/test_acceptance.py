"""End-to-end acceptance battery.

Each test prints one [PASS]/[FAIL] line (visible under ``pytest -s``) and
enforces both the numerical claim and a wall-clock budget.  Tolerances
are pinned; do not loosen them.
"""

import json
import math
import os
import sys
import time

import numpy as np

from conftest import (DATA_DIR, columns_as_multiset, hexagon_frame,
                      mercedes_frame, run_subprocess)
from primeframes import (HtfParams, check_equiangular, check_tight,
                         complement_certificate, divisor_sets, find_divisor,
                         htf, htf_coherence, htf_divisor_of_size, htf_is_prime,
                         htf_prime_factors, analyze_fast, analyze_naive,
                         coherence, index_coset, is_prime_bruteforce, plan,
                         prime_factorization, prime_parseval_extension,
                         random_tight_frame, stf, stf_factorize,
                         stf_is_divisible, stf_low_redundancy_feasible,
                         synthesize_fast,
                         tight_subsets, welch_bound)
from primeframes.io import frame_from_csv, read_frame

REF_STF_4_11 = np.array([
    [1, 1, math.sqrt(3 / 8), math.sqrt(3 / 8), 0, 0, 0, 0, 0, 0, 0],
    [0, 0, math.sqrt(5 / 8), -math.sqrt(5 / 8), 1, math.sqrt(1 / 4),
     math.sqrt(1 / 4), 0, 0, 0, 0],
    [0, 0, 0, 0, 0, math.sqrt(3 / 4), -math.sqrt(3 / 4), 1,
     math.sqrt(1 / 8), math.sqrt(1 / 8), 0],
    [0, 0, 0, 0, 0, 0, 0, 0, math.sqrt(7 / 8), -math.sqrt(7 / 8), 1],
])


def run_criterion(num, label, limit_s, body):
    t0 = time.perf_counter()
    failure = None
    try:
        body()
    except AssertionError as exc:
        failure = str(exc) or "assertion failed"
    except Exception as exc:
        failure = "%s: %s" % (type(exc).__name__, exc)
    elapsed = time.perf_counter() - t0
    ok = failure is None and elapsed <= limit_s
    print("[%s] criterion %2d: %s (%.2f s, limit %d s)"
          % ("PASS" if ok else "FAIL", num, label, elapsed, limit_s))
    assert failure is None, "criterion %d: %s" % (num, failure)
    assert elapsed <= limit_s, (
        "criterion %d took %.2f s, limit %d s" % (num, elapsed, limit_s))


def test_criterion_01_sparse_4x11_matrix_via_cli():
    def body():
        proc = run_subprocess(
            [sys.executable, "-m", "primeframes", "stf",
             "--n", "4", "--m", "11", "--format", "csv"])
        assert proc.returncode == 0, proc.stderr
        phi = frame_from_csv(proc.stdout)
        assert phi.entries.shape == (4, 11)
        assert np.max(np.abs(phi.entries - REF_STF_4_11)) <= 1e-12

    run_criterion(1, "CLI reproduces the 4x11 sparse frame", 1, body)


def test_criterion_02_factorization_identity_4x11():
    def body():
        fact = stf_factorize(4, 11)
        assert fact.basis_copies == 1
        assert fact.basis_indices == ((1, 5, 8, 11),)
        reduced = stf(4, 7)
        assert (columns_as_multiset(fact.prime_core.entries, 12)
                == columns_as_multiset(reduced.entries, 12))

    run_criterion(2, "4x11 frame = low-redundancy core + basis", 1, body)


def test_criterion_03_divisor_set_tables():
    def body():
        for n, m in ((2, 7), (3, 13), (5, 11)):
            sets = divisor_sets(n, m)
            assert (sets.divisors, sets.minimal_divisors,
                    sets.divisible_sizes) == ((), (), ())
        for n in (2, 3):
            sets = divisor_sets(n, 9)
            assert (sets.divisors, sets.minimal_divisors,
                    sets.divisible_sizes) == ((3,), (3,), (3, 6))
        assert divisor_sets(4, 9).divisors == ()
        sets = divisor_sets(2, 10)
        assert (sets.divisors, sets.minimal_divisors,
                sets.divisible_sizes) == ((2, 5), (2, 5), (2, 4, 5, 6, 8))
        for n in (3, 4, 5):
            sets = divisor_sets(n, 10)
            assert (sets.divisors, sets.minimal_divisors,
                    sets.divisible_sizes) == ((5,), (5,), (5,))
        sets = divisor_sets(2, 24)
        assert (sets.divisors, sets.minimal_divisors,
                sets.divisible_sizes) == ((2, 3, 4, 6, 8, 12), (2, 3),
                                          tuple(range(2, 23)))
        sets = divisor_sets(3, 24)
        assert (sets.divisors, sets.minimal_divisors,
                sets.divisible_sizes) == (
            (3, 4, 6, 8, 12), (3, 4),
            tuple(s for s in range(3, 22) if s not in (5, 19)))
        sets = divisor_sets(4, 24)
        assert (sets.divisors, sets.minimal_divisors,
                sets.divisible_sizes) == ((4, 6, 8, 12), (4, 6),
                                          tuple(range(4, 21, 2)))

    run_criterion(3, "divisor-set tables match the reference values", 1, body)


def test_criterion_04_harmonic_primality_oracle_equivalence():
    def body():
        for n in range(2, 17):
            for m in range(n, 17):
                closed = htf_is_prime(n, m)
                brute = is_prime_bruteforce(htf(HtfParams(n, m)), 1e-9)
                assert closed == brute, (n, m)

    run_criterion(4, "closed-form harmonic primality equals brute force "
                     "(n, m <= 16)", 300, body)


def test_criterion_05_tetris_criterion_oracle_equivalence():
    def body():
        for n in range(2, 6):
            for m in range(2 * n, 21):
                divisible = not is_prime_bruteforce(stf(n, m))
                assert stf_is_divisible(n, m) == divisible, (n, m)

    run_criterion(5, "tetris divisibility criterion equals brute force "
                     "(n <= 5, m <= 20)", 300, body)


def test_criterion_06_low_redundancy_characterization():
    def body():
        for n in range(2, 33):
            for m_tilde in range(n + 1, 2 * n):
                d = 2 * n - m_tilde
                closed = (m_tilde >= 2 * n - 1
                          or (n % d == 0 and m_tilde % d == 0))
                assert stf_low_redundancy_feasible(n, m_tilde) == closed
        for n, m_tilde in ((4, 7), (2, 3)):
            phi = stf(n, m_tilde)
            assert np.max(np.abs(phi.column_norms() - 1.0)) <= 1e-12
            rep = check_tight(phi, 1e-12)
            assert rep.is_tight and abs(rep.bound - m_tilde / n) <= 1e-12

    run_criterion(6, "low-redundancy feasibility matches its closed form "
                     "(n <= 32)", 10, body)


def test_criterion_07_certificates_split_the_bound():
    def body():
        certs = []
        for phi in (hexagon_frame(), htf(HtfParams(2, 10)),
                    htf(HtfParams(2, 24)), htf(HtfParams(3, 24)),
                    stf(4, 11), stf(2, 8), stf(3, 12)):
            cert = find_divisor(phi)
            assert cert is not None
            certs.append((phi, cert))
        for n, m in ((2, 9), (2, 10), (2, 24), (3, 24), (4, 24), (3, 9)):
            phi = htf(HtfParams(n, m))
            for size in divisor_sets(n, m).divisible_sizes:
                subset = htf_divisor_of_size(HtfParams(n, m), size)
                certs.append((phi, complement_certificate(phi, subset)))
        assert len(certs) >= 50
        for phi, cert in certs:
            parent = check_tight(phi).bound
            inside = set(cert.subset)
            rest = tuple(i for i in range(1, phi.m + 1) if i not in inside)
            sub_rep = check_tight(phi.submatrix(cert.subset))
            rest_rep = check_tight(phi.submatrix(rest))
            assert sub_rep.is_tight and rest_rep.is_tight
            assert abs(cert.bound + cert.complement_bound - parent) <= 1e-9
            assert abs(sub_rep.bound - cert.bound) <= 1e-9
            assert abs(rest_rep.bound - cert.complement_bound) <= 1e-9

    run_criterion(7, "divisor certificates split the bound with tight "
                     "complements", 60, body)


def test_criterion_08_hexagon_census():
    def body():
        phi = hexagon_frame()
        triples = tight_subsets(phi, 3)
        assert triples == [(1, 2, 3), (1, 2, 6), (1, 3, 5), (1, 5, 6),
                           (2, 3, 4), (2, 4, 6), (3, 4, 5), (4, 5, 6)]
        fact = prime_factorization(phi)
        assert sorted(len(f) for f in fact.factors) == [3, 3]

    run_criterion(8, "hexagon frame has 8 tight triples and splits in two",
                  1, body)


def test_criterion_09_dual_factorizations_of_ten_vectors():
    def body():
        params = HtfParams(2, 10)
        whole = htf(params).entries
        for p, count in ((2, 5), (5, 2)):
            factors = htf_prime_factors(params, p)
            assert len(factors) == count
            rebuilt = np.zeros_like(whole)
            for q, factor in enumerate(factors, start=1):
                rep = check_tight(factor)
                assert rep.is_tight and is_prime_bruteforce(factor)
                for pos, i in enumerate(index_coset(10, p, q)):
                    rebuilt[:, i - 1] = factor.entries[:, pos]
            assert np.max(np.abs(rebuilt - whole)) <= 1e-12

    run_criterion(9, "ten-vector harmonic frame factors along both coset "
                     "sizes", 1, body)


def test_criterion_10_transform_equivalence():
    def body():
        for n, m, p in ((2, 4, 2), (2, 10, 5), (3, 24, 4), (4, 24, 4)):
            tplan = plan(n, m, p)
            for seed in range(100):
                rng = np.random.default_rng(seed)
                x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                fast = analyze_fast(tplan, x)
                naive = analyze_naive(n, m, x)
                assert np.max(np.abs(fast - naive)) <= 1e-10, (n, m, p, seed)
                back = synthesize_fast(tplan, fast)
                assert np.max(np.abs(back - x)) <= 1e-10, (n, m, p, seed)

    run_criterion(10, "fast transform agrees with the reference transform",
                  30, body)


def test_criterion_11_coherence_closed_forms():
    def body():
        for n in range(2, 64):
            for m in range(n + 1, 65):
                closed = htf_coherence(n, m)
                brute = coherence(htf(HtfParams(n, m)))
                assert abs(closed - brute) <= 1e-12, (n, m)
                minimal = divisor_sets(n, m).minimal_divisors
                for p in minimal:
                    assert htf_coherence(n, p) < closed, (n, m, p)
        for n in range(3, 65):
            for p in range(n, 2 * n + 1):
                assert htf_coherence(n, p) <= 2 / 3 + 1e-12, (n, p)
        assert abs(htf_coherence(3, 6) - 2 / 3) <= 1e-12

    run_criterion(11, "closed-form coherence matches brute force and factor "
                      "coherence shrinks", 60, body)


def test_criterion_12_random_frames_are_prime():
    def body():
        for seed in range(100):
            phi = random_tight_frame(3, 8, seed)
            rep = check_tight(phi)
            assert rep.is_tight and abs(rep.bound - 1.0) <= 1e-9
            assert is_prime_bruteforce(phi), seed

    run_criterion(12, "random tight frames at (3, 8) are prime", 120, body)


def test_criterion_13_equiangular_frames_are_prime():
    def body():
        mercedes = mercedes_frame()
        angles = check_equiangular(mercedes)
        assert angles.is_unit_norm and angles.is_equiangular
        assert abs(angles.common_angle - welch_bound(2, 3)) <= 1e-12
        assert is_prime_bruteforce(mercedes)
        bundled = read_frame(os.path.join(DATA_DIR, "etf_3_6.json"))
        assert bundled.m >= 2 * bundled.n
        angles = check_equiangular(bundled)
        assert angles.is_unit_norm and angles.is_equiangular
        assert abs(angles.common_angle - welch_bound(3, 6)) <= 1e-12
        assert is_prime_bruteforce(bundled)

    run_criterion(13, "equiangular frames are prime", 60, body)


def test_criterion_14_extensions_are_parseval_and_prime():
    def body():
        for n in range(2, 6):
            for m in range(n, 13):
                ext = prime_parseval_extension(n, m)
                rep = check_tight(ext, 1e-12)
                assert rep.is_tight, (n, m)
                assert abs(rep.bound - 1.0) <= 1e-12, (n, m)
                assert is_prime_bruteforce(ext), (n, m)

    run_criterion(14, "Parseval extensions are Parseval and prime", 60, body)
