import time
import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from conftest import hexagon_frame, mercedes_frame, random_unitary
from primeframes import (EquivalenceData, FrameMatrix, HtfParams,
                         NotTightError, PackingError, apply_equivalence,
                         PrimeFactorization, SearchCapError, check_tight,
                         complement_certificate, dft_row_frame, divisor_sets,
                         find_divisor, htf, htf_divisor_of_size, htf_is_prime,
                         is_prime_bruteforce, prime_factor_size_multisets,
                         prime_factorization, prime_parseval_extension,
                         random_tight_frame, robustness_counterexample_check,
                         stf, stf_is_divisible, tight_subsets)
from primeframes import divisibility
from primeframes.divisibility import _FIRST_CHUNK, _coordinates
from primeframes.frames import _bound_and_residual

HEXAGON_TIGHT_TRIPLES = [
    (1, 2, 3), (1, 2, 6), (1, 3, 5), (1, 5, 6),
    (2, 3, 4), (2, 4, 6), (3, 4, 5), (4, 5, 6),
]


def unpinned_is_prime(phi, tol=1e-9):
    """Reference decision: scan every proper nonempty subset, no shortcuts."""
    report = check_tight(phi, tol)
    assert report.is_tight
    for size in range(1, phi.m):
        for subset in combinations(range(phi.m), size):
            bound, residual = _bound_and_residual(phi.entries[:, list(subset)])
            if residual <= tol and tol < bound < report.bound - tol:
                return False
    return True


def test_find_divisor_hexagon():
    cert = find_divisor(hexagon_frame())
    assert cert.subset == (1, 2, 3)
    assert cert.size == 3
    assert abs(cert.bound - 1.5) < 1e-12
    assert abs(cert.complement_bound - 1.5) < 1e-12


def test_find_divisor_prime_inputs_return_none():
    assert find_divisor(mercedes_frame()) is None
    assert find_divisor(htf(HtfParams(3, 7))) is None


def test_find_divisor_requires_tight_input():
    lopsided = FrameMatrix.from_columns([(1, 0), (0, 1), (1, 1)])
    with pytest.raises(NotTightError):
        find_divisor(lopsided)


def test_find_divisor_size_filter():
    phi = htf(HtfParams(2, 10))
    cert = find_divisor(phi, size_filter=2)
    assert cert.subset == (1, 6) and cert.size == 2
    assert abs(cert.bound - 1.0) < 1e-12
    assert abs(cert.complement_bound - 4.0) < 1e-12
    # the complement size names the same split, smaller half reported first
    assert find_divisor(phi, size_filter=8).size == 2
    assert find_divisor(hexagon_frame(), size_filter=3).subset == (1, 2, 3)
    with pytest.raises(ValueError):
        find_divisor(phi, size_filter=1)
    with pytest.raises(ValueError):
        find_divisor(phi, size_filter=9)


def test_bound_split_sums_to_parent():
    for phi in (hexagon_frame(), htf(HtfParams(2, 10)), htf(HtfParams(2, 6))):
        parent = check_tight(phi).bound
        cert = find_divisor(phi)
        assert cert is not None
        assert abs(cert.bound + cert.complement_bound - parent) < 1e-9


def test_is_prime_bruteforce_small_cases():
    assert is_prime_bruteforce(mercedes_frame())
    assert is_prime_bruteforce(htf(HtfParams(3, 7)))
    assert not is_prime_bruteforce(hexagon_frame())
    assert not is_prime_bruteforce(htf(HtfParams(2, 10)))
    assert is_prime_bruteforce(FrameMatrix.from_array(np.eye(3)))


def test_spanning_shortcut_matches_raw_enumeration():
    for n in (2, 3):
        for m in range(n + 1, 9):
            phi = htf(HtfParams(n, m))
            assert is_prime_bruteforce(phi) == unpinned_is_prime(phi)
    for seed in range(5):
        phi = random_tight_frame(2, 5, seed)
        assert is_prime_bruteforce(phi) == unpinned_is_prime(phi)


def test_zero_column_does_not_create_a_divisor():
    # a basis plus the zero vector: {e1, e2} has the full bound, the zero
    # vector alone has bound zero, so neither side splits the bound
    padded = FrameMatrix.from_columns([(1, 0), (0, 1), (0, 0)])
    assert is_prime_bruteforce(padded)
    fact = prime_factorization(padded)
    assert fact.factors == ((1, 2, 3),)
    assert abs(fact.bounds[0] - 1.0) < 1e-12


def test_zero_columns_attach_to_last_factor():
    padded = FrameMatrix.from_columns(
        [(1, 0), (0, 1), (0, 0), (1, 0), (0, 1)])
    fact = prime_factorization(padded)
    assert fact.factors == ((1, 2), (3, 4, 5))
    assert abs(fact.bounds[0] - 1.0) < 1e-12
    assert abs(fact.bounds[1] - 1.0) < 1e-12


def test_complement_certificate_roundtrip():
    phi = hexagon_frame()
    cert = complement_certificate(phi, (4, 5, 6))
    assert cert.subset == (4, 5, 6)
    assert abs(cert.bound - 1.5) < 1e-12
    assert abs(cert.complement_bound - 1.5) < 1e-12
    obj = cert.to_json_obj()
    assert obj["subset"] == [4, 5, 6] and obj["size"] == 3


def test_complement_certificate_rejects_bad_subsets():
    phi = hexagon_frame()
    with pytest.raises(NotTightError):
        complement_certificate(phi, (1, 2))
    with pytest.raises(ValueError):
        complement_certificate(phi, (1, 2, 2))
    with pytest.raises(ValueError):
        complement_certificate(phi, (0, 1, 2))
    with pytest.raises(ValueError):
        complement_certificate(phi, (1, 2, 3, 4, 5, 6))
    with pytest.raises(ValueError):
        complement_certificate(phi, ())


def test_prime_factorization_hexagon():
    fact = prime_factorization(hexagon_frame())
    assert fact.factors == ((1, 2, 3), (4, 5, 6))
    assert np.allclose(fact.bounds, (1.5, 1.5))


def test_prime_factorization_orthogonal_pairs():
    fact = prime_factorization(htf(HtfParams(2, 10)))
    assert fact.factors == ((1, 6), (2, 7), (3, 8), (4, 9), (5, 10))
    assert np.allclose(fact.bounds, 1.0)


def test_prime_factorization_prime_input_is_single_factor():
    fact = prime_factorization(mercedes_frame())
    assert fact.factors == ((1, 2, 3),)
    assert abs(fact.bounds[0] - 1.5) < 1e-12


def test_prime_factorization_factors_are_prime_and_partition():
    for phi in (htf(HtfParams(2, 8)), htf(HtfParams(3, 12)), hexagon_frame()):
        fact = prime_factorization(phi)
        seen = [i for f in fact.factors for i in f]
        assert sorted(seen) == list(range(1, phi.m + 1))
        for f, b in zip(fact.factors, fact.bounds):
            sub = phi.submatrix(f)
            rep = check_tight(sub)
            assert rep.is_tight and abs(rep.bound - b) < 1e-9
            assert is_prime_bruteforce(sub)


def test_prime_factor_size_multisets():
    assert prime_factor_size_multisets(htf(HtfParams(2, 10))) == [
        (2, 2, 2, 2, 2), (5, 5)]
    assert prime_factor_size_multisets(hexagon_frame()) == [(3, 3)]
    assert prime_factor_size_multisets(mercedes_frame()) == [(3,)]
    assert prime_factor_size_multisets(htf(HtfParams(2, 4))) == [(2, 2)]


def test_tight_subsets_hexagon():
    assert tight_subsets(hexagon_frame(), 3) == HEXAGON_TIGHT_TRIPLES
    assert tight_subsets(hexagon_frame(), 2) == []
    assert tight_subsets(hexagon_frame(), 6) == [(1, 2, 3, 4, 5, 6)]
    with pytest.raises(ValueError):
        tight_subsets(hexagon_frame(), 0)
    with pytest.raises(ValueError):
        tight_subsets(hexagon_frame(), 7)


def test_robustness_counterexample_always_found(monkeypatch):
    assert robustness_counterexample_check(hexagon_frame(), 3)
    assert robustness_counterexample_check(hexagon_frame(), 2)
    assert robustness_counterexample_check(htf(HtfParams(2, 4)), 2)
    for m in range(4, 9):
        phi = htf(HtfParams(2, m))
        for p in range(2, m - 1):
            assert robustness_counterexample_check(phi, p)
            # the early exit agrees with listing every tight p-subset
            for tol in (1e-9, 0.9):
                assert robustness_counterexample_check(phi, p, tol) == (
                    len(tight_subsets(phi, p, tol)) < comb(m, p))
    # tol 0.9 accepts every p-subset here: the walk visits them all
    for m, p in ((4, 2), (6, 3), (5, 2)):
        assert not robustness_counterexample_check(htf(HtfParams(2, m)), p,
                                                   0.9)
    with pytest.raises(ValueError):
        robustness_counterexample_check(htf(HtfParams(1, 3)), 1)
    with pytest.raises(ValueError):
        robustness_counterexample_check(hexagon_frame(), 5)
    # C(30, 15) subsets are over the cap; forced, the first one answers
    big = htf(HtfParams(2, 30))
    with pytest.raises(SearchCapError):
        robustness_counterexample_check(big, 15)
    assert robustness_counterexample_check(big, 15, force=True)
    # the first 13-subset of htf(4, 26) is not tight: one evaluation for
    # the whole frame and one for that subset, and no pool of the
    # C(26, 13) subsets screened by the kernel
    calls = []
    screened = []

    def counted(entries):
        calls.append(1)
        return _bound_and_residual(entries)

    def counted_blocks(*args):
        for picks in subset_blocks(*args):
            screened.append(len(picks))
            yield picks

    subset_blocks = divisibility._subset_blocks
    monkeypatch.setattr(divisibility, "_bound_and_residual", counted)
    monkeypatch.setattr(divisibility, "_subset_blocks", counted_blocks)
    assert robustness_counterexample_check(htf(HtfParams(4, 26)), 13)
    assert len(calls) < 10 and sum(screened) == 0


def test_search_cap_enforced_and_forceable():
    big = htf(HtfParams(2, 30))
    with pytest.raises(SearchCapError):
        find_divisor(big)
    with pytest.raises(SearchCapError):
        is_prime_bruteforce(big)
    # C(30, 15) rows are over the cap; C(30, 2) are not
    with pytest.raises(SearchCapError):
        tight_subsets(big, 15)
    cert = find_divisor(big, force=True)
    assert cert.subset == (1, 16)
    assert len(tight_subsets(big, 2)) == 15
    assert len(tight_subsets(big, 2, force=True)) == 15


def test_every_search_of_at_most_26_vectors_fits_the_cap():
    for m in range(1, 27):
        for n in range(1, m + 1):
            full = range(n, m - n + 1)
            assert divisibility._kernel_rows(m, full) <= divisibility._BUDGET
            for size in full:
                assert divisibility._kernel_rows(
                    m, sorted({size, m - size})) <= divisibility._BUDGET
        for size in range(1, m + 1):
            assert divisibility._kernel_rows(
                m, (size,), False) <= divisibility._BUDGET
    assert divisibility._kernel_rows(26, range(1, 26)) == (1 << 25) - 1
    # a wide frame is counted in a few terms, saturated
    assert divisibility._kernel_rows(20000, range(1, 19999)) == (
        divisibility._RANK_LIMIT)


def test_cap_is_on_the_estimated_rows():
    # the reduction proves this frame prime in 2^24 + 1024 rows
    assert is_prime_bruteforce(random_tight_frame(3, 30, 0))
    with pytest.raises(SearchCapError):
        is_prime_bruteforce(htf(HtfParams(2, 28)))
    assert not is_prime_bruteforce(htf(HtfParams(2, 27)))


def test_frames_in_more_than_26_dimensions_are_refused_before_set_up(
        monkeypatch):
    phi = random_tight_frame(27, 54, 0)

    def no_coordinates(*args):
        raise AssertionError("coordinates built")

    monkeypatch.setattr(divisibility, "_coordinates", no_coordinates)
    for call in (is_prime_bruteforce, find_divisor, prime_factorization,
                 prime_factor_size_multisets,
                 lambda phi: tight_subsets(phi, 1)):
        with pytest.raises(SearchCapError, match=": 27 dimensions"):
            call(phi)


def test_frames_of_fewer_than_2n_columns_are_not_searched(monkeypatch):
    # np.eye(28) has 28 < 56 columns: prime at any dimension, no search
    # and no coordinates; two copies of np.eye(27) are searched, and so
    # refused in 27 dimensions
    def no_coordinates(*args):
        raise AssertionError("coordinates built")

    monkeypatch.setattr(divisibility, "_coordinates", no_coordinates)
    eye = FrameMatrix.from_array(np.eye(28))
    assert is_prime_bruteforce(eye)
    assert find_divisor(eye) is None
    assert prime_factorization(eye).factors == (tuple(range(1, 29)),)
    assert prime_factor_size_multisets(eye) == [(28,)]
    pair = FrameMatrix.from_array(np.hstack([np.eye(27)] * 2))
    for call in (is_prime_bruteforce, find_divisor, prime_factorization,
                 prime_factor_size_multisets):
        with pytest.raises(SearchCapError, match=": 27 dimensions"):
            call(pair)


def test_certificate_counts_match_unpinned_reference():
    # every qualifying subset found by raw enumeration must be certifiable
    phi = hexagon_frame()
    parent = check_tight(phi).bound
    tol = 1e-9
    for size in range(1, phi.m):
        for subset in combinations(range(1, phi.m + 1), size):
            bound, residual = _bound_and_residual(
                phi.entries[:, [i - 1 for i in subset]])
            if residual <= tol and tol < bound < parent - tol:
                cert = complement_certificate(phi, subset)
                assert cert.subset == subset
                assert comb(phi.m, size) >= len(tight_subsets(phi, size))


# --- the batched kernel against the per-subset exact rule -------------------

EQUIVALENCE_TOLS = (1e-13, 1e-9, 1e-6)


def exact_rule(entries, idx0, parent_bound, tol):
    """The per-subset decision every search must reproduce, and the
    subset's bound."""
    bound, residual = _bound_and_residual(entries[:, list(idx0)])
    return residual <= tol and tol < bound < parent_bound - tol, bound


def ascending_masks(pool, k):
    """k-subsets of the pool in ascending bitmask order of their positions."""
    return sorted(combinations(pool, k),
                  key=lambda c: sum(1 << pool.index(i) for i in c))


def reference_find_divisor(phi, tol, sizes=None):
    """Per-subset loop in the documented order: sizes ascending, column 1
    pinned, masks ascending; the first accepted subset is certified."""
    entries = phi.entries
    report = check_tight(phi, tol)
    if not report.is_tight:
        raise NotTightError("not tight")
    bound = report.bound
    if sizes is None:
        sizes = range(phi.n, phi.m - phi.n + 1)
    pool = list(range(1, phi.m))
    for size in sizes:
        for tail in ascending_masks(pool, size - 1):
            idx0 = (0,) + tail
            if exact_rule(entries, idx0, bound, tol)[0]:
                return complement_certificate(phi, [i + 1 for i in idx0], tol)
    return None


def reference_tight_subsets(phi, size, tol):
    out = []
    for idx0 in combinations(range(phi.m), size):
        bound, residual = _bound_and_residual(phi.entries[:, list(idx0)])
        if residual <= tol and bound > tol:
            out.append(tuple(i + 1 for i in idx0))
    return out


def reference_multisets(phi, tol):
    """The census by recursive per-subset loops, one level per factor."""
    entries = phi.entries
    n = phi.n
    memo = {}

    def is_prime(part):
        if len(part) < 2 * n:
            return True
        cert = reference_find_divisor(phi.submatrix([i + 1 for i in part]),
                                      tol)
        return cert is None

    def solve(rem):
        if rem in memo:
            return memo[rem]
        indices = sorted(rem)
        parent_bound = _bound_and_residual(entries[:, indices])[0]
        out = set()
        divisible = False
        for size in range(n, len(indices) - n + 1):
            for tail in combinations(indices[1:], size - 1):
                part = (indices[0],) + tail
                if not exact_rule(entries, part, parent_bound, tol)[0]:
                    continue
                divisible = True
                if not is_prime(part):
                    continue
                for sizes in solve(rem - set(part)):
                    out.add(tuple(sorted(sizes + (size,))))
        if not divisible:
            out = {(len(indices),)}
        memo[rem] = out
        return out

    live = [i for i in range(phi.m) if np.any(entries[:, i])]
    return sorted(solve(frozenset(live)))


def outcome(fn, *args, **kwargs):
    """A call's value, or the type of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except (NotTightError, ValueError) as exc:
        return type(exc)


def equivalence_frames():
    out = [random_tight_frame(n, m, seed)
           for n, m in ((2, 5), (2, 7), (3, 8), (3, 9))
           for seed in range(2)]
    out += [dft_row_frame(2, 5), dft_row_frame(3, 7), dft_row_frame(2, 11)]
    out += [htf(HtfParams(n, m)) for n, m in ((2, 6), (2, 8), (3, 9), (2, 10))]
    out += [stf(2, 5), stf(2, 6), stf(3, 7), stf(3, 9)]
    out += [prime_parseval_extension(2, 5), prime_parseval_extension(3, 8)]
    basis = random_tight_frame(2, 4, 3).entries
    out.append(FrameMatrix.from_array(np.hstack([basis, basis])))
    out.append(FrameMatrix.from_array(
        np.hstack([basis[:, :2], np.zeros((2, 2)), basis[:, 2:]])))
    out.append(FrameMatrix.from_array(
        np.hstack([htf(HtfParams(2, 4)).entries] * 2 + [np.zeros((2, 1))])))
    return out


def basis_stacks():
    """Copies of the standard basis, a frame with a divisor of every
    multiple of n."""
    return [FrameMatrix.from_array(np.hstack([np.eye(n)] * copies))
            for n in (1, 2, 3, 4) for copies in range(2, 16 // n + 1)]


@pytest.mark.parametrize("tol", EQUIVALENCE_TOLS)
def test_kernel_find_divisor_matches_per_subset_loop(tol):
    for phi in equivalence_frames():
        got = outcome(find_divisor, phi, tol=tol)
        assert got == outcome(reference_find_divisor, phi, tol)
        if phi.n <= phi.m // 2 <= phi.m - phi.n:
            half = phi.m // 2
            sizes = sorted({half, phi.m - half})
            assert (outcome(find_divisor, phi, size_filter=half, tol=tol)
                    == outcome(reference_find_divisor, phi, tol, sizes))


@pytest.mark.parametrize("tol", EQUIVALENCE_TOLS)
def test_kernel_tight_subsets_matches_per_subset_loop(tol):
    for phi in equivalence_frames():
        for size in sorted({1, phi.n, phi.m // 2, phi.m - phi.n, phi.m}):
            if 1 <= size <= phi.m:
                assert (tight_subsets(phi, size, tol)
                        == reference_tight_subsets(phi, size, tol))


@pytest.mark.parametrize("tol", EQUIVALENCE_TOLS)
def test_kernel_size_multisets_match_per_subset_loop(tol):
    for phi in equivalence_frames():
        if phi.m <= 9:
            assert (outcome(prime_factor_size_multisets, phi, tol)
                    == outcome(reference_multisets, phi, tol))


def test_tight_subsets_listed_in_lexicographic_order():
    # a frame with a repeated column pair: many tight subsets, listed in
    # lexicographic order whatever order the kernel found them in
    phi = FrameMatrix.from_array(np.hstack([np.eye(2)] * 3))
    assert tight_subsets(phi, 2) == reference_tight_subsets(phi, 2, 1e-9)
    assert len(tight_subsets(phi, 2)) == 9


def test_coordinates_give_bound_and_residual_of_every_subset():
    # summed coordinates of a subset are the traceless part of S_J, then
    # n A_J; their norms give the exact rule's bound and residual
    rng = np.random.default_rng(5)
    unitary = np.linalg.qr(rng.standard_normal((3, 3))
                           + 1j * rng.standard_normal((3, 3)))[0]
    complex_frame = FrameMatrix.from_array(
        unitary @ random_tight_frame(3, 9, 1).entries)
    for phi in (dft_row_frame(3, 7), complex_frame, stf(3, 7),
                htf(HtfParams(2, 6))):
        coords = _coordinates(phi.entries)
        for _ in range(20):
            size = int(rng.integers(1, phi.m + 1))
            idx0 = sorted(rng.choice(phi.m, size, replace=False).tolist())
            total = coords[idx0].sum(axis=0)
            bound = total[-1] / phi.n
            s_norm = np.sqrt(total[:-1] @ total[:-1] + phi.n * bound ** 2)
            ref_bound, ref_residual = _bound_and_residual(
                phi.entries[:, idx0])
            assert abs(bound - ref_bound) <= 1e-13 * s_norm
            assert abs(np.linalg.norm(total[:-1]) / s_norm
                       - ref_residual) <= 1e-13


def test_kernel_agrees_at_the_tolerance_boundary():
    # one frame whose divisor {1, 3} has a residual of about 1e-7, one whose
    # divisor {1, 2} has a bound of 1e-7; tol sits on the exact rule's own
    # value for that subset and one float below it, so the verdict flips
    # between the two and the screen must let the subset through at both
    nearly = htf(HtfParams(2, 4)).entries.copy()
    nearly[:, 0] *= 1 + 1e-7
    small = np.sqrt(1e-7)
    cases = [(FrameMatrix.from_array(nearly), (0, 2), 1),
             (FrameMatrix.from_columns([(small, 0), (0, small), (1, 0),
                                        (0, 1)]), (0, 1), 0)]
    for phi, subset, which in cases:
        value = _bound_and_residual(phi.entries[:, list(subset)])[which]
        for tol in (value, np.nextafter(value, 0.0)):
            assert check_tight(phi, tol).is_tight
            assert (outcome(find_divisor, phi, tol=tol)
                    == outcome(reference_find_divisor, phi, tol))
            assert (tight_subsets(phi, 2, tol)
                    == reference_tight_subsets(phi, 2, tol))
            assert (outcome(prime_factor_size_multisets, phi, tol)
                    == outcome(reference_multisets, phi, tol))
        verdicts = [find_divisor(phi, tol=t) is None
                    for t in (value, np.nextafter(value, 0.0))]
        assert verdicts == ([False, True] if which else [True, False])


def test_certificate_past_the_first_chunk(monkeypatch):
    # a prime 4-frame and a prime 10-frame of R^3, with the 4-part on
    # columns 1, 12, 13, 14: the 13 columns besides column 1 are more than
    # a table holds, so the kernel unranks chunks, and the part's colex
    # rank among the size-4 subsets holding column 1 is C(10, 1) +
    # C(11, 2) + C(12, 3) = 285
    left = random_tight_frame(3, 4, 1).entries
    right = random_tight_frame(3, 10, 2).entries
    entries = np.hstack([left[:, :1], right, left[:, 1:]])
    phi = FrameMatrix(entries, "real")
    assert phi.m - 1 > divisibility._TABLE_WIDTH
    assert comb(10, 1) + comb(11, 2) + comb(12, 3) > _FIRST_CHUNK
    kernel_only(monkeypatch)
    cert = find_divisor(phi)
    assert cert.subset == (1, 12, 13, 14)
    assert cert == reference_find_divisor(phi, 1e-9)
    fact = prime_factorization(phi)
    assert fact.factors == ((1, 12, 13, 14), tuple(range(2, 12)))
    assert prime_factor_size_multisets(phi) == [(4, 10)]


def peak_memory(call):
    """The call's value and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        value = call()
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_memory_stays_bounded(monkeypatch):
    # C(23, 11) = 1,352,078 subsets of size 12 holding column 1; holding
    # them all at once would take hundreds of MB
    phi = random_tight_frame(3, 24, 0)
    with monkeypatch.context() as patch:
        kernel_only(patch)
        value, peak = peak_memory(lambda: find_divisor(phi, size_filter=12))
    assert value is None and peak < 32 * 2 ** 20
    # unpatched, the search takes the reduction, within the same bound
    monkeypatch.setattr(divisibility, "_tight_parts", no_kernel)
    value, peak = peak_memory(lambda: find_divisor(phi, size_filter=12))
    assert value is None and peak < 32 * 2 ** 20


def reference_factorization(phi, tol):
    """Greedy splitting by the per-subset loop on each sub-frame, with
    every factor's bound evaluated afresh on its own columns."""
    entries = phi.entries
    if not check_tight(phi, tol).is_tight:
        raise NotTightError("not tight")
    factors = []
    bounds = []

    def split(cols):
        cert = None
        if len(cols) >= 2 * phi.n:
            cert = reference_find_divisor(
                phi.submatrix([i + 1 for i in cols]), tol)
        if cert is None:
            factors.append(tuple(i + 1 for i in cols))
            bounds.append(_bound_and_residual(entries[:, cols])[0])
            return
        part = [cols[i - 1] for i in cert.subset]
        split(part)
        split([i for i in cols if i not in part])

    live = np.any(entries, axis=0)
    split(np.flatnonzero(live).tolist())
    zero = tuple(int(i) + 1 for i in np.flatnonzero(~live))
    if zero:
        factors[-1] = tuple(sorted(factors[-1] + zero))
    return PrimeFactorization(tuple(factors), tuple(bounds))


@pytest.mark.parametrize("tol", EQUIVALENCE_TOLS)
def test_factorization_bounds_match_fresh_evaluation(tol):
    # the bounds handed down from the search equal, bit for bit, the bound
    # of each factor's columns evaluated on their own
    for phi in (equivalence_frames() + basis_stacks()
                + [hexagon_frame(), mercedes_frame()]):
        assert (outcome(prime_factorization, phi, tol)
                == outcome(reference_factorization, phi, tol))


def test_tight_subsets_rejects_non_positive_tol():
    for tol in (0.0, -1.0):
        with pytest.raises(ValueError, match="tol must be positive"):
            tight_subsets(htf(HtfParams(2, 4)), 2, tol=tol)


def test_searches_reject_non_finite_tol():
    # a NaN or infinite tol used to make every comparison false, so
    # tight_subsets returned [] where [(1, 3), (2, 4)] is the answer
    phi = htf(HtfParams(2, 4))
    assert tight_subsets(phi, 2) == [(1, 3), (2, 4)]
    for tol in (float("nan"), float("inf")):
        for call in (lambda: tight_subsets(phi, 2, tol=tol),
                     lambda: find_divisor(phi, tol=tol),
                     lambda: is_prime_bruteforce(phi, tol=tol),
                     lambda: prime_factorization(phi, tol=tol),
                     lambda: complement_certificate(phi, (1, 3), tol=tol)):
            with pytest.raises(ValueError,
                               match="tol must be positive and finite"):
                call()


# --- the pivot-reduction proof against the kernel ---------------------------

def kernel_only(monkeypatch):
    """Patch the reduction path away, so every search runs the kernel
    alone."""
    monkeypatch.setattr(divisibility, "_reduction_search", lambda *args: None)


def no_kernel(*args):
    """Stands in for the kernel where a search must not reach it."""
    raise AssertionError("kernel ran")


def planted_split(n, a, b, seed):
    """Two seeded tight frames of R^n side by side, columns shuffled."""
    entries = np.hstack([random_tight_frame(n, a, seed).entries,
                         random_tight_frame(n, b, seed + 1).entries])
    perm = np.random.default_rng(seed).permutation(a + b)
    return FrameMatrix(entries[:, perm], "real")


def shuffled(entries, rng):
    """The frame on ``entries`` with its columns in a seeded order."""
    order = rng.permutation(entries.shape[1])
    return FrameMatrix.from_array(entries[:, order])


def proof_frames():
    out = [random_tight_frame(n, m, seed)
           for n, m in ((2, 12), (2, 14), (3, 12), (3, 14), (3, 16), (4, 14),
                        (4, 16), (5, 18))
           for seed in range(2)]
    out += [htf(HtfParams(2, 12)), htf(HtfParams(3, 13)),
            htf(HtfParams(3, 14)), stf(3, 13), stf(4, 14), stf(5, 17),
            dft_row_frame(2, 13), dft_row_frame(3, 13),
            prime_parseval_extension(3, 12), prime_parseval_extension(4, 13)]
    out += [planted_split(2, 5, 7, 1), planted_split(3, 6, 7, 2),
            planted_split(3, 4, 9, 3), planted_split(4, 8, 8, 4)]
    basis = random_tight_frame(3, 7, 5).entries
    out.append(FrameMatrix.from_array(np.hstack([basis, basis])))
    out.append(FrameMatrix.from_array(np.hstack(
        [random_tight_frame(3, 11, 6).entries, np.zeros((3, 3))])))
    return out


def many_survivor_frames():
    """Divisible frames whose first reduction chunk leaves 128 to 462
    assignments that pass every pivot, and one (stf(6, 16)) that leaves
    four."""
    return [FrameMatrix.from_array(np.hstack([np.eye(2)] * 8)),
            FrameMatrix.from_array(np.hstack([np.eye(3)] * 6)),
            stf(8, 16), stf(5, 15), stf(6, 16)]


def wide_free_frames():
    """Frames of R^2 whose reduction has 15 free columns, more than
    _LOW_BITS, so it screens several chunks on its sharpest pivot; the
    kernel still searches them in a few hundred ms."""
    return ([random_tight_frame(2, 18, seed) for seed in range(3)]
            + [planted_split(2, 8, 10, 5), planted_split(2, 7, 11, 6),
               planted_split(2, 9, 9, 7)])


@pytest.mark.parametrize("tol", EQUIVALENCE_TOLS)
def test_proof_path_matches_the_kernel(tol, monkeypatch):
    frames = proof_frames() + many_survivor_frames() + wide_free_frames()
    with_path = [(outcome(is_prime_bruteforce, phi, tol),
                  outcome(find_divisor, phi, tol=tol)) for phi in frames]
    used = []
    reduce = divisibility._pivot_reduction
    monkeypatch.setattr(divisibility, "_pivot_reduction",
                        lambda *args: used.append(reduce(*args)) or used[-1])
    for phi in frames:
        is_prime_bruteforce(phi, tol)
    assert sum(r is not None for r in used) >= len(frames) - 4
    monkeypatch.undo()
    kernel_only(monkeypatch)
    assert with_path == [(outcome(is_prime_bruteforce, phi, tol),
                          outcome(find_divisor, phi, tol=tol))
                         for phi in frames]


@pytest.mark.parametrize("tol", EQUIVALENCE_TOLS)
def test_proof_path_factorizations_match_the_kernel(tol, monkeypatch):
    frames = [phi for phi in proof_frames() if phi.m <= 14]
    with_path = [outcome(prime_factorization, phi, tol) for phi in frames]
    kernel_only(monkeypatch)
    assert with_path == [outcome(prime_factorization, phi, tol)
                         for phi in frames]


def test_both_survivor_orders_agree(monkeypatch):
    # the all-pivot check orders a few survivors in plain Python and more
    # by numpy's sort; either way the same survivors come by ascending
    # (size, bitmask).
    # stf(32, 64) has positions past 61, so its bitmask takes two words;
    # its 2^32 assignments are sampled
    rng = np.random.default_rng(0)
    cases = [(phi, None) for phi in many_survivor_frames()]
    cases.append((stf(32, 64), rng.integers(0, 1 << 32, 4096)))
    for phi, codes in cases:
        coords = _coordinates(phi.entries)
        pivots, forced, mu = divisibility._pivot_reduction(
            coords, range(phi.m), phi.n, check_tight(phi).bound, 1e-9)
        free = [i for i in range(1, phi.m) if i not in pivots]
        if codes is None:
            codes = np.arange(1 << len(free))
        check = divisibility._all_pivot_check(
            forced.take(free, axis=1), forced[:, 0] + 0.5, pivots, free,
            range(phi.n, phi.m - phi.n + 1), mu)
        orders = []
        for few in (0, len(codes)):
            monkeypatch.setattr(divisibility, "_FEW_SURVIVORS", few)
            orders.append(list(check(codes)))
        keys = [(len(members), sum(1 << i for i in members))
                for members in orders[0]]
        assert orders[0] == orders[1] and len(keys) >= 4
        assert keys == sorted(keys) and all(m[0] == 0 for m in orders[0])
    assert max(mask for _, mask in keys).bit_length() > 62


def test_pivots_have_full_rank_and_are_well_conditioned():
    for phi in proof_frames():
        coords = _coordinates(phi.entries)
        bound = check_tight(phi).bound
        found = divisibility._pivot_reduction(
            coords, range(phi.m), phi.n, bound, 1e-9)
        assert found is not None
        pivots, forced, mu = found
        assert 0 not in pivots and mu < 1e-3
        traceless = coords[:, :-1].T
        rest = traceless[:, 1:]
        diag = np.abs(np.diag(scipy.linalg.qr(rest, pivoting=True)[1]))
        rank = int(np.sum(diag > 1e-10 * diag[0]))
        assert len(pivots) == rank
        assert np.linalg.cond(traceless[:, pivots]) < 1e3
        # C_p forced = C: the pivots reproduce every column
        assert np.allclose(traceless[:, pivots] @ forced, traceless,
                           atol=1e-9 * np.abs(traceless).max())


def test_dependent_pivots_are_refused():
    # three seeded tight frames of R^4, two of them orthonormal bases,
    # columns shuffled.  Many columns share the largest norm, and the nine
    # of largest norm (or the first nine the greedy choice saw) were
    # dependent, with condition numbers near 1e16.  The computed inverse
    # of their Gram matrix still had a small trace, so mu came out near
    # 1e-8 and the proof path called these divisible frames prime.
    for sizes, seed in (((4, 4, 4), 110), ((4, 4, 6), 224), ((4, 4, 6), 296)):
        rng = np.random.default_rng(seed)
        phi = shuffled(np.hstack([random_tight_frame(4, a, seed + i).entries
                                  for i, a in enumerate(sizes)]), rng)
        coords = _coordinates(phi.entries)
        pivots, forced, mu = divisibility._pivot_reduction(
            coords, range(phi.m), 4, check_tight(phi).bound, 1e-9)
        assert np.linalg.cond(coords[pivots, :-1]) < 1e3 and mu < 1e-3
        assert not is_prime_bruteforce(phi)
        assert find_divisor(phi) == reference_find_divisor(phi, 1e-9)


def test_proof_path_decides_large_frames_quickly():
    # the first pivot's forcing row of stf(25, 73) touches 3 of its 24
    # free columns and passes about 37% of the assignments; the row with
    # the most free entries above mu, which screens it, passes under 1%
    for phi in (random_tight_frame(4, 24, 0), stf(25, 73)):
        start = time.perf_counter()
        assert is_prime_bruteforce(phi)
        assert time.perf_counter() - start < 1.0


def test_proved_prime_frames_skip_the_kernel(monkeypatch):
    monkeypatch.setattr(divisibility, "_tight_parts", no_kernel)
    for phi in (random_tight_frame(3, 16, 0), dft_row_frame(3, 13),
                prime_parseval_extension(3, 12), stf(5, 13)):
        assert is_prime_bruteforce(phi)
        assert find_divisor(phi) is None
    # too small to pay for the set-up: the kernel searches
    with pytest.raises(AssertionError, match="kernel ran"):
        is_prime_bruteforce(random_tight_frame(3, 9, 0))


def test_reduction_gives_certificates_without_the_kernel(monkeypatch):
    # the planted split is the only divisor, so the reduction meets it
    # late and enumerates to the end: its least accepted subset is the
    # certificate and the kernel never runs
    frames = [planted_split(3, 7, 7, 2), planted_split(3, 10, 10, 3),
              planted_split(4, 8, 8, 4)]
    expected = [reference_find_divisor(phi, 1e-9) for phi in frames[:1]]
    kernel_only(monkeypatch)
    expected += [find_divisor(phi) for phi in frames[1:]]
    monkeypatch.undo()

    monkeypatch.setattr(divisibility, "_tight_parts", no_kernel)
    assert [find_divisor(phi) for phi in frames] == expected
    assert all(cert is not None for cert in expected)


def test_restricted_searches_take_the_reduction(monkeypatch):
    # the kernel would take C(27, 13) rows for (3, 28, 0) at size 14 and
    # C(29, 14) rows, over the search cap, for (4, 30, 0) at size 15; the
    # reduction takes 2^22 and 2^20
    split = planted_split(3, 10, 10, 3)
    kernel_only(monkeypatch)
    expected = find_divisor(split, size_filter=10)
    monkeypatch.undo()
    monkeypatch.setattr(divisibility, "_tight_parts", no_kernel)
    assert expected is not None
    assert find_divisor(split, size_filter=10) == expected
    assert find_divisor(random_tight_frame(3, 28, 0), size_filter=14) is None
    assert find_divisor(random_tight_frame(4, 30, 0), size_filter=15) is None


def test_reduction_hands_over_on_divisor_rich_frames():
    # {1, 2, 3} is the first divisor of three copies of the standard
    # basis: one kernel row reaches it, so after its first chunk the
    # reduction hands over instead of enumerating 2^15 assignments
    phi = FrameMatrix.from_array(np.hstack([np.eye(3)] * 6))
    coords = _coordinates(phi.entries)
    reduction = divisibility._pivot_reduction(coords, range(18), 3, 6.0, 1e-9)
    found = divisibility._reduction_search(
        phi.entries, range(18), range(3, 16), 6.0, 1e-9, reduction)
    assert found is None
    assert reduction is not None
    assert find_divisor(phi).subset == (1, 2, 3)


def test_low_rank_frames_try_only_the_greedy_pivots(monkeypatch):
    # the traceless coordinates of these frames have fewer live rows than
    # pivots the largest-norm choice would take, so that choice (a
    # singular Gram matrix) is skipped, and the greedy choice factors its
    # pivots once, inside its own loop; full-rank frames still take the
    # largest-norm choice, through LAPACK
    calls = []

    def counted(name, call):
        return lambda *args: calls.append(name) or call(*args)

    for name in ("cholesky", "inv"):
        monkeypatch.setattr(np.linalg, name,
                            counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(divisibility, "_greedy_pivots", counted(
        "greedy", divisibility._greedy_pivots))
    for phi, rank, largest in ((dft_row_frame(2, 13), 2, False),
                               (prime_parseval_extension(3, 12), 2, False),
                               (stf(5, 13), 8, False),
                               (random_tight_frame(3, 12, 0), 5, True)):
        calls.clear()
        coords = _coordinates(phi.entries)
        found = divisibility._pivot_reduction(
            coords, range(phi.m), phi.n, check_tight(phi).bound, 1e-9)
        assert found is not None and len(found[0]) == rank
        if largest:
            norms = np.einsum("ij,ij->i", coords[:, :-1], coords[:, :-1])
            assert found[0] == sorted(range(1, phi.m), key=norms.__getitem__,
                                      reverse=True)[:rank]
        assert calls == (["cholesky", "inv"] if largest else ["greedy"])


def count_redecisions(monkeypatch, call):
    """The value of call() and how often the proof path ran the exact
    rule."""
    seen = []
    exact = divisibility._bound_and_residual
    monkeypatch.setattr(divisibility, "_bound_and_residual",
                        lambda entries: seen.append(1) or exact(entries))
    value = call()
    monkeypatch.undo()
    return value, len(seen)


def axis_columns(axis, weights):
    """Columns sqrt(w) e_axis of R^2."""
    return [tuple(np.sqrt(w) * (k == axis) for k in range(2)) for w in weights]


def test_mu_margin_is_wide_enough():
    # every column lies on e1 or e2, so the traceless coordinates have
    # rank 1 and the one pivot p sees |x_p - y| = |a_J - b_J| / w_p for a
    # subset J with e1 weight a_J and e2 weight b_J, against mu of about
    # 2 tol B / w_p.  J = columns 1..11 holds 84% of the bound B and sits
    # at the tolerance: tol is J's own residual, so |a_J - b_J| is about
    # 2 tol a_J and the deviation is 84% of mu.  The complement is exactly
    # balanced, so J is the only divisor holding column 1.
    e1 = [np.sqrt(q) for q in (10, 3, 5, 0.8, 1.9, 2.3)]
    e2 = [np.sqrt(q) for q in (8, 2.6, 1.3, 0.6)]
    e2.append(sum(e1) * (1 - 1e-6) - sum(e2))
    phi = FrameMatrix.from_columns(axis_columns(0, e1) + axis_columns(1, e2)
                                   + axis_columns(0, [2.0])
                                   + axis_columns(1, [2.0]))
    subset = tuple(range(1, 12))
    tol = _bound_and_residual(phi.entries[:, list(range(11))])[1]
    assert 1e-7 < tol < 1e-6 and check_tight(phi, tol).is_tight
    coords = _coordinates(phi.entries)
    reduced = divisibility._pivot_reduction(
        coords, range(13), 2, check_tight(phi).bound, tol)
    assert reduced is not None and len(reduced[0]) == 1
    cert = find_divisor(phi, tol=tol)
    assert cert is not None and cert.subset == subset
    assert cert == reference_find_divisor(phi, tol)
    assert not is_prime_bruteforce(phi, tol)


def test_survivors_are_redecided_only_inside_the_mu_window(monkeypatch):
    # a 45-degree column of weight 2 and two -45-degree columns of weight
    # 1 add up to 2 I.  Their pivot sees y = (x_2 + x_3) / 2, so every
    # assignment that takes both or neither passes the first-pivot screen;
    # only the e1/e2 balance, checked on the second pivot, rules them out.
    # The one divisor holding column 1 is the e1/e2 part, which comes last
    # in the enumeration.
    e1 = [0.9 * np.sqrt(q) / k
          for q, k in ((2, 1), (3, 2), (5, 2), (7, 3), (11, 3))]
    e2 = [0.9 * np.sqrt(q) / k for q, k in ((13, 3), (17, 4), (19, 4))]
    e2.append(sum(e1) - sum(e2))
    diagonal = [(1.0, 1.0), (0.5 ** 0.5, -(0.5 ** 0.5)),
                (0.5 ** 0.5, -(0.5 ** 0.5))]
    cols = (axis_columns(0, e1[:1]) + diagonal[1:] + diagonal[:1]
            + axis_columns(0, e1[1:]) + axis_columns(1, e2))
    phi = FrameMatrix.from_columns(cols)
    entries = phi.entries
    coords = _coordinates(entries)
    bound = check_tight(phi).bound
    sizes = range(2, phi.m - 1)
    reduction = divisibility._pivot_reduction(
        coords, range(phi.m), 2, bound, 1e-9)
    pivots, forced, _ = reduction
    assert pivots[0] == 3 and np.allclose(forced[0, [1, 2]], -0.5)
    found, redecided = count_redecisions(
        monkeypatch, lambda: divisibility._reduction_search(
            entries, range(phi.m), sizes, bound, 1e-9, reduction))
    part = [0] + list(range(4, 12))
    assert found == [(part, _bound_and_residual(entries[:, part])[0])]
    assert redecided == 1
    cert = find_divisor(phi)
    assert cert.subset == (1,) + tuple(range(5, 13))
    # a prime frame: 2^10 assignments and nothing to re-decide
    phi = random_tight_frame(3, 16, 0)
    proved, redecided = count_redecisions(
        monkeypatch, lambda: is_prime_bruteforce(phi))
    assert proved and redecided == 1  # the tightness check of the frame


@st.composite
def equivalent_frames(draw):
    """A seeded tight frame, prime or a planted split, and an equivalent
    frame psi_i = c_i U phi_perm(i) with a complex unitary U, so that a
    real frame is searched through complex coordinates as well."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(2 * n, 14))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if draw(st.booleans()):
        phi = random_tight_frame(n, m, seed)
    else:
        a = draw(st.integers(n, m - n))
        phi = planted_split(n, a, m - a, seed)
    rng = np.random.default_rng(seed)
    scale = draw(st.floats(0.5, 2.0))
    eq = EquivalenceData(random_unitary(rng, n),
                         tuple(int(i) + 1 for i in rng.permutation(m)),
                         scale * np.exp(2j * np.pi * rng.random(m)))
    return phi, apply_equivalence(phi, eq)


@given(equivalent_frames())
def test_primality_is_invariant_under_equivalence(pair):
    phi, psi = pair
    assert is_prime_bruteforce(psi) == is_prime_bruteforce(phi)
    assert (find_divisor(psi) is None) == (find_divisor(phi) is None)


# --- the reduction's certificates against the kernel ------------------------

@st.composite
def divisible_frames(draw):
    """A frame with many or few divisors and at most 16 columns: a planted
    split into two or three seeded tight frames, copies of one orthonormal
    basis, or a seeded tight frame with every column repeated."""
    n = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["two", "three", "basis", "repeated"]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "basis":
        basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
        copies = draw(st.integers(2, 16 // n))
        return shuffled(np.hstack([basis] * copies), rng)
    if kind == "repeated":
        frame = random_tight_frame(n, draw(st.integers(n + 1, 8)), seed)
        return shuffled(np.hstack([frame.entries] * 2), rng)
    parts = 2 if kind == "two" else 3
    sizes = [n] * parts
    for _ in range(draw(st.integers(0, 16 - n * parts))):
        sizes[draw(st.integers(0, parts - 1))] += 1
    return shuffled(np.hstack([random_tight_frame(n, a, seed + i).entries
                               for i, a in enumerate(sizes)]), rng)


@given(divisible_frames())
def test_certificates_match_the_kernel(phi):
    def outcomes(tol):
        return ([outcome(find_divisor, phi, tol=tol),
                 outcome(prime_factorization, phi, tol)]
                + [outcome(find_divisor, phi, size_filter=size, tol=tol)
                   for size in range(phi.n, phi.m - phi.n + 1)])

    for tol in EQUIVALENCE_TOLS:
        got = outcomes(tol)
        with pytest.MonkeyPatch.context() as patch:
            kernel_only(patch)
            assert got == outcomes(tol)


@st.composite
def shuffled_tetris_frames(draw):
    """A spectral tetris frame of at most 16 columns in a seeded order:
    its forcing rows are sparse, so the pivot with the most free entries
    above mu is often not the first."""
    n = draw(st.integers(3, 6))
    phi = stf(n, draw(st.integers(2 * n, 16)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return shuffled(phi.entries, rng) if draw(st.booleans()) else phi


@given(st.one_of(divisible_frames(), shuffled_tetris_frames()))
def test_sharpest_screen_matches_the_kernel(phi):
    # with two tabulated bits every reduction spans several chunks, so it
    # screens on the pivot with the most free entries above mu and may
    # hand over between chunks; its certificates are the kernel's
    def outcomes():
        return [(outcome(find_divisor, phi, tol=tol),
                 outcome(is_prime_bruteforce, phi, tol))
                for tol in EQUIVALENCE_TOLS]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(divisibility, "_LOW_BITS", 2)
        got = outcomes()
    with pytest.MonkeyPatch.context() as patch:
        kernel_only(patch)
        assert got == outcomes()


# --- the first divisor is prime ---------------------------------------------

def check_first_part_is_prime(phi, tol):
    cert = find_divisor(phi, tol=tol)
    if cert is not None:
        assert is_prime_bruteforce(phi.submatrix(cert.subset), tol,
                                   force=True)


@given(divisible_frames())
def test_first_divisor_is_prime(phi):
    for tol in EQUIVALENCE_TOLS:
        check_first_part_is_prime(phi, tol)


@pytest.mark.parametrize("tol", EQUIVALENCE_TOLS)
def test_first_divisor_of_basis_stacks_is_prime(tol):
    for phi in basis_stacks():
        check_first_part_is_prime(phi, tol)


def both_halves_factorization(phi, tol):
    """Greedy splitting that searches both halves of every split, so it
    does not lean on the first divisor being prime."""
    entries = phi.entries
    live = np.any(entries, axis=0)
    factors, bounds = [], []

    def split(cols, bound):
        found = divisibility._first_divisor(entries, cols, bound, tol, False)
        if found is None:
            factors.append(tuple(i + 1 for i in cols))
            bounds.append(bound)
            return
        part, part_bound, rest_bound = found
        split(part, part_bound)
        split([i for i in cols if i not in part], rest_bound)

    cols = np.flatnonzero(live).tolist()
    split(cols, _bound_and_residual(entries[:, cols])[0])
    zero = tuple(int(i) + 1 for i in np.flatnonzero(~live))
    if zero:
        factors[-1] = tuple(sorted(factors[-1] + zero))
    return PrimeFactorization(tuple(factors), tuple(bounds))


def every_part_multisets(phi, tol):
    """The factor-size census with a primality search of every part."""
    entries, n = phi.entries, phi.n
    coords = _coordinates(entries)
    memo = {}

    def solve(rem):
        if rem not in memo:
            bound = _bound_and_residual(entries[:, rem])[0]
            parts = list(divisibility._tight_parts(
                entries, coords, rem, range(n, len(rem) - n + 1), True,
                bound, tol))
            memo[rem] = {(len(rem),)} if not parts else {
                tuple(sorted(sizes + (len(part),)))
                for part, part_bound in parts
                if divisibility._first_divisor(entries, part, part_bound,
                                               tol, False) is None
                for sizes in solve(tuple(i for i in rem if i not in part))}
        return memo[rem]

    live = tuple(np.flatnonzero(np.any(entries, axis=0)).tolist())
    return sorted(solve(live))


@given(divisible_frames())
def test_factorizations_match_searching_both_halves(phi):
    for tol in EQUIVALENCE_TOLS:
        assert (prime_factorization(phi, tol)
                == both_halves_factorization(phi, tol))
        if phi.m <= 10:
            assert (prime_factor_size_multisets(phi, tol)
                    == every_part_multisets(phi, tol))


def census_frames():
    """Frames whose census lists many tight parts that are not prime."""
    out = [htf(HtfParams(n, m)) for n in (2, 3, 4) for m in range(2 * n, 13)]
    return out + [FrameMatrix.from_array(np.hstack([np.eye(n)] * copies))
                  for n in (2, 3) for copies in range(2, 12 // n + 1)]


@pytest.mark.parametrize("tol", EQUIVALENCE_TOLS)
def test_census_matches_a_search_of_every_part(tol):
    for phi in census_frames():
        assert (outcome(prime_factor_size_multisets, phi, tol)
                == outcome(every_part_multisets, phi, tol))


def test_census_runs_no_first_divisor_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the census searched a part")

    monkeypatch.setattr(divisibility, "_first_divisor", refuse)
    assert prime_factor_size_multisets(htf(HtfParams(2, 10))) == [
        (2, 2, 2, 2, 2), (5, 5)]
    assert prime_factor_size_multisets(hexagon_frame()) == [(3, 3)]
    stack = FrameMatrix.from_array(np.hstack([np.eye(2)] * 6))
    assert prime_factor_size_multisets(stack) == [(2,) * 6]


# --- closed forms against the search ---------------------------------------

@given(st.integers(2, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(n, 18))))
def test_closed_forms_agree_with_the_search(shape):
    n, m = shape
    phi = htf(HtfParams(n, m))
    assert htf_is_prime(n, m) == is_prime_bruteforce(phi)
    if m >= 2 * n:
        assert stf_is_divisible(n, m) == (not is_prime_bruteforce(stf(n, m)))
    for size in divisor_sets(n, m).divisible_sizes:
        try:
            subset = htf_divisor_of_size(HtfParams(n, m), size)
        except (PackingError, SearchCapError):
            continue
        assert complement_certificate(phi, subset).size == size


def best_time(call, repeats=3):
    """The fastest of a few calls, in seconds, and the call's value."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        value = call()
        times.append(time.perf_counter() - start)
    return min(times), value


def test_divisor_rich_frames_stay_fast(monkeypatch):
    # many divisors: the reduction meets one in its first chunk and hands
    # over to the kernel, which reaches its first certificate within a
    # few rows
    frames = [FrameMatrix.from_array(np.hstack([np.eye(3)] * 6)),
              FrameMatrix.from_array(np.hstack([np.eye(2)] * 8)),
              htf(HtfParams(2, 16)), stf(4, 17)]
    got = []
    for phi in frames:
        for call in (find_divisor, prime_factorization):
            seconds, value = best_time(lambda: call(phi))
            assert seconds < 0.02, (call.__name__, phi.n, phi.m, seconds)
            got.append(value)
    kernel_only(monkeypatch)
    assert got == [call(phi) for phi in frames
                   for call in (find_divisor, prime_factorization)]


def test_size_class_tables_match_unranking(monkeypatch):
    # the table of a pool holds its size classes one after another, each
    # in the order unranking gives
    limit = divisibility._TABLE_WIDTH
    divisibility._subset_table.cache_clear()
    divisibility._bit_columns.cache_clear()
    for width in range(limit + 1):
        table, starts = divisibility._subset_table(width)
        expected = [divisibility._unrank(width, k, 0, comb(width, k))
                    for k in range(width + 1)]
        assert table.shape == (2 ** width, width)
        assert np.array_equal(table, np.concatenate(expected))
        assert starts == tuple(sum(map(len, expected[:k]))
                               for k in range(width + 2))
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[...] = 0
    # only the tables stay in memory, about 0.7 MB for all widths
    assert divisibility._bit_columns.cache_info().currsize == 0
    assert sum(divisibility._subset_table(width)[0].nbytes
               for width in range(limit + 1)) < 750_000
    assert list(divisibility._subset_blocks(limit, (), 0)) == []
    # table blocks and unranked chunks are the same subsets
    for sizes, lead in (((5,), 0), ((3, 4, 5, 9), 1), ((4, 8), 0)):
        sliced = list(divisibility._subset_blocks(limit, sizes, lead))
        assert len(sliced) == 2 - (len(sizes) == 1)
        with monkeypatch.context() as patch:
            patch.setattr(divisibility, "_TABLE_WIDTH", -1)
            unranked = list(divisibility._subset_blocks(limit, sizes, lead))
        assert np.array_equal(np.concatenate(sliced),
                              np.concatenate(unranked))
    # tight_subsets gives the same lists with every pool unranked
    frames = [htf(HtfParams(2, 12)), htf(HtfParams(3, 12)), stf(3, 10),
              FrameMatrix.from_array(np.hstack([np.eye(2)] * 6)),
              htf(HtfParams(2, 14)), planted_split(2, 6, 7, 1),
              FrameMatrix.from_array(np.hstack([np.eye(2)] * 7))]
    assert {phi.m for phi in frames} == {10, 12, 13, 14}
    cases = [(phi, size) for phi in frames for size in range(1, phi.m + 1)]
    with_tables = [tight_subsets(phi, size) for phi, size in cases]
    assert sum(map(len, with_tables)) > 1000
    monkeypatch.setattr(divisibility, "_TABLE_WIDTH", -1)
    assert with_tables == [tight_subsets(phi, size) for phi, size in cases]


def test_one_pass_kernel_matches_unranked_chunks(monkeypatch):
    # pools of 0 .. _TABLE_WIDTH columns, pinned or not, over contiguous
    # sizes, a size with its complement and single sizes: one pass over
    # the table yields what unranked chunks yield, in the same order
    limit = divisibility._TABLE_WIDTH
    frames = [planted_split(2, 6, 7, 1),
              FrameMatrix.from_array(np.hstack([np.eye(2)] * 7)[:, 1:])]
    cases = []
    for phi in frames:
        coords = _coordinates(phi.entries)
        assert phi.m == limit + 1
        for width in range(limit + 1):
            for pinned in (False, True):
                m = width + pinned
                third, half = max(pinned, m // 3), max(pinned, m // 2)
                for sizes in (range(pinned, m + 1), range(2, m - 1),
                              sorted({s for s in (third, m - third)
                                      if s >= pinned}), [half]):
                    for bound in (np.inf, check_tight(phi).bound):
                        cases.append((phi.entries, coords,
                                      range(phi.m - m, phi.m), sizes, pinned,
                                      bound))

    def run():
        return [list(divisibility._tight_parts(*case, 1e-9))
                for case in cases]

    with_tables = run()
    assert sum(map(len, with_tables)) > 1000
    monkeypatch.setattr(divisibility, "_TABLE_WIDTH", -1)
    assert with_tables == run()


def test_binomials_match_comb():
    # Pascal's rule gives min(C(c, j), _RANK_LIMIT) for every width, below
    # and at saturation (C(66, 33) > 2^62 > C(65, 32))
    limit = divisibility._RANK_LIMIT
    assert comb(66, 33) > limit > comb(65, 32)
    for width in list(range(71)) + [200]:
        table = divisibility._binomials(width)
        assert table.dtype == np.int64 and table.shape == (width + 1, width)
        assert table.tolist() == [[min(comb(c, j), limit)
                                   for c in range(width)]
                                  for j in range(width + 1)]
