import cmath
import math
import time
from itertools import combinations

import numpy as np
import pytest

from primeframes import (DivisorSets, FrameMatrix, HtfParams, PackingError,
                         SearchCapError, check_tight, coherence,
                         complement_certificate, dft_row_frame, divisor_sets,
                         htf, htf_coherence, htf_divisor_of_size,
                         htf_is_prime, htf_prime_factors, index_coset,
                         is_balancing, is_prime_bruteforce, plan,
                         prime_parseval_extension, random_tight_frame, stf,
                         stf_factorize, stf_is_divisible,
                         stf_low_redundancy_feasible, stf_schedule,
                         vanishing_subsum_check, welch_bound)
from primeframes import harmonic
from primeframes.harmonic import _representations, _root_powers
from primeframes.numtheory import (is_prime_int, prime_power_factorization,
                                   reachable_sums)


def test_numtheory_basics():
    sieve = np.ones(2000, dtype=bool)
    sieve[:2] = False
    for d in range(2, 45):
        sieve[d * d::d] = False
    assert [k for k in range(-3, 2000) if is_prime_int(k)] == (
        np.flatnonzero(sieve).tolist())
    assert prime_power_factorization(1) == []
    assert prime_power_factorization(24) == [(2, 3), (3, 1)]
    assert prime_power_factorization(97) == [(97, 1)]
    with pytest.raises(ValueError):
        prime_power_factorization(0)
    reach = reachable_sums(10, [2, 5])
    assert [v for v in range(11) if reach[v]] == [0, 2, 4, 5, 6, 7, 8, 9, 10]
    with pytest.raises(ValueError):
        reachable_sums(5, [0])


def test_htf_params_validation():
    with pytest.raises(ValueError):
        HtfParams(0, 3)
    with pytest.raises(ValueError):
        HtfParams(4, 3)
    with pytest.raises(ValueError):
        HtfParams(2, 4, 0.0)
    with pytest.raises(ValueError):
        HtfParams(2, 4, -1.0)
    with pytest.raises(ValueError):
        HtfParams(2, 4, math.inf)


NON_INTEGER_SHAPES = [
    ("n", HtfParams, (2.5, 10)), ("n", HtfParams, (True, 3)),
    ("m", HtfParams, (2, 10.0)), ("n", divisor_sets, (2.5, 10)),
    ("n", htf_is_prime, (2.5, 10)), ("m", htf_is_prime, (1, 2.0)),
    ("n", htf_coherence, (2.5, 10)),
    ("m", vanishing_subsum_check, (10.0, [1, 6], 1)),
    ("power", vanishing_subsum_check, (10, [1, 6], True)),
    ("p", plan, (2, 10, 5.0)), ("p", plan, (64, 4096, 64.0)),
    ("m", index_coset, (10.0, 5, 1)), ("m", is_balancing, (10.0, 3)),
    ("size", htf_divisor_of_size, (HtfParams(2, 10), 4.0)),
    ("n", stf, (3.0, 7)), ("m", stf_schedule, (3, 7.0)),
    ("n", stf_factorize, (True, 7)), ("m", stf_is_divisible, (2, 7.5)),
    ("n", stf_low_redundancy_feasible, (3.0, 4)),
    ("m", stf, (4, 6.0)),
    ("n", random_tight_frame, (2.0, 5, 0)),
    ("seed", random_tight_frame, (2, 5, 0.5)),
    ("m", prime_parseval_extension, (2, 5.0)),
    ("n", dft_row_frame, (2.0, 5)), ("m", welch_bound, (2, 5.0)),
]


@pytest.mark.parametrize("name, call, args", NON_INTEGER_SHAPES,
                         ids=["%s%s" % (call.__name__, args)
                              for _, call, args in NON_INTEGER_SHAPES])
def test_shape_parameters_must_be_integers(name, call, args):
    # np.arange(2.5) has three entries, so a float n once built a 3-row
    # frame; numpy integers stay accepted
    with pytest.raises(ValueError, match="^%s must be an integer" % name):
        call(*args)
    assert htf(HtfParams(np.int64(2), np.int32(10))).m == 10
    assert plan(np.int64(2), 10, np.int64(5)).factor_size == 5
    assert stf(np.int64(3), np.int32(7)).m == 7
    assert random_tight_frame(np.int64(2), 5, np.uint64(0)).m == 5


HTF_2_10 = htf(HtfParams(2, 10))


NON_INTEGER_INDICES = [
    ("i", HTF_2_10.column, (1.5,)), ("i", HTF_2_10.column, (True,)),
    ("indices", HTF_2_10.submatrix, ([1.7, 6.2],)),
    ("indices", HTF_2_10.submatrix, ([True, 6],)),
    ("indices", HTF_2_10.submatrix, ((1.5, 2, 3, 4, 5, 6, 7, 8, 9, 10),)),
    ("indices", HTF_2_10.submatrix, ((True, 2, 3, 4, 5, 6, 7, 8, 9, 10),)),
    ("subset", lambda subset: complement_certificate(HTF_2_10, subset),
     ([1.9, 6.0],)),
    ("subset", vanishing_subsum_check, (10, [1.9, 6.3], 1)),
    ("subset", vanishing_subsum_check, (10, np.array([1.0, 6.0]), 1)),
]


@pytest.mark.parametrize("name, call, args", NON_INTEGER_INDICES,
                         ids=["%s-%s" % (name, args)
                              for name, _, args in NON_INTEGER_INDICES])
def test_column_indices_must_be_integers(name, call, args):
    # int(1.7) is 1, so float indices once took the wrong columns or
    # certified the wrong subset; numpy integers stay accepted
    with pytest.raises(ValueError, match="^%s must be an integer" % name):
        call(*args)
    pair = np.array([1, 6])
    assert np.array_equal(HTF_2_10.column(np.int64(6)),
                          HTF_2_10.entries[:, 5])
    assert HTF_2_10.submatrix(pair).m == 2
    assert complement_certificate(HTF_2_10, pair).subset == (1, 6)
    assert vanishing_subsum_check(10, pair, 1)
    assert np.array_equal(HTF_2_10.submatrix(np.arange(1, 11)).entries,
                          HTF_2_10.entries)


def test_random_tight_frame_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="^seed must be non-negative"):
        random_tight_frame(2, 5, -1)
    assert random_tight_frame(2, 5, 0).m == 5


def test_htf_matrix_values():
    phi = htf(HtfParams(2, 4))
    root = math.sqrt(0.5)
    want = root * np.array([[1, 1, 1, 1], [1, 1j, -1, -1j]])
    assert np.max(np.abs(phi.entries - want)) < 1e-15
    assert phi.field == "complex"
    row = htf(HtfParams(1, 5, 4.0))
    assert np.max(np.abs(row.entries - 2.0)) < 1e-15


def test_htf_norms_and_bound():
    for n, m, s in ((2, 7, 1.0), (3, 10, 2.5), (4, 4, 0.5)):
        phi = htf(HtfParams(n, m, s))
        assert np.max(np.abs(phi.column_norms() - math.sqrt(s))) < 1e-12
        rep = check_tight(phi, 1e-12)
        assert rep.is_tight and abs(rep.bound - s * m / n) < 1e-12


def test_root_powers_reduces_exponents_exactly():
    huge = np.array([10 ** 9, 10 ** 12 + 7])
    assert np.array_equal(_root_powers(12, huge), _root_powers(12, huge % 12))


def test_index_coset_values():
    assert index_coset(10, 5, 1) == (1, 3, 5, 7, 9)
    assert index_coset(10, 5, 2) == (2, 4, 6, 8, 10)
    assert index_coset(10, 2, 2) == (2, 7)
    assert index_coset(12, 3, 4) == (4, 8, 12)
    assert index_coset(6, 6, 1) == (1, 2, 3, 4, 5, 6)
    with pytest.raises(ValueError):
        index_coset(10, 4, 1)
    with pytest.raises(ValueError):
        index_coset(10, 5, 0)
    with pytest.raises(ValueError):
        index_coset(10, 5, 3)


def test_index_cosets_are_tight_subsets():
    phi = htf(HtfParams(3, 12))
    for d in (3, 4, 6):
        for q in range(1, 12 // d + 1):
            sub = phi.submatrix(index_coset(12, d, q))
            rep = check_tight(sub)
            assert rep.is_tight and abs(rep.bound - d / 3) < 1e-12


def test_divisor_sets_reference_table():
    # prime m gives empty sets in every dimension
    for n, m in ((2, 7), (3, 13), (5, 11)):
        sets = divisor_sets(n, m)
        assert sets.divisors == () and sets.minimal_divisors == ()
        assert sets.divisible_sizes == ()
    sets = divisor_sets(2, 9)
    assert (sets.divisors, sets.minimal_divisors) == ((3,), (3,))
    assert sets.divisible_sizes == (3, 6)
    assert divisor_sets(3, 9).divisible_sizes == (3, 6)
    assert divisor_sets(4, 9).divisors == ()
    sets = divisor_sets(2, 10)
    assert sets.divisors == (2, 5) and sets.minimal_divisors == (2, 5)
    assert sets.divisible_sizes == (2, 4, 5, 6, 8)
    for n in (3, 4, 5):
        sets = divisor_sets(n, 10)
        assert (sets.divisors, sets.minimal_divisors,
                sets.divisible_sizes) == ((5,), (5,), (5,))
    sets = divisor_sets(2, 24)
    assert sets.divisors == (2, 3, 4, 6, 8, 12)
    assert sets.minimal_divisors == (2, 3)
    assert sets.divisible_sizes == tuple(range(2, 23))
    sets = divisor_sets(3, 24)
    assert sets.divisors == (3, 4, 6, 8, 12)
    assert sets.minimal_divisors == (3, 4)
    assert sets.divisible_sizes == tuple(
        s for s in range(3, 22) if s not in (5, 19))
    sets = divisor_sets(4, 24)
    assert sets.divisors == (4, 6, 8, 12)
    assert sets.minimal_divisors == (4, 6)
    assert sets.divisible_sizes == tuple(range(4, 21, 2))


def loop_reachable_sums(limit, parts):
    """The coin-problem table by a loop over every value, one part at a time."""
    reach = bytearray(limit + 1)
    reach[0] = 1
    for p in parts:
        for v in range(p, limit + 1):
            if reach[v - p]:
                reach[v] = 1
    return reach


def test_reachable_sums_matches_value_loop():
    rng = np.random.default_rng(20)
    for _ in range(300):
        limit = int(rng.integers(0, 501))
        parts = rng.integers(1, 601, size=rng.integers(1, 6)).tolist()
        reach = reachable_sums(limit, parts)
        assert len(reach) == limit + 1
        assert list(reach) == [bool(v) for v in loop_reachable_sums(limit, parts)]


def scanned_divisor_sets(n, m):
    """The divisor sets by their definitions: a scan of [n, m - n] for
    divisors and a value loop for sums of minimal divisors."""
    divisors = tuple(d for d in range(n, m - n + 1) if m % d == 0)
    minimal = tuple(d for d in divisors
                    if not any(d % c == 0 for c in divisors if c < d))
    reach = loop_reachable_sums(m, minimal)
    sizes = tuple(s for s in range(n, m - n + 1) if reach[s] and reach[m - s])
    return divisors, minimal, sizes


def test_divisor_sets_match_range_scan():
    for m in range(1, 201):
        for n in range(1, m + 1):
            sets = divisor_sets(n, m)
            got = (sets.divisors, sets.minimal_divisors, sets.divisible_sizes)
            assert got == scanned_divisor_sets(n, m), (n, m)
            assert all(type(v) is int for t in got for v in t)


def test_divisor_sets_json_obj():
    obj = divisor_sets(3, 24).to_json_obj()
    assert obj["n"] == 3 and obj["m"] == 24
    assert obj["D"] == [3, 4, 6, 8, 12]
    assert obj["P"] == [3, 4]
    assert obj["S"] == [s for s in range(3, 22) if s not in (5, 19)]
    assert obj["prime_factorization"] == [[2, 3], [3, 1]]
    assert isinstance(divisor_sets(3, 24), DivisorSets)


def test_divisible_sizes_are_closed_under_complement():
    for n, m in ((2, 10), (2, 24), (3, 24), (4, 24), (2, 9)):
        sizes = divisor_sets(n, m).divisible_sizes
        assert all(m - s in sizes for s in sizes)


def test_is_balancing_known_values():
    assert is_balancing(10, 0) and is_balancing(10, 10)
    assert is_balancing(10, 2) and is_balancing(10, 5)
    assert not is_balancing(10, 1)
    assert not is_balancing(10, 3)
    assert not is_balancing(10, 7)
    assert not is_balancing(1, 0)
    assert is_balancing(6, 4)
    assert not is_balancing(6, 5)
    with pytest.raises(ValueError):
        is_balancing(10, 11)
    with pytest.raises(ValueError):
        is_balancing(0, 0)


def test_is_balancing_matches_root_subset_enumeration():
    # k is balancing for m exactly when k of the m-th roots of unity sum
    # to zero while the other m - k do as well
    for m in range(1, 13):
        roots = [cmath.exp(2j * cmath.pi * j / m) for j in range(m)]
        total = sum(roots)
        for k in range(m + 1):
            witnessed = any(
                abs(sum(roots[j] for j in subset)) < 1e-9
                and abs(total - sum(roots[j] for j in subset)) < 1e-9
                for subset in combinations(range(m), k))
            assert is_balancing(m, k) == witnessed, (m, k)


def test_htf_is_prime_closed_form():
    assert htf_is_prime(2, 7)
    assert htf_is_prime(4, 9)
    assert htf_is_prime(3, 3)
    assert not htf_is_prime(2, 9)
    assert not htf_is_prime(3, 10)
    assert not htf_is_prime(2, 4)
    assert htf_is_prime(1, 1)
    assert not htf_is_prime(1, 2)
    assert not htf_is_prime(1, 7)
    with pytest.raises(ValueError):
        htf_is_prime(3, 2)


def test_htf_is_prime_matches_bruteforce():
    for n in range(2, 6):
        for m in range(n, 11):
            phi = htf(HtfParams(n, m))
            assert htf_is_prime(n, m) == is_prime_bruteforce(phi), (n, m)


def test_htf_prime_factors_pair_cosets():
    params = HtfParams(2, 10)
    phi = htf(params)
    factors = htf_prime_factors(params, 2)
    assert len(factors) == 5
    for q, factor in enumerate(factors, start=1):
        coset = index_coset(10, 2, q)
        want = phi.entries[:, [i - 1 for i in coset]]
        assert np.max(np.abs(factor.entries - want)) < 1e-12
        rep = check_tight(factor)
        assert rep.is_tight and abs(rep.bound - 1.0) < 1e-12
        assert is_prime_bruteforce(factor)


def test_htf_prime_factors_long_cosets():
    params = HtfParams(2, 10)
    phi = htf(params)
    factors = htf_prime_factors(params, 5)
    assert len(factors) == 2
    rebuilt = np.zeros((2, 10), dtype=complex)
    for q, factor in enumerate(factors, start=1):
        assert is_prime_bruteforce(factor)
        for pos, i in enumerate(index_coset(10, 5, q)):
            rebuilt[:, i - 1] = factor.entries[:, pos]
    assert np.max(np.abs(rebuilt - phi.entries)) < 1e-12


def test_htf_prime_factors_phase_ladder():
    params = HtfParams(3, 12, 2.0)
    factors = htf_prime_factors(params, 3)
    gamma = np.exp(2j * np.pi / 12)
    twist = gamma ** np.arange(3)
    for q in range(1, len(factors)):
        want = twist[:, None] * factors[q - 1].entries
        assert np.max(np.abs(factors[q].entries - want)) < 1e-12


def test_htf_prime_factors_rejects_non_minimal_size():
    with pytest.raises(ValueError):
        htf_prime_factors(HtfParams(2, 10), 3)
    with pytest.raises(ValueError):
        htf_prime_factors(HtfParams(2, 24), 4)
    with pytest.raises(ValueError):
        htf_prime_factors(HtfParams(2, 7), 7)


def looped_prime_factors(params, p):
    """The factors built one coset at a time, each twist from its own
    exponent vector t (q - 1)."""
    n, m, s = params.n, params.m, params.s
    kernel = htf(HtfParams(n, p, s)).entries
    t = np.arange(n)
    out = []
    for q in range(1, m // p + 1):
        phase = _root_powers(m, t * (q - 1))
        out.append(FrameMatrix(phase[:, None] * kernel, "complex"))
    return out


def test_htf_prime_factors_match_the_per_coset_loop_bit_for_bit():
    for m in range(1, 61):
        for n in range(1, m + 1):
            params = HtfParams(n, m, 1.5)
            for p in divisor_sets(n, m).minimal_divisors:
                got = htf_prime_factors(params, p)
                want = looped_prime_factors(params, p)
                assert len(got) == len(want) == m // p
                assert all(np.array_equal(g.entries, w.entries)
                           for g, w in zip(got, want)), (n, m, p)


def accepts(build, *args) -> bool:
    try:
        build(*args)
    except ValueError:
        return False
    return True


def test_coset_factorization_accepts_exactly_the_minimal_divisors():
    for m in range(1, 201):
        candidates = [d for d in range(1, m + 1) if m % d == 0] + [0, m + 1]
        for n in range(1, m + 1):
            sets = divisor_sets(n, m)
            assert htf_is_prime(n, m) == (not sets.divisors), (n, m)
            want = [p for p in candidates if p in sets.minimal_divisors]
            assert [p for p in candidates
                    if accepts(plan, n, m, p)] == want, (n, m)
            assert [p for p in candidates
                    if accepts(htf_prime_factors, HtfParams(n, m), p)
                    ] == want, (n, m)


def test_coset_factorization_never_builds_the_divisible_sizes(monkeypatch):
    def refuse(limit, parts):
        raise AssertionError("reachable_sums called")

    monkeypatch.setattr(harmonic, "reachable_sums", refuse)
    assert plan(100, 30030, 105).coset_count == 286
    assert len(htf_prime_factors(HtfParams(3, 60), 3)) == 20
    assert not htf_is_prime(100, 30030)
    with pytest.raises(AssertionError):
        divisor_sets(100, 30030)


def test_tight_subsets_need_not_contain_a_coset():
    # a tight subset whose complement is tight too, yet no index coset of
    # a minimal size lies inside it, so it is no union of cosets
    phi = htf(HtfParams(2, 30))
    subset = (6, 7, 13, 19, 25, 26)
    sub = FrameMatrix(phi.entries[:, [i - 1 for i in subset]], "complex")
    report = check_tight(sub)
    assert report.is_tight and report.residual < 1e-14
    cert = complement_certificate(phi, subset)
    assert cert.subset == subset and cert.size == 6
    assert vanishing_subsum_check(30, subset, 1)
    minimal = divisor_sets(2, 30).minimal_divisors
    assert minimal == (2, 3, 5)
    for d in minimal:
        for q in range(1, 30 // d + 1):
            assert not set(index_coset(30, d, q)) <= set(subset), (d, q)


def test_htf_divisor_of_size_known_packings():
    assert htf_divisor_of_size(HtfParams(2, 10), 5) == (1, 3, 5, 7, 9)
    # size 8 is the complement of the first 2-packing, (1, 6)
    assert htf_divisor_of_size(HtfParams(2, 10), 8) == (2, 3, 4, 5, 7, 8, 9, 10)
    # 5 = 3 + 2 needs one coset of each size, packed disjointly
    assert htf_divisor_of_size(HtfParams(2, 24), 5) == (1, 2, 9, 14, 17)
    assert htf_divisor_of_size(HtfParams(3, 24), 7) == (1, 2, 7, 10, 13, 18, 19)


def test_htf_divisor_of_size_is_tight_with_tight_complement():
    for n, m in ((2, 9), (2, 10), (2, 24), (3, 24), (4, 24)):
        phi = htf(HtfParams(n, m))
        sets = divisor_sets(n, m)
        for size in sets.divisible_sizes:
            subset = htf_divisor_of_size(HtfParams(n, m), size)
            assert len(subset) == size
            assert len(set(subset)) == size
            rep = check_tight(phi.submatrix(subset))
            assert rep.is_tight and abs(rep.bound - size / n) < 1e-10
            rest = tuple(i for i in range(1, m + 1) if i not in set(subset))
            assert check_tight(phi.submatrix(rest)).is_tight


def test_htf_divisor_of_size_backtracks_past_greedy_collisions():
    # sizes 20 and 22 for (2, 24) force the shift search to revisit the
    # placement of earlier cosets before a disjoint packing appears
    for size in (20, 22):
        subset = htf_divisor_of_size(HtfParams(2, 24), size)
        assert len(subset) == size
        assert check_tight(htf(HtfParams(2, 24)).submatrix(subset)).is_tight


def listed_representations(total, parts):
    """Every multiset of parts summing to total, built in full and then
    sorted: fewest terms first, larger parts first."""
    parts = sorted(set(parts), reverse=True)
    out = []

    def rec(remaining, start, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for i in range(start, len(parts)):
            if parts[i] <= remaining:
                acc.append(parts[i])
                rec(remaining - parts[i], i, acc)
                acc.pop()

    rec(total, 0, [])
    out.sort(key=lambda t: (len(t), tuple(-x for x in t)))
    return out


def test_representations_keep_the_sorted_order():
    # every divisible size of every (n, m) with m <= 120, and (2, 330, 323),
    # whose 18,727 representations the generator yields one at a time
    cases = {(size, sets.minimal_divisors)
             for m in range(1, 121) for n in range(1, m + 1)
             for sets in [divisor_sets(n, m)] for size in sets.divisible_sizes}
    cases.add((323, divisor_sets(2, 330).minimal_divisors))
    for size, parts in sorted(cases):
        assert list(_representations(size, parts)) == listed_representations(
            size, parts), (size, parts)
    reps = _representations(323, (2, 3, 5, 11))
    assert next(reps) == (11,) * 29 + (2, 2)


def unpruned_pack_cosets(m, parts):
    """Disjoint cosets of the given sizes, or None: the depth-first search
    over shifts without pruning or cap, kept as the reference."""
    used = set()
    shifts = []

    def place(i):
        if i == len(parts):
            return True
        d = parts[i]
        step = m // d
        first = shifts[-1] + 1 if i > 0 and parts[i - 1] == d else 1
        for q in range(first, step + 1):
            coset = range(q, m + 1, step)
            if any(c in used for c in coset):
                continue
            used.update(coset)
            shifts.append(q)
            if place(i + 1):
                return True
            shifts.pop()
            used.difference_update(coset)
        return False

    return used if place(0) else None


def unpruned_divisor_of_size(n, m, size):
    """The first packing over representations in order, of the smaller of
    size and m - size first and then of the other, or None; a packing of
    m - size is returned as its complement."""
    minimal = divisor_sets(n, m).minimal_divisors
    for side in sorted({size, m - size}):
        for parts in _representations(side, minimal):
            packed = unpruned_pack_cosets(m, parts)
            if packed is not None:
                if side != size:
                    packed = set(range(1, m + 1)) - packed
                return tuple(sorted(packed))
    return None


def test_pruned_packing_matches_unpruned_search():
    # every divisible size of every (n, m) with 2 <= n <= m/2, m <= 48, and
    # of (4, 60) and (2, 70), where some packings pass through states with
    # exactly as many free cosets of a size as parts of it left: the same
    # first packing, and PackingError exactly where none exists
    shapes = [(n, m) for m in range(4, 49) for n in range(2, m // 2 + 1)]
    calls = refuted = 0
    for n, m in shapes + [(4, 60), (2, 70)]:
        for size in divisor_sets(n, m).divisible_sizes:
            want = unpruned_divisor_of_size(n, m, size)
            if want is None:
                refuted += 1
                with pytest.raises(PackingError):
                    htf_divisor_of_size(HtfParams(n, m), size)
            else:
                assert htf_divisor_of_size(HtfParams(n, m), size) == want
            calls += 1
    assert calls > 1000 and refuted > 0


def assert_tight_packing(n, m, size, subset):
    assert len(subset) == size == len(set(subset))
    assert 1 <= subset[0] and subset[-1] <= m
    assert check_tight(htf(HtfParams(n, m)).submatrix(subset)).is_tight
    assert all(vanishing_subsum_check(m, subset, power)
               for power in range(1, n))


@pytest.mark.parametrize("n, m, size", [
    (3, 240, 119), (2, 120, 113), (2, 120, 116), (2, 120, 117),
    (2, 120, 118), (4, 252, 241), (2, 330, 323), (6, 330, 301),
    (6, 330, 307), (6, 330, 313), (5, 360, 347), (6, 360, 343),
    (6, 360, 346), (6, 210, 187)])
def test_htf_divisor_of_size_formerly_hanging_sizes(n, m, size):
    # the unpruned search put 23 five-cosets of Z_240 on shifts 1..23, left
    # no room for a four-coset and ran on for minutes; the sizes above m/2
    # ran for seconds (or hit the cap at (6, 210, 187)) while the search
    # packed them directly, and their complements pack at once
    start = time.perf_counter()
    subset = htf_divisor_of_size(HtfParams(n, m), size)
    assert time.perf_counter() - start < 1.0
    assert_tight_packing(n, m, size, subset)


# the divisible sizes of (4, 36) with no coset packing.  The cosets have
# 4, 6, 9, 12, 18 or 36 points, and every sum of those giving one of
# these sizes holds a 9 and a 4 (13 = 9 + 4, 17 = 9 + 4 + 4,
# 19 = 9 + 6 + 4, 23 = 9 + 6 + 4 + 4); a 9-coset and a 4-coset always
# meet, since their steps 4 and 9 are coprime
UNPACKABLE_4_36 = (13, 17, 19, 23)


@pytest.mark.parametrize("n, m, size",
                         [(4, 36, size) for size in UNPACKABLE_4_36])
def test_htf_divisor_of_size_refutes_impossible_packings(n, m, size):
    assert size in divisor_sets(n, m).divisible_sizes
    start = time.perf_counter()
    with pytest.raises(PackingError):
        htf_divisor_of_size(HtfParams(n, m), size)
    assert time.perf_counter() - start < 1.0


def test_htf_divisor_of_size_packs_every_other_size_of_4_36():
    sizes = [size for size in divisor_sets(4, 36).divisible_sizes
             if size not in UNPACKABLE_4_36]
    assert len(sizes) == 19
    for size in sizes:
        assert_tight_packing(4, 36, size,
                             htf_divisor_of_size(HtfParams(4, 36), size))


@pytest.mark.parametrize("n, m, size", [(4, 84, 67), (5, 120, 101)])
def test_htf_divisor_of_size_packs_the_complement(n, m, size):
    # no disjoint union of cosets has size 67 (or 101), but one of size
    # 17 (or 19) exists, and its complement is a tight subset
    start = time.perf_counter()
    subset = htf_divisor_of_size(HtfParams(n, m), size)
    assert time.perf_counter() - start < 1.0
    assert_tight_packing(n, m, size, subset)
    rest = [i for i in range(1, m + 1) if i not in subset]
    assert rest == list(htf_divisor_of_size(HtfParams(n, m), m - size))


def test_htf_divisor_of_size_undecided_at_cap(monkeypatch):
    # with room for only two backtracks, the one representation of 29 in
    # Z_60 stops undecided, but size 31 still packs, so its complement is
    # returned
    monkeypatch.setattr(harmonic, "PACK_NODE_CAP", 2)
    assert_tight_packing(5, 60, 29, htf_divisor_of_size(HtfParams(5, 60), 29))
    assert htf_divisor_of_size(HtfParams(2, 10), 5) == (1, 3, 5, 7, 9)
    # the count test needs 4 backtracks to refute 13 = 9 + 4 in Z_36, so
    # with 2 the search must not claim that no packing exists
    with pytest.raises(SearchCapError):
        htf_divisor_of_size(HtfParams(4, 36), 13)
    monkeypatch.setattr(harmonic, "PACK_NODE_CAP", 4)
    with pytest.raises(PackingError):
        htf_divisor_of_size(HtfParams(4, 36), 13)
    # with no backtrack allowed, neither 14 nor 26 packs in Z_40 and some
    # representations stop undecided, so the search must not claim that
    # no packing exists; under the real cap 14 packs directly
    monkeypatch.setattr(harmonic, "PACK_NODE_CAP", 0)
    with pytest.raises(SearchCapError):
        htf_divisor_of_size(HtfParams(3, 40), 14)
    monkeypatch.undo()
    assert_tight_packing(3, 40, 14, htf_divisor_of_size(HtfParams(3, 40), 14))


def test_htf_divisor_of_size_rejects_non_divisible_sizes():
    with pytest.raises(ValueError):
        htf_divisor_of_size(HtfParams(2, 10), 3)
    with pytest.raises(ValueError):
        htf_divisor_of_size(HtfParams(2, 10), 7)
    with pytest.raises(ValueError):
        htf_divisor_of_size(HtfParams(2, 7), 2)


def test_htf_coherence_closed_form():
    assert htf_coherence(3, 3) == 0.0
    assert abs(htf_coherence(2, 4) - 1 / math.sqrt(2)) < 1e-14
    assert abs(htf_coherence(3, 6) - 2 / 3) < 1e-14
    for n in range(2, 17):
        for m in range(n + 1, 17):
            brute = coherence(htf(HtfParams(n, m)))
            assert abs(htf_coherence(n, m) - brute) < 1e-12, (n, m)
    with pytest.raises(ValueError):
        htf_coherence(3, 2)
    with pytest.raises(ValueError):
        htf_coherence(1, 1)


def test_vanishing_subsum_known_cases():
    assert vanishing_subsum_check(6, (1, 3, 5), 1)
    assert vanishing_subsum_check(6, (1, 3, 5), 2)
    assert not vanishing_subsum_check(6, (1, 2), 1)
    assert vanishing_subsum_check(2, (1, 2), 1)
    assert not vanishing_subsum_check(2, (1, 2), 2)
    with pytest.raises(ValueError):
        vanishing_subsum_check(6, (), 1)
    with pytest.raises(ValueError):
        vanishing_subsum_check(6, (0, 1), 1)
    with pytest.raises(ValueError):
        vanishing_subsum_check(6, (1, 7), 1)
    # the sum over [1, 1, 3, 3] at m = 4 vanishes, but it is no subset
    with pytest.raises(ValueError, match="^subset has repeated indices$"):
        vanishing_subsum_check(4, [1, 1, 3, 3], 1)
    with pytest.raises(ValueError):
        vanishing_subsum_check(6, (1, 2), 0)


def test_vanishing_subsums_characterize_tight_subsets():
    # a set of harmonic frame columns is tight exactly when the subsums
    # vanish for every power 1..n-1
    for n, m in ((2, 6), (2, 8), (3, 9)):
        phi = htf(HtfParams(n, m))
        for size in range(1, m):
            for subset in combinations(range(1, m + 1), size):
                vanishes = all(vanishing_subsum_check(m, subset, power)
                               for power in range(1, n))
                rep = check_tight(phi.submatrix(subset), 1e-9)
                assert rep.is_tight == vanishes, (n, m, subset)


def test_packing_error_is_exported():
    assert issubclass(PackingError, Exception)
