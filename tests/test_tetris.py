import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import columns_as_multiset
from primeframes import (FrameMatrix, InfeasibleError, TetrisSchedule,
                         check_tight, is_prime_bruteforce, stf, stf_factorize,
                         stf_is_divisible, stf_low_redundancy_feasible,
                         stf_schedule)

# The 4 x 11 instance, assembled by hand from the row-budget recurrence.
STF_4_11 = np.array([
    [1, 1, math.sqrt(3 / 8), math.sqrt(3 / 8), 0, 0, 0, 0, 0, 0, 0],
    [0, 0, math.sqrt(5 / 8), -math.sqrt(5 / 8), 1, math.sqrt(1 / 4),
     math.sqrt(1 / 4), 0, 0, 0, 0],
    [0, 0, 0, 0, 0, math.sqrt(3 / 4), -math.sqrt(3 / 4), 1,
     math.sqrt(1 / 8), math.sqrt(1 / 8), 0],
    [0, 0, 0, 0, 0, 0, 0, 0, math.sqrt(7 / 8), -math.sqrt(7 / 8), 1],
])


def test_schedule_4_11():
    sched = stf_schedule(4, 11)
    assert sched.lam == Fraction(11, 4)
    assert sched.reset_rows == (0, 4)
    assert sched.ones_per_row == (2, 1, 1, 1)
    assert sched.remainders == (Fraction(3, 4), Fraction(1, 2),
                                Fraction(1, 4), Fraction(0))
    assert sched.block_rows() == (1, 2, 3)
    obj = sched.to_json_obj()
    assert obj == {"lambda": [11, 4], "m_seq": [2, 1, 1, 1],
                   "r_seq_numerators": [3, 2, 1, 0], "K": [0, 4]}


def test_schedule_integer_redundancy():
    sched = stf_schedule(4, 12)
    assert sched.reset_rows == (0, 1, 2, 3, 4)
    assert sched.ones_per_row == (3, 3, 3, 3)
    assert sched.block_rows() == ()
    assert np.array_equal(stf(4, 12).entries.real,
                          np.kron(np.eye(4), np.ones(3)))


def test_stf_4_11_matrix():
    phi = stf(4, 11)
    assert phi.field == "real"
    assert np.max(np.abs(phi.entries - STF_4_11)) < 1e-15


def test_stf_is_unit_norm_tight_and_sparse():
    for n in range(1, 6):
        for m in range(2 * n, 2 * n + 7):
            phi = stf(n, m)
            assert np.max(np.abs(phi.column_norms() - 1.0)) < 1e-12
            rep = check_tight(phi, 1e-12)
            assert rep.is_tight and abs(rep.bound - m / n) < 1e-12
            support = np.count_nonzero(np.abs(phi.entries) > 0, axis=0)
            assert support.max() <= 2


def test_stf_validation():
    # every 1 <= n < m is in the domain; n < m < 2n builds where the
    # construction exists
    for args in ((3, 3), (0, 4), (4, 2)):
        for build in (stf, stf_schedule):
            with pytest.raises(ValueError, match="^need 1 <= n < m$"):
                build(*args)
    assert stf(3, 5).m == 5 and stf_schedule(2, 3).ones_per_row == (1, 0)


def test_stf_is_divisible_known_values():
    assert stf_is_divisible(4, 11)
    assert stf_is_divisible(2, 5)
    assert stf_is_divisible(2, 4)
    assert not stf_is_divisible(3, 7)
    assert not stf_is_divisible(4, 9)
    assert not stf_is_divisible(5, 12)
    with pytest.raises(ValueError):
        stf_is_divisible(3, 5)


def test_divisibility_equals_every_row_keeping_a_one():
    for n in range(1, 41):
        for m in range(2 * n, 4 * n + 3):
            sched = stf_schedule(n, m)
            assert (stf_is_divisible(n, m)
                    == (min(sched.ones_per_row) >= 1)), (n, m)


def test_divisibility_matches_bruteforce():
    for n in range(2, 5):
        for m in range(2 * n, 15):
            divisible = not is_prime_bruteforce(stf(n, m))
            assert stf_is_divisible(n, m) == divisible, (n, m)


def test_low_redundancy_feasible_known_values():
    assert stf_low_redundancy_feasible(2, 3)
    assert stf_low_redundancy_feasible(4, 6)
    assert stf_low_redundancy_feasible(4, 7)
    assert stf_low_redundancy_feasible(6, 9)
    assert stf_low_redundancy_feasible(6, 10)
    assert not stf_low_redundancy_feasible(3, 4)
    assert not stf_low_redundancy_feasible(5, 6)
    assert not stf_low_redundancy_feasible(6, 8)
    with pytest.raises(ValueError):
        stf_low_redundancy_feasible(4, 4)
    with pytest.raises(ValueError):
        stf_low_redundancy_feasible(4, 8)


def test_low_redundancy_matches_closed_form():
    # the closed form must say exactly when the row-by-row construction
    # runs through without a negative budget
    for n in range(2, 41):
        for m_tilde in range(n + 1, 2 * n):
            if stf_low_redundancy_feasible(n, m_tilde):
                rep = check_tight(stf(n, m_tilde), 1e-12)
                assert rep.is_tight, (n, m_tilde)
                assert abs(rep.bound - m_tilde / n) < 1e-12
            else:
                with pytest.raises(InfeasibleError):
                    stf(n, m_tilde)


def test_low_redundancy_construction():
    for n, m_tilde in ((2, 3), (4, 7), (6, 9), (6, 10), (5, 9)):
        phi = stf(n, m_tilde)
        assert phi.m == m_tilde
        assert np.max(np.abs(phi.column_norms() - 1.0)) < 1e-12
        rep = check_tight(phi, 1e-12)
        assert rep.is_tight and abs(rep.bound - m_tilde / n) < 1e-12
        assert is_prime_bruteforce(phi)


def test_low_redundancy_infeasible_raises():
    with pytest.raises(InfeasibleError):
        stf(3, 4)
    with pytest.raises(InfeasibleError) as err:
        stf(5, 6)
    assert "negative budget" in str(err.value)
    with pytest.raises(ValueError, match="^need 1 <= n < m$"):
        stf(4, 4)


def test_factorize_4_11():
    fact = stf_factorize(4, 11)
    assert fact.basis_copies == 1
    assert fact.basis_indices == ((1, 5, 8, 11),)
    assert fact.core_indices == (2, 3, 4, 6, 7, 9, 10)
    reduced = stf(4, 7)
    assert np.max(np.abs(fact.prime_core.entries - reduced.entries)) < 1e-12


def test_factorize_peels_all_spare_bases():
    fact = stf_factorize(2, 8)
    assert fact.basis_copies == 3
    assert fact.prime_core.m == 2
    fact = stf_factorize(2, 4)
    assert fact.basis_copies == 1
    assert fact.prime_core.m == 2
    fact = stf_factorize(5, 11)
    assert fact.basis_copies == 0
    assert fact.core_indices == tuple(range(1, 12))


def test_factorize_copies_match_peeling_the_schedule():
    # peel one basis at a time: the tetris frame on (n, rest) less one
    # basis is the one on (n, rest - n) up to column order, and a basis
    # comes off while the rest has 2n vectors and a one in every row
    for n in range(1, 7):
        for m in range(2 * n, 4 * n + 3):
            rest = m
            while (rest >= 2 * n
                   and min(stf_schedule(n, rest).ones_per_row) >= 1):
                rest -= n
            fact = stf_factorize(n, m)
            assert fact.basis_copies == (m - rest) // n, (n, m)
            assert is_prime_bruteforce(fact.prime_core), (n, m)


def test_factorize_pieces_partition_and_verify():
    for n, m in ((2, 8), (3, 9), (4, 11), (5, 11), (3, 13), (2, 12), (4, 16)):
        phi = stf(n, m)
        fact = stf_factorize(n, m)
        pieces = list(fact.basis_indices) + [fact.core_indices]
        seen = sorted(i for piece in pieces for i in piece)
        assert seen == list(range(1, m + 1))
        for idx in fact.basis_indices:
            basis = phi.submatrix(idx)
            gram = basis.entries.conj().T @ basis.entries
            assert np.max(np.abs(gram - np.eye(n))) < 1e-12
        core = fact.prime_core
        assert np.array_equal(
            core.entries, phi.submatrix(fact.core_indices).entries)
        rep = check_tight(core, 1e-12)
        assert rep.is_tight and abs(rep.bound - core.m / n) < 1e-12
        assert is_prime_bruteforce(core)
        want = stf(n, core.m).entries if core.m > n else np.eye(n)
        assert (columns_as_multiset(core.entries, 12)
                == columns_as_multiset(want, 12))


# --- the integer bookkeeping against a Fraction oracle ----------------------

def fraction_schedule(n, m):
    """(lam, reset_rows, ones, remainders) by exact rational budgets."""
    lam = Fraction(m, n)
    g = math.gcd(n, m)
    reset = tuple(t * (n // g) for t in range(g + 1))
    ones = []
    remainders = []
    r_prev = Fraction(0)
    for j in range(1, n + 1):
        budget = lam if r_prev == 0 else lam - 2 + r_prev
        if budget < 0:
            raise InfeasibleError(
                "row %d of a %d x %d tetris frame has negative budget; "
                "no such frame exists" % (j, n, m))
        count = int(budget)
        ones.append(count)
        r_prev = budget - count
        remainders.append(r_prev)
    return lam, reset, tuple(ones), tuple(remainders)


def fraction_assemble(n, m):
    """The frame column by column from the rational remainders, and the
    1-based e_j column positions per row."""
    _, _, ones, remainders = fraction_schedule(n, m)
    out = np.zeros((n, m))
    ones_pos = [[] for _ in range(n)]
    col = 0
    for j in range(n):
        for _ in range(ones[j]):
            out[j, col] = 1.0
            ones_pos[j].append(col + 1)
            col += 1
        r = remainders[j]
        if j < n - 1 and r != 0:
            a = math.sqrt(r / 2)
            b = math.sqrt(1 - r / 2)
            out[j, col] = a
            out[j, col + 1] = a
            out[j + 1, col] = b
            out[j + 1, col + 1] = -b
            col += 2
    assert col == m
    return FrameMatrix(out, "real"), ones_pos


def fraction_factorize(n, m):
    frame, ones_pos = fraction_assemble(n, m)
    copies = (m - 2 * n + math.gcd(m, n)) // n
    basis_indices = tuple(
        tuple(ones_pos[j][l] for j in range(n)) for l in range(copies))
    peeled = {i for idx in basis_indices for i in idx}
    core_indices = tuple(i for i in range(1, m + 1) if i not in peeled)
    return frame.submatrix(core_indices), copies, core_indices, basis_indices


def same_frame(phi, psi):
    return (phi.field == psi.field and phi.entries.shape == psi.entries.shape
            and phi.entries.tobytes() == psi.entries.tobytes())


def test_integer_bookkeeping_matches_fraction_oracle():
    # the shapes include (7, 30), where 1 - r/2 taken in floats is 1 ulp
    # off; below m = 2n the oracle's refusals must match too
    for n in range(1, 41):
        for m in range(n + 1, 4 * n + 3):
            try:
                frame = fraction_assemble(n, m)[0]
            except InfeasibleError as exc:
                for build in (stf, stf_schedule):
                    with pytest.raises(InfeasibleError) as err:
                        build(n, m)
                    assert str(err.value) == str(exc), (n, m)
                continue
            assert same_frame(stf(n, m), frame), (n, m)
            lam, reset, ones, remainders = fraction_schedule(n, m)
            sched = stf_schedule(n, m)
            assert repr(sched) == repr(TetrisSchedule(
                n, m, lam, reset, ones, remainders)), (n, m)
            assert json.dumps(sched.to_json_obj()) == json.dumps(
                TetrisSchedule(n, m, lam, reset, ones,
                               remainders).to_json_obj())
            if m < 2 * n:
                continue
            core, copies, core_indices, basis_indices = (
                fraction_factorize(n, m))
            fact = stf_factorize(n, m)
            assert same_frame(fact.prime_core, core), (n, m)
            assert repr(fact[1:]) == repr((copies, core_indices,
                                           basis_indices)), (n, m)


def test_stf_with_a_million_columns():
    # one slice per row: the construction's Python work is O(n), not O(m)
    n, m = 4, 10 ** 6 + 1
    start = time.perf_counter()
    phi = stf(n, m)
    assert time.perf_counter() - start < 0.5
    entries = phi.entries.real
    assert np.count_nonzero(entries) == m + 2 * (n - 1)
    assert np.max(np.abs(np.einsum("ij,ij->j", entries, entries) - 1.0)) < 1e-12
    rep = check_tight(phi, 1e-12)
    assert rep.is_tight and abs(rep.bound - m / n) < 1e-9
