"""Harmonic tight frames and their exact divisibility arithmetic.

The harmonic frame on parameters (n, m, s) consists of the m columns

    phi_k = sqrt(s/n) * (1, w^k, w^{2k}, ..., w^{(n-1)k}),   w = exp(2 pi i / m),

for k = 0..m-1.  It is a tight frame for C^n with bound s m / n and
column norms sqrt(s).  Every arithmetic index coset whose size d divides
m and lies in [n, m - n] is a tight subset, so primality, the divisor
size sets, explicit divisors and the factors along cosets reduce to
integer arithmetic on the divisors of m; no floating-point tolerance is
involved.  An explicit divisor of size s is a disjoint union of cosets,
packed on the smaller of s and m - s first; a packing of m - s gives
its complement.  Not every tight subset is a union of cosets: in the
frame on (2, 30) the subset (6, 7, 13, 19, 25, 26) is tight, and so is
its complement, yet it contains no coset of size 2, 3 or 5.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import PackingError, SearchCapError
from .frames import FrameMatrix
from .numtheory import (check_integers, check_positive,
                        prime_power_factorization, reachable_sums)

# Dead ends (placed cosets taken back) allowed per representation in
# htf_divisor_of_size before the representation is left undecided.
PACK_NODE_CAP = 2000


@dataclass(frozen=True)
class HtfParams:
    """Parameters (n, m, s) of a harmonic frame; s scales squared norms."""

    n: int
    m: int
    s: float = 1.0

    def __post_init__(self):
        check_integers(n=self.n, m=self.m)
        if not 1 <= self.n <= self.m:
            raise ValueError("need 1 <= n <= m")
        check_positive("s", self.s)


@dataclass(frozen=True)
class DivisorSets:
    """The three integer divisor sets of a harmonic frame shape (n, m).

    ``divisors``: divisors d of m with n <= d <= m - n (sizes of coset
    divisors).  ``minimal_divisors``: elements of ``divisors`` with no
    proper divisor in the set.  ``divisible_sizes``: every size s in
    [n, m - n] such that both s and m - s are sums of minimal divisors.
    A listed size is not proof that a tight subset of that size exists:
    at (4, 36) size 13 = 4 + 9 is listed, but every 4-coset of Z_36
    meets every 9-coset, so no disjoint union of cosets has size 13.
    """

    n: int
    m: int
    divisors: tuple
    minimal_divisors: tuple
    divisible_sizes: tuple
    prime_factors_of_m: tuple

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "D": list(self.divisors),
            "P": list(self.minimal_divisors),
            "S": list(self.divisible_sizes),
            "prime_factorization": [list(pe) for pe in self.prime_factors_of_m],
        }


def _root_powers(m: int, exponents) -> np.ndarray:
    """exp(2 pi i e / m) with the exponents reduced mod m first.

    The reduction keeps every angle in [0, 2 pi), which preserves full
    precision for large exponent products.
    """
    e = np.asarray(exponents) % m
    return np.exp((2j * np.pi / m) * e)


def htf(params: HtfParams) -> FrameMatrix:
    """The harmonic frame matrix for the given parameters."""
    n, m, s = params.n, params.m, params.s
    powers = np.outer(np.arange(n), np.arange(m))
    entries = math.sqrt(s / n) * _root_powers(m, powers)
    return FrameMatrix._adopt(entries, "complex")


def index_coset(m: int, d: int, q: int) -> tuple:
    """The 1-based index coset {k m/d + q : k = 0..d-1} of size d.

    Requires d | m and 1 <= q <= m/d.  Harmonic frame columns on such a
    coset form a tight subset with bound s d / n.
    """
    check_integers(m=m, d=d, q=q)
    if d < 1 or m % d != 0:
        raise ValueError("d must be a positive divisor of m")
    step = m // d
    if not 1 <= q <= step:
        raise ValueError("q must lie in [1, m/d]")
    return tuple(k * step + q for k in range(d))


def _divisors(n: int, m: int) -> tuple:
    """The divisors of m in [n, m - n] and the minimal ones, ascending.

    The largest proper divisor of d is d/r, r the smallest prime factor
    of d, and every divisor of d divides m, so d is minimal exactly when
    d/r < n.  Raises ValueError unless n and m are integers >= 1.
    """
    check_integers(n=n, m=m)
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    tops = [(1, 0)]     # (divisor, its largest proper divisor; 0 for 1)
    for q, e in reversed(prime_power_factorization(m)):
        tops = [(d * q ** k, d * q ** (k - 1) if k else top)
                for d, top in tops for k in range(e + 1)]
    tops = sorted(dt for dt in tops if n <= dt[0] <= m - n)
    return (tuple(d for d, _ in tops),
            tuple(d for d, top in tops if top < n))


def _coset_twists(n: int, m: int, p: int) -> np.ndarray:
    """The (n, m/p) array w^{t (q-1)}, t = 0..n-1 down, q = 1..m/p across.

    Column q - 1 is the diagonal of the twist that carries the (n, p)
    kernel onto index coset q.  Raises ValueError unless p is a minimal
    divisor size of (n, m).
    """
    check_integers(p=p)
    if p not in _divisors(n, m)[1]:
        raise ValueError(
            "p = %d is not a minimal divisor size of (n, m) = (%d, %d)"
            % (p, n, m))
    return _root_powers(m, np.outer(np.arange(n), np.arange(m // p)))


def divisor_sets(n: int, m: int) -> DivisorSets:
    """Compute the divisor, minimal-divisor, and divisible-size sets."""
    divisors, minimal = _divisors(n, m)
    reach = reachable_sums(m, minimal)
    balanced = np.flatnonzero(reach & reach[::-1])
    sizes = tuple(balanced[(balanced >= n) & (balanced <= m - n)].tolist())
    return DivisorSets(n, m, divisors, minimal, sizes,
                       tuple(prime_power_factorization(m)))


def is_balancing(m: int, k: int) -> bool:
    """Whether k and m - k are both sums of prime divisors of m.

    Repetition is allowed and the empty sum gives zero.  These are
    exactly the k for which some k-subset of the m-th roots of unity
    sums to zero along with its complement.
    """
    check_integers(m=m, k=k)
    if m < 1 or not 0 <= k <= m:
        raise ValueError("need m >= 1 and 0 <= k <= m")
    primes = [p for p, _ in prime_power_factorization(m)]
    reach = reachable_sums(m, primes)
    return bool(reach[k] and reach[m - k])


def htf_is_prime(n: int, m: int) -> bool:
    """Closed-form primality of the harmonic frame shape (n, m).

    For n >= 2 the frame is prime exactly when m has no divisor in
    [n, m - n].  For n = 1 every single vector is a tight subset, so the
    frame is divisible whenever m >= 2.
    """
    check_integers(n=n, m=m)
    if not 1 <= n <= m:
        raise ValueError("need 1 <= n <= m")
    if n == 1:
        return m < 2
    return not _divisors(n, m)[0]


def htf_prime_factors(params: HtfParams, p: int) -> list:
    """The m/p prime tight factors of a harmonic frame along cosets of size p.

    Requires p in the minimal divisor set.  Factor q (1-based) carries
    the columns indexed by index_coset(m, p, q) and equals
    diag(w^t)^{q-1} applied to the harmonic frame on (n, p, s), with
    w = exp(2 pi i / m).
    """
    n, m, s = params.n, params.m, params.s
    twists = _coset_twists(n, m, p)
    kernel = htf(HtfParams(n, p, s)).entries
    return [FrameMatrix._adopt(twists[:, q, None] * kernel, "complex")
            for q in range(m // p)]


def _representations(total: int, parts):
    """Yield every multiset of parts summing to total, fewest terms first.

    Between multisets of equal length the one with larger parts comes
    first.  Each multiset is a descending tuple, made only when the
    caller asks for it.  Each length k is walked depth first, larger parts
    first, and a prefix is extended only while the remainder r over the j
    slots left satisfies j min <= r <= j cap, cap being the last part
    placed.
    """
    parts = sorted(set(parts), reverse=True)
    low = parts[-1]
    for k in range(total // low + 1):
        chosen = []     # indices into parts, non-decreasing
        remaining = total
        i = 0           # the first index to try in the next slot
        while True:
            if len(chosen) == k:
                if remaining == 0:
                    yield tuple(parts[c] for c in chosen)
            else:
                slots = k - len(chosen)
                while (i < len(parts)
                       and parts[i] > remaining - (slots - 1) * low):
                    i += 1
                if i < len(parts) and remaining <= slots * parts[i]:
                    chosen.append(i)
                    remaining -= parts[i]
                    continue
            if not chosen:
                break
            c = chosen.pop()
            remaining += parts[c]
            i = c + 1


def htf_divisor_of_size(params: HtfParams, size: int) -> tuple:
    """A tight subset of the given cardinality, as sorted 1-based indices.

    The subset is assembled as a disjoint union of index cosets whose
    sizes are minimal divisors.  In a harmonic frame the complement of a
    tight subset is tight, since S_J + S_{J^c} = A I, so the smaller of
    ``size`` and m - size (also divisible) is packed first and the other
    second: a packing of ``size`` is returned as it is, and one of
    m - size by its sorted complement.  The smaller side has far fewer
    representations, and far fewer ways to collide, so it packs or is
    refuted quickly.  Each side tries its representations with fewest
    cosets first (larger cosets breaking ties) and packs the shifts by
    depth-first search, smallest shift first, so the result is
    deterministic (see ``_pack_cosets``).  A representation may take
    back at most PACK_NODE_CAP placed cosets; one that reaches the cap
    is left undecided and the next is tried.

    Raises ValueError when ``size`` is not a divisible size at all and
    PackingError when every representation of both sizes is proved to
    have no disjoint packing.  Raises SearchCapError when neither size
    packed and at least one representation was left undecided: no
    packing was found, but none was ruled out either.
    """
    check_integers(size=size)
    n, m = params.n, params.m
    sets = divisor_sets(n, m)
    if size not in sets.divisible_sizes:
        raise ValueError("size %d is not a divisible size for (%d, %d)"
                         % (size, n, m))
    undecided = 0
    for side in sorted({size, m - size}):
        for parts in _representations(side, sets.minimal_divisors):
            try:
                packed = _pack_cosets(m, parts)
            except SearchCapError:
                undecided += 1
                continue
            if packed is None:
                continue
            if side == size:
                return packed
            taken = set(packed)
            return tuple(i for i in range(1, m + 1) if i not in taken)
    if undecided:
        raise SearchCapError(
            "no coset packing of size %d or %d for (n, m) = (%d, %d) "
            "found; %d representations reached the cap of %d backtracks "
            "undecided" % (size, m - size, n, m, undecided, PACK_NODE_CAP))
    raise PackingError(
        "no disjoint coset packing of size %d or %d for (n, m) = (%d, %d)"
        % (size, m - size, n, m))


def _pack_cosets(m: int, parts) -> tuple | None:
    """Disjoint cosets of the given sizes (descending), as sorted 1-based
    indices, or None when no such cosets exist.

    Depth-first over shifts in increasing order; equal-size cosets are
    forced into increasing shift order to skip symmetric retries.  The
    d-coset at 0-based shift r is the residue class r mod m/d of Z_m.
    After each placement a counting test checks the parts still to
    place: for each size d, the free d-cosets (at shifts the order
    allows) must be at least as many as the d-parts left, or the branch
    is dropped.  The test only rejects states that have no completion,
    so the first packing found is the one the unpruned search finds
    first.  The parts sum to less than m, which leaves each size d more
    free d-cosets than d-parts before the first placement.  Raises
    SearchCapError once PACK_NODE_CAP placements have been taken back.
    """
    used = np.zeros(m, dtype=bool)
    left = [Counter(parts[i:]) for i in range(len(parts))]

    def candidates(i, lo):
        """The free shifts >= lo for parts[i], or None when the test shows
        that parts[i:] cannot fit."""
        need = left[i]
        room = {d: ~used.reshape(d, m // d).any(axis=0) for d in need}
        room[parts[i]][:lo] = False
        if any(np.count_nonzero(room[d]) < k for d, k in need.items()):
            return None
        return np.flatnonzero(room[parts[i]]).tolist()

    shifts = []
    todo = [iter(candidates(0, 0))]
    backtracks = 0
    while todo:
        i = len(todo) - 1
        step = m // parts[i]
        if len(shifts) > i:
            used[shifts.pop()::step] = False
            backtracks += 1
            if backtracks > PACK_NODE_CAP:
                raise SearchCapError(
                    "coset packing %s of Z_%d reached the cap of %d "
                    "backtracks" % (parts, m, PACK_NODE_CAP))
        r = next(todo[-1], None)
        if r is None:
            todo.pop()
            continue
        used[r::step] = True
        shifts.append(r)
        if i + 1 == len(parts):
            return tuple((np.flatnonzero(used) + 1).tolist())
        after = candidates(i + 1, r + 1 if parts[i + 1] == parts[i] else 0)
        if after is not None:
            todo.append(iter(after))
    return None


def htf_coherence(n: int, m: int) -> float:
    """Coherence of the unit-norm harmonic frame on (n, m), in closed form.

    Equals (1/n) sin(pi n / m) / sin(pi / m), attained by adjacent
    columns; zero when m = n (an orthonormal basis up to phase).
    """
    check_integers(n=n, m=m)
    if not 1 <= n <= m or m < 2:
        raise ValueError("need m >= n >= 1 and m >= 2")
    if m == n:
        return 0.0
    return math.sin(math.pi * n / m) / (n * math.sin(math.pi / m))


def vanishing_subsum_check(m: int, subset, power: int) -> bool:
    """Whether sum of exp(2 pi i power (j-1) / m) over j in subset vanishes.

    A subset of harmonic frame indices is tight exactly when this holds
    for every power 1..n-1.  Uses a fixed absolute tolerance of 1e-10.
    """
    check_integers(m=m, power=power)
    if m < 1 or power < 1:
        raise ValueError("need m >= 1 and power >= 1")
    idx = list(subset)
    for j in idx:
        check_integers(subset=j)
    idx = sorted(int(j) for j in idx)
    if not idx or idx[0] < 1 or idx[-1] > m:
        raise ValueError("subset must be nonempty with indices in 1..m")
    if len(set(idx)) != len(idx):
        raise ValueError("subset has repeated indices")
    total = _root_powers(m, [power * (j - 1) for j in idx]).sum()
    return bool(abs(total) <= 1e-10)
