"""Small integer routines and argument rules shared by the modules."""

from __future__ import annotations

import math
import numbers

import numpy as np


def is_int(value) -> bool:
    """Whether ``value`` is an int or a numpy integer; a bool (an int
    subclass) is not, nor is any other subclass of int."""
    return type(value) is int or isinstance(value, np.integer)


def check_integers(**values) -> None:
    """Raise ValueError naming the first of ``values`` that is not an int
    or a numpy integer in the sense of ``is_int``."""
    for name, value in values.items():
        if not is_int(value):
            raise ValueError("%s must be an integer, not %r" % (name, value))


def check_positive(name: str, value):
    """Return ``value`` if it is a ``numbers.Real`` but not a bool whose
    float lies in (0, inf), else raise ValueError naming it.  This
    refuses a string, None, a complex, a Decimal, NaN, a timedelta64
    (which has no float), 10**400 (whose float overflows) and
    Fraction(1, 10**400) (whose float is 0)."""
    try:
        if (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and 0.0 < float(value) < math.inf):
            return value
    except (TypeError, OverflowError):
        pass
    raise ValueError("%s must be positive and finite" % name)


def is_prime_int(k: int) -> bool:
    """Trial-division primality test for ordinary integers."""
    return k >= 2 and prime_power_factorization(k) == [(k, 1)]


def prime_power_factorization(k: int) -> list[tuple[int, int]]:
    """Factor k >= 1 into [(prime, exponent), ...] with primes ascending."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    out = []
    d = 2
    while d * d <= k:
        if k % d == 0:
            e = 0
            while k % d == 0:
                k //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if k > 1:
        out.append((k, 1))
    return out


def reachable_sums(limit: int, parts) -> np.ndarray:
    """Coin-problem table: entry v is True iff v is a sum of the given parts.

    Parts may repeat any number of times; the empty sum makes 0 reachable.
    Within each residue class mod a part, every value past a reachable
    one is reachable, so each part is one running OR down the columns of
    the table laid out as rows of that part's length.
    """
    parts = list(parts)
    if any(p <= 0 for p in parts):
        raise ValueError("parts must be positive")
    reach = np.zeros(limit + 1, dtype=bool)
    reach[0] = True
    for p in parts:
        if p > limit:
            continue
        rows = -(-(limit + 1) // p)
        table = np.zeros(rows * p, dtype=bool)
        table[: limit + 1] = reach
        reach = np.logical_or.accumulate(
            table.reshape(rows, p), axis=0).reshape(-1)[: limit + 1]
    return reach
