"""Sparse real unit-norm tight frames built row by row ("spectral tetris").

Each row j of the n x m output must carry total squared weight
lambda = m/n.  The construction spends that budget on fully supported
columns e_j (count ``ones_per_row[j]``) and, when a fractional remainder
r_j is left over, on one 2 x 2 block

    [ a  a ]         a = sqrt(r_j / 2),
    [ b -b ]         b = sqrt(1 - r_j / 2),

shared with row j+1, which starts the next row with 2 - r_j already
spent.  The remainders r_j = frac(j m / n) vanish exactly on the rows in
``reset_rows``, where the budget starts fresh.  All bookkeeping is exact
integer arithmetic on the numerators R_j = n r_j: divmod of a row
budget's numerator by n gives its ones and R_j.  Floats appear only in
the assembled matrix, as a = sqrt(R_j / 2n) and b = sqrt((2n - R_j) / 2n),
each quotient correctly rounded.

Every verdict is integer arithmetic on g = gcd(m, n).  Row j's budget
is lambda when r_{j-1} = 0 and lambda - 2 + r_{j-1} otherwise, and the
nonzero r_{j-1} run over all multiples of g/n below 1.  So unless n | m
(every row a reset, keeping m/n >= 2 ones), the fewest fully supported
columns in a row is floor((m - 2n + g)/n).  That is >= 1 iff m >= 3n or
3n - m <= g, and since g = gcd(3n - m, n) divides 3n - m, the latter
means 3n - m = g, that is (3n - m) | n.  Hence the frame is divisible
iff m >= 3n or (3n - m) | n; the low-redundancy frame on n < m~ < 2n,
the (n, m~ + n) frame less one basis, exists iff (2n - m~) | n; and
``stf_factorize`` peels (m - 2n + g) // n orthonormal bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleError
from .frames import FrameMatrix
from .numtheory import check_integers


@dataclass(frozen=True)
class TetrisSchedule:
    """Exact column plan of a spectral tetris frame.

    ``ones_per_row[j-1]`` counts the e_j columns, ``remainders[j-1]`` is
    the rational leftover r_j in [0, 1) after row j, and ``reset_rows``
    lists the j (0 through n) with j * m/n integral, where no block
    straddles into row j+1.
    """

    n: int
    m: int
    lam: Fraction
    reset_rows: tuple
    ones_per_row: tuple
    remainders: tuple

    def block_rows(self) -> tuple:
        """Rows j (1-based) followed by a 2 x 2 block into row j + 1."""
        return tuple(j for j in range(1, self.n)
                     if self.remainders[j - 1] != 0)

    def to_json_obj(self) -> dict:
        return {
            "lambda": [self.lam.numerator, self.lam.denominator],
            "m_seq": list(self.ones_per_row),
            "r_seq_numerators": [
                r.numerator * (self.n // r.denominator) for r in self.remainders
            ],
            "K": list(self.reset_rows),
        }


class StfFactorization(NamedTuple):
    prime_core: FrameMatrix
    basis_copies: int
    core_indices: tuple
    basis_indices: tuple


def _check_standard(n: int, m: int):
    check_integers(n=n, m=m)
    if n < 1 or m < 2 * n:
        raise ValueError("need n >= 1 and m >= 2n")


def _schedule_seqs(n: int, m: int):
    """The ones per row and the remainder numerators R_j = n r_j, as lists.

    Raises ValueError unless 1 <= n < m, and InfeasibleError when a row
    budget goes negative, which can happen only for m < 2n.
    """
    check_integers(n=n, m=m)
    if not 1 <= n < m:
        raise ValueError("need 1 <= n < m")
    ones, rems = [], []
    rem = 0
    for j in range(1, n + 1):
        budget = m if rem == 0 else m - 2 * n + rem
        if budget < 0:
            raise InfeasibleError(
                "row %d of a %d x %d tetris frame has negative budget; "
                "no such frame exists" % (j, n, m))
        count, rem = divmod(budget, n)
        ones.append(count)
        rems.append(rem)
    return ones, rems


def stf_schedule(n: int, m: int) -> TetrisSchedule:
    """Column plan of ``stf(n, m)``; raises as ``stf`` does."""
    ones, rems = _schedule_seqs(n, m)
    g = math.gcd(n, m)
    return TetrisSchedule(n, m, Fraction(m, n),
                          tuple(t * (n // g) for t in range(g + 1)),
                          tuple(ones), tuple(Fraction(r, n) for r in rems))


def _assemble(n: int, m: int):
    """Build the frame; also return the 1-based e_j column positions of
    each row, as a range."""
    ones, rems = _schedule_seqs(n, m)
    out = np.zeros((n, m), dtype=np.complex128)
    ones_pos = []
    col = 0
    for j in range(n):
        end = col + ones[j]
        out[j, col:end] = 1.0
        ones_pos.append(range(col + 1, end + 1))
        col = end
        if j < n - 1 and rems[j]:
            out[j, col:col + 2] = math.sqrt(rems[j] / (2 * n))
            b = math.sqrt((2 * n - rems[j]) / (2 * n))
            out[j + 1, col:col + 2] = b, -b
            col += 2
    return FrameMatrix._adopt(out, "real"), ones_pos


def stf(n: int, m: int) -> FrameMatrix:
    """The sparse unit-norm tight frame with bound m/n, for 1 <= n < m.

    For n < m < 2n it exists iff ``stf_low_redundancy_feasible(n, m)``;
    otherwise InfeasibleError names the row whose budget goes negative.
    """
    return _assemble(n, m)[0]


def stf_is_divisible(n: int, m: int) -> bool:
    """Whether the tetris frame on (n, m), m >= 2n, has a tight proper subset.

    Equivalent to every row keeping at least one fully supported column,
    i.e. min ones_per_row >= 1, which holds iff m >= 3n or (3n - m) | n.
    """
    _check_standard(n, m)
    return m >= 3 * n or n % (3 * n - m) == 0


def stf_low_redundancy_feasible(n: int, m_tilde: int) -> bool:
    """Whether the row-by-row construction extends to n < m < 2n.

    Exactly when the (n, m_tilde + n) frame is divisible: peeling one
    orthonormal basis out of it leaves the low-redundancy frame.  That
    is, iff (2n - m_tilde) | n.
    """
    check_integers(n=n, m_tilde=m_tilde)
    if not n < m_tilde < 2 * n:
        raise ValueError("need n < m_tilde < 2n")
    return stf_is_divisible(n, m_tilde + n)


def stf_factorize(n: int, m: int) -> StfFactorization:
    """Peel orthonormal bases off a tetris frame until the rest is prime.

    Each basis copy takes, per row, the lowest-indexed remaining fully
    supported column.  Returns the prime core as a frame (column order
    preserved), the number of copies peeled, and the 1-based index sets:
    ``core_indices`` ascending, ``basis_indices`` one tuple per copy.
    The core equals the tetris frame on (n, m - copies * n) up to column
    order.  A copy is peeled while the rest has at least 2n vectors and
    every row of it keeps a fully supported column, which gives
    copies = (m - 2n + gcd(m, n)) // n.  The core is prime by that rule
    (fewer than 2n vectors, or a tetris frame that is not divisible), so
    no subset search runs.
    """
    _check_standard(n, m)
    frame, ones_pos = _assemble(n, m)
    copies = (m - 2 * n + math.gcd(m, n)) // n
    basis_indices = tuple(
        tuple(ones_pos[j][l] for j in range(n)) for l in range(copies))
    peeled = set()
    for idx in basis_indices:
        peeled.update(idx)
    core_indices = tuple(i for i in range(1, m + 1) if i not in peeled)
    core = FrameMatrix._adopt(
        np.take(frame.entries, np.subtract(core_indices, 1), axis=1), "real")
    return StfFactorization(core, copies, core_indices, basis_indices)
