"""Divisibility and primality decisions for tight frames by subset search.

A tight frame Phi with bound A is divisible when some proper subset J of
its columns is itself tight with bound strictly between 0 and A; the
complement is then automatically tight with the remaining bound.  A
tight frame with no such subset is prime.  The search below enumerates
candidate subsets in a fixed order, so every answer is deterministic:
sizes ascending, and within one size the subsets containing column 1 by
ascending bitmask value over the remaining columns.

Each column contributes the traceless part of phi_i phi_i^* as a real
vector whose Euclidean norm is its Frobenius norm, together with
||phi_i||^2.  Summing these over a subset J gives the traceless part T_J
of S_J = Phi_J Phi_J^*, its fitted bound A_J and ||S_J||^2 = ||T_J||^2 +
n A_J^2 (this sum of squares does not cancel the way ||S_J||^2 - n A_J^2
would).  Whatever screens a subset, only the exact rule of
``check_tight`` accepts one: relative residual at most tol and
tol < A_J < B - tol, with B the bound of the frame searched.  Two paths
apply it.

The kernel screens subsets in blocks and re-decides, in enumeration
order, each subset that passes the screen.  Summing the coordinates over
a block of subsets is one matrix product, and a subset passes when

    ||T_J|| <= (tol + delta) ||S_J||  and
    tol - delta B < A_J < B - tol + delta B,

with B infinite when no split is asked for and delta = 1e-12.  The
screen's rounding error is about m sqrt(n) machine epsilon relative to
||S_J|| and to B, far below delta, so for any tol > 0 no subset that the
exact rule accepts is screened out.  Answers, first certificates and the
meaning of tol are those of checking every subset with the exact rule.
Within one size, ascending bitmask order is colex rank order.  Every
search asks for one range of sizes.  A pool of at most _TABLE_WIDTH
columns takes it in one block, a slice of a read-only table of all its
subsets by size and then bitmask.  Wider pools unrank chunks through
the combinatorial number system; chunks start small and grow, so a
search that ends at an early certificate stays cheap, and a size class
is never held in memory whole.

The reduction path (pivot reduction) decides primality and the first
certificate with far fewer rows.  Let C be the matrix whose columns are
the traceless coordinates, so that T_J = C x for the 0/1 indicator x of
J.  Take r pivot columns p of C with full column rank and call the others
free.  Since C_p^+ C_p = I, every subset satisfies x_p = C_p^+ T_J -
C_p^+ C_f x_f exactly.  An accepted J has ||T_J|| <= tol ||S_J|| <= tol
||S||, because S_J is PSD and S_J <= S, and ||S|| = sqrt(n) B / sqrt(1 -
residual^2) for the frame searched.  So every pivot entry of an accepted
subset lies within

    mu = ||C_p^+||_2 (tol + delta) sqrt(n / (1 - tol^2)) B + rounding

of the matching entry of -C_p^+ C_f x_f, and so within mu of 0 or 1.
||C_p^+||_2 is bounded by ||L^-1||_F, with L the Cholesky factor of the
pivots' Gram matrix, and the rounding term bounds the error of computing
C_p^+ C_f and the sums.  The path enumerates the 2^(m-r-1) assignments
x_f with column 1 pinned to 1 (column 1 is never a pivot), screens them
on one pivot, checks the survivors on every pivot at once, and takes the
rounded entries as x_p.  An accepted subset passes every pivot, so any
pivot may screen: a search of one chunk screens on the first, a longer
one on the pivot whose forcing row has the most free entries above mu,
which the fewest assignments pass (on sparse frames the first pivot's
row may touch only a few free columns).  Every subset the exact rule
accepts is such a survivor, so the path sees them all: it re-decides the
survivors of each chunk by the exact rule in (size, bitmask) order, up
to the first accepted one, and keeps the least accepted one.  A
chunk's screen survivors are checked on every pivot in one product; a
few that pass are ordered in plain Python, and more are sorted once.
If none is accepted the frame is prime; otherwise the least accepted
subset is exactly the kernel's first certificate.  (The assignment with every free
column in is the whole frame, whose pivots the bound forces to 1, so it
is skipped.)  The pivots are those of a pivoted Cholesky factorization
of the Gram matrix of C, largest residual first, whose loop carries
L^-1 along, so they are factored once.  A column becomes a pivot only
while its residual norm exceeds rounding level and 64 (tol + delta)
sqrt(n / (1 - tol^2)) B, so r is at most the rank of C, which is
n(n+1)/2 - 1 for real and n^2 - 1 for complex frames, and coordinates
that stay at rounding level on every column add no pivot.

Both paths yield accepted subsets in the kernel's order, and a
first-divisor search, over every size in [n, m - n], returns the first:
the kernel yields them all (it alone lists them), the reduction the
least one or, for a prime frame, none.  The search takes the reduction
when mu < 1/4 and it costs fewer kernel rows than the kernel's subset
count: 2^(m-r-1) rows plus its set-up, first with the most pivots
possible (before the Gram matrix is built), then with the pivots found.
Its chunks start at 2^_LOW_BITS rows and double.  After a chunk with an
accepted subset, it compares the rows it has left with the kernel rows
that reach that subset (the smaller searched sizes in full, plus its
colex rank, plus 1); when its own are more, it yields from the kernel,
which reaches the first certificate at or before that subset.

Unless forced, a search is refused over _BUDGET rows (no search of at
most SEARCH_CAP vectors is) or SEARCH_CAP dimensions (before set-up).
The rows counted are the whole enumeration of the path taken, so a
search whose first rows hold a certificate can still be refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, sqrt

import numpy as np

from .errors import NotTightError, SearchCapError
from .frames import (DEFAULT_TOL, FrameMatrix, _bound_and_residual,
                     _require_tight)
from .numtheory import check_integers, check_positive, is_int

SEARCH_CAP = 26
_BUDGET = 1 << (SEARCH_CAP - 1)

_DELTA = 1e-12
_FIRST_CHUNK = 16
_MAX_CHUNK = 4096
_RANK_LIMIT = 1 << 62
# the reduction's fixed cost in kernel rows, at the chunked kernel's
# 0.25 us per row on a 2-CPU x86-64 Xeon: about 0.1 ms (400 rows) in a
# warm loop and 0.2 ms (800 rows) among the benchmark's other searches
_REDUCTION_SETUP_ROWS = 1024
_LOW_BITS = 10
# at most this many survivors of a chunk are ordered in plain Python,
# below the fixed cost of numpy's sort
_FEW_SURVIVORS = 4
_REDUCTION_CHUNK = 1 << 14
_PIVOT_FLOOR = 1e-10
# pools of at most this many columns are screened in one pass over a
# table of all their subsets (for all widths up to 12, about 0.7 MB)
_TABLE_WIDTH = 12
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class DivisorCertificate:
    """A tight proper subset together with its bound split.

    ``subset`` holds sorted 1-based column indices, ``bound`` is the tight
    bound of the subset, and ``complement_bound`` the bound of the rest;
    the two sum to the bound of the parent frame.
    """

    subset: tuple
    size: int
    bound: float
    complement_bound: float

    def to_json_obj(self) -> dict:
        return {
            "subset": list(self.subset),
            "size": self.size,
            "bound": self.bound,
            "complement_bound": self.complement_bound,
        }


@dataclass(frozen=True)
class PrimeFactorization:
    """A partition of the columns into prime tight sub-frames."""

    factors: tuple
    bounds: tuple

    def to_json_obj(self) -> dict:
        return {
            "factors": [list(f) for f in self.factors],
            "bounds": list(self.bounds),
        }


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=None)
def _upper(n: int) -> tuple:
    return tuple(_frozen(a) for a in np.triu_indices(n, 1))


@lru_cache(maxsize=None)
def _binomials(width: int) -> np.ndarray:
    """Row j holds C(c, j) for c = 0 .. width - 1, saturated at _RANK_LIMIT
    to fit int64, by Pascal's rule (two saturated entries sum below 2^64)."""
    table = np.zeros((width + 1, width), dtype=np.uint64)
    table[0] = 1
    for c in range(1, width):
        table[1:, c] = np.minimum(table[1:, c - 1] + table[:-1, c - 1],
                                  np.uint64(_RANK_LIMIT))
    return _frozen(table.astype(np.int64))


def _coordinates(entries: np.ndarray) -> np.ndarray:
    """One row per column: the traceless part of phi_i phi_i^* as a real,
    Frobenius-isometric vector, then ||phi_i||^2 in the last place."""
    n = entries.shape[0]
    rows, cols = _upper(n)
    if entries.imag.any():
        power = entries.real ** 2 + entries.imag ** 2
        off = entries[rows] * entries[cols].conj()
        off = [off.real, off.imag] if off.imag.any() else [off.real]
    else:
        # the same values in real arithmetic: no imaginary rows follow
        entries = entries.real
        power = entries * entries
        off = [entries[rows] * entries[cols]]
    trace = power.sum(axis=0)
    parts = [power - trace / n] + [sqrt(2.0) * o for o in off]
    parts.append(trace[None, :])
    return np.concatenate(parts).T.copy()


def _unrank(width: int, k: int, start: int, stop: int) -> np.ndarray:
    """0/1 rows over a pool of ``width`` columns of the k-subsets with colex
    ranks start .. stop - 1 (combinatorial number system)."""
    table = _binomials(width)
    rest = np.arange(start, stop, dtype=np.int64)
    picks = np.zeros((stop - start, width))
    rows = np.arange(stop - start)
    for j in range(k, 0, -1):
        pos = table[j].searchsorted(rest, "right") - 1
        picks[rows, pos] = 1.0
        rest -= table[j].take(pos)
    return picks


@lru_cache(maxsize=None)
def _bit_columns(width: int) -> np.ndarray:
    """Column a holds the binary digits of a, lowest first, as floats."""
    a = np.arange(1 << width)
    return _frozen(((a >> np.arange(width)[:, None]) & 1).astype(float))


@lru_cache(maxsize=None)
def _subset_table(width: int) -> tuple:
    """Every subset of a pool of ``width`` columns as a read-only 0/1 row,
    by size and then ascending bitmask, and the first row of each size."""
    bits = _bit_columns.__wrapped__(width)  # uncached: keep the table only
    count = bits.sum(axis=0)
    order = np.argsort(count, kind="stable")
    return (_frozen(bits.T[order]),
            tuple(count[order].searchsorted(np.arange(width + 2)).tolist()))


def _subset_blocks(width: int, sizes: range, lead: int):
    """0/1 rows of the subsets of size s - ``lead`` for s in ``sizes`` of a
    pool of ``width`` columns, by colex rank within one size, in blocks:
    one slice of the table, or unranked chunks."""
    if width <= _TABLE_WIDTH:
        if sizes:
            table, starts = _subset_table(width)
            yield table[starts[sizes[0] - lead]:starts[sizes[-1] + 1 - lead]]
        return
    chunk = _FIRST_CHUNK
    for size in sizes:
        total = comb(width, size - lead)
        if total >= _RANK_LIMIT:
            raise SearchCapError(
                "%d subsets of size %d are too many to enumerate"
                % (total, size))
        start = 0
        while start < total:
            yield _unrank(width, size - lead, start, min(start + chunk, total))
            start += chunk
            chunk = min(2 * chunk, _MAX_CHUNK)


def _tight_parts(entries, coords, cols, sizes, pinned, bound, tol):
    """Every subset of ``cols`` that the exact rule accepts, in search order.

    ``cols`` are ascending 0-based column indices of ``entries`` and
    ``coords`` is ``_coordinates(entries)``.  Sizes come from the range
    ``sizes``; with ``pinned`` every subset holds cols[0].  Within one size
    the subsets go by ascending colex rank over the other columns.
    Yields (ascending index list, subset bound) for each subset with
    relative residual <= tol and tol < bound < ``bound`` - tol.
    """
    n = entries.shape[0]
    cols = np.asarray(cols, dtype=np.intp)
    lead = cols[:1] if pinned else cols[:0]
    pool = cols[len(lead):]
    lead = lead.tolist()
    points = coords[pool]
    base = coords[lead].sum(axis=0)
    d = coords.shape[1] - 1
    slack = (tol + _DELTA) ** 2
    low = tol - _DELTA * bound
    high = bound - tol + _DELTA * bound
    for picks in _subset_blocks(len(pool), sizes, len(lead)):
        sums = picks @ points
        sums += base
        traceless = sums[:, :d]
        t2 = np.einsum("ij,ij->i", traceless, traceless)
        a = sums[:, d] / n
        passed = (t2 <= slack * (t2 + n * a * a)) & (low < a) & (a < high)
        for row in np.flatnonzero(passed):
            idx = lead + pool[picks[row].nonzero()[0]].tolist()
            sub_bound = _accepted(entries, idx, bound, tol)
            if sub_bound is not None:
                yield idx, sub_bound


def _accepted(entries: np.ndarray, idx, bound: float, tol: float):
    """The bound of the columns ``idx`` if the exact rule accepts them
    (residual <= tol, tol < bound < ``bound`` - tol), else None."""
    sub_bound, residual = _bound_and_residual(entries[:, idx])
    if residual <= tol and tol < sub_bound < bound - tol:
        return sub_bound
    return None


def _kernel_rows(cols: int, sizes, pinned: bool = True) -> int:
    """The kernel's subsets of ``cols`` columns for ``sizes``, pinned or
    not; the sum stops at _RANK_LIMIT, so wide frames take few terms."""
    rows = 0
    for size in sizes:
        rows += comb(cols - pinned, size - pinned)
        if rows >= _RANK_LIMIT:
            return _RANK_LIMIT
    return rows


def _reduction_rows(width: int, pivots: int) -> int:
    return (1 << (width - pivots)) + _REDUCTION_SETUP_ROWS


def _check_budget(n: int, force: bool, rows: int = 0):
    if not force and (rows > _BUDGET or n > SEARCH_CAP):
        raise SearchCapError(
            "over the search cap of %d dimensions and %d subset rows: %d "
            "dimensions, %s rows; force it to run anyway"
            % (SEARCH_CAP, _BUDGET, n, rows or "uncounted"))


def _rest(cols, part) -> list:
    taken = set(part)
    return [i for i in cols if i not in taken]


def _check_complement(entries: np.ndarray, cols, part, tol: float) -> float:
    """The bound of the columns of ``cols`` outside ``part``; raise unless
    they are tight."""
    bound, residual = _bound_and_residual(entries[:, _rest(cols, part)])
    if residual > tol:
        raise NotTightError("complement failed its tightness check")
    return bound


def _greedy_pivots(gram, most, floor):
    """(positions p, L^-1, L^-1 G_p.) by pivoted Cholesky of the Gram
    matrix G of the traceless coordinates, largest residual first, never
    position 0, with L the Cholesky factor of G_pp; None when no position
    qualifies or a residual is not positive.

    A column becomes a pivot only while its residual norm^2 exceeds
    ``floor`` and _PIVOT_FLOOR times its norm^2 (below that it is a
    rounding echo of the earlier pivots).  Row j of the loop reduces row
    p_j of [G | I] by the rows before it: its G half is row j of L^-1 G_p.
    (so its entry at p_i is L_ji), and its I half is row j of L^-1 with
    entry i at position p_i."""
    norms = gram.diagonal()
    width = len(norms)
    room = norms - np.maximum(_PIVOT_FLOOR * norms, floor)
    room[0] = -np.inf
    rows = np.eye(width, 2 * width, width)
    rows[:, :width] = gram
    low = np.zeros((most, 2 * width))
    pivots = []
    for j in range(most):
        p = int(room.argmax())
        if room[p] <= 0.0:
            break
        line = low[j]
        np.subtract(rows[p], low[:j, p].dot(low[:j]), out=line)
        if not line[p] > 0.0:
            return None
        line *= 1.0 / sqrt(line[p])
        head = line[:width]
        room -= head * head
        room[p] = -np.inf
        pivots.append(p)
    if not pivots:
        return None
    low = low[:len(pivots)]
    return pivots, low[:, width:].take(pivots, axis=1), low[:, :width]


def _most_pivots(coords, width: int) -> int:
    """The most pivots of a frame of ``width`` + 1 columns: position 0 is
    never one, and the d traceless coordinates of ``coords`` have rank at
    most d - 1, since the n diagonal ones sum to zero."""
    return min(coords.shape[1] - 2, width)


def _pivot_reduction(coords, cols, n, bound, tol):
    """Pivot positions, their forcing matrix and mu for the frame on
    ``cols``, or None.

    The frame has fitted bound ``bound`` and relative residual at most
    tol.  Positions index ``cols`` and are never 0.  An accepted subset
    with indicator x has x_p within mu of -forced @ x_f in every entry,
    where x_p is x on the pivots and x_f is x with the pivots set to 0.
    The pivots are ``_greedy_pivots``' pivoted Cholesky choice, largest
    residual first, so no pivot is a rounding echo of the earlier ones.
    Needs tol < 1; returns None when no column qualifies or mu >= 1/4.

    forced = C_p^+ C = G_pp^-1 G_p. for the Gram matrix G of the
    traceless coordinates, and ||C_p^+||_2^2 <= trace(G_pp^-1) =
    ||L^-1||_F^2 for the Cholesky factor L of G_pp.  The rounding term,
    a multiple of eps, is scaled by trace(G_pp) trace(G_pp^-1), which
    bounds the condition number of G_pp, and by 1 + sqrt(trace(G_pp^-1)
    m trace(G)), which bounds every row sum of |forced|.  The floors of
    ``_greedy_pivots`` bound each pivot's residual, not the whole of
    ||L^-1||_F or the rounding term, so mu >= 1/4 still refuses pivots
    too loose to force anything.
    """
    width = len(cols) - 1
    d = coords.shape[1] - 1
    # ||T_J|| <= tol ||S_J|| <= tol ||S||, and ||S||^2 (1 - residual^2)
    # = n bound^2 since S - bound I is traceless
    margin = (tol + _DELTA) * sqrt(n / (1.0 - tol * tol)) * bound
    c = coords if len(cols) == len(coords) else coords.take(cols, axis=0)
    c = c[:, :d]
    gram = c.dot(c.T)
    chosen = _greedy_pivots(gram, _most_pivots(coords, width),
                            (64.0 * margin) ** 2)
    if chosen is None:
        return None
    pivots, linv, reduced = chosen
    spread = float(np.vdot(linv, linv))
    if not 0.0 < spread < np.inf:
        return None
    norms = gram.diagonal().tolist()
    scale = sum(norms[p] for p in pivots)
    rounding = 16 * (width + 1 + d) * _EPS
    mu = sqrt(spread) * margin + rounding * spread * scale * (
        1.0 + sqrt(spread * len(norms) * sum(norms)))
    return (pivots, linv.T.dot(reduced), mu) if mu < 0.25 else None


def _members(code, shifted, free, pivots):
    """Member positions of assignment ``code`` (bit k for position
    free[k]), ascending, with 0 always in; a pivot is in when its entry
    of ``shifted`` = forced @ x_f + 1/2 is below 0."""
    return sorted([0] + [f for j, f in enumerate(free) if code >> j & 1]
                  + [p for p, v in zip(pivots, shifted) if v < 0.0])


def _ordered(codes, bits, shifted, rows, free, pivots, sizes):
    """Member positions of the assignments ``codes[rows]`` that have a
    size in the range ``sizes``, by ascending (size, bitmask).

    ``bits`` and ``shifted`` hold one column per assignment: its free
    bits, and forced @ x_f + 1/2 on the pivots.  A few are ordered in
    plain Python by their positions from the highest down; more are
    sorted once by size and by their bitmask in words of 62 bits,
    highest word first, and read one at a time.
    """
    if len(rows) <= _FEW_SURVIVORS:
        found = [_members(code, column, free, pivots) for code, column
                 in zip(codes[rows].tolist(), shifted[:, rows].T.tolist())]
        yield from sorted((m for m in found if len(m) in sizes),
                          key=lambda m: (len(m), m[::-1]))
        return
    negative = shifted < 0.0
    size = bits.sum(axis=0)
    size += negative.sum(axis=0)
    size += 1
    rows = rows[(sizes[0] <= size[rows]) & (size[rows] <= sizes[-1])]
    keys = []
    for low in range(0, len(free) + len(pivots) + 1, 62):
        # position q weighs 2^(q - low) in the word from low
        on, neg = (np.array([1 << q - low if low <= q < low + 62 else 0
                             for q in positions], dtype=np.int64)
                   for positions in (free, pivots))
        keys.append(on.dot(bits)[rows] + neg.dot(negative)[rows]
                    + (low == 0))
    # lexsort's last key sorts first
    for row in rows[np.lexsort(keys + [size[rows]])]:
        yield _members(int(codes[row]), shifted[:, row].tolist(), free,
                       pivots)


def _reduction_search(entries, cols, sizes, bound, tol, reduction, kernel):
    """Pivot reduction's search of the subsets of ``cols`` that hold
    cols[0] and have a size in ``sizes``, ascending: yields the least one
    the exact rule accepts in the kernel's order (size, then ascending
    bitmask), as (index list, subset bound), or nothing for a prime frame.

    ``reduction`` is ``_pivot_reduction`` of the frame on ``cols``.  Each
    chunk's survivors are re-decided in that order, up to the first
    accepted one.  When, after a chunk, its rows still to enumerate
    outnumber the kernel rows up to the best subset so far, it yields
    from ``kernel``, the kernel search of the same subsets, instead.
    """
    width = len(cols) - 1
    pivots, forced, mu = reduction
    free = [i for i in range(1, width + 1) if i not in pivots]
    low = min(len(free), _LOW_BITS)
    high = free[low:]
    # position 0 is always in; forced @ x_f + 1/2 must lie within mu of
    # -1/2 or 1/2 in every entry.  Screen on one pivot, with the low free
    # bits tabulated, then check the survivors on every pivot.  Every
    # accepted subset passes every pivot, so any pivot may screen: one
    # chunk takes the first, and more chunks the pivot with the most
    # free entries above mu, which the fewest assignments pass.
    coupled = forced.take(free, axis=1)
    offset = forced[:, 0] + 0.5
    row = 0
    if high:
        row = (np.abs(coupled) > mu).sum(axis=1).argmax()
    screen = coupled[row]
    table = screen[:low].dot(_bit_columns(low))
    table += offset[row]
    shifts = np.arange(len(free))[:, None]
    blocks = 1 << len(high)
    best = None  # (size, positions descending), positions in cols, bound
    start, step = 0, 1
    while start < blocks:
        stop = min(start + step, blocks)
        dev = table
        if high:
            lift = ((np.arange(start, stop)[:, None] >> np.arange(len(high)))
                    & 1).dot(screen[low:])
            dev = np.add.outer(lift, table).ravel()
        np.abs(dev, out=dev)
        dev -= 0.5
        np.abs(dev, out=dev)
        if stop == blocks:
            # the whole frame (every free column in) is out of the size
            # range; dropping it here spares every prime proof a survivor
            dev[-1] = 1.0
        flat = (dev <= mu).nonzero()[0]
        if len(flat):
            # check the survivors on every pivot in one product of floats,
            # one column per assignment.  These arrays, dev among them,
            # stay bound until the next chunk rebinds them: freed at a
            # chunk's end, their pages were returned and faulted in again
            codes = flat + (start << low)
            bits = (codes >> shifts) & 1
            shifted = coupled.dot(bits.astype(float))
            shifted += offset[:, None]
            dev = np.abs(shifted)
            dev -= 0.5
            np.abs(dev, out=dev)
            rows = (dev.max(axis=0) <= mu).nonzero()[0]
            for members in _ordered(codes, bits, shifted, rows, free, pivots,
                                    sizes):
                key = len(members), members[::-1]
                if best is not None and key >= best[0]:
                    break
                sub_bound = _accepted(entries, [cols[i] for i in members],
                                      bound, tol)
                if sub_bound is not None:
                    best = key, members, sub_bound
                    break
        start = stop
        step = min(2 * step, max(1, _REDUCTION_CHUNK >> low))
        if best is not None and start < blocks:
            members = best[1]
            reach = _kernel_rows(width + 1, range(sizes[0], len(members)))
            reach += sum(comb(p - 1, j) for j, p in enumerate(members) if j)
            if (blocks - start) << low > reach + 1:
                yield from kernel
                return
    if best is not None:
        yield [cols[i] for i in best[1]], best[2]


def _first_divisor(entries, cols, bound, tol, force, coordinates=None):
    """First divisor of the frame on ``cols`` (0-based, ascending) with
    bound ``bound``, as (index list, subset bound, complement bound), or
    None if prime.

    Subsets hold cols[0] and go by size, every size in [n, len(cols) - n]
    ascending, then ascending bitmask.  Fewer than 2n columns are prime
    unsearched (the smaller part could not span).  The kernel's
    generator, which enumerates nothing until asked, gives way to the
    reduction's when that costs fewer kernel rows; ``_check_budget`` gets
    the rows of the path taken.
    ``coordinates(entries)`` is ``_coordinates(entries)``, by default.
    """
    n, width = entries.shape[0], len(cols) - 1
    if len(cols) < 2 * n:
        return None
    _check_budget(n, force)  # the dimension rule, before set-up
    coords = (coordinates or _coordinates)(entries)
    sizes = range(n, width - n + 2)
    rows = _kernel_rows(width + 1, sizes)
    found = _tight_parts(entries, coords, cols, sizes, True, bound, tol)
    if tol < 1.0 and _reduction_rows(width,
                                     _most_pivots(coords, width)) < rows:
        reduction = _pivot_reduction(coords, cols, n, bound, tol)
        cost = reduction and _reduction_rows(width, len(reduction[0]))
        if cost and cost < rows:
            rows = cost
            found = _reduction_search(entries, cols, sizes, bound, tol,
                                      reduction, found)
    _check_budget(n, force, rows)
    for part, sub_bound in found:
        return part, sub_bound, _check_complement(entries, cols, part, tol)
    return None


def find_divisor(phi: FrameMatrix, tol: float = DEFAULT_TOL,
                 force: bool = False):
    """First tight proper subset splitting the bound, or None if prime.

    Only subsets containing column 1 are visited: the complement of a
    divisor is a divisor, so one of the pair always contains column 1.
    Returns a DivisorCertificate or None.
    """
    bound = _require_tight(phi.entries, tol)
    found = _first_divisor(phi.entries, range(phi.m), bound, tol, force)
    if found is None:
        return None
    part, sub_bound, _ = found
    return DivisorCertificate(tuple(i + 1 for i in part), len(part),
                              sub_bound, bound - sub_bound)


def is_prime_bruteforce(phi: FrameMatrix, tol: float = DEFAULT_TOL,
                        force: bool = False) -> bool:
    """Exhaustive primality decision for a tight frame.

    Runs the search of ``find_divisor``, whose every path gives the
    verdict of checking every subset; a frame of fewer than 2n vectors is
    prime without a search.
    """
    return find_divisor(phi, tol=tol, force=force) is None


def complement_certificate(phi: FrameMatrix, subset,
                           tol: float = DEFAULT_TOL) -> DivisorCertificate:
    """Certificate for a known divisor subset, re-verifying both halves."""
    bound = _require_tight(phi.entries, tol)
    subset = tuple(subset)
    for i in subset:
        check_integers(subset=i)
    subset = tuple(sorted(int(i) for i in subset))
    if len(set(subset)) != len(subset):
        raise ValueError("subset has repeated indices")
    if subset and (subset[0] < 1 or subset[-1] > phi.m):
        raise ValueError("subset indices out of range")
    if not 0 < len(subset) < phi.m:
        raise ValueError("subset must be proper and nonempty")
    idx0 = [i - 1 for i in subset]
    sub_bound = _accepted(phi.entries, idx0, bound, tol)
    if sub_bound is None:
        raise NotTightError("subset is not a divisor of the frame")
    _check_complement(phi.entries, range(phi.m), idx0, tol)
    return DivisorCertificate(subset, len(subset), sub_bound, bound - sub_bound)


def prime_factorization(phi: FrameMatrix, tol: float = DEFAULT_TOL,
                        force: bool = False) -> PrimeFactorization:
    """Greedy partition of a tight frame into prime tight sub-frames.

    Splits off the first divisor found as a factor and repeats on the
    rest, so the result is deterministic.  The first divisor J is prime:
    a divisor J' of J holds column cols[0], has a size in [n, |J| - n]
    and a bound in (tol, A_J - tol), inside (tol, A - tol), and the exact
    rule gives it the same residual in either search, so the search of
    the parent, by size ascending, would have accepted J' before J.
    Columns that are exactly zero never affect tightness; they are set
    aside and attached to the final factor.  The factor count never
    exceeds floor(m / n).
    """
    entries = phi.entries
    live = np.any(entries, axis=0)
    cols = np.flatnonzero(live).tolist()
    bound = _require_tight(entries[:, cols], tol)
    zero = tuple(int(i) + 1 for i in np.flatnonzero(~live))
    factors, bounds, coords = [], [], None

    def coordinates(entries):
        nonlocal coords
        coords = _coordinates(entries) if coords is None else coords
        return coords

    # the frame on cols, of bound ``bound``, was checked tight above or
    # by the search that split it off
    while True:
        found = _first_divisor(entries, cols, bound, tol, force, coordinates)
        if found is None:
            break
        part, part_bound, bound = found
        factors.append(tuple(i + 1 for i in part))
        bounds.append(part_bound)
        cols = _rest(cols, part)
    factors.append(tuple(i + 1 for i in cols))
    bounds.append(bound)
    if zero:
        factors[-1] = tuple(sorted(factors[-1] + zero))
    return PrimeFactorization(tuple(factors), tuple(bounds))


def prime_factor_size_multisets(phi: FrameMatrix, tol: float = DEFAULT_TOL,
                                force: bool = False) -> list:
    """All factor-size multisets over every prime factorization.

    Memoized on column subsets, for small frames; zero columns are ignored.
    Returns sorted tuples, e.g. [(2, 2, 2, 2, 2), (5, 5)].  A tight part P
    of a remainder is prime unless an earlier listed part q lies inside P
    with |q| <= |P| - n and A_q < A_P - tol; the first is P's first divisor.
    A remainder that fails the tightness check raises, as in
    ``prime_factorization``.
    """
    _require_tight(phi.entries, tol)
    n, entries = phi.n, phi.entries
    live = tuple(np.flatnonzero(np.any(entries, axis=0)).tolist())
    if len(live) < 2 * n:
        return [(len(live),)]  # prime unsearched, as in _first_divisor
    _check_budget(n, force,
                  _kernel_rows(len(live), range(n, len(live) - n + 1)))
    # a part's complement check depends on the part alone, and a failed
    # one raises, so the masks of parts that passed are kept
    coords, memo, checked = _coordinates(entries), {}, set()

    def solve(rem: tuple) -> set:
        if rem in memo:
            return memo[rem]
        parent_bound = _check_complement(entries, rem, (), tol)
        out, listed = set(), []
        for part, part_bound in _tight_parts(
                entries, coords, rem, range(n, len(rem) - n + 1), True,
                parent_bound, tol):
            mask = sum(1 << i for i in part)
            divisor = len(part) >= 2 * n and next(
                (q for q, q_mask, q_bound in listed
                 if len(q) <= len(part) - n and not q_mask & ~mask
                 and q_bound < part_bound - tol), None)
            listed.append((part, mask, part_bound))
            if divisor:
                if mask not in checked:
                    _check_complement(entries, part, divisor, tol)
                    checked.add(mask)
                continue
            for sizes in solve(tuple(_rest(rem, part))):
                out.add(tuple(sorted(sizes + (len(part),))))
        memo[rem] = out or {(len(rem),)}
        return memo[rem]

    return sorted(solve(live))


def tight_subsets(phi: FrameMatrix, size: int, tol: float = DEFAULT_TOL,
                  force: bool = False) -> list:
    """All subsets of the given size that are tight with positive bound."""
    if not (is_int(size) and 1 <= size <= phi.m):
        raise ValueError("size out of range")
    check_positive("tol", tol)
    sizes = range(size, size + 1)
    _check_budget(phi.n, force, _kernel_rows(phi.m, sizes, False))
    hits = _tight_parts(phi.entries, _coordinates(phi.entries),
                        range(phi.m), sizes, False, np.inf, tol)
    return sorted(tuple(i + 1 for i in part) for part, _ in hits)

