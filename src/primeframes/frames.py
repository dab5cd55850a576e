"""Core representation and diagnostics for finite frames.

A frame here is an n x m matrix whose columns are the frame vectors for
C^n (or R^n).  The frame operator is S = Phi Phi*, and Phi is tight with
bound A when S = A I.  Inner products follow the convention
<x, y> = sum_k x[k] * conj(y[k]), so the analysis coefficients of a
signal x are c = Phi* x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FrameError, InfeasibleError, NotTightError
from .numtheory import check_integers, check_positive, is_prime_int

DEFAULT_TOL = 1e-9


def _check_entries(arr: np.ndarray, field: str):
    """Raise ValueError unless the complex128 ``arr`` is a finite 2-d
    array with n, m >= 1 and ``field`` is "real" (every imaginary part
    exactly zero) or "complex"."""
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("entries must be a 2-d array with n, m >= 1")
    if field not in ("real", "complex"):
        raise ValueError("field must be 'real' or 'complex'")
    if not np.isfinite(arr).all():
        raise ValueError("entries must be finite (no NaN or inf)")
    if field == "real" and np.any(arr.imag != 0.0):
        raise ValueError("field 'real' requires exactly zero imaginary parts")


@dataclass(frozen=True, eq=False)
class FrameMatrix:
    """Immutable n x m frame matrix, columns are the frame vectors.

    ``field`` is "real" or "complex"; "real" asserts that every imaginary
    part is exactly zero.  Entries must be finite; they are stored
    complex128 either way and frozen after construction.
    """

    entries: np.ndarray
    field: str = "complex"

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.complex128, order="C")
        _check_entries(arr, self.field)
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @classmethod
    def _adopt(cls, arr: np.ndarray, field: str) -> "FrameMatrix":
        """The frame on ``arr`` itself, frozen with no copy and no checks:
        a C-ordered complex128 array that the caller has just made, keeps
        no other reference to, and has built from checked inputs or
        passed through ``_check_entries``."""
        arr.flags.writeable = False
        phi = object.__new__(cls)
        object.__setattr__(phi, "entries", arr)
        object.__setattr__(phi, "field", field)
        return phi

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def m(self) -> int:
        return self.entries.shape[1]

    @classmethod
    def from_array(cls, arr) -> "FrameMatrix":
        """Wrap a copy of an array, tagging it real when no imaginary part
        is present."""
        a = np.array(arr, dtype=np.complex128, order="C")
        field = "real" if not np.any(a.imag != 0.0) else "complex"
        _check_entries(a, field)
        return cls._adopt(a, field)

    @classmethod
    def from_columns(cls, columns) -> "FrameMatrix":
        return cls.from_array(np.column_stack([np.asarray(c) for c in columns]))

    def column(self, i: int) -> np.ndarray:
        """Frame vector number i (1-based)."""
        check_integers(i=i)
        if not 1 <= i <= self.m:
            raise ValueError("column index out of range")
        return self.entries[:, i - 1]

    def submatrix(self, indices) -> "FrameMatrix":
        """Sub-frame on the given 1-based column indices, order preserved."""
        idx = list(indices)
        for i in idx:
            check_integers(indices=i)
        if len(idx) == 0:
            raise ValueError("empty index set")
        for i in idx:
            if not 1 <= i <= self.m:
                raise ValueError("column index out of range")
        return FrameMatrix._adopt(
            np.take(self.entries, [int(i) - 1 for i in idx], axis=1),
            self.field)

    def column_norms(self) -> np.ndarray:
        return np.linalg.norm(self.entries, axis=0)


@dataclass(frozen=True)
class TightnessReport:
    """Verdict of a tightness check.

    ``bound`` is the least-squares fit A = trace(S)/n and ``residual`` is
    ||S - A I||_F / ||S||_F.  Tight means residual <= tol with bound > tol.
    """

    is_tight: bool
    bound: float
    residual: float
    tol: float


@dataclass(frozen=True)
class EquiangularityReport:
    is_unit_norm: bool
    is_equiangular: bool
    common_angle: float
    max_abs_inner: float
    welch_bound: float | None


def _bound_and_residual(entries: np.ndarray) -> tuple[float, float]:
    """Fitted tight bound and relative residual of the frame operator."""
    s = entries @ entries.conj().T
    n = s.shape[0]
    bound = float(s.trace().real) / n
    flat = s.ravel()  # Frobenius norms as np.linalg.norm computes them
    re, im = flat.real, flat.imag
    s_norm = math.sqrt(re.dot(re) + im.dot(im))
    if s_norm == 0.0:
        return 0.0, 0.0
    flat[:: n + 1] -= bound
    return bound, math.sqrt(re.dot(re) + im.dot(im)) / s_norm


def frame_operator(phi: FrameMatrix) -> np.ndarray:
    """The n x n operator S = Phi Phi* (Hermitian, positive semidefinite)."""
    return phi.entries @ phi.entries.conj().T


def check_tight(phi: FrameMatrix, tol: float = DEFAULT_TOL) -> TightnessReport:
    """Decide whether Phi Phi* = A I for the fitted bound A."""
    check_positive("tol", tol)
    bound, residual = _bound_and_residual(phi.entries)
    return TightnessReport(bool(residual <= tol and bound > tol), bound,
                           residual, tol)


def _require_tight(entries: np.ndarray, tol: float) -> float:
    """The bound of ``entries``; raise unless tol is valid and it is tight."""
    check_positive("tol", tol)
    bound, residual = _bound_and_residual(entries)
    if not (residual <= tol and bound > tol):
        raise NotTightError(
            "input is not a tight frame (residual %.3e, tol %.1e)"
            % (residual, tol))
    return bound


def verify_reconstruction(phi: FrameMatrix, x, tol: float = DEFAULT_TOL) -> bool:
    """Check x = (1/A) Phi Phi* x for a tight frame, relative to ||x||."""
    bound = _require_tight(phi.entries, tol)
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (phi.n,):
        raise ValueError("signal length must equal the frame dimension")
    if not np.isfinite(x).all():
        raise ValueError("signal must be finite")
    coeff = phi.entries.conj().T @ x
    rebuilt = phi.entries @ coeff / bound
    scale = np.linalg.norm(x)
    if scale == 0.0:
        return bool(np.linalg.norm(rebuilt) <= tol)
    return bool(np.linalg.norm(rebuilt - x) / scale <= tol)


def coherence(phi: FrameMatrix) -> float:
    """Largest |<phi_k, phi_l>| over distinct columns."""
    if phi.m < 2:
        raise ValueError("coherence needs at least two frame vectors")
    gram = phi.entries.conj().T @ phi.entries
    mags = np.abs(gram)
    mags.flat[:: phi.m + 1] = 0.0
    return float(mags.max())


def welch_bound(n: int, m: int) -> float:
    """Lower bound sqrt((m-n)/(n(m-1))) on the coherence of m unit vectors."""
    check_integers(n=n, m=m)
    if n < 1 or m < max(n, 2):
        raise ValueError("need m >= n >= 1 and m >= 2")
    return math.sqrt((m - n) / (n * (m - 1.0)))


def check_equiangular(phi: FrameMatrix, tol: float = DEFAULT_TOL) -> EquiangularityReport:
    """Report unit-norm and equiangularity of the columns.

    Equiangular means all pairwise |<phi_k, phi_l>| agree within tol and
    all norms are 1 within tol.  ``common_angle`` is the mean pairwise
    modulus, meaningful only when is_equiangular holds.  ``welch_bound``
    is None when m < n, where the Welch bound is not defined.
    """
    check_positive("tol", tol)
    if phi.m < 2:
        raise ValueError("equiangularity needs at least two frame vectors")
    norms = phi.column_norms()
    unit = bool(np.max(np.abs(norms - 1.0)) <= tol)
    gram = phi.entries.conj().T @ phi.entries
    mags = np.abs(gram)
    off = mags[~np.eye(phi.m, dtype=bool)]
    spread = float(off.max() - off.min())
    wb = welch_bound(phi.n, phi.m) if phi.m >= phi.n else None
    return EquiangularityReport(
        is_unit_norm=unit,
        is_equiangular=bool(unit and spread <= tol),
        common_angle=float(off.mean()),
        max_abs_inner=float(off.max()),
        welch_bound=wb,
    )


def random_tight_frame(n: int, m: int, seed: int) -> FrameMatrix:
    """Random real tight frame with bound 1: orthonormal rows of a Gaussian draw.

    Deterministic in (n, m, seed).  A rank-deficient draw is rejected and
    redrawn under a fresh sub-seed; after 8 retries an error is raised.
    """
    check_integers(n=n, m=m, seed=seed)
    if not 1 <= n <= m:
        raise ValueError("need 1 <= n <= m")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    for attempt in range(9):
        rng = np.random.default_rng([int(seed), attempt])
        rows = rng.standard_normal((n, m))
        if _orthonormalize_rows(rows):
            return FrameMatrix(rows, "real")
    raise FrameError("nine rank-deficient draws in a row; bad (n, m, seed)?")


def _orthonormalize_rows(rows: np.ndarray) -> bool:
    """In-place modified Gram-Schmidt with one reorthogonalization pass."""
    for i in range(rows.shape[0]):
        v = rows[i]
        for _ in range(2):
            for k in range(i):
                v = v - (rows[k] @ v) * rows[k]
        norm = np.linalg.norm(v)
        if norm < 1e-8:
            return False
        rows[i] = v / norm
    return True


def prime_parseval_extension(n: int, m: int) -> FrameMatrix:
    """A real Parseval frame of m non-zero vectors for R^n, prime for n >= 2.

    Row 1 carries m - n + 1 equal entries 1/sqrt(m - n + 1); every later
    row contributes a single standard basis vector.  For m = n this is
    the identity.  In dimension 1 every non-zero vector is already a
    tight subset, so no collection of m >= 2 vectors can be prime there.
    """
    check_integers(n=n, m=m)
    if not 1 <= n <= m:
        raise ValueError("need 1 <= n <= m")
    width = m - n + 1
    out = np.zeros((n, m))
    out[0, :width] = 1.0 / math.sqrt(width)
    for row in range(1, n):
        out[row, width + row - 1] = 1.0
    return FrameMatrix(out, "real")


def dft_row_frame(n: int, m: int) -> FrameMatrix:
    """First n rows of the m x m DFT, columns scaled to unit norm; m prime.

    This is the harmonic frame ``htf(HtfParams(n, m))``, refused unless m
    is prime.  Prime m makes every proper subset of columns non-tight, so
    the result is a prime unit-norm tight frame with bound m/n.
    """
    from .harmonic import HtfParams, htf  # harmonic imports this module
    params = HtfParams(n, m)
    if not is_prime_int(m):
        raise InfeasibleError("m = %d is not prime" % m)
    return htf(params)
