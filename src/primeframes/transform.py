"""Fast analysis and synthesis for harmonic frames via coset factors.

The m columns of the unit-norm harmonic frame on (n, m) split along the
index cosets I(p, q), q = 1..m/p, for any minimal divisor size p.  The
columns on coset q are diag(w^t)^{q-1} times the kernel frame on (n, p),
with w = exp(2 pi i / m), so analysis against all m vectors costs m/p
phase twists plus m/p size-p transforms instead of one size-m transform
of the zero-padded signal.  Coefficients use the convention
c_i = <x, phi_i> = (Phi* x)_i and are returned in frame index order.

``plan`` picks the evaluation from the number of frame entries n m.  Up
to ``_PRODUCT_MAX_ENTRIES`` (2^15) the transforms are one matrix product
each, with the (m, n) matrix Phi* for analysis and the (n, m) matrix
(n/m) Phi for synthesis, Phi the unit-norm frame: at those sizes the
coset path is all per-call FFT overhead.  Above it they take the coset
path.  Its plan holds both twists from the (n, m/p) array w^{t (q-1)}
that ``harmonic.htf_prime_factors`` builds its factors from, column q-1
serving coset q, with the transform's scale folded in: analysis uses
its conjugate over sqrt(n) and synthesis the array times p sqrt(n)/m.
Analysis writes the twisted signal into the first n rows of one
(p, m/p) buffer, zeroes the other p - n rows and transforms the buffer
down its columns.  The result is the coefficient vector in frame index
order (frame index k m/p + q for row k, column q-1), and synthesis
reads the coefficients back in the same layout.  Every function takes
a batch of signals or coefficient vectors along leading axes; each one
is transformed exactly as it would be alone, since the products are
stacked matrix-vector products and the FFTs run column by column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .harmonic import _coset_twists, _root_powers

# Largest n m transformed by one matrix product.  Microseconds per call,
# coset path against product, analysis / synthesis, one BLAS thread,
# best of 5 x 100-2000 calls on a shared 2-CPU x86-64 Xeon (numpy 2.4.6):
# (8, 2048) 17 / 17 against 8 / 5; (8, 4096) 29 / 28 against 15 / 9;
# (3, 6561) 58 / 46 against 30 / 17; (16, 4096) 53 / 56 against
# 55 / 37; (32, 4096) 28 / 29 against 75 / 58; (64, 4096) 30 / 27
# against 193 / 186.
_PRODUCT_MAX_ENTRIES = 2 ** 15


@dataclass(frozen=True, eq=False)
class HtfTransformPlan:
    """Precomputed data for repeated transforms at one (n, m, p).

    ``analysis_twist`` is the (n, m/p) array whose column q-1 holds the
    conjugated diagonal of the coset-twist unitary raised to the power
    q - 1, divided by sqrt(n); ``synthesis_twist`` holds the unconjugated
    powers times p sqrt(n)/m.  When n m is at most
    ``_PRODUCT_MAX_ENTRIES`` (2^15), ``analysis_matrix`` is the (m, n)
    matrix Phi* and ``synthesis_matrix`` the (n, m) matrix (n/m) Phi,
    Phi the unit-norm frame, and the transforms are one product each;
    above it both are None and the transforms take the coset path.
    Every array is read-only, so one plan can serve any number of calls.
    """

    n: int
    m: int
    factor_size: int
    coset_count: int
    analysis_twist: np.ndarray
    synthesis_twist: np.ndarray
    analysis_matrix: np.ndarray | None = None
    synthesis_matrix: np.ndarray | None = None


def plan(n: int, m: int, p: int) -> HtfTransformPlan:
    """Build a transform plan; p must be a minimal divisor size of (n, m)."""
    twists = _coset_twists(n, m, p)
    analysis = np.conj(twists)
    analysis /= math.sqrt(n)
    twists *= p * math.sqrt(n) / m
    arrays = [analysis, twists]
    if n * m <= _PRODUCT_MAX_ENTRIES:
        roots = _root_powers(m, np.outer(np.arange(n), np.arange(m)))
        phi_star = np.conj(roots.T, order="C")
        phi_star /= math.sqrt(n)
        roots *= math.sqrt(n) / m
        arrays += [phi_star, roots]
    for a in arrays:
        a.flags.writeable = False
    return HtfTransformPlan(n, m, p, m // p, *arrays)


def _last_axis(a, what: str, name: str, size: int) -> np.ndarray:
    """``a`` as complex128, after checking that its last axis has ``size``."""
    a = np.asarray(a, dtype=np.complex128)
    if a.shape[-1:] != (size,):
        raise ValueError("%s length must equal %s = %d" % (what, name, size))
    return a


def analyze_fast(tplan: HtfTransformPlan, x) -> np.ndarray:
    """All m coefficients <x, phi_i>, by one product or per coset.

    ``x`` has shape (..., n); the result has shape (..., m).
    """
    x = _last_axis(x, "signal", "n", tplan.n)
    if tplan.analysis_matrix is not None:
        return (tplan.analysis_matrix @ x[..., :, None])[..., 0]
    padded = np.empty(x.shape[:-1] + (tplan.factor_size, tplan.coset_count),
                      dtype=np.complex128)
    padded[..., tplan.n:, :] = 0
    np.multiply(tplan.analysis_twist, x[..., :, None],
                out=padded[..., : tplan.n, :])
    return np.fft.fft(padded, axis=-2).reshape(x.shape[:-1] + (tplan.m,))


def analyze_naive(n: int, m: int, x) -> np.ndarray:
    """Reference path: one size-m transform of the zero-padded signal.

    ``x`` has shape (..., n); the result has shape (..., m).
    """
    x = _last_axis(x, "signal", "n", n)
    return np.fft.fft(x, n=m) / math.sqrt(n)


def synthesize_fast(tplan: HtfTransformPlan, coeffs) -> np.ndarray:
    """Invert analyze_fast: x = (1/A) Phi c with A = m/n.

    ``coeffs`` has shape (..., m); the result has shape (..., n).
    """
    c = _last_axis(coeffs, "coefficient", "m", tplan.m)
    if tplan.synthesis_matrix is not None:
        return (tplan.synthesis_matrix @ c[..., :, None])[..., 0]
    per_coset = c.reshape(c.shape[:-1] + (tplan.factor_size, tplan.coset_count))
    z = np.fft.ifft(per_coset, axis=-2)[..., : tplan.n, None, :]
    # row t of z times row t of the twist: (..., n, 1, m/p) @ (n, m/p, 1)
    return (z @ tplan.synthesis_twist[:, :, None])[..., 0, 0]

