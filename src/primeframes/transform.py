"""Fast analysis and synthesis for harmonic frames via coset factors.

The m columns of the unit-norm harmonic frame on (n, m) split along the
index cosets I(p, q), q = 1..m/p, for any minimal divisor size p.  The
columns on coset q are diag(w^t)^{q-1} times the kernel frame on (n, p),
with w = exp(2 pi i / m), so analysis against all m vectors costs m/p
phase twists plus m/p size-p transforms instead of one size-m transform
of the zero-padded signal.  Coefficients use the convention
c_i = <x, phi_i> = (Phi* x)_i and are returned in frame index order.

The plan takes both twists from the (n, m/p) array w^{t (q-1)} that
``harmonic.htf_prime_factors`` builds its factors from, column q-1
serving coset q, with the transform's scale folded in: analysis uses
its conjugate over sqrt(n) and synthesis the array times p sqrt(n)/m.
Analysis transforms the twisted signal along its first axis, so the
(p, m/p) result is the coefficient vector in frame index order (frame
index k m/p + q for row k, column q-1), and synthesis reads the
coefficients back in the same layout.  Every function takes a batch of
signals or coefficient vectors along leading axes; each one is
transformed exactly as it would be alone.  The CLI ``bench``
subcommand times ``analyze_fast`` against ``analyze_naive``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .harmonic import _coset_twists


@dataclass(frozen=True, eq=False)
class HtfTransformPlan:
    """Precomputed data for repeated transforms at one (n, m, p).

    ``analysis_twist`` is the (n, m/p) array whose column q-1 holds the
    conjugated diagonal of the coset-twist unitary raised to the power
    q - 1, divided by sqrt(n); ``synthesis_twist`` holds the unconjugated
    powers times p sqrt(n)/m.  Both arrays are read-only, so one plan can
    serve any number of calls.
    """

    n: int
    m: int
    factor_size: int
    coset_count: int
    analysis_twist: np.ndarray
    synthesis_twist: np.ndarray


def plan(n: int, m: int, p: int) -> HtfTransformPlan:
    """Build a transform plan; p must be a minimal divisor size of (n, m)."""
    twists = _coset_twists(n, m, p)
    analysis = np.conj(twists)
    analysis /= math.sqrt(n)
    twists *= p * math.sqrt(n) / m
    for a in (analysis, twists):
        a.flags.writeable = False
    return HtfTransformPlan(n, m, p, m // p, analysis, twists)


def _last_axis(a, what: str, name: str, size: int) -> np.ndarray:
    """``a`` as complex128, after checking that its last axis has ``size``."""
    a = np.asarray(a, dtype=np.complex128)
    if a.shape[-1:] != (size,):
        raise ValueError("%s length must equal %s = %d" % (what, name, size))
    return a


def analyze_fast(tplan: HtfTransformPlan, x) -> np.ndarray:
    """All m coefficients <x, phi_i> via per-coset size-p transforms.

    ``x`` has shape (..., n); the result has shape (..., m).
    """
    x = _last_axis(x, "signal", "n", tplan.n)
    per_coset = np.fft.fft(tplan.analysis_twist * x[..., :, None],
                           n=tplan.factor_size, axis=-2)
    return per_coset.reshape(x.shape[:-1] + (tplan.m,))


def analyze_naive(n: int, m: int, x) -> np.ndarray:
    """Reference path: one size-m transform of the zero-padded signal.

    ``x`` has shape (..., n); the result has shape (..., m).
    """
    x = _last_axis(x, "signal", "n", n)
    return np.fft.fft(x, n=m) / math.sqrt(n)


def synthesize_fast(tplan: HtfTransformPlan, coeffs) -> np.ndarray:
    """Invert analyze_fast: x = (1/A) Phi c with A = m/n, per coset.

    ``coeffs`` has shape (..., m); the result has shape (..., n).
    """
    c = _last_axis(coeffs, "coefficient", "m", tplan.m)
    per_coset = c.reshape(c.shape[:-1] + (tplan.factor_size, tplan.coset_count))
    z = np.fft.ifft(per_coset, axis=-2)[..., : tplan.n, None, :]
    # row t of z times row t of the twist: (..., n, 1, m/p) @ (n, m/p, 1)
    return (z @ tplan.synthesis_twist[:, :, None])[..., 0, 0]

