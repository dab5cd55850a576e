"""Fast analysis and synthesis for harmonic frames via coset factors.

The m columns of the unit-norm harmonic frame on (n, m) split along the
index cosets I(p, q), q = 1..m/p, for any minimal divisor size p.  The
columns on coset q are diag(w^t)^{q-1} times the kernel frame on (n, p),
with w = exp(2 pi i / m), so analysis against all m vectors costs m/p
phase twists plus m/p size-p transforms instead of one size-m transform
of the zero-padded signal.  Coefficients use the convention
c_i = <x, phi_i> = (Phi* x)_i and are returned in frame index order.

The plan stores each twist as an (n, m/p) array whose column q-1 serves
coset q, with the transform's scale folded in: 1/sqrt(n) for analysis
and p sqrt(n)/m for synthesis.  Analysis transforms the twisted signal
along its first axis, so the (p, m/p) result is the coefficient vector
in frame index order (frame index k m/p + q for row k, column q-1), and
synthesis reads the coefficients back in the same layout.  Every
function takes a batch of signals or coefficient vectors along leading
axes; each one is transformed exactly as it would be alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .harmonic import HtfParams, _root_powers, divisor_sets, htf, index_coset


@dataclass(frozen=True, eq=False)
class HtfTransformPlan:
    """Precomputed data for repeated transforms at one (n, m, p).

    ``phase_diag`` is the diagonal of the coset-twist unitary.
    ``analysis_twist`` is the (n, m/p) array whose column q-1 holds the
    conjugated diagonal raised to the power q - 1, divided by sqrt(n);
    ``synthesis_twist`` holds the conjugates of those powers times
    p sqrt(n)/m.  All three arrays are read-only, so one plan can serve
    any number of calls.  ``kernel`` (the (n, p) harmonic
    frame applied on each coset), ``coset_maps`` (the 1-based index
    cosets in shift order) and ``phase_powers`` (the undivided powers,
    row q-1 for coset q) are computed on access; no transform reads them.
    """

    n: int
    m: int
    factor_size: int
    coset_count: int
    phase_diag: np.ndarray
    analysis_twist: np.ndarray
    synthesis_twist: np.ndarray

    @property
    def kernel(self) -> np.ndarray:
        return htf(HtfParams(self.n, self.factor_size, 1.0)).entries

    @property
    def coset_maps(self) -> tuple:
        return tuple(index_coset(self.m, self.factor_size, q)
                     for q in range(1, self.coset_count + 1))

    @property
    def phase_powers(self) -> np.ndarray:
        return _twist_powers(self.n, self.m, self.coset_count).T


def _twist_powers(n: int, m: int, count: int) -> np.ndarray:
    """The (n, count) array w^{-t (q-1)}, t = 0..n-1, q = 1..count."""
    return _root_powers(m, -np.outer(np.arange(n), np.arange(count)))


def plan(n: int, m: int, p: int) -> HtfTransformPlan:
    """Build a transform plan; p must be a minimal divisor size of (n, m)."""
    sets = divisor_sets(n, m)
    if p not in sets.minimal_divisors:
        raise ValueError(
            "p = %d is not a minimal divisor size of (n, m) = (%d, %d)"
            % (p, n, m))
    count = m // p
    powers = _twist_powers(n, m, count)
    analysis = powers / math.sqrt(n)
    synthesis = np.conj(powers, out=powers)
    synthesis *= p * math.sqrt(n) / m
    diag = _root_powers(m, np.arange(n))
    for a in (diag, analysis, synthesis):
        a.flags.writeable = False
    return HtfTransformPlan(n, m, p, count, diag, analysis, synthesis)


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


def benchmark(n: int, m: int, p: int, trials: int, seed: int) -> dict:
    """Median wall time of the coset path versus the size-m reference path.

    Times analyze over ``trials`` seeded random complex signals, one
    timed call per trial after a warm-up, and reports medians in
    nanoseconds.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    tplan = plan(n, m, p)
    rng = np.random.default_rng(seed)
    signals = rng.standard_normal((trials, n)) + 1j * rng.standard_normal((trials, n))
    analyze_fast(tplan, signals[0])
    analyze_naive(n, m, signals[0])
    fast_ns = []
    naive_ns = []
    for x in signals:
        t0 = time.perf_counter_ns()
        analyze_fast(tplan, x)
        fast_ns.append(time.perf_counter_ns() - t0)
        t0 = time.perf_counter_ns()
        analyze_naive(n, m, x)
        naive_ns.append(time.perf_counter_ns() - t0)
    return {
        "n": n,
        "m": m,
        "p": p,
        "trials": trials,
        "fast_median_ns": int(np.median(fast_ns)),
        "naive_median_ns": int(np.median(naive_ns)),
    }
