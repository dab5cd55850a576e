"""Shared fixtures and independent oracle helpers for the test suite."""

import math
import os
import subprocess

import numpy as np
from hypothesis import settings

import primeframes
from primeframes import FrameMatrix

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

# every property test runs the same 100 derandomized examples, with no
# deadline and no example database, so runs repeat exactly
settings.register_profile("primeframes", derandomize=True, max_examples=100,
                          deadline=None, database=None)
settings.load_profile("primeframes")


def hexagon_frame() -> FrameMatrix:
    """Six unit vectors at 60-degree spacing in the plane (tight, bound 3)."""
    return FrameMatrix.from_columns(
        [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3))
         for k in range(6)])


def mercedes_frame() -> FrameMatrix:
    """Three unit vectors at 120-degree spacing (the equiangular minimum)."""
    return FrameMatrix.from_columns(
        [(math.cos(2 * k * math.pi / 3), math.sin(2 * k * math.pi / 3))
         for k in range(3)])


def analyze_direct(entries: np.ndarray, x) -> np.ndarray:
    """Coefficient oracle: plain inner-product loop, no transforms."""
    x = np.asarray(x, dtype=np.complex128)
    return np.array([np.vdot(entries[:, i], x)
                     for i in range(entries.shape[1])])


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary from a QR factorization with fixed phases."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def columns_as_multiset(entries: np.ndarray, decimals: int = 10) -> list:
    """Columns as a sorted list of rounded tuples, for order-free comparison."""
    cols = [tuple(np.round(entries[:, k], decimals)) for k in range(entries.shape[1])]
    return sorted(cols, key=lambda c: [(z.real, z.imag) for z in c])


def run_subprocess(argv):
    """Run argv so that a child interpreter imports the primeframes this
    suite imported, whether or not PYTHONPATH was exported."""
    pythonpath = [os.path.dirname(os.path.dirname(primeframes.__file__)),
                  os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    return subprocess.run(argv, capture_output=True, text=True, env=env)
