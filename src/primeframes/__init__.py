"""Finite tight frames: constructions, primality, factorization, transforms.

A tight frame is prime when no proper subset of its vectors is itself a
tight frame.  This package constructs the standard families (harmonic,
sparse spectral-tetris, random, prime Parseval extensions), decides
primality both by closed forms and by exhaustive subset search, factors
divisible frames into prime pieces, and exploits the coset structure of
harmonic frames for fast analysis and synthesis.
"""

from .divisibility import (SEARCH_CAP, DivisorCertificate, PrimeFactorization,
                           complement_certificate, find_divisor,
                           is_prime_bruteforce, prime_factor_size_multisets,
                           prime_factorization, tight_subsets)
from .errors import (FrameError, InfeasibleError, NotTightError, PackingError,
                     SearchCapError)
from .frames import (DEFAULT_TOL, EquiangularityReport, FrameMatrix,
                     TightnessReport, check_equiangular, check_tight,
                     coherence, dft_row_frame, frame_operator,
                     prime_parseval_extension, random_tight_frame,
                     verify_reconstruction, welch_bound)
from .harmonic import (DivisorSets, HtfParams, divisor_sets, htf,
                       htf_coherence, htf_divisor_of_size, htf_is_prime,
                       htf_prime_factors, index_coset, is_balancing,
                       vanishing_subsum_check)
from .tetris import (StfFactorization, TetrisSchedule, stf, stf_factorize,
                     stf_is_divisible, stf_low_redundancy_feasible,
                     stf_schedule)
from .transform import (HtfTransformPlan, analyze_fast, analyze_naive, plan,
                        synthesize_fast)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL", "SEARCH_CAP", "__version__",
    "FrameMatrix", "TightnessReport", "EquiangularityReport",
    "DivisorCertificate", "PrimeFactorization",
    "DivisorSets", "HtfParams", "TetrisSchedule", "StfFactorization",
    "HtfTransformPlan",
    "FrameError", "NotTightError", "InfeasibleError", "PackingError",
    "SearchCapError",
    "frame_operator", "check_tight", "verify_reconstruction",
    "coherence", "welch_bound", "check_equiangular",
    "random_tight_frame", "prime_parseval_extension", "dft_row_frame",
    "find_divisor", "is_prime_bruteforce", "complement_certificate",
    "prime_factorization", "prime_factor_size_multisets", "tight_subsets",
    "htf", "index_coset", "divisor_sets", "is_balancing", "htf_is_prime",
    "htf_prime_factors", "htf_divisor_of_size", "htf_coherence",
    "vanishing_subsum_check",
    "stf_schedule", "stf", "stf_is_divisible", "stf_factorize",
    "stf_low_redundancy_feasible",
    "plan", "analyze_fast", "analyze_naive", "synthesize_fast",
]
