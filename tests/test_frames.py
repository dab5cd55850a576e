import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import primeframes
from conftest import hexagon_frame, mercedes_frame, random_unitary
from primeframes import (FrameMatrix, NotTightError, check_equiangular,
                         check_tight, coherence, complement_certificate,
                         dft_row_frame, find_divisor, frame_operator, htf,
                         HtfParams, InfeasibleError, is_prime_bruteforce,
                         htf_prime_factors, prime_factor_size_multisets,
                         prime_factorization, prime_parseval_extension,
                         random_tight_frame, stf, stf_factorize,
                         tight_subsets, verify_reconstruction, welch_bound)
from primeframes.frames import _bound_and_residual
from primeframes.io import (frame_from_csv, frame_from_json_obj, frame_to_csv,
                            frame_to_json_obj)

LIBRARY_SURFACE = [
    "DEFAULT_TOL", "DivisorCertificate", "DivisorSets",
    "EquiangularityReport", "FrameError", "FrameMatrix", "HtfParams",
    "HtfTransformPlan", "InfeasibleError", "NotTightError", "PackingError",
    "PrimeFactorization", "SEARCH_CAP", "SearchCapError", "StfFactorization",
    "TetrisSchedule", "TightnessReport", "__version__", "analyze_fast",
    "analyze_naive", "check_equiangular", "check_tight", "coherence",
    "complement_certificate", "dft_row_frame", "divisor_sets",
    "find_divisor", "frame_operator", "htf", "htf_coherence",
    "htf_divisor_of_size", "htf_is_prime", "htf_prime_factors",
    "index_coset", "is_balancing", "is_prime_bruteforce", "plan",
    "prime_factor_size_multisets", "prime_factorization",
    "prime_parseval_extension", "random_tight_frame", "stf",
    "stf_factorize", "stf_is_divisible", "stf_low_redundancy_feasible",
    "stf_schedule", "synthesize_fast", "tight_subsets",
    "vanishing_subsum_check", "verify_reconstruction", "welch_bound",
]


def test_library_surface_is_pinned():
    # a public name that is added, dropped or renamed changes __all__; a
    # name left in __all__ after its definition went fails to resolve
    assert sorted(primeframes.__all__) == LIBRARY_SURFACE
    for name in LIBRARY_SURFACE:
        assert hasattr(primeframes, name), name


def test_frame_matrix_validation():
    with pytest.raises(ValueError):
        FrameMatrix(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        FrameMatrix(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        FrameMatrix(np.array([[1j]]), "real")
    with pytest.raises(ValueError):
        FrameMatrix(np.eye(2), "rational")
    phi = FrameMatrix.from_array(np.eye(2))
    assert phi.field == "real" and phi.n == 2 and phi.m == 2


def test_frame_matrix_rejects_non_finite_entries():
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan),
                complex(np.inf, 0.0)):
        entries = np.eye(2, 3, dtype=np.complex128)
        entries[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            FrameMatrix(entries)
        with pytest.raises(ValueError, match="finite"):
            FrameMatrix.from_array(entries)


def test_frame_matrix_entries_are_frozen():
    phi = FrameMatrix.from_array(np.eye(2))
    with pytest.raises(ValueError):
        phi.entries[0, 0] = 5.0


def test_library_built_frames_pass_the_public_checks():
    # these skip the public constructor's copy and checks, so each must
    # hand over what the constructor would have made
    phi = htf(HtfParams(3, 12, 2.5))
    built = [phi, phi.submatrix((2, 5, 7)), stf(4, 11), stf(4, 14).submatrix(
        (1, 2)), stf(4, 6), stf_factorize(4, 14).prime_core,
        *htf_prime_factors(HtfParams(3, 12), 3),
        frame_from_csv(frame_to_csv(phi)), frame_from_csv(frame_to_csv(
            stf(3, 7))), frame_from_json_obj(frame_to_json_obj(stf(3, 7)))]
    for phi in built:
        arr = phi.entries
        assert arr.dtype == np.complex128 and arr.flags.c_contiguous
        assert not arr.flags.writeable
        again = FrameMatrix(arr, phi.field)
        assert again.entries.tobytes() == arr.tobytes()


def test_submatrix_and_column_indexing():
    phi = hexagon_frame()
    sub = phi.submatrix((1, 4))
    assert sub.m == 2
    assert np.array_equal(sub.entries[:, 1], phi.column(4))
    with pytest.raises(ValueError):
        phi.column(7)
    with pytest.raises(ValueError):
        phi.submatrix(())
    for indices in ((1, 7), (0, 1)):
        with pytest.raises(ValueError, match="^column index out of range$"):
            phi.submatrix(indices)


def test_frame_operator_values():
    assert np.array_equal(frame_operator(FrameMatrix.from_array(np.eye(2))),
                          np.eye(2))
    s = frame_operator(htf(HtfParams(2, 3)))
    assert np.max(np.abs(s - 1.5 * np.eye(2))) < 1e-14
    doubled = FrameMatrix.from_columns([(1, 0), (1, 0)])
    assert np.max(np.abs(frame_operator(doubled)
                         - np.array([[2, 0], [0, 0]]))) < 1e-15


def test_check_tight_verdicts():
    rep = check_tight(FrameMatrix.from_array(np.eye(3)))
    assert rep.is_tight and abs(rep.bound - 1.0) < 1e-15 and rep.residual == 0.0
    rep = check_tight(stf(4, 11))
    assert rep.is_tight and abs(rep.bound - 11 / 4) < 1e-14
    lopsided = FrameMatrix.from_columns(
        [(1, 0), (0, 1), (1 / math.sqrt(2), 1 / math.sqrt(2))])
    assert not check_tight(lopsided).is_tight
    with pytest.raises(ValueError):
        check_tight(lopsided, tol=0.0)
    # a numpy tol must not turn the verdict into a numpy bool
    assert type(check_tight(stf(4, 11), np.float32(1e-6)).is_tight) is bool


def test_check_tight_rejects_non_finite_tol():
    phi = htf(HtfParams(2, 4))
    for tol in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(ValueError,
                           match="tol must be positive and finite"):
            check_tight(phi, tol)
    assert check_tight(phi, 1e-3).is_tight


PHI_2_6 = htf(HtfParams(2, 6))
TOL_TAKERS = [
    ("check_tight", lambda tol: check_tight(PHI_2_6, tol)),
    ("check_equiangular", lambda tol: check_equiangular(PHI_2_6, tol)),
    ("verify_reconstruction",
     lambda tol: verify_reconstruction(PHI_2_6, [1.0, 2.0], tol)),
    ("complement_certificate",
     lambda tol: complement_certificate(PHI_2_6, (1, 4), tol)),
    ("find_divisor", lambda tol: find_divisor(PHI_2_6, tol=tol)),
    ("is_prime_bruteforce", lambda tol: is_prime_bruteforce(PHI_2_6, tol)),
    ("prime_factorization", lambda tol: prime_factorization(PHI_2_6, tol)),
    ("prime_factor_size_multisets",
     lambda tol: prime_factor_size_multisets(PHI_2_6, tol)),
    ("tight_subsets", lambda tol: tight_subsets(PHI_2_6, 2, tol)),
]
# 10**400 overflows a float and Fraction(1, 10**400) underflows to 0.0;
# a timedelta64 has no float
BAD_TOLS = [True, np.True_, "a", None, 1j, np.complex128(1e-3), -1.0, 0,
            math.nan, Decimal("1e-9"), 10 ** 400, Fraction(1, 10 ** 400),
            np.timedelta64(1, "s")]


@pytest.mark.parametrize("name, call", TOL_TAKERS,
                         ids=[name for name, _ in TOL_TAKERS])
@pytest.mark.parametrize("tol", BAD_TOLS,
                         ids=[repr(t)[:24] for t in BAD_TOLS])
def test_every_tol_follows_one_rule(name, call, tol):
    # a bool once ran as tol 1.0 and a string or None ended in TypeError;
    # check_equiangular ran at whatever tol it was given; 10**400 ended in
    # OverflowError
    with pytest.raises(ValueError, match="^tol must be positive and finite$"):
        call(tol)
    for good in (1e-9, np.float64(1e-9), np.float32(1e-6)):
        call(good)


def test_harmonic_scale_follows_the_tol_rule():
    for s in BAD_TOLS:
        with pytest.raises(ValueError, match="^s must be positive and finite$"):
            HtfParams(2, 6, s)
    assert HtfParams(2, 6, np.float32(2.0)).s == 2.0


def test_check_tight_rejects_zero_frame():
    rep = check_tight(FrameMatrix.from_array(np.zeros((2, 3))))
    assert not rep.is_tight and rep.bound == 0.0


def test_reconstruction_identity():
    assert verify_reconstruction(FrameMatrix.from_array(np.eye(2)), [1.0, 2.0])
    e1 = np.zeros(3)
    e1[0] = 1.0
    assert verify_reconstruction(htf(HtfParams(3, 7)), e1)
    phi = htf(HtfParams(2, 5))
    for seed in range(100):
        x = np.random.default_rng(seed).standard_normal(2)
        assert verify_reconstruction(phi, x, 1e-10)
    lopsided = FrameMatrix.from_columns([(1, 0), (0, 1), (0.5, 0.5)])
    with pytest.raises(NotTightError, match=r"^input is not a tight frame "
                       r"\(residual 1\.961e-01, tol 1\.0e-09\)$"):
        verify_reconstruction(lopsided, [1.0, 0.0])
    with pytest.raises(ValueError, match="^signal length must equal"):
        verify_reconstruction(phi, [1.0, 2.0, 3.0])
    for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan)):
        with pytest.raises(ValueError, match="^signal must be finite$"):
            verify_reconstruction(phi, [1.0, bad])
    assert verify_reconstruction(phi, [0.0, 0.0]) is True


def test_reconstruction_across_constructions():
    frames = [htf(HtfParams(3, 8)), stf(3, 9), random_tight_frame(4, 9, 11),
              prime_parseval_extension(3, 7), dft_row_frame(2, 7),
              hexagon_frame()]
    for phi in frames:
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.standard_normal(phi.n) + 1j * rng.standard_normal(phi.n)
            assert verify_reconstruction(phi, x, 1e-10)


def test_coherence_values():
    assert coherence(FrameMatrix.from_array(np.eye(3))) == 0.0
    assert abs(coherence(htf(HtfParams(2, 4))) - 1 / math.sqrt(2)) < 1e-13
    repeated = FrameMatrix.from_columns([(1, 0), (1, 0)])
    assert abs(coherence(repeated) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        coherence(FrameMatrix.from_columns([(1, 0)]))


def test_welch_bound_values():
    assert abs(welch_bound(2, 3) - 0.5) < 1e-15
    assert welch_bound(4, 4) == 0.0
    assert abs(welch_bound(2, 4) - math.sqrt(1 / 3)) < 1e-15
    with pytest.raises(ValueError):
        welch_bound(3, 2)


def test_coherence_dominates_welch_bound():
    cases = [htf(HtfParams(n, m)) for n in (2, 3, 4) for m in range(n + 1, 12)]
    cases += [mercedes_frame(), hexagon_frame()]
    for phi in cases:
        assert coherence(phi) >= welch_bound(phi.n, phi.m) - 1e-12


def test_equiangularity_reports():
    rep = check_equiangular(mercedes_frame())
    assert rep.is_unit_norm and rep.is_equiangular
    rep = check_equiangular(mercedes_frame(), np.float32(1e-6))
    assert type(rep.is_equiangular) is bool and rep.is_equiangular
    assert abs(rep.common_angle - 0.5) < 1e-12
    assert abs(rep.common_angle - rep.welch_bound) < 1e-12
    rep = check_equiangular(htf(HtfParams(2, 4)))
    assert rep.is_unit_norm and not rep.is_equiangular
    rep = check_equiangular(FrameMatrix.from_array(np.eye(3)))
    assert rep.is_equiangular and rep.common_angle == 0.0
    # the Welch bound needs m >= n; below it the report names no bound
    rep = check_equiangular(FrameMatrix.from_columns([(1, 0, 0), (0, 1, 0)]))
    assert rep.is_equiangular and rep.welch_bound is None
    with pytest.raises(ValueError, match="^equiangularity needs at least two"):
        check_equiangular(FrameMatrix.from_columns([(1, 0)]))


def test_equivalence_preserves_frame_invariants():
    rng = np.random.default_rng(17)
    for phi in (htf(HtfParams(2, 5)), htf(HtfParams(2, 6)),
                prime_parseval_extension(3, 7), hexagon_frame()):
        bound = check_tight(phi).bound
        mu = coherence(phi)
        prime = is_prime_bruteforce(phi)
        for _ in range(20):
            # psi_i = c U phi_perm(i), with one unimodular scalar c
            perm = rng.permutation(phi.m)
            scalar = np.exp(2j * np.pi * rng.random())
            psi = FrameMatrix.from_array(
                (random_unitary(rng, phi.n) @ phi.entries[:, perm]) * scalar)
            rep = check_tight(psi)
            assert rep.is_tight and abs(rep.bound - bound) < 1e-10
            assert abs(coherence(psi) - mu) < 1e-10
            assert is_prime_bruteforce(psi) == prime


def test_random_tight_frame_properties():
    one = random_tight_frame(1, 1, 123)
    assert abs(abs(one.entries[0, 0]) - 1.0) < 1e-15
    phi = random_tight_frame(3, 8, 42)
    rep = check_tight(phi, 1e-12)
    assert rep.is_tight and abs(rep.bound - 1.0) < 1e-12
    assert phi.field == "real"
    again = random_tight_frame(3, 8, 42)
    assert np.array_equal(phi.entries, again.entries)
    other = random_tight_frame(3, 8, 43)
    assert not np.array_equal(phi.entries, other.entries)
    with pytest.raises(ValueError):
        random_tight_frame(4, 3, 0)


def test_prime_parseval_extension_shapes():
    ext = prime_parseval_extension(1, 3)
    assert np.max(np.abs(ext.entries - 1 / math.sqrt(3))) < 1e-15
    ext = prime_parseval_extension(2, 3)
    want = np.array([[math.sqrt(0.5), math.sqrt(0.5), 0], [0, 0, 1]])
    assert np.max(np.abs(ext.entries - want)) < 1e-15
    assert np.array_equal(prime_parseval_extension(4, 4).entries.real, np.eye(4))
    assert ext.field == "real"
    assert np.all(np.linalg.norm(ext.entries, axis=0) > 0)
    for n, m in ((3, 2), (0, 2)):
        with pytest.raises(ValueError, match=r"^need 1 <= n <= m$"):
            prime_parseval_extension(n, m)


def test_dft_row_frame_is_the_prime_harmonic_frame():
    # one construction: the entries are htf's, bit for bit
    for n, m in ((1, 2), (2, 5), (3, 7), (3, 13), (2, 11), (5, 31)):
        assert (dft_row_frame(n, m).entries.tobytes()
                == htf(HtfParams(n, m)).entries.tobytes()), (n, m)


def test_dft_row_frame_values():
    d = dft_row_frame(2, 5)
    assert np.max(np.abs(d.entries - htf(HtfParams(2, 5)).entries)) < 1e-14
    d = dft_row_frame(3, 7)
    rep = check_tight(d)
    assert rep.is_tight and abs(rep.bound - 7 / 3) < 1e-12
    assert np.max(np.abs(d.column_norms() - 1.0)) < 1e-12
    assert is_prime_bruteforce(d)
    with pytest.raises(InfeasibleError):
        dft_row_frame(2, 4)
    for n, m in ((3, 2), (0, 5)):
        with pytest.raises(ValueError, match=r"^need 1 <= n <= m$"):
            dft_row_frame(n, m)


def norm_bound_and_residual(entries):
    """The fitted bound and relative residual with np.linalg.norm."""
    s = entries @ entries.conj().T
    n = s.shape[0]
    bound = float(s.trace().real) / n
    s_norm = float(np.linalg.norm(s))
    if s_norm == 0.0:
        return 0.0, 0.0
    s = s.copy()
    s.flat[:: n + 1] -= bound
    return bound, float(np.linalg.norm(s)) / s_norm


# finite parts, with exact zeros of both signs among them
parts = st.one_of(st.sampled_from([0.0, -0.0]),
                  st.floats(-1e6, 1e6, allow_nan=False))


@st.composite
def raw_matrices(draw):
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    real = np.array(draw(st.lists(parts, min_size=n * m, max_size=n * m)))
    if draw(st.booleans()):
        return real.reshape(n, m)
    imag = np.array(draw(st.lists(parts, min_size=n * m, max_size=n * m)))
    return (real + 1j * imag).reshape(n, m)


@given(raw_matrices())
def test_bound_and_residual_match_the_norm_form(entries):
    # the same bits as the np.linalg.norm form, on real and complex input
    got = np.array(_bound_and_residual(entries))
    assert got.tobytes() == np.array(
        norm_bound_and_residual(entries)).tobytes()
