"""Pseudo-inverse and projector invariants, checked against
brute-force oracles on randomly drawn matrices."""

import warnings

import numpy as np
import pytest

from flatlora.checks import pinv_factors_agreement, qr_pseudo_inverse
from flatlora.linalg import (
    DEFAULT_TOL,
    NumericalError,
    ShapeError,
    _sq_norm,
    _worst,
    _worst_abs,
    as_matrix,
    col_space_projector,
    make_rng,
    pseudo_inverse,
    row_space_projector,
)

MP_TOL = 1e-9
PROJ_TOL = 1e-10


def random_cases(rng, count, max_dim=8, rank_deficient_every=3):
    """Random matrices of assorted shapes, a third of them rank-deficient."""
    for trial in range(count):
        rows = int(rng.integers(1, max_dim + 1))
        cols = int(rng.integers(1, max_dim + 1))
        m = rng.standard_normal((rows, cols))
        if trial % rank_deficient_every == 0 and min(rows, cols) > 1:
            m[-1, :] = m[0, :] * 2.0
        yield m


def test_svd_reconstructs_and_counts_rank():
    """The pseudo-inverse's row-space projector p @ m has trace equal to
    the numerical rank: 4 for a full-rank 6 x 4 matrix, 2 for a sum of
    two outer products."""
    rng = make_rng(3)
    m = rng.standard_normal((6, 4))
    p = pseudo_inverse(m)
    assert np.max(np.abs(m @ p @ m - m)) < 1e-12
    assert np.max(np.abs(p @ m - np.eye(4))) < 1e-12

    low = np.outer(rng.standard_normal(6), rng.standard_normal(5))
    low += np.outer(rng.standard_normal(6), rng.standard_normal(5))
    assert abs(np.trace(pseudo_inverse(low) @ low) - 2.0) < 1e-12


def test_svd_tol_validation_and_nonfinite():
    m = np.eye(3)
    for bad in (0.0, 1.0, -1e-3, 2.0):
        with pytest.raises(ValueError):
            pseudo_inverse(m, tol=bad)
    with pytest.raises(NumericalError):
        pseudo_inverse(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_pseudo_inverse_cuts_singular_values_at_tol_times_the_largest():
    """Singular values 1 and 1e-13: tol = 1e-12 drops the small direction,
    tol = 1e-14 inverts it."""
    rng = make_rng(6)
    u, _ = np.linalg.qr(rng.standard_normal((5, 2)))
    v, _ = np.linalg.qr(rng.standard_normal((4, 2)))
    m = (u * [1.0, 1e-13]) @ v.T
    cut = pseudo_inverse(m, tol=1e-12)
    assert abs(np.trace(cut @ m) - 1.0) < 1e-9
    assert np.max(np.abs(cut - np.outer(v[:, 0], u[:, 0]))) < 1e-9
    kept = pseudo_inverse(m, tol=1e-14)
    assert abs(np.trace(kept @ m) - 2.0) < 1e-2
    assert np.linalg.norm(kept) > 1e12


def test_pseudo_inverse_moore_penrose_conditions():
    rng = make_rng(4)
    worst = 0.0
    for m in random_cases(rng, 60):
        p = pseudo_inverse(m)
        assert p.shape == (m.shape[1], m.shape[0])
        worst = _worst(worst, _worst_abs(
            m @ p @ m - m,
            p @ m @ p - p,
            m @ p - (m @ p).T,
            p @ m - (p @ m).T,
        ))
    assert worst < MP_TOL


def test_pseudo_inverse_known_values():
    # Diagonal: reciprocal of nonzero entries, zero stays zero.
    d = np.diag([2.0, 0.0, 0.5])
    expected = np.diag([0.5, 0.0, 2.0])
    assert np.max(np.abs(pseudo_inverse(d) - expected)) < 1e-14
    # Zero matrix maps to transposed zero matrix.
    assert np.array_equal(pseudo_inverse(np.zeros((3, 5))), np.zeros((5, 3)))
    # Orthogonal rows: pinv is the transpose.
    q = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert np.max(np.abs(pseudo_inverse(q) - q.T)) < 1e-14


def test_pseudo_inverse_involution():
    rng = make_rng(5)
    for m in random_cases(rng, 20):
        assert np.max(np.abs(pseudo_inverse(pseudo_inverse(m)) - m)) < 1e-9


def test_qr_pseudo_inverse_agrees_with_svd_route():
    rng = make_rng(6)
    worst = 0.0
    for m in random_cases(rng, 60):
        worst = _worst(worst, _worst_abs(qr_pseudo_inverse(m, DEFAULT_TOL) - pseudo_inverse(m)))
    assert worst < MP_TOL


def test_qr_pseudo_inverse_fallback_paths():
    # Exact zero (QR's |diag R| is all zero, so the SVD route takes it).
    z = np.zeros((4, 2))
    assert np.array_equal(qr_pseudo_inverse(z, DEFAULT_TOL), np.zeros((2, 4)))
    # Nearly dependent rows (|diag R| spans more than the guard, so the SVD
    # route takes them too).
    rng = make_rng(7)
    base = rng.standard_normal(6)
    m = np.stack([base, base + 1e-13 * rng.standard_normal(6)])
    p = qr_pseudo_inverse(m, DEFAULT_TOL)
    assert np.max(np.abs(m @ p @ m - m)) < 1e-6  # rank-1 treatment, not a blow-up
    assert np.max(np.abs(p)) < 1e3


def test_qr_route_meets_verify_tolerance_on_verify_recipe():
    """3,000 draws of verify's pinv_factors_agreement recipe (shapes up to
    8 x 8, every fourth with a zero row, the first all zero): the steps'
    q @ t stays within verify's 1e-9 of the SVD route."""
    assert pinv_factors_agreement(make_rng(5), 3000) < MP_TOL


def test_as_matrix_refuses_a_vector_or_a_3d_array():
    for shape in ((3,), (2, 3, 4)):
        with pytest.raises(ShapeError, match=f"got ndim={len(shape)}"):
            as_matrix(np.ones(shape))


def test_projector_properties():
    rng = make_rng(8)
    worst = 0.0
    for _ in range(40):
        r = int(rng.integers(1, 5))
        c = int(rng.integers(r, 10))
        a = rng.standard_normal((r, c))
        p_row = row_space_projector(a)
        b = rng.standard_normal((c, r))
        p_col = col_space_projector(b)
        worst = _worst(worst, _worst_abs(
            p_row @ p_row - p_row,
            p_row - p_row.T,
            a @ p_row - a,
            p_col @ p_col - p_col,
            p_col - p_col.T,
            p_col @ b - b,
        ))
    assert worst < PROJ_TOL


def test_projector_of_full_rank_square_is_identity():
    rng = make_rng(9)
    a = rng.standard_normal((4, 4))
    assert np.max(np.abs(row_space_projector(a) - np.eye(4))) < 1e-10


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128, np.longdouble])
def test_as_matrix_refuses_complex_input(dtype):
    """A complex or longdouble matrix raises TypeError naming its dtype,
    with no ComplexWarning first, rather than lose its imaginary part or
    its precision, and strings are not parsed; a real one of another
    dtype that casts safely is converted to float64."""
    if np.dtype(dtype) == np.float64:
        pytest.skip("np.longdouble is float64 on this platform")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError, match=f"got dtype {np.dtype(dtype)}"):
            as_matrix(np.ones((3, 2), dtype=dtype))
        with pytest.raises(TypeError, match="got dtype complex128"):
            as_matrix([[1.0, 2.0 + 0j]])
        with pytest.raises(TypeError, match="got dtype <U3"):
            as_matrix([["1.5", "2"]])
    assert as_matrix(np.ones((3, 2), dtype=np.float32)).dtype == np.float64


def test_make_rng_reproducible():
    a = make_rng(123).standard_normal(5)
    b = make_rng(123).standard_normal(5)
    assert np.array_equal(a, b)
    c = make_rng([123, 1]).standard_normal(5)
    assert not np.array_equal(a, c)


def test_sq_norm_has_the_bits_of_np_sum():
    """_sq_norm calls the reduction np.sum reaches, so it gives
    float(np.sum(x * x)) bit for bit on C- and F-ordered input, on a
    strided row block of a transposed weight, and on a 1 x 1 input."""
    rng = make_rng(37)
    w0 = rng.standard_normal((300, 70))
    cases = {
        "C": rng.standard_normal((64, 300)),
        "F": np.asfortranarray(rng.standard_normal((300, 64))),
        "strided": w0.T[10:40],
        "1x1": np.array([[1.7]]),
    }
    assert not cases["strided"].flags.c_contiguous | cases["strided"].flags.f_contiguous
    for name, x in cases.items():
        assert _sq_norm(x).hex() == float(np.sum(x * x)).hex(), name
