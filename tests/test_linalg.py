"""Pseudo-inverse, projector, and reshaping invariants, checked against
brute-force oracles on randomly drawn matrices."""

import numpy as np
import pytest

from flatlora.linalg import (
    NumericalError,
    ShapeError,
    col_space_projector,
    frobenius_norm,
    make_rng,
    matrixize,
    pseudo_inverse,
    row_space_projector,
    svd,
    vectorize,
)
from flatlora.optimizers import gram_pseudo_inverse

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


def test_frobenius_norm_is_root_of_squared_sum():
    rng = make_rng(1)
    m = rng.standard_normal((5, 7))
    expected = np.sqrt(np.trace(m.T @ m))
    assert abs(frobenius_norm(m) - expected) < 1e-12
    assert frobenius_norm(np.zeros((3, 3))) == 0.0


def test_vectorize_row_major_and_roundtrip():
    m = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    v = vectorize(m)
    assert v.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    back = matrixize(v, 2, 3)
    assert np.array_equal(back, m)
    rng = make_rng(2)
    for _ in range(10):
        r, c = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        m = rng.standard_normal((r, c))
        assert np.array_equal(matrixize(vectorize(m), r, c), m)


def test_vectorize_copy_does_not_alias():
    m = np.ones((2, 2))
    v = vectorize(m)
    v[0] = 99.0
    assert m[0, 0] == 1.0


def test_matrixize_rejects_bad_length():
    with pytest.raises(ShapeError):
        matrixize(np.zeros(5), 2, 3)
    with pytest.raises(ShapeError):
        matrixize(np.zeros((2, 3)), 2, 3)


def test_svd_reconstructs_and_counts_rank():
    rng = make_rng(3)
    m = rng.standard_normal((6, 4))
    res = svd(m)
    rebuilt = (res.u * res.singular_values) @ res.v_t
    assert np.max(np.abs(rebuilt - m)) < 1e-12
    assert res.numerical_rank == 4

    # A matrix assembled from 2 outer products has numerical rank 2.
    low = np.outer(rng.standard_normal(6), rng.standard_normal(5))
    low += np.outer(rng.standard_normal(6), rng.standard_normal(5))
    assert svd(low).numerical_rank == 2


def test_svd_tol_validation_and_nonfinite():
    m = np.eye(3)
    for bad in (0.0, 1.0, -1e-3, 2.0):
        with pytest.raises(ValueError):
            svd(m, tol=bad)
    with pytest.raises(NumericalError):
        svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_pseudo_inverse_moore_penrose_conditions():
    rng = make_rng(4)
    worst = 0.0
    for m in random_cases(rng, 60):
        p = pseudo_inverse(m)
        assert p.shape == (m.shape[1], m.shape[0])
        worst = max(
            worst,
            np.max(np.abs(m @ p @ m - m)),
            np.max(np.abs(p @ m @ p - p)),
            np.max(np.abs(m @ p - (m @ p).T)),
            np.max(np.abs(p @ m - (p @ m).T)),
        )
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


def test_gram_pseudo_inverse_agrees_with_svd_route():
    rng = make_rng(6)
    worst = 0.0
    for m in random_cases(rng, 60):
        worst = max(worst, np.max(np.abs(gram_pseudo_inverse(m) - pseudo_inverse(m))))
    assert worst < MP_TOL


def test_gram_pseudo_inverse_fallback_paths():
    # Exact zero (Cholesky fails outright).
    z = np.zeros((4, 2))
    assert np.array_equal(gram_pseudo_inverse(z), np.zeros((2, 4)))
    # Nearly dependent rows (factorisation succeeds but is not trusted).
    rng = make_rng(7)
    base = rng.standard_normal(6)
    m = np.stack([base, base + 1e-13 * rng.standard_normal(6)])
    p = gram_pseudo_inverse(m)
    assert np.max(np.abs(m @ p @ m - m)) < 1e-6  # rank-1 treatment, not a blow-up
    assert np.max(np.abs(p)) < 1e3


def test_gram_pseudo_inverse_rejects_bad_tol():
    m = make_rng(10).standard_normal((2, 5))
    for bad in (0.0, 1.0, -1e-3):
        with pytest.raises(ValueError):
            gram_pseudo_inverse(m, tol=bad)


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
        worst = max(
            worst,
            np.max(np.abs(p_row @ p_row - p_row)),
            np.max(np.abs(p_row - p_row.T)),
            np.max(np.abs(a @ p_row - a)),
            np.max(np.abs(p_col @ p_col - p_col)),
            np.max(np.abs(p_col - p_col.T)),
            np.max(np.abs(p_col @ b - b)),
        )
    assert worst < PROJ_TOL


def test_projector_of_full_rank_square_is_identity():
    rng = make_rng(9)
    a = rng.standard_normal((4, 4))
    assert np.max(np.abs(row_space_projector(a) - np.eye(4))) < 1e-10


def test_make_rng_reproducible():
    a = make_rng(123).standard_normal(5)
    b = make_rng(123).standard_normal(5)
    assert np.array_equal(a, b)
    c = make_rng([123, 1]).standard_normal(5)
    assert not np.array_equal(a, c)
