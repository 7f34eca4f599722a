"""Dense linear-algebra helpers shared by the model and optimizer layers.

Everything here operates on 2-D float64 numpy arrays.  The pseudo-inverse
and the projectors built from it are the workhorses: low-rank perturbation
transfer depends on Moore-Penrose identities holding to near machine
precision, so the SVD route keeps an explicit singular-value cutoff instead
of trusting defaults.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A matrix is always a 2-D float64 ndarray; a flattened matrix is 1-D.
Matrix = np.ndarray
Vector = np.ndarray

# Seeded PCG64 generator; the only randomness source in the package.
Rng = np.random.Generator

# Relative singular-value cutoff used when callers do not pass their own.
DEFAULT_TOL = 1e-12

# Gradients with Frobenius norm at or below this count as exactly zero for
# normalisation purposes (degenerate perturbation direction).
ZERO_GRAD_EPS = 1e-20


class ShapeError(ValueError):
    """Operand dimensions are incompatible for the requested operation."""


class NumericalError(RuntimeError):
    """A numerical routine produced non-finite values or failed to converge."""


def make_rng(seed) -> Rng:
    """Seeded generator. Same seed, same stream, on every platform."""
    return np.random.default_rng(seed)


def as_matrix(values) -> Matrix:
    """Coerce to a 2-D float64 array, rejecting anything else."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def frobenius_norm(m: Matrix) -> float:
    """sqrt of the sum of squared entries."""
    return float(np.linalg.norm(np.asarray(m, dtype=np.float64)))


def vectorize(m: Matrix) -> Vector:
    """Flatten a matrix to a vector in row-major order (copy)."""
    return as_matrix(m).reshape(-1).copy()


def matrixize(v: Vector, rows: int, cols: int) -> Matrix:
    """Inverse of vectorize: reshape a vector into rows x cols, row-major.

    Raises ShapeError when the length does not factor as rows * cols.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError(f"expected a 1-D vector, got ndim={v.ndim}")
    if v.size != rows * cols:
        raise ShapeError(f"cannot reshape length {v.size} into ({rows}, {cols})")
    return v.reshape(rows, cols).copy()


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD plus the numerical rank at the cutoff used to compute it."""

    u: Matrix
    singular_values: Vector
    v_t: Matrix
    numerical_rank: int


def _check_tol(tol: float) -> float:
    if not (0.0 < tol < 1.0):
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    return tol


def svd(m: Matrix, tol: float = DEFAULT_TOL) -> SvdResult:
    """Thin SVD with singular values at or below tol * sigma_max zeroed.

    The numerical rank is the count of singular values that survive the
    cutoff.  Raises NumericalError if the underlying LAPACK call fails or
    the input contains non-finite entries.
    """
    m = as_matrix(m)
    _check_tol(tol)
    if not np.all(np.isfinite(m)):
        raise NumericalError("svd input contains non-finite entries")
    try:
        u, s, v_t = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"svd failed to converge: {exc}") from exc
    if s.size and s[0] > 0.0:
        cutoff = tol * s[0]
        s = np.where(s > cutoff, s, 0.0)
    rank = int(np.count_nonzero(s))
    return SvdResult(u=u, singular_values=s, v_t=v_t, numerical_rank=rank)


def pseudo_inverse(m: Matrix, tol: float = DEFAULT_TOL) -> Matrix:
    """Moore-Penrose pseudo-inverse via SVD with relative cutoff tol.

    Satisfies, to near machine precision, all four Moore-Penrose
    conditions: m @ p @ m == m, p @ m @ p == p, and both products
    m @ p and p @ m symmetric.  The zero matrix maps to (the transpose
    of) the zero matrix.
    """
    res = svd(m, tol)
    s_inv = np.zeros_like(res.singular_values)
    nz = res.singular_values > 0.0
    s_inv[nz] = 1.0 / res.singular_values[nz]
    return (res.v_t.T * s_inv) @ res.u.T


def row_space_projector(a: Matrix, tol: float = DEFAULT_TOL) -> Matrix:
    """Orthogonal projector a^+ @ a onto the row space of a.

    Idempotent and symmetric; multiplying a row vector of a by it is the
    identity on that vector.
    """
    a = as_matrix(a)
    return pseudo_inverse(a, tol) @ a


def col_space_projector(b: Matrix, tol: float = DEFAULT_TOL) -> Matrix:
    """Orthogonal projector b @ b^+ onto the column space of b."""
    b = as_matrix(b)
    return b @ pseudo_inverse(b, tol)
