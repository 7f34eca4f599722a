"""Dense linear-algebra helpers shared by the model and optimizer layers.

Everything here operates on 2-D float64 numpy arrays.  The pseudo-inverse
and the projectors built from it are the workhorses: low-rank perturbation
transfer depends on Moore-Penrose identities holding to near machine
precision, so the SVD route keeps an explicit singular-value cutoff instead
of trusting defaults.
"""

from __future__ import annotations

import numpy as np

# A matrix is always a 2-D float64 ndarray.
Matrix = np.ndarray
_FLOAT64 = np.dtype(np.float64)

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


def _check_real(dtype: np.dtype, what: str) -> None:
    """The one dtype rule for an array the package takes in: it casts
    safely to float64 (bool, integers, floats up to 64 bits), else
    TypeError naming the dtype.  Complex, longdouble, string, object and
    datetime arrays would lose their imaginary part or precision, or be
    parsed, on the way to float64.  A float64 dtype costs one comparison."""
    if dtype != _FLOAT64 and not np.can_cast(dtype, _FLOAT64):
        raise TypeError(f"{what} must be real, got dtype {dtype}, which does "
                        "not cast safely to float64")


def as_matrix(values) -> Matrix:
    """Coerce to a 2-D float64 array, rejecting anything else: a dtype
    that does not cast safely to float64 raises TypeError (_check_real)
    rather than lose its imaginary part or precision, or be parsed."""
    m = np.asarray(values)
    _check_real(m.dtype, "matrix")
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def _sq_norm(x: np.ndarray) -> float:
    """Squared Frobenius norm by numpy's pairwise sum (the bits of
    np.sum(x * x)), the package's one norm: a BLAS dot splits long
    vectors across threads, so its last bits would follow the thread count.
    np.add.reduce is the reduction ndarray.sum() reaches, called without
    the Python frame numpy puts in front of it."""
    return float(np.add.reduce(x * x, axis=None))


def _worst(*values: float) -> float:
    """The largest value, NaN when any is NaN: the builtin max keeps a
    number against a NaN that comes after it, so a NaN residual or
    measurement reduced through it would read as a clean one."""
    return float(np.max(values))


def _worst_abs(*diffs: np.ndarray) -> float:
    return _worst(*(np.max(np.abs(d)) for d in diffs))


def _check_tol(tol: float) -> float:
    if not (0.0 < tol < 1.0):
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    return tol


def pseudo_inverse(m: Matrix, tol: float = DEFAULT_TOL) -> Matrix:
    """Moore-Penrose pseudo-inverse via a thin SVD with relative cutoff tol.

    Singular values at or below tol * sigma_max count as zero.  Satisfies,
    to near machine precision, all four Moore-Penrose conditions:
    m @ p @ m == m, p @ m @ p == p, and both products m @ p and p @ m
    symmetric.  The zero matrix maps to (the transpose of) the zero
    matrix.  Raises NumericalError if the input contains non-finite
    entries or the LAPACK call fails.
    """
    m = as_matrix(m)
    _check_tol(tol)
    if not np.all(np.isfinite(m)):
        raise NumericalError("svd input contains non-finite entries")
    try:
        u, s, v_t = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"svd failed to converge: {exc}") from exc
    s_inv = np.zeros_like(s)
    if s.size and s[0] > 0.0:
        kept = s > tol * s[0]
        s_inv[kept] = 1.0 / s[kept]
    return (v_t.T * s_inv) @ u.T


def row_space_projector(a: Matrix) -> Matrix:
    """Orthogonal projector a^+ @ a onto the row space of a, with a^+ cut
    at DEFAULT_TOL.

    Idempotent and symmetric; multiplying a row vector of a by it is the
    identity on that vector.
    """
    a = as_matrix(a)
    return pseudo_inverse(a) @ a


def col_space_projector(b: Matrix) -> Matrix:
    """Orthogonal projector b @ b^+ onto the column space of b, with b^+
    cut at DEFAULT_TOL."""
    b = as_matrix(b)
    return b @ pseudo_inverse(b)
