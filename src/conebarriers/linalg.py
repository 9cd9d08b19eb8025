"""Dense linear algebra used by the matrix cones' primal and dual oracles.

Thin wrappers over numpy's LAPACK routines that enforce the contracts the
rest of the package relies on: validated symmetry (:func:`check_symmetric`,
shared by the eigendecomposition and the logdet and rtdet workspaces'
Cholesky factor of ``W``) and descending spectra.
:class:`NonPositiveDefiniteError` is the distinct error type of a failed
Cholesky pivot; those workspaces read it as "not interior", and the
generic Newton solver never sees it and reports a non-finite local norm as
a status.

No barrier factors its Hessian: every family has a closed-form inverse
Hessian.  :func:`cholesky_solve` solves with the dense Hessians, which
serve as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SymEigen",
    "Svd",
    "NonPositiveDefiniteError",
    "sym_eigen",
    "svd",
    "cholesky_solve",
]

_SYM_TOL = 1e-13


class NonPositiveDefiniteError(ArithmeticError):
    """A Cholesky pivot failed; only :func:`cholesky_factor` raises it."""


@dataclass(frozen=True)
class SymEigen:
    """Eigendecomposition ``A = U diag(values) U^T`` with descending values."""

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class Svd:
    """Thin SVD ``A = U diag(sigma) V^T`` for ``d1 <= d2``.

    ``U`` is ``d1 x d1`` orthogonal, ``V`` is ``d2 x d1`` with orthonormal
    columns, ``sigma`` is nonnegative and descending.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray


def check_symmetric(a: np.ndarray, caller: str) -> np.ndarray:
    """``a`` as floats if finite, square and symmetric, else ``ValueError``."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{caller}: expected a square matrix")
    # eigh and cholesky read one triangle, and NaN or inf passes the test below
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        raise ValueError(f"{caller}: matrix is not finite")
    # an exactly symmetric matrix, as generic Newton's iterates are, passes
    # the tolerance test without its two norms; the test is relative at
    # every scale, since a skew part of absolute size below 1e-13 is no
    # rounding error in a matrix of size 1e-14
    if not np.logical_and.reduce(a == a.T, axis=None):
        if np.linalg.norm(a - a.T) > _SYM_TOL * np.linalg.norm(a):
            raise ValueError(f"{caller}: matrix is not symmetric")
    return a


def sym_eigen(a: np.ndarray) -> SymEigen:
    """Symmetric eigendecomposition with eigenvalues sorted descending."""
    values, vectors = np.linalg.eigh(check_symmetric(a, "sym_eigen"))
    return SymEigen(values=values[::-1].copy(), vectors=vectors[:, ::-1].copy())


def svd(a: np.ndarray) -> Svd:
    """Thin SVD of a ``d1 x d2`` matrix with ``d1 <= d2``."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("svd: expected a matrix")
    d1, d2 = a.shape
    if d1 > d2:
        raise ValueError("svd: requires d1 <= d2")
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        raise ValueError("svd: matrix is not finite")
    u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    return Svd(U=u, sigma=sigma, V=vt.T.copy())


def cholesky_factor(h: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    numpy reads only the lower triangle of ``h`` and returns a clean lower
    triangle, zeros above the diagonal.  A failed pivot raises
    :class:`NonPositiveDefiniteError`.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("cholesky_factor: expected a square matrix")
    try:
        return np.linalg.cholesky(h)
    except np.linalg.LinAlgError as e:
        raise NonPositiveDefiniteError(str(e)) from e


def cholesky_solve(h: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``H x = b`` for symmetric positive definite ``H``."""
    # numpy has no triangular solver: two general solves with the factor
    c = cholesky_factor(h)
    return np.linalg.solve(c.T, np.linalg.solve(c, np.asarray(b, dtype=float)))
