"""Dense linear algebra used by the matrix cones' primal and dual oracles.

Thin wrappers over LAPACK (via numpy, and scipy for Cholesky) that enforce
the contracts the rest of the package relies on: validated symmetry and
descending spectra.  :class:`NonPositiveDefiniteError` is the distinct error
type of a failed Cholesky pivot, raised only by the dense test oracle
below; the generic Newton solver never factorizes and reports a non-finite
local norm as a status, not as this error.

No barrier solves with a Cholesky factorization: every family has a
closed-form inverse Hessian.  The Cholesky routines solve with the dense
Hessians, which serve as test oracles; they call ``dpotrf``/``dpotrs``
directly, the same routines, with the same arguments, as
``scipy.linalg.cho_factor``/``cho_solve``, without the wrappers' per-call
validation overhead.  scipy is imported on the first call: importing
``scipy.linalg`` costs more than half of the package's cold start, and
nothing else in the package uses it.
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

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.T


@dataclass(frozen=True)
class Svd:
    """Thin SVD ``A = U diag(sigma) V^T`` for ``d1 <= d2``.

    ``U`` is ``d1 x d1`` orthogonal, ``V`` is ``d2 x d1`` with orthonormal
    columns, ``sigma`` is nonnegative and descending.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.sigma) @ self.V.T


def sym_eigen(a: np.ndarray) -> SymEigen:
    """Symmetric eigendecomposition with eigenvalues sorted descending."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("sym_eigen: expected a square matrix")
    # eigh reads only the lower triangle, and NaN or inf passes the test below
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        raise ValueError("sym_eigen: matrix is not finite")
    # an exactly symmetric matrix, as generic Newton's iterates are, passes
    # the tolerance test without its two norms
    if not np.logical_and.reduce(a == a.T, axis=None):
        scale = np.linalg.norm(a)
        if np.linalg.norm(a - a.T) > _SYM_TOL * max(scale, 1.0):
            raise ValueError("sym_eigen: matrix is not symmetric")
    values, vectors = np.linalg.eigh(a)
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
    """Cholesky factor of a symmetric positive definite matrix.

    The factor is the lower triangle of the returned array; the strict upper
    triangle is left as LAPACK leaves it.  A failed pivot raises
    :class:`NonPositiveDefiniteError`.
    """
    from scipy.linalg.lapack import dpotrf

    c, info = dpotrf(np.asarray(h, dtype=float), lower=1, clean=0)
    if info > 0:
        raise NonPositiveDefiniteError(
            f"{info}-th leading minor of the array is not positive definite"
        )
    return c


def cholesky_solve(h: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``H x = b`` for symmetric positive definite ``H``."""
    from scipy.linalg.lapack import dpotrs

    x, _ = dpotrs(cholesky_factor(h), np.asarray(b, dtype=float), lower=1)
    return x
