"""Cone descriptors, point containers, and membership tests.

Nine cone families are supported.  Vector families:

* ``log``     — hypograph of the perspective of the sum of logarithms,
  points ``(u, v, w)`` with ``u <= v * sum(log(w / v))``, ``v > 0``, ``w > 0``.
* ``hpower``  — hypograph of the power mean ``prod(w_i ** alpha_i)``.
* ``hgeom``   — ``hpower`` with equal weights ``alpha = e / d``.
* ``rpower``  — radial power cone ``||u|| <= prod(w_i ** alpha_i)`` with a
  ``d1``-dimensional radial block ``u``.
* ``rgeom``   — ``rpower`` with ``d1 = 1`` and equal weights.
* ``linf``    — epigraph of the infinity norm, ``u >= max|w_i|``.

Matrix families (unitarily invariant lifts of the above):

* ``logdet``  — hypograph of the perspective of log-determinant.
* ``rtdet``   — hypograph of the d-th-root determinant.
* ``lspec``   — epigraph of the spectral norm of a ``d1 x d2`` matrix.

A single :class:`ConePoint` container holds both primal and dual points.
Slots pair positionally under the ambient inner product: a primal
``(u, v, w)`` pairs with a dual ``(p, q, r)`` as ``u*p + v*q + <w, r>``.

Inside the package points live as packed float64 vectors
``[epi, persp, vec, mat.ravel()]`` (absent blocks skipped).  Each
descriptor gets its :class:`PackedLayout` at construction, shared with every
descriptor of the same shape; :func:`pack`, :func:`unpack` and the barrier
workspaces read and write blocks through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

__all__ = [
    "ConeFamily",
    "PowerParams",
    "ConeDescriptor",
    "ConePoint",
    "PackedLayout",
    "NotInteriorError",
    "barrier_parameter",
    "in_interior",
    "dual_in_interior",
    "pack",
    "unpack",
    "inner",
]

_ALPHA_SUM_TOL = 1e-12


class NotInteriorError(ValueError):
    """Raised when an oracle is evaluated at a point outside the open cone."""


class ConeFamily(str, Enum):
    LOG = "log"
    LOGDET = "logdet"
    HPOWER = "hpower"
    HGEOM = "hgeom"
    RTDET = "rtdet"
    RPOWER = "rpower"
    RGEOM = "rgeom"
    LINF = "linf"
    LSPEC = "lspec"


# Families whose vector/matrix block must be strictly positive (or PD).
_MATRIX_FAMILIES = (ConeFamily.LOGDET, ConeFamily.RTDET, ConeFamily.LSPEC)
_RADIAL_FAMILIES = (ConeFamily.RPOWER, ConeFamily.RGEOM)


@dataclass(frozen=True)
class PowerParams:
    """Simplex weights for the power cones: ``alpha > 0``, ``sum(alpha) = 1``.

    Weights are validated, never silently renormalized.
    """

    alpha: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("alpha must be a non-empty 1-d vector")
        if not np.all(a > 0.0):
            raise ValueError("every alpha_i must be strictly positive")
        if abs(float(a.sum()) - 1.0) > _ALPHA_SUM_TOL:
            raise ValueError(
                f"alpha must sum to 1 within {_ALPHA_SUM_TOL:g}; got {a.sum()!r}"
            )
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "alpha", a)

    @property
    def d(self) -> int:
        return self.alpha.size


@dataclass(frozen=True)
class PackedLayout:
    """Positions of a point's blocks in its packed ambient vector.

    ``epi`` is the leading block: one scalar, or the ``d1`` radial block of
    ``rpower`` (``radial``).  ``persp`` is an index, ``vec`` and ``mat``
    are slices, and ``mat`` is stored row-major with shape ``mat_shape``.
    """

    size: int
    epi: slice
    radial: bool
    persp: int | None
    vec: slice | None
    mat: slice | None
    mat_shape: tuple[int, int] | None

    def blocks(self, x: np.ndarray):
        """``(epi, persp, vec, mat)`` of a packed vector: scalars as floats,
        arrays as views of ``x``, absent blocks as ``None``."""
        epi = x[self.epi] if self.radial else float(x[0])
        persp = None if self.persp is None else float(x[self.persp])
        vec = None if self.vec is None else x[self.vec]
        mat = None if self.mat is None else x[self.mat].reshape(self.mat_shape)
        return epi, persp, vec, mat

    def join(self, epi, persp=None, vec=None, mat=None) -> np.ndarray:
        """New packed vector from its blocks (inverse of :meth:`blocks`)."""
        x = np.empty(self.size)
        x[self.epi] = epi
        if self.persp is not None:
            x[self.persp] = persp
        if self.vec is not None:
            x[self.vec] = vec
        if self.mat is not None:
            x[self.mat] = np.ravel(mat)
        return x


@lru_cache(maxsize=256)
def _packed_layout(epi_dim: int, radial: bool, has_persp: bool, vec_dim: int,
                   mat_shape: tuple[int, int] | None) -> PackedLayout:
    pos = epi_dim
    persp = vec = mat = None
    if has_persp:
        persp, pos = pos, pos + 1
    if vec_dim:
        vec = slice(pos, pos + vec_dim)
        pos = vec.stop
    if mat_shape is not None:
        mat = slice(pos, pos + mat_shape[0] * mat_shape[1])
        pos = mat.stop
    return PackedLayout(size=pos, epi=slice(0, epi_dim), radial=radial,
                        persp=persp, vec=vec, mat=mat, mat_shape=mat_shape)


@lru_cache(maxsize=64)
def _equal_weights(n: int) -> np.ndarray:
    alpha = np.full(n, 1.0 / n)
    alpha.flags.writeable = False
    return alpha


@dataclass(frozen=True)
class ConeDescriptor:
    """Identifies a cone family together with its dimensions and parameters.

    Use the family-specific constructors (:meth:`log`, :meth:`hpower`, ...)
    rather than filling fields by hand.
    """

    family: ConeFamily
    d: int = 0
    d1: int = 0
    d2: int = 0
    powers: PowerParams | None = field(default=None)
    # block positions in the packed vector, set at construction
    layout: PackedLayout = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fam = self.family
        if fam in (ConeFamily.LOG, ConeFamily.LOGDET, ConeFamily.HGEOM,
                   ConeFamily.RTDET, ConeFamily.LINF):
            if self.d < 1:
                raise ValueError(f"{fam.value}: d must be >= 1")
            if self.powers is not None:
                raise ValueError(f"{fam.value}: takes no power parameters")
        elif fam is ConeFamily.HPOWER:
            if self.powers is None:
                raise ValueError("hpower: power parameters required")
            if self.d != self.powers.d:
                raise ValueError("hpower: d must equal len(alpha)")
        elif fam is ConeFamily.RPOWER:
            if self.powers is None:
                raise ValueError("rpower: power parameters required")
            if self.d1 < 1 or self.d2 < 1:
                raise ValueError("rpower: d1, d2 must be >= 1")
            if self.d2 != self.powers.d:
                raise ValueError("rpower: d2 must equal len(alpha)")
        elif fam is ConeFamily.RGEOM:
            if self.d2 < 1:
                raise ValueError("rgeom: d2 must be >= 1")
            if self.d1 != 1:
                raise ValueError("rgeom: d1 is fixed at 1")
            if self.powers is not None:
                raise ValueError("rgeom: weights are implicitly equal")
        elif fam is ConeFamily.LSPEC:
            if not (1 <= self.d1 <= self.d2):
                raise ValueError("lspec: need 1 <= d1 <= d2")
        else:  # pragma: no cover - exhaustive over the enum
            raise ValueError(f"unknown family {fam!r}")
        object.__setattr__(self, "layout", _packed_layout(
            self.epi_dim, fam is ConeFamily.RPOWER, self.has_persp,
            self.vec_dim, self.mat_shape))

    # ---------------------------------------------------------------- ctors
    @classmethod
    def log(cls, d: int) -> "ConeDescriptor":
        return cls(ConeFamily.LOG, d=d)

    @classmethod
    def logdet(cls, d: int) -> "ConeDescriptor":
        return cls(ConeFamily.LOGDET, d=d)

    @classmethod
    def hpower(cls, alpha) -> "ConeDescriptor":
        powers = alpha if isinstance(alpha, PowerParams) else PowerParams(np.asarray(alpha, float))
        return cls(ConeFamily.HPOWER, d=powers.d, powers=powers)

    @classmethod
    def hgeom(cls, d: int) -> "ConeDescriptor":
        return cls(ConeFamily.HGEOM, d=d)

    @classmethod
    def rtdet(cls, d: int) -> "ConeDescriptor":
        return cls(ConeFamily.RTDET, d=d)

    @classmethod
    def rpower(cls, d1: int, alpha) -> "ConeDescriptor":
        powers = alpha if isinstance(alpha, PowerParams) else PowerParams(np.asarray(alpha, float))
        return cls(ConeFamily.RPOWER, d1=d1, d2=powers.d, powers=powers)

    @classmethod
    def rgeom(cls, d2: int) -> "ConeDescriptor":
        return cls(ConeFamily.RGEOM, d1=1, d2=d2)

    @classmethod
    def linf(cls, d: int) -> "ConeDescriptor":
        return cls(ConeFamily.LINF, d=d)

    @classmethod
    def lspec(cls, d1: int, d2: int) -> "ConeDescriptor":
        return cls(ConeFamily.LSPEC, d1=d1, d2=d2)

    # ----------------------------------------------------------- properties
    @property
    def nu(self) -> float:
        """Barrier parameter of the canonical barrier for this cone."""
        fam = self.family
        if fam in (ConeFamily.LOG, ConeFamily.LOGDET):
            return float(2 + self.d)
        if fam in (ConeFamily.HPOWER, ConeFamily.HGEOM, ConeFamily.RTDET,
                   ConeFamily.LINF):
            return float(1 + self.d)
        if fam in _RADIAL_FAMILIES:
            return float(1 + self.d2)
        return float(1 + self.d1)  # lspec

    @property
    def alpha(self) -> np.ndarray:
        """Read-only simplex weights, materializing the implicit equal weights."""
        fam = self.family
        if fam is ConeFamily.HPOWER or fam is ConeFamily.RPOWER:
            return self.powers.alpha
        if fam is ConeFamily.HGEOM or fam is ConeFamily.RGEOM:
            return _equal_weights(self.vec_dim)
        raise AttributeError(f"{fam.value} has no power parameters")

    @property
    def vec_dim(self) -> int:
        """Length of the vector block (0 for matrix families)."""
        fam = self.family
        if fam in _MATRIX_FAMILIES:
            return 0
        if fam in _RADIAL_FAMILIES:
            return self.d2
        return self.d

    @property
    def mat_shape(self) -> tuple[int, int] | None:
        fam = self.family
        if fam in (ConeFamily.LOGDET, ConeFamily.RTDET):
            return (self.d, self.d)
        if fam is ConeFamily.LSPEC:
            return (self.d1, self.d2)
        return None

    @property
    def has_persp(self) -> bool:
        return self.family in (ConeFamily.LOG, ConeFamily.LOGDET)

    @property
    def epi_dim(self) -> int:
        """Size of the leading scalar/radial block."""
        return self.d1 if self.family is ConeFamily.RPOWER else 1

    @property
    def ambient_dim(self) -> int:
        return self.layout.size


@dataclass(frozen=True)
class ConePoint:
    """Point in a cone's ambient space, shared by primal and dual sides.

    ``epi``   — epigraph/hypograph scalar (``u`` primal, ``p`` dual); for the
    radial power cone this is the length-``d1`` radial block.
    ``persp`` — perspective scalar of the log families (``v`` primal, ``q``
    dual); ``None`` elsewhere.
    ``vec``   — length-``d`` vector block (``w`` primal, ``r`` dual).
    ``mat``   — matrix block of the matrix families (``W`` or ``R``).
    """

    epi: float | np.ndarray
    persp: float | None = None
    vec: np.ndarray | None = None
    mat: np.ndarray | None = None

    def __post_init__(self):
        # points are immutable values: block arrays are private copies with
        # the write flag cleared, so instances are safe to share
        def frozen_copy(x):
            arr = np.array(x, dtype=float)
            arr.flags.writeable = False
            return arr

        if isinstance(self.epi, np.ndarray):
            object.__setattr__(self, "epi", frozen_copy(self.epi))
        else:
            object.__setattr__(self, "epi", float(self.epi))
        if self.vec is not None:
            object.__setattr__(self, "vec", frozen_copy(self.vec))
        if self.mat is not None:
            object.__setattr__(self, "mat", frozen_copy(self.mat))


def check_shape(cone: ConeDescriptor, point: ConePoint) -> None:
    """Raise ``ValueError`` unless ``point`` has this cone's block layout."""
    fam = cone.family
    if fam is ConeFamily.RPOWER:
        epi = np.atleast_1d(np.asarray(point.epi, dtype=float))
        if epi.shape != (cone.d1,):
            raise ValueError(f"rpower: epi block must have shape ({cone.d1},)")
    elif isinstance(point.epi, np.ndarray) and point.epi.shape not in ((), (1,)):
        raise ValueError(f"{fam.value}: epi block must be a scalar")
    if cone.has_persp:
        if point.persp is None:
            raise ValueError(f"{fam.value}: perspective block required")
    elif point.persp is not None:
        raise ValueError(f"{fam.value}: takes no perspective block")
    if cone.vec_dim:
        if point.vec is None or point.vec.shape != (cone.vec_dim,):
            raise ValueError(
                f"{fam.value}: vec block must have shape ({cone.vec_dim},)"
            )
    elif point.vec is not None:
        raise ValueError(f"{fam.value}: takes no vec block")
    shape = cone.mat_shape
    if shape is not None:
        if point.mat is None or point.mat.shape != shape:
            raise ValueError(f"{fam.value}: mat block must have shape {shape}")
    elif point.mat is not None:
        raise ValueError(f"{fam.value}: takes no mat block")


def _epi_scalar(point: ConePoint) -> float:
    e = point.epi
    if isinstance(e, np.ndarray):
        return float(e.reshape(()))
    return float(e)


def _epi_radial(point: ConePoint) -> np.ndarray:
    return np.atleast_1d(np.asarray(point.epi, dtype=float))


def pack(cone: ConeDescriptor, point: ConePoint) -> np.ndarray:
    """Flatten a point into the cone's ambient coordinate vector."""
    check_shape(cone, point)
    return cone.layout.join(point.epi, point.persp, point.vec, point.mat)


def check_packed(cone: ConeDescriptor, x) -> np.ndarray:
    """``x`` as a float vector; ``ValueError`` unless it has the packed length."""
    x = np.asarray(x, dtype=float)
    if x.shape != (cone.layout.size,):
        raise ValueError(f"expected flat vector of length {cone.layout.size}")
    return x


def unpack(cone: ConeDescriptor, x: np.ndarray) -> ConePoint:
    """Inverse of :func:`pack`."""
    # ConePoint copies the block views
    return ConePoint(*cone.layout.blocks(check_packed(cone, x)))


def inner(cone: ConeDescriptor, x: ConePoint, y: ConePoint) -> float:
    """Ambient inner product; matrix blocks contribute ``trace(X^T Y)``."""
    return float(np.dot(pack(cone, x), pack(cone, y)))


def barrier_parameter(cone: ConeDescriptor) -> float:
    """Barrier parameter ``nu``: equals ``<-g(w), w>`` at every interior point."""
    return cone.nu


def _check_symmetric(mat: np.ndarray, what: str) -> None:
    scale = np.linalg.norm(mat)
    if np.linalg.norm(mat - mat.T) > 1e-13 * max(scale, 1.0):
        raise ValueError(f"{what}: matrix block must be symmetric")


def _eigvals_sym(mat: np.ndarray, what: str) -> np.ndarray:
    _check_symmetric(mat, what)
    return np.linalg.eigvalsh(mat)


def in_interior(cone: ConeDescriptor, point: ConePoint) -> bool:
    """Strict membership in the open primal cone.

    Strictness is an exact floating-point inequality on the computed
    quantities; boundary points classify as not interior.
    """
    check_shape(cone, point)
    fam = cone.family
    if fam is ConeFamily.LOG:
        u, v, w = _epi_scalar(point), float(point.persp), point.vec
        if v <= 0.0 or not np.all(w > 0.0):
            return False
        return u < v * float(np.sum(np.log(w)) - w.size * np.log(v))
    if fam is ConeFamily.LOGDET:
        u, v = _epi_scalar(point), float(point.persp)
        lam = _eigvals_sym(point.mat, "logdet")
        if v <= 0.0 or not np.all(lam > 0.0):
            return False
        return u < v * float(np.sum(np.log(lam)) - lam.size * np.log(v))
    if fam in (ConeFamily.HPOWER, ConeFamily.HGEOM):
        u, w = _epi_scalar(point), point.vec
        if not np.all(w > 0.0):
            return False
        return u < float(np.exp(np.dot(cone.alpha, np.log(w))))
    if fam is ConeFamily.RTDET:
        u = _epi_scalar(point)
        lam = _eigvals_sym(point.mat, "rtdet")
        if not np.all(lam > 0.0):
            return False
        return u < float(np.exp(np.mean(np.log(lam))))
    if fam in _RADIAL_FAMILIES:
        u = _epi_radial(point)
        w = point.vec
        if not np.all(w > 0.0):
            return False
        return float(np.linalg.norm(u)) < float(np.exp(np.dot(cone.alpha, np.log(w))))
    if fam is ConeFamily.LINF:
        u, w = _epi_scalar(point), point.vec
        return u > float(np.max(np.abs(w))) if w.size else u > 0.0
    # lspec
    u = _epi_scalar(point)
    smax = float(np.linalg.norm(point.mat, 2))
    return u > smax


def dual_in_interior(cone: ConeDescriptor, point: ConePoint) -> bool:
    """Strict membership in the open dual cone."""
    check_shape(cone, point)
    fam = cone.family
    if fam is ConeFamily.LOG:
        p, q, r = _epi_scalar(point), float(point.persp), point.vec
        if p >= 0.0 or not np.all(r > 0.0):
            return False
        return q > p * float(np.sum(np.log(-r / p))) + p * r.size
    if fam is ConeFamily.LOGDET:
        p, q = _epi_scalar(point), float(point.persp)
        lam = _eigvals_sym(point.mat, "logdet dual")
        if p >= 0.0 or not np.all(lam > 0.0):
            return False
        return q > p * float(np.sum(np.log(-lam / p))) + p * lam.size
    if fam in (ConeFamily.HPOWER, ConeFamily.HGEOM):
        p, r = _epi_scalar(point), point.vec
        if p >= 0.0 or not np.all(r > 0.0):
            return False
        alpha = cone.alpha
        return -p < float(np.exp(np.dot(alpha, np.log(r / alpha))))
    if fam is ConeFamily.RTDET:
        p = _epi_scalar(point)
        lam = _eigvals_sym(point.mat, "rtdet dual")
        if p >= 0.0 or not np.all(lam > 0.0):
            return False
        return -p < lam.size * float(np.exp(np.mean(np.log(lam))))
    if fam in _RADIAL_FAMILIES:
        p = _epi_radial(point)
        r = point.vec
        if not np.all(r > 0.0):
            return False
        alpha = cone.alpha
        return float(np.linalg.norm(p)) < float(np.exp(np.dot(alpha, np.log(r / alpha))))
    if fam is ConeFamily.LINF:
        p, r = _epi_scalar(point), point.vec
        return p > float(np.sum(np.abs(r)))
    # lspec: dual is the epigraph of the nuclear norm
    p = _epi_scalar(point)
    sigma = np.linalg.svd(point.mat, compute_uv=False)
    return p > float(np.sum(sigma))
