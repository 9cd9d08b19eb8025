"""Cone descriptors, family rules and point containers.

Nine cone families are supported.  Vector families:

* ``log``     — hypograph of the perspective of the sum of logarithms,
  points ``(u, v, w)`` with ``u <= v * sum(log(w / v))``, ``v > 0``, ``w > 0``.
* ``hpower``  — hypograph of the power mean ``prod(w_i ** alpha_i)``.
* ``hgeom``   — ``hpower`` with equal weights ``alpha = e / d``.
* ``rpower``  — radial power cone ``||u|| <= prod(w_i ** alpha_i)`` with a
  ``d1``-dimensional radial block ``u``.
* ``rgeom``   — ``rpower`` with ``d1 = 1`` and equal weights.
* ``linf``    — epigraph of the infinity norm, ``u >= max|w_i|``.

Matrix families, the spectral lifts of ``log``, ``hgeom`` and ``linf``:

* ``logdet``  — hypograph of the perspective of log-determinant.
* ``rtdet``   — hypograph of the d-th-root determinant.
* ``lspec``   — epigraph of the spectral norm of a ``d1 x d2`` matrix.

Each family's rules (validation, block shapes, ``nu``, weights, canonical
interior point) are one :class:`FamilyRules` record in ``RULES``.  A matrix
family's record is its vector family's with a ``lift`` that runs the rules
on the eigenvalues or singular values of the matrix block; the oracles and
the sampler lift the same way.  No cone's inequality is written here:
membership is each oracle's own domain check, :func:`~.barriers.in_interior`
in the barrier workspace and :func:`~.conjugate.dual_in_interior` in the g*
kernel.

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

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "ConeFamily",
    "PowerParams",
    "ConeDescriptor",
    "ConePoint",
    "NotInteriorError",
    "barrier_parameter",
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
        if not np.logical_and.reduce(a > 0.0):
            raise ValueError("every alpha_i must be strictly positive")
        if abs(float(np.add.reduce(a)) - 1.0) > _ALPHA_SUM_TOL:
            raise ValueError(
                f"alpha must sum to 1 within {_ALPHA_SUM_TOL:g}; got {np.add.reduce(a)!r}"
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
            x[self.mat] = mat.ravel()
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


# --------------------------------------------------------------------------
# one record per family
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyRules:
    """Everything family-specific about a cone descriptor and its points.

    ``vector`` is the vector family whose rules run; a matrix family's
    ``lift`` runs them on the eigenvalues of a symmetric ``W = U diag(lam)
    U^T`` (``"eig"``) or the singular values of a ``d1 x d2`` (``d1 <= d2``)
    ``W = U diag(sigma) V^T`` (``"svd"``), and a vector result ``g``
    returns as ``U diag(g) V^T``.  ``n``, the length of the vector block or
    spectrum, is the field ``size``; ``dims(n)`` are the dimensions of the
    grid's cone of size ``n``; ``check`` is a ``(predicate, message)`` on
    further dimensions.  ``weights``: ``"given"`` (``powers`` of length
    ``n``), ``"equal"`` (``1/n``) or ``None``.  ``radial``: the leading block
    has length ``d1``.  ``persp`` adds a block and one to ``nu = n + 1``.
    ``canonical`` is the canonical interior point's ``(epi, persp, w_i)``.
    Neither cone's inequality is here: primal membership is the barrier
    workspace's own domain check, and dual membership the domain step of
    the family's g* kernel in :mod:`~.conjugate`.
    """

    vector: ConeFamily
    size: str
    dims: Callable[[int], dict]
    canonical: tuple
    weights: str | None = None
    persp: bool = False
    radial: bool = False
    check: tuple | None = None
    lift: str | None = None


def _dims_d(n: int) -> dict:
    return {"d": n}


def _dims_square(n: int) -> dict:
    return {"d1": n, "d2": n}


_LOG = FamilyRules(ConeFamily.LOG, "d", _dims_d, (-1.0, 1.0, 1.0), persp=True)
_HPOWER = FamilyRules(ConeFamily.HPOWER, "d", _dims_d, (-1.0, None, 1.0), weights="given")
_HGEOM = replace(_HPOWER, vector=ConeFamily.HGEOM, weights="equal")
_RPOWER = FamilyRules(ConeFamily.RPOWER, "d2", _dims_square, (0.0, None, 1.0),
                      weights="given", radial=True,
                      check=(lambda c: c.d1 >= 1, "d1 must be >= 1"))
_LINF = FamilyRules(ConeFamily.LINF, "d", _dims_d, (1.0, None, 0.0))

RULES: dict[ConeFamily, FamilyRules] = {
    ConeFamily.LOG: _LOG,
    ConeFamily.LOGDET: replace(_LOG, lift="eig"),
    ConeFamily.HPOWER: _HPOWER,
    ConeFamily.HGEOM: _HGEOM,
    ConeFamily.RTDET: replace(_HGEOM, lift="eig"),
    ConeFamily.RPOWER: _RPOWER,
    ConeFamily.RGEOM: replace(_RPOWER, vector=ConeFamily.RGEOM, weights="equal",
                              radial=False, dims=lambda n: {"d1": 1, "d2": n},
                              check=(lambda c: c.d1 == 1, "d1 is fixed at 1")),
    ConeFamily.LINF: _LINF,
    ConeFamily.LSPEC: replace(_LINF, size="d1", dims=_dims_square, lift="svd",
                              check=(lambda c: c.d1 <= c.d2, "need 1 <= d1 <= d2")),
}


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
    # the family's rules and the block positions in the packed vector, set
    # at construction
    rules: FamilyRules = field(init=False, repr=False, compare=False)
    layout: PackedLayout = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "family", ConeFamily(self.family))
        object.__setattr__(self, "rules", RULES[self.family])
        rules, name = self.rules, self.family.value
        n = self.spectrum_dim
        if rules.weights == "given":
            if self.powers is None:
                raise ValueError(f"{name}: power parameters required")
            if n != self.powers.d:
                raise ValueError(f"{name}: {rules.size} must equal len(alpha)")
        elif self.powers is not None:
            raise ValueError(f"{name}: takes no power parameters")
        if n < 1:
            raise ValueError(f"{name}: {rules.size} must be >= 1")
        dims = rules.dims(n)
        for dim in ("d", "d1", "d2"):
            if getattr(self, dim) and dim not in dims:
                raise ValueError(f"{name}: takes no {dim}")
        if rules.check is not None and not rules.check[0](self):
            raise ValueError(f"{name}: {rules.check[1]}")
        lift = rules.lift
        mat_shape = None if lift is None else (n, n) if lift == "eig" else (self.d1, self.d2)
        object.__setattr__(self, "layout", _packed_layout(
            self.d1 if rules.radial else 1, rules.radial, rules.persp,
            0 if lift else n, mat_shape))

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
    def spectrum_dim(self) -> int:
        """Length of the vector block, or of the matrix block's spectrum."""
        return getattr(self, self.rules.size)

    @property
    def nu(self) -> float:
        """Barrier parameter of the canonical barrier for this cone."""
        return float(self.spectrum_dim + (2 if self.rules.persp else 1))

    @cached_property
    def alpha(self) -> np.ndarray:
        """Read-only simplex weights, materializing the implicit equal weights."""
        weights = self.rules.weights
        if weights == "given":
            return self.powers.alpha
        if weights == "equal":
            return _equal_weights(self.spectrum_dim)
        raise AttributeError(f"{self.family.value} has no power parameters")

    @cached_property
    def alpha_gap(self) -> float:
        """``1 - sum(alpha)``, nonzero only by the rounding of the weights."""
        return 1.0 - float(np.add.reduce(self.alpha))

    @property
    def mat_shape(self) -> tuple[int, int] | None:
        return self.layout.mat_shape

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
    lay, kind = cone.layout, cone.family
    if lay.radial:
        if np.atleast_1d(point.epi).shape != (lay.epi.stop,):
            raise ValueError(f"{kind.value}: epi block must have shape ({lay.epi.stop},)")
    elif isinstance(point.epi, np.ndarray) and point.epi.shape not in ((), (1,)):
        raise ValueError(f"{kind.value}: epi block must be a scalar")
    if (point.persp is None) != (lay.persp is None):
        raise ValueError(f"{kind.value}: perspective block required" if point.persp is None
                         else f"{kind.value}: takes no perspective block")
    vec = None if lay.vec is None else (lay.vec.stop - lay.vec.start,)
    for what, block, shape in (("vec", point.vec, vec), ("mat", point.mat, lay.mat_shape)):
        if (None if block is None else block.shape) != shape:
            raise ValueError(f"{kind.value}: takes no {what} block" if shape is None
                             else f"{kind.value}: {what} block must have shape {shape}")


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


def canonical_point(cone: ConeDescriptor) -> ConePoint:
    """The family's canonical interior point; a matrix family's has the
    vector family's spectrum on the diagonal."""
    epi, persp, entry = cone.rules.canonical
    if cone.layout.radial:
        epi = np.full(cone.d1, epi)
    if cone.mat_shape is None:
        return ConePoint(epi=epi, persp=persp, vec=np.full(cone.spectrum_dim, entry))
    return ConePoint(epi=epi, persp=persp, mat=entry * np.eye(*cone.mat_shape))
