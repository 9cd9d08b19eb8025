"""Primal barrier oracles: value, gradient, Hessian action, inverse Hessian.

Each cone family gets a :class:`BarrierWorkspace` subclass that caches the
intermediates shared by the oracles at a fixed interior point (the residual
``zeta`` of the defining inequality, power products, eigen or singular value
decompositions).  Workspaces are valid only for the point they were built at.
A workspace builds only at an interior point; :func:`in_interior` is that
check.

Workspaces work in packed coordinates (see :class:`~.cones.PackedLayout`):
the family code reads blocks as views of packed float64 vectors and returns
packed vectors.  :class:`ConePoint` is converted only at the API edge, in
the base class: a workspace built from a ``ConePoint``, or an oracle called
with one, returns ``ConePoint`` results.

A matrix family's workspace is its vector family's with a lift mixin
(:class:`_EigenLift`, :class:`_SingularLift`) that hands ``_prepare`` the
spectrum in place of the vector block and rotates the gradient back, so only
the Hessians are written per matrix family; rtdet runs hgeom's weighted
forms on the eigenvalues, with the equal weights ``1/d``.  The matrix
Hessians act on the full (not symmetrized) matrix space, where they remain
symmetric positive definite; applied to symmetric directions they agree with
the lifted vector-cone Hessians.

Every family has a closed-form inverse Hessian operator; none assembles or
factors the dense Hessian, which serves as a test oracle only.
- log, logdet, rtdet, hpower and hgeom first eliminate the ``u`` row, which
  fixes ``<grad zeta, y> = -zeta^2 x_u``.  For logdet and rtdet what is
  left is ``c kron(T, T)`` (``T = W^{-1}``) plus rank-one terms, and
  ``kron(T, T)^{-1} = kron(W, W)``, so the solve is ``X -> W X W / c`` plus
  scalar corrections; log is logdet with ``W = diag(w)``.  hpower and hgeom
  are left with a diagonal minus a rank-one term, solved by
  Sherman-Morrison.
- rpower and rgeom use the form obtained by differentiating the
  conjugate-gradient map.
- linf is an arrowhead matrix, solved in O(d).  lspec rotates into the
  singular basis ``U^T X V``, where the Hessian splits into the linf
  arrowhead on the diagonal, 2x2 blocks on the off-diagonal pairs and
  ``2 T`` on the complement of ``V``: four matrix products of size
  ``d1 x d2`` instead of a factorization of order ``d1 d2 + 1``.

The denominators are sums of positive terms, so the solves stay accurate
next to the boundary, where the dense Hessian is too ill-conditioned to
factor.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .cones import (
    ConeDescriptor,
    ConeFamily,
    ConePoint,
    NotInteriorError,
    check_packed,
    pack,
    unpack,
)
from .linalg import sym_eigen, svd
from .linalg import cholesky_factor  # noqa: F401  # wrapped by perfbench/tracer.py

__all__ = [
    "BarrierWorkspace",
    "in_interior",
    "value",
    "gradient",
    "hessian_apply",
    "inverse_hessian_apply",
    "hessian_dense",
]


class BarrierWorkspace:
    """Cached oracle intermediates at one interior point of one cone."""

    _registry: dict[ConeFamily, type] = {}

    def __init_subclass__(cls, family=None, **kwargs):
        super().__init_subclass__(**kwargs)
        if family is not None:
            families = family if isinstance(family, tuple) else (family,)
            for fam in families:
                BarrierWorkspace._registry[fam] = cls

    def __new__(cls, cone: ConeDescriptor, point: ConePoint | np.ndarray):
        if cls is BarrierWorkspace:
            cls = BarrierWorkspace._registry[cone.family]
        return object.__new__(cls)

    def __init__(self, cone: ConeDescriptor, point: ConePoint | np.ndarray):
        self._as_points = isinstance(point, ConePoint)
        x = pack(cone, point) if self._as_points else np.array(check_packed(cone, point))
        x.flags.writeable = False
        self.cone = cone
        self.layout = cone.layout
        self.x = x
        self._grad = None
        self._dense = None
        epi, persp, vec, mat = self.layout.blocks(x)
        # the point's vector or matrix block
        self.block = vec if mat is None else mat
        self._prepare(epi, persp, self._spectrum(self.block))
        if not self._interior():
            raise NotInteriorError(
                f"point is not in the interior of the {cone.family.value} cone"
            )

    # subclasses implement _prepare(epi, persp, w) (w the vector block or
    # spectrum)/_interior/value/_grad_parts/_hessian_apply/
    # _inverse_hessian_apply/_hessian_dense on packed vectors; the public
    # oracles below are the ConePoint edge

    def _spectrum(self, block: np.ndarray) -> np.ndarray:
        return block

    def _lift(self, g: np.ndarray) -> np.ndarray:
        return g

    def _gradient(self) -> np.ndarray:
        gu, gv, gw = self._grad_parts()
        g = self._lift(gw)
        # join writes only the block the layout has
        return self.layout.join(gu, gv, vec=g, mat=g)

    @property
    def point(self) -> ConePoint:
        """The evaluation point as a new :class:`ConePoint`."""
        return unpack(self.cone, self.x)

    def _apply(self, op, x):
        if isinstance(x, ConePoint):
            return unpack(self.cone, op(pack(self.cone, x)))
        y = op(check_packed(self.cone, x))
        return unpack(self.cone, y) if self._as_points else y

    def gradient(self):
        if self._grad is None:
            self._grad = self._gradient()
            self._grad.flags.writeable = False
        return unpack(self.cone, self._grad) if self._as_points else self._grad

    def hessian_apply(self, x):
        return self._apply(self._hessian_apply, x)

    def inverse_hessian_apply(self, x):
        return self._apply(self._inverse_hessian_apply, x)

    def hessian_dense(self) -> np.ndarray:
        if self._dense is None:
            self._dense = self._hessian_dense()
        return self._dense


class _EigenLift:
    """Runs the vector workspace on the eigenvalues ``W = U diag(lam) U^T``."""

    def _spectrum(self, mat: np.ndarray) -> np.ndarray:
        self.eig = sym_eigen(mat)
        return self.eig.values

    def _lift(self, g: np.ndarray) -> np.ndarray:
        u = self.eig.vectors
        return (u * g) @ u.T

    @cached_property
    def _winv(self) -> np.ndarray:
        u = self.eig.vectors
        return (u / self.eig.values) @ u.T


class _SingularLift:
    """Runs the vector workspace on the singular values
    ``W = U diag(sigma) V^T``."""

    def _spectrum(self, mat: np.ndarray) -> np.ndarray:
        self.svd = svd(mat)
        return self.svd.sigma

    def _lift(self, g: np.ndarray) -> np.ndarray:
        return (self.svd.U * g) @ self.svd.V.T


# --------------------------------------------------------------------------
# logarithm cone and log-determinant cone
# --------------------------------------------------------------------------

class _LogW(BarrierWorkspace, family=ConeFamily.LOG):
    """`w` is the vector block or eig(W), `block` is w or W, and `_wxw`
    applies X -> W X W."""

    def _prepare(self, u, v, w):
        self.u, self.v, self.w = u, v, w
        self.slog = float(np.sum(np.log(w))) if np.all(w > 0.0) else np.nan
        self.phi = self.slog - w.size * np.log(v) if v > 0.0 else np.nan
        self.zeta = v * self.phi - u if v > 0.0 else np.nan
        self.sigma = self.phi - w.size

    def _interior(self) -> bool:
        return (self.v > 0.0 and np.all(self.w > 0.0)
                and np.isfinite(self.zeta) and self.zeta > 0.0)

    def value(self) -> float:
        return -np.log(self.zeta) - np.log(self.v) - self.slog

    def _grad_parts(self):
        gu = 1.0 / self.zeta
        gv = -self.sigma / self.zeta - 1.0 / self.v
        gw = -(self.v / self.zeta) / self.w - 1.0 / self.w
        return gu, gv, gw

    def _inverse_hessian_apply(self, x: np.ndarray) -> np.ndarray:
        # eliminate u; the W block left is c kron(T, T) (T = W^{-1}) plus
        # rank-one terms, and c kron(T, T) is inverted by X -> W X W / c
        xu, xv, xvec, xmat = self.layout.blocks(x)
        xb = xvec if xmat is None else xmat
        wb, v, zeta, sigma, d = self.block, self.v, self.zeta, self.sigma, self.w.size
        a = 1.0 / zeta
        c = 1.0 + v * a
        tau = float(np.sum(wb * xb)) + v * d * xu
        yv = (xv + sigma * xu + a * tau / c) / (d * a / (v * c) + 1.0 / v**2)
        yb = (self._wxw(xb) + (v * xu + a * yv) * wb) / c
        yu = sigma * yv + v * (tau + a * d * yv) / c + zeta**2 * xu
        return self.layout.join(yu, yv, vec=yb, mat=yb)

    def _wxw(self, xw: np.ndarray) -> np.ndarray:
        return self.w**2 * xw

    def _uv_rows(self, xu, xv, tr):
        # d(zeta) and the u, v rows of H x, with tr = <W^{-1}, X>
        v, zeta, sigma = self.v, self.zeta, self.sigma
        dzeta = -xu + sigma * xv + v * tr
        dsigma = tr - self.w.size * xv / v
        return dzeta, -dzeta / zeta**2, -dsigma / zeta + sigma * dzeta / zeta**2 + xv / v**2

    def _hessian_apply(self, x: np.ndarray) -> np.ndarray:
        xu, xv, xw, _ = self.layout.blocks(x)
        v, w, zeta = self.v, self.w, self.zeta
        dzeta, out_u, out_v = self._uv_rows(xu, xv, float(np.sum(xw / w)))
        out_w = (-(xv / zeta - v * dzeta / zeta**2) / w
                 + (v / zeta) * xw / w**2 + xw / w**2)
        return self.layout.join(out_u, out_v, out_w)

    def _hessian_dense(self) -> np.ndarray:
        v, w, zeta = self.v, self.w, self.zeta
        xi = np.concatenate(([-1.0, self.sigma], v / w))
        h = np.outer(xi, xi) / zeta**2
        h[1, 1] += w.size / (v * zeta) + 1.0 / v**2
        h[1, 2:] -= 1.0 / (zeta * w)
        h[2:, 1] -= 1.0 / (zeta * w)
        idx = np.arange(2, 2 + w.size)
        h[idx, idx] += v / (zeta * w**2) + 1.0 / w**2
        return h


class _LogDetW(_EigenLift, _LogW, family=ConeFamily.LOGDET):
    def _hessian_apply(self, x: np.ndarray) -> np.ndarray:
        xu, xv, _, xm = self.layout.blocks(x)
        v, zeta = self.v, self.zeta
        t = self._winv
        tx = t @ xm
        dzeta, out_u, out_v = self._uv_rows(xu, xv, float(np.trace(tx)))
        c = v / zeta + 1.0
        dc = xv / zeta - v * dzeta / zeta**2
        out_m = -dc * t + c * (tx @ t)
        return self.layout.join(out_u, out_v, mat=out_m)

    def _wxw(self, xm: np.ndarray) -> np.ndarray:
        return self.block @ xm @ self.block

    def _hessian_dense(self) -> np.ndarray:
        v, zeta, sigma, d = self.v, self.zeta, self.sigma, self.w.size
        t = self._winv
        vt = t.ravel()
        n = 2 + d * d
        h = np.empty((n, n))
        h[0, 0] = 1.0 / zeta**2
        h[0, 1] = h[1, 0] = -sigma / zeta**2
        h[0, 2:] = h[2:, 0] = -v * vt / zeta**2
        h[1, 1] = sigma**2 / zeta**2 + d / (v * zeta) + 1.0 / v**2
        h[1, 2:] = h[2:, 1] = (sigma * v / zeta**2 - 1.0 / zeta) * vt
        # W block: (v^2/zeta^2) vec(T) vec(T)^T + (v/zeta + 1) T (.) T
        h[2:, 2:] = (v / zeta)**2 * np.outer(vt, vt) \
            + (v / zeta + 1.0) * np.kron(t, t)
        return h


# --------------------------------------------------------------------------
# hypograph power cone, geometric mean cone, root-determinant cone
# --------------------------------------------------------------------------

class _HPowerW(BarrierWorkspace, family=(ConeFamily.HPOWER, ConeFamily.HGEOM)):
    def _prepare(self, u, _, w):
        self.u, self.w = u, w
        self.alpha = self.cone.alpha
        if np.all(w > 0.0):
            self.lw = np.log(w)
            self.phi = float(np.exp(np.dot(self.alpha, self.lw)))
            self.zeta = self.phi - u
        else:
            self.zeta = np.nan

    def _interior(self) -> bool:
        return np.all(self.w > 0.0) and self.zeta > 0.0

    def value(self) -> float:
        return -np.log(self.zeta) - float(np.sum(self.lw))

    def _grad_parts(self):
        gw = -(self.phi / self.zeta) * self.alpha / self.w - 1.0 / self.w
        return 1.0 / self.zeta, None, gw

    def _hessian_apply(self, x: np.ndarray) -> np.ndarray:
        xu, _, xw, _ = self.layout.blocks(x)
        w, alpha, phi, zeta = self.w, self.alpha, self.phi, self.zeta
        dphi = phi * float(np.dot(alpha, xw / w))
        dzeta = -xu + dphi
        out_u = -dzeta / zeta**2
        dk = dphi / zeta - phi * dzeta / zeta**2
        out_w = -alpha * dk / w + (phi / zeta) * alpha * xw / w**2 + xw / w**2
        return self.layout.join(out_u, vec=out_w)

    def _hessian_dense(self) -> np.ndarray:
        w, alpha, phi, zeta = self.w, self.alpha, self.phi, self.zeta
        xi = np.concatenate(([-1.0], alpha * phi / w))
        h = np.outer(xi, xi) / zeta**2
        aw = alpha / w
        h[1:, 1:] -= (phi / zeta) * np.outer(aw, aw)
        idx = np.arange(1, 1 + w.size)
        h[idx, idx] += alpha * phi / (zeta * w**2) + 1.0 / w**2
        return h

    def _inverse_hessian_apply(self, x: np.ndarray) -> np.ndarray:
        # eliminate u: <grad zeta, y> = -zeta^2 xu leaves D - (phi/zeta) a a^T
        # with a = alpha/w and D^{-1} = w^2/k1, solved by Sherman-Morrison
        # with a denominator k3 that is a sum of positive terms
        xu, _, xw, _ = self.layout.blocks(x)
        w, alpha, phi, zeta = self.w, self.alpha, self.phi, self.zeta
        a = alpha / w
        k1 = 1.0 + (phi / zeta) * alpha
        dinv_a = alpha * w / k1
        dinv_b = (w**2 / k1) * (xw + (phi * xu) * a)
        k3 = float(np.sum(alpha / k1)) + (1.0 - float(np.sum(alpha)))
        yw = dinv_b + ((phi / zeta) * float(np.dot(a, dinv_b)) / k3) * dinv_a
        yu = zeta**2 * xu + phi * float(np.dot(a, yw))
        return self.layout.join(yu, vec=yw)


class _RtDetW(_EigenLift, _HPowerW, family=ConeFamily.RTDET):
    def _hessian_apply(self, x: np.ndarray) -> np.ndarray:
        xu, _, _, xm = self.layout.blocks(x)
        phi, zeta, d = self.phi, self.zeta, self.w.size
        t = self._winv
        tx = t @ xm
        dphi = (phi / d) * float(np.trace(tx))
        dzeta = -xu + dphi
        out_u = -dzeta / zeta**2
        c = phi / (d * zeta) + 1.0
        dc = dphi / (d * zeta) - phi * dzeta / (d * zeta**2)
        out_m = -dc * t + c * (tx @ t)
        return self.layout.join(out_u, mat=out_m)

    def _inverse_hessian_apply(self, x: np.ndarray) -> np.ndarray:
        xu, _, _, xm = self.layout.blocks(x)
        phi, zeta, d = self.phi, self.zeta, self.w.size
        # eliminate u, then invert c kron(T, T) by X -> W X W / c
        w = self.block
        a = 1.0 / zeta
        c = 1.0 + a * phi / d
        beta = a * phi / d**2
        k = (phi / d) * xu
        tau = float(np.sum(w * xm)) + d * k
        ym = (w @ xm @ w + (k + beta * tau) * w) / c
        yu = (phi / d) * tau + zeta**2 * xu
        return self.layout.join(yu, mat=ym)

    def _hessian_dense(self) -> np.ndarray:
        phi, zeta, d = self.phi, self.zeta, self.w.size
        t = self._winv
        vt = t.ravel()
        n = 1 + d * d
        h = np.empty((n, n))
        h[0, 0] = 1.0 / zeta**2
        h[0, 1:] = h[1:, 0] = -(phi / d) * vt / zeta**2
        # W block couples through d(phi) = (phi/d) tr(T X) and dT = -T X T
        h[1:, 1:] = (phi * self.u / (d**2 * zeta**2)) * np.outer(vt, vt) \
            + (phi / (d * zeta) + 1.0) * np.kron(t, t)
        return h


# --------------------------------------------------------------------------
# radial power cone
# --------------------------------------------------------------------------

class _RPowerW(BarrierWorkspace, family=(ConeFamily.RPOWER, ConeFamily.RGEOM)):
    # the radial block is read and written as a vector, also for rgeom
    def _prepare(self, u, _, w):
        self.u, self.w = np.atleast_1d(u), w
        self.alpha = self.cone.alpha
        self.nrm2 = float(np.dot(self.u, self.u))
        if np.all(w > 0.0):
            self.lw = np.log(w)
            self.phi = float(np.exp(2.0 * np.dot(self.alpha, self.lw)))
            self.zeta = self.phi - self.nrm2
        else:
            self.zeta = np.nan

    def _interior(self) -> bool:
        return np.all(self.w > 0.0) and self.zeta > 0.0

    def value(self) -> float:
        return -np.log(self.zeta) - float(np.dot(1.0 - self.alpha, self.lw))

    def _gw(self) -> np.ndarray:
        return (-2.0 * self.alpha * self.phi / (self.w * self.zeta)
                - (1.0 - self.alpha) / self.w)

    def _grad_parts(self):
        return 2.0 * self.u / self.zeta, None, self._gw()

    def _hessian_apply(self, x: np.ndarray) -> np.ndarray:
        xu, xw = x[self.layout.epi], x[self.layout.vec]
        u, w, alpha, phi, zeta = self.u, self.w, self.alpha, self.phi, self.zeta
        dphi = 2.0 * phi * float(np.dot(alpha, xw / w))
        dzeta = dphi - 2.0 * float(np.dot(u, xu))
        out_u = 2.0 * xu / zeta - 2.0 * u * dzeta / zeta**2
        dk = dphi / zeta - phi * dzeta / zeta**2
        out_w = (-2.0 * alpha * dk / w
                 + 2.0 * alpha * phi * xw / (zeta * w**2)
                 + (1.0 - alpha) * xw / w**2)
        return self.layout.join(out_u, vec=out_w)

    def _hessian_dense(self) -> np.ndarray:
        u, w, alpha, phi, zeta = self.u, self.w, self.alpha, self.phi, self.zeta
        d1 = u.size
        xi = np.concatenate((-2.0 * u, 2.0 * alpha * phi / w))
        h = np.outer(xi, xi) / zeta**2
        iu = np.arange(d1)
        h[iu, iu] += 2.0 / zeta
        aw = alpha / w
        h[d1:, d1:] -= (4.0 * phi / zeta) * np.outer(aw, aw)
        iw = np.arange(d1, d1 + w.size)
        h[iw, iw] += 2.0 * alpha * phi / (zeta * w**2) + (1.0 - alpha) / w**2
        return h

    def _inverse_hessian_apply(self, x: np.ndarray) -> np.ndarray:
        # closed form derived by differentiating the conjugate-gradient map
        xu, z = x[self.layout.epi], x[self.layout.vec]
        u, w, alpha, phi, zeta = self.u, self.w, self.alpha, self.phi, self.zeta
        gw = self._gw()
        k1 = phi + self.nrm2
        k2 = float(np.sum(alpha**2 / (w * gw)))
        k3 = k1 / (2.0 * phi) + 2.0 * k2 * self.nrm2 / zeta
        xu_u = float(np.dot(xu, u))
        s = float(np.sum(alpha * z / gw))
        out_u = 0.5 * zeta * xu - (u / k3) * (((2.0 * k2 * phi + zeta * k3) / k1) * xu_u + s)
        out_w = -(w / gw) * z - (alpha / (k3 * gw)) * (xu_u - (2.0 * self.nrm2 / zeta) * s)
        return self.layout.join(out_u, vec=out_w)


# --------------------------------------------------------------------------
# infinity norm cone and spectral norm cone
# --------------------------------------------------------------------------

def _norm_arrowhead(u: float, s: np.ndarray, zi: np.ndarray, xu: float,
                    xs: np.ndarray) -> tuple[float, np.ndarray]:
    """u row of the linf Hessian, or of lspec's in the singular basis.

    The Hessian restricted to ``(u, s)`` (``s = w`` or the singular values,
    ``zi = u^2 - s^2``, ``q = u^2 + s^2``) is an arrowhead: diagonal
    ``2 q / zi^2`` bordered by the u row ``-4 u s / zi^2``.  Its Schur
    complement is the sum of positive terms ``(1 + sum(zi / q)) / u^2``.
    Returns ``y_u`` and the coupling ``e = 2 u s / q``; the diagonal part
    of the solution is ``zi^2 xs / (2 q) + e y_u``.
    """
    q = u * u + s * s
    e = 2.0 * u * s / q
    yu = u * u * (xu + float(np.dot(e, xs))) / (1.0 + float(np.sum(zi / q)))
    return yu, e


class _LInfW(BarrierWorkspace, family=ConeFamily.LINF):
    def _prepare(self, u, _, w):
        self.u, self.w = u, w
        self.zi = u**2 - w**2

    def _interior(self) -> bool:
        return self.u > 0.0 and np.all(self.zi > 0.0)

    def value(self) -> float:
        return -float(np.sum(np.log(self.zi))) + (self.w.size - 1) * np.log(self.u)

    def _grad_parts(self):
        d = self.w.size
        gu = (d - 1) / self.u - 2.0 * self.u * float(np.sum(1.0 / self.zi))
        return gu, None, 2.0 * self.w / self.zi

    def _hessian_apply(self, x: np.ndarray) -> np.ndarray:
        xu, _, xw, _ = self.layout.blocks(x)
        u, w, zi = self.u, self.w, self.zi
        d = w.size
        dz = 2.0 * u * xu - 2.0 * w * xw
        out_u = -(d - 1) * xu / u**2 - float(np.sum(2.0 * xu / zi - 2.0 * u * dz / zi**2))
        out_w = 2.0 * xw / zi - 2.0 * w * dz / zi**2
        return self.layout.join(out_u, vec=out_w)

    def _hessian_dense(self) -> np.ndarray:
        u, w, zi = self.u, self.w, self.zi
        d = w.size
        h = np.zeros((1 + d, 1 + d))
        h[0, 0] = -(d - 1) / u**2 + float(np.sum(2.0 * (u**2 + w**2) / zi**2))
        h[0, 1:] = -4.0 * u * w / zi**2
        h[1:, 0] = h[0, 1:]
        idx = np.arange(1, 1 + d)
        h[idx, idx] = 2.0 * (u**2 + w**2) / zi**2
        return h

    def _inverse_hessian_apply(self, x: np.ndarray) -> np.ndarray:
        xu, _, xw, _ = self.layout.blocks(x)
        u, w, zi = self.u, self.w, self.zi
        yu, e = _norm_arrowhead(u, w, zi, xu, xw)
        yw = zi**2 * xw / (2.0 * (u * u + w * w)) + e * yu
        return self.layout.join(yu, vec=yw)


class _LSpecW(_SingularLift, _LInfW, family=ConeFamily.LSPEC):
    def _hess_parts(self):
        # T = (u^2 I - W W^T)^{-1} from the left singular basis, the u-u
        # entry of the Hessian, T^2 W and T W
        uu, zi, u = self.svd.U, self.zi, self.u
        t = (uu / zi) @ uu.T
        huu = (-2.0 * float(np.sum(1.0 / zi)) - (self.w.size - 1) / u**2
               + 4.0 * u**2 * float(np.sum(1.0 / zi**2)))
        return t, huu, (uu * (self.w / zi**2)) @ self.svd.V.T, t @ self.block

    def _hessian_apply(self, x: np.ndarray) -> np.ndarray:
        xu, _, _, xm = self.layout.blocks(x)
        u, w = self.u, self.block
        t, huu, t2w, tw = self._hess_parts()
        out_u = huu * xu - 4.0 * u * float(np.sum(t2w * xm))
        out_m = -4.0 * u * xu * (t @ tw) \
            + 2.0 * t @ (xm @ w.T + w @ xm.T) @ tw + 2.0 * t @ xm
        return self.layout.join(out_u, mat=out_m)

    def _hessian_dense(self) -> np.ndarray:
        u, w = self.u, self.block
        d1, d2 = w.shape
        t, huu, t2w, tw = self._hess_parts()
        n = 1 + d1 * d2
        h = np.empty((n, n))
        h[0, 0] = huu
        h[0, 1:] = h[1:, 0] = -4.0 * u * t2w.ravel()
        # row-major operator forms of X -> 2T X (W^T T W), 2(TW) X^T (TW), 2T X
        wtw = w.T @ tw
        block = np.kron(2.0 * t, wtw) + np.kron(2.0 * t, np.eye(d2))
        block += 2.0 * np.einsum("ik,lj->ijlk", tw, tw).reshape(n - 1, n - 1)
        h[1:, 1:] = block
        return h

    def _inverse_hessian_apply(self, x: np.ndarray) -> np.ndarray:
        # in the singular basis, Xt = U^T X V, the Hessian splits into the
        # linf arrowhead on (u, diag Xt), 2x2 blocks
        # (2 / (z_i z_j)) [[u^2, s_i s_j], [s_i s_j, u^2]] on (Xt_ij, Xt_ji),
        # and X -> 2 T X on the complement X (I - V V^T) when d1 < d2
        xu, _, _, xm = self.layout.blocks(x)
        u, zi = self.u, self.zi
        uu, s, vv = self.svd.U, self.svd.sigma, self.svd.V
        ax = uu.T @ xm
        xt = ax @ vv
        u2 = u * u
        ss = np.outer(s, s)
        # u^2 - s_i s_j without cancellation; zi^2 / (2 q) on the diagonal
        gap = 0.5 * (zi[:, None] + zi[None, :] + (s[:, None] - s[None, :])**2)
        yt = np.outer(zi, zi) * (u2 * xt - ss * xt.T) / (2.0 * gap * (u2 + ss))
        yu, e = _norm_arrowhead(u, s, zi, xu, np.diagonal(xt))
        yt[np.diag_indices_from(yt)] += e * yu
        if vv.shape[0] > vv.shape[1]:
            # U [Yt V^T + diag(zi) U^T X (I - V V^T) / 2]
            half = 0.5 * zi[:, None]
            ym = uu @ ((yt - half * xt) @ vv.T + half * ax)
        else:
            ym = uu @ yt @ vv.T
        return self.layout.join(yu, mat=ym)


# --------------------------------------------------------------------------
# module-level wrappers
# --------------------------------------------------------------------------

def in_interior(cone: ConeDescriptor, point: ConePoint) -> bool:
    """Strict membership in the open primal cone: whether the barrier
    workspace builds at ``point``.

    Boundary points classify as not interior.  A malformed point or a
    non-symmetric matrix block raises ``ValueError``.
    """
    try:
        BarrierWorkspace(cone, point)
    except NotInteriorError:
        return False
    return True


def value(cone: ConeDescriptor, point: ConePoint) -> float:
    """Barrier value ``f(point)``; raises away from the interior."""
    return BarrierWorkspace(cone, point).value()


def gradient(cone: ConeDescriptor, point: ConePoint) -> ConePoint:
    """Barrier gradient ``g(point)``."""
    return BarrierWorkspace(cone, point).gradient()


def hessian_apply(cone: ConeDescriptor, point: ConePoint, x: ConePoint) -> ConePoint:
    """Hessian action ``H(point) x`` (exact, not finite differenced)."""
    return BarrierWorkspace(cone, point).hessian_apply(x)


def inverse_hessian_apply(cone: ConeDescriptor, point: ConePoint, x: ConePoint) -> ConePoint:
    """Inverse Hessian action ``H(point)^{-1} x``."""
    return BarrierWorkspace(cone, point).inverse_hessian_apply(x)


def hessian_dense(cone: ConeDescriptor, point: ConePoint) -> np.ndarray:
    """Dense Hessian in packed ambient coordinates (for tests and factorization)."""
    return BarrierWorkspace(cone, point).hessian_dense()
