"""Primal barrier oracles: value, gradient, Hessian action, inverse Hessian.

Each cone family gets a :class:`BarrierWorkspace` subclass that caches the
intermediates shared by the oracles at a fixed interior point (the residual
``zeta`` of the defining inequality, power products, a Cholesky factor or
an SVD).  Workspaces are valid only for the point they were built at.  A
workspace builds only at an interior point; :func:`in_interior` is that
check.

Workspaces take and return packed float64 vectors only (see
:class:`~.cones.PackedLayout`): the base class splits them into blocks, the
family code maps blocks to blocks, and the base class joins the result.
:class:`ConePoint` is converted only at the API edge, in the module-level
functions, which pack their arguments and unpack their results.

A matrix family's workspace is its vector family's with a lift mixin,
which writes its inverse Hessian once, in its frames, for both
``inverse_hessian_apply`` and ``newton_step`` (generic Newton's step and
``lambda^2``; no gradient is lifted and no ``W^-1`` formed for it).
:class:`_DetLift` factors logdet's and rtdet's ``W = L L^T``; its frame is
``M = L^T X L``, and ``W^-1`` serves only the public gradient and Hessian.
rtdet runs hgeom's forms with the equal weights ``1/d``.  lspec's
:class:`_SingularLift` hands ``_prepare`` the singular values and lifts
the Hessian through the frames (Lewis and Sendov, 2001): in the frames'
basis, ``Xt = U^T X V``, it is the vector Hessian on ``(u, diag Xt)`` and
the divided differences of the vector gradient off the diagonal.  The
matrix Hessians act on the full (not symmetrized) matrix space, where
they remain symmetric positive definite.

Every family has a closed-form inverse Hessian operator; none assembles or
factors the dense Hessian, which :meth:`BarrierWorkspace.hessian_dense`
builds from the Hessian action, column by column, as a test oracle only.
- log, hpower and hgeom first eliminate the ``u`` row, which fixes
  ``<grad zeta, y> = -zeta^2 x_u``, and are left with a diagonal plus
  rank-one terms, solved by Sherman-Morrison.
- rpower and rgeom use the form obtained by differentiating the
  conjugate-gradient map.
- linf is an arrowhead matrix, solved in O(d).
- logdet and rtdet are log's and hgeom's eliminations in the frame ``M``:
  ``(M + s I) / c``, four matrix products of order d, and no ``W^-1``.
- lspec's lifted Hessian is block diagonal in the frames' basis, so its
  inverse is the vector inverse on the diagonal and the inverse
  off-diagonal map: four matrix products of order d1, no factorization.

The denominators are sums of positive terms, so the solves stay accurate
next to the boundary, where the dense Hessian is too ill-conditioned to
factor.
"""

from __future__ import annotations

import math
import sys
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
from .linalg import NonPositiveDefiniteError, check_symmetric, cholesky_factor, svd
from .linalg import sym_eigen  # noqa: F401  # wrapped by perfbench/tracer.py

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

    def __new__(cls, cone: ConeDescriptor, x: np.ndarray):
        if cls is BarrierWorkspace:
            cls = BarrierWorkspace._registry[cone.family]
        return object.__new__(cls)

    def __init__(self, cone: ConeDescriptor, x: np.ndarray):
        x = np.array(check_packed(cone, x))
        x.flags.writeable = False
        self.cone = cone
        self.layout = cone.layout
        self.x = x
        self._grad = None
        epi, persp, vec, mat = self.layout.blocks(x)
        w = self._spectrum(vec if mat is None else mat)
        if w is None or not self._prepare(epi, persp, w):
            raise NotInteriorError(f"point is not in the interior of the {cone.family.value} cone")

    # subclasses implement _prepare(epi, persp, w) (w what _spectrum makes
    # of the block, None if not interior), which returns whether the point
    # is interior, value, _grad_parts, and _hessian and _inverse_hessian,
    # which map the blocks (xu, xv, xw) to (yu, yv, yw)

    def _spectrum(self, block: np.ndarray) -> np.ndarray:
        return block

    def _log(self, w: np.ndarray) -> np.ndarray:
        return np.log(w)

    def _lift(self, g: np.ndarray) -> np.ndarray:
        return g

    def _apply(self, op, x: np.ndarray) -> np.ndarray:
        xu, xv, xvec, xmat = self.layout.blocks(check_packed(self.cone, x))
        yu, yv, yb = op(xu, xv, xvec if xmat is None else xmat)
        return self.layout.join(yu, yv, vec=yb, mat=yb)

    def gradient(self) -> np.ndarray:
        if self._grad is None:
            gu, gv, gw = self._grad_parts()
            g = self._lift(gw)
            # join writes only the block the layout has
            self._grad = self.layout.join(gu, gv, vec=g, mat=g)
            self._grad.flags.writeable = False
        return self._grad

    def hessian_apply(self, x: np.ndarray) -> np.ndarray:
        return self._apply(self._hessian, x)

    def inverse_hessian_apply(self, x: np.ndarray) -> np.ndarray:
        return self._apply(self._inverse_hessian, x)

    def newton_step(self, r: np.ndarray) -> tuple[np.ndarray, float]:
        """Newton's step ``H^-1 (g + r)`` for ``<r, w> + f(w)`` and its
        squared local norm ``<g + r, H^-1 (g + r)>``, on packed vectors;
        the matrix families evaluate both in their frames."""
        grad_obj = self.gradient() + r
        step = self.inverse_hessian_apply(grad_obj)
        return step, float(np.dot(grad_obj, step))

    def hessian_dense(self) -> np.ndarray:
        """The Hessian in packed coordinates, assembled column by column
        from the action (a test oracle)."""
        cols = [self._apply(self._hessian, e) for e in np.eye(self.layout.size)]
        return np.stack(cols, axis=1)


class _FrameLift:
    """A matrix family's workspace in its frames: ``_frame(xm)`` maps a
    matrix block to frame blocks ``xf`` with ``<X, Y> = sum_i <xf_i, yf_i>``,
    ``_frame_inverse`` is the inverse Hessian on them and ``_unframe`` maps
    a result back.  A Newton step stays in the frames, where ``_frame(rm,
    gw)`` adds the gradient's matrix block to ``R``'s, never forming it."""

    def _inverse_hessian(self, xu, xv, xm):
        yu, yv, yf = self._frame_inverse(xu, xv, self._frame(xm))
        return yu, yv, self._unframe(yf)

    def newton_step(self, r: np.ndarray) -> tuple[np.ndarray, float]:
        ru, rv, _, rm = self.layout.blocks(check_packed(self.cone, r))
        gu, gv, gw = self._grad_parts()
        xu, xv = gu + ru, None if gv is None else gv + rv
        xf = self._frame(rm, gw)
        yu, yv, yf = self._frame_inverse(xu, xv, xf)
        lam2 = xu * yu + (0.0 if yv is None else xv * yv) + float(sum(map(np.vdot, xf, yf)))
        return self.layout.join(yu, yv, mat=self._unframe(yf)), lam2


class _SingularLift(_FrameLift):
    """Runs the vector workspace on the singular values of
    ``W = L diag(w) R^T`` (``frames = (L, R)``) and lifts its results back.

    In the frames' basis, ``Xt = L^T X R``, the Hessian is the vector
    Hessian on ``(xu, xv, diag Xt)`` and the family's ``_offdiag`` map on
    the other entries, built from the divided differences of the vector
    gradient; when ``R`` has more rows than columns, the rows of the
    complement ``Xc = L^T X (I - R R^T)`` scale by ``_complement``.  The
    parts do not couple, so the inverse is the vector inverse with the
    inverse maps.  The gradient's frame blocks are ``diag(g_w)`` and 0.
    """

    def _spectrum(self, mat: np.ndarray) -> np.ndarray:
        dec = svd(mat)
        self.frames = (dec.U, dec.V)
        return dec.sigma

    def _lift(self, g: np.ndarray) -> np.ndarray:
        left, right = self.frames
        return (left * g) @ right.T

    def _frame(self, xm, gw=None):
        left, right = self.frames
        ax = left.T @ xm
        xt = ax @ right
        xc = (ax - xt @ right.T,) if right.shape[0] > right.shape[1] else ()
        if gw is not None:
            xt.flat[::xt.shape[0] + 1] += gw
        return (xt, *xc)

    def _unframe(self, yf):
        left, right = self.frames
        return left @ sum(yf[1:], yf[0] @ right.T)

    def _hessian(self, xu, xv, xm):
        yu, yv, yf = self._framed(False, xu, xv, self._frame(xm))
        return yu, yv, self._unframe(yf)

    def _frame_inverse(self, xu, xv, xf):
        return self._framed(True, xu, xv, xf)

    def _framed(self, inverse, xu, xv, xf):
        xt, *xc = xf
        # the vector family's operators, past _FrameLift's own inverse
        vector = super(_FrameLift, self)
        vector_op = vector._inverse_hessian if inverse else vector._hessian
        yu, yv, ydiag = vector_op(xu, xv, xt.diagonal())
        yt = self._offdiag(xt, inverse)
        yt.flat[::yt.shape[0] + 1] = ydiag
        return yu, yv, (yt, *(self._complement(inverse)[:, None] * block for block in xc))


class _DetLift(_FrameLift):
    """``W = L L^T``.  logdet and rtdet read ``W`` through ``log det W``
    alone, so the vector family runs on ``w = diag L`` with the logs
    ``2 log L_ii``; a failed pivot means the point is not interior.  The
    frame is ``M = L^T X L`` (``L^-1 Y L^-T`` for a result), where the
    inverse Hessian is ``(M + s I) / c`` with ``(yu, yv, s, c)`` from the
    family's ``_inverse_scalars(xu, xv, tr M)`` and the gradient's block is
    ``-c I``.  ``W^-1`` serves only the public gradient, ``-c W^-1``, and
    Hessian, ``X -> c W^-1 X W^-1 + t W^-1`` with ``(yu, yv, t)`` from
    ``_hessian_scalars(xu, xv, tr W^-1 X)``; subclasses define ``_c``."""

    def _spectrum(self, mat: np.ndarray) -> np.ndarray | None:
        try:
            self.low = cholesky_factor(check_symmetric(mat, "barrier workspace"))
        except NonPositiveDefiniteError:
            return None
        return self.low.diagonal()

    def _log(self, w: np.ndarray) -> np.ndarray:
        return 2.0 * np.log(w)

    @cached_property
    def winv(self) -> np.ndarray:
        linv = np.linalg.inv(self.low)
        return linv.T @ linv

    def _lift(self, _) -> np.ndarray:
        return -self._c() * self.winv

    def _hessian(self, xu, xv, xm):
        ax = self.winv @ xm
        yu, yv, t = self._hessian_scalars(xu, xv, float(ax.trace()))
        return yu, yv, self._c() * (ax @ self.winv) + t * self.winv

    def _frame(self, xm, gw=None):
        m = self.low.T @ xm @ self.low
        if gw is not None:
            m.flat[::m.shape[0] + 1] -= self._c()
        return (m,)

    def _unframe(self, yf):
        return self.low @ (yf[0] @ self.low.T)

    def _frame_inverse(self, xu, xv, xf):
        yu, yv, s, c = self._inverse_scalars(xu, xv, float(xf[0].trace()))
        ym = xf[0] / c
        ym.flat[::ym.shape[0] + 1] += s / c
        return yu, yv, (ym,)


# --------------------------------------------------------------------------
# logarithm cone and log-determinant cone
# --------------------------------------------------------------------------

class _LogW(BarrierWorkspace, family=ConeFamily.LOG):
    """`w` is the vector block or the diagonal of W = L L^T."""

    def _prepare(self, u, v, w):
        self.u, self.v, self.w = u, v, w
        if not (v > 0.0 and np.logical_and.reduce(w > 0.0)):
            return False
        self.slog, self.phi = self._log_sums(w, v)
        self.zeta = v * self.phi - u
        self.sigma = self.phi - w.size
        return math.isfinite(self.zeta) and self.zeta > 0.0

    def _log_sums(self, w, v) -> tuple[float, float]:
        # log prod w and log prod(w / v)
        slog = float(np.add.reduce(self._log(w)))
        return slog, slog - w.size * np.log(v)

    def value(self) -> float:
        return -np.log(self.zeta) - np.log(self.v) - self.slog

    def _grad_parts(self):
        gu = 1.0 / self.zeta
        gv = -self.sigma / self.zeta - 1.0 / self.v
        gw = -(self.v / self.zeta) / self.w - 1.0 / self.w
        return gu, gv, gw

    def _inverse_hessian(self, xu, xv, xw):
        w = self.w
        yu, yv, s, c = self._inverse_scalars(xu, xv, float(np.add.reduce(w * xw)))
        return yu, yv, (w**2 * xw + s * w) / c

    def _inverse_scalars(self, xu, xv, tr):
        # eliminate u; the w block left is c diag(w)^-2 plus rank-one terms,
        # and y_w = (w^2 x_w + s w) / c with tr = <w, x_w>
        v, zeta, sigma, d = self.v, self.zeta, self.sigma, self.w.size
        a = 1.0 / zeta
        c = 1.0 + v * a
        tau = tr + v * d * xu
        yv = (xv + sigma * xu + a * tau / c) / (d * a / (v * c) + 1.0 / v**2)
        yu = sigma * yv + v * (tau + a * d * yv) / c + zeta**2 * xu
        return yu, yv, v * xu + a * yv, c

    def _hessian(self, xu, xv, xw):
        w = self.w
        yu, yv, t = self._hessian_scalars(xu, xv, float(np.add.reduce(xw / w)))
        return yu, yv, t / w + (self.v / self.zeta) * xw / w**2 + xw / w**2

    def _hessian_scalars(self, xu, xv, tr):
        # y_w = t / w + (v / zeta + 1) x_w / w^2 with tr = <1 / w, x_w>
        v, zeta, sigma = self.v, self.zeta, self.sigma
        dzeta = -xu + sigma * xv + v * tr
        dsigma = tr - self.w.size * xv / v
        yu = -dzeta / zeta**2
        yv = -dsigma / zeta + sigma * dzeta / zeta**2 + xv / v**2
        return yu, yv, -(xv / zeta - v * dzeta / zeta**2)


class _LogDetW(_DetLift, _LogW, family=ConeFamily.LOGDET):
    def _c(self) -> float:
        return self.v / self.zeta + 1.0

    def _log_sums(self, w, v) -> tuple[float, float]:
        # log det(W / v) from the ratios L_ii / sqrt(v), of order one: the
        # difference log det W - d log v cancels, and v times its rounding is
        # zeta's largest error.  Ratios past the normal range fall back to it
        root = math.sqrt(v)
        if (float(np.minimum.reduce(w)) / root >= sys.float_info.min
                and float(np.maximum.reduce(w)) / root < math.inf):
            phi = 2.0 * float(np.add.reduce(np.log(w / root)))
            return phi + w.size * np.log(v), phi
        return super()._log_sums(w, v)


# --------------------------------------------------------------------------
# hypograph power cone, geometric mean cone, root-determinant cone
# --------------------------------------------------------------------------

class _HPowerW(BarrierWorkspace, family=(ConeFamily.HPOWER, ConeFamily.HGEOM)):
    def _prepare(self, u, _, w):
        self.u, self.w = u, w
        self.alpha = self.cone.alpha
        if not np.logical_and.reduce(w > 0.0):
            return False
        self.lw = self._log(w)
        self.phi = float(np.exp(np.dot(self.alpha, self.lw)))
        self.zeta = self.phi - u
        # an infinite w_i or u makes zeta infinite
        return math.isfinite(self.zeta) and self.zeta > 0.0

    def value(self) -> float:
        return -np.log(self.zeta) - float(np.add.reduce(self.lw))

    def _grad_parts(self):
        gw = -(self.phi / self.zeta) * self.alpha / self.w - 1.0 / self.w
        return 1.0 / self.zeta, None, gw

    def _hessian(self, xu, _, xw):
        w, alpha, phi, zeta = self.w, self.alpha, self.phi, self.zeta
        dphi = phi * float(np.dot(alpha, xw / w))
        dzeta = -xu + dphi
        dk = dphi / zeta - phi * dzeta / zeta**2
        yw = -alpha * dk / w + (phi / zeta) * alpha * xw / w**2 + xw / w**2
        return -dzeta / zeta**2, None, yw

    def _inverse_hessian(self, xu, _, xw):
        # eliminate u: <grad zeta, y> = -zeta^2 xu leaves D - (phi/zeta) a a^T
        # with a = alpha/w and D^{-1} = w^2/k1, solved by Sherman-Morrison
        # with a denominator k3 that is a sum of positive terms
        w, alpha, phi, zeta = self.w, self.alpha, self.phi, self.zeta
        a = alpha / w
        k1 = 1.0 + (phi / zeta) * alpha
        dinv_a = alpha * w / k1
        dinv_b = (w**2 / k1) * (xw + (phi * xu) * a)
        k3 = float(np.add.reduce(alpha / k1)) + self.cone.alpha_gap
        yw = dinv_b + ((phi / zeta) * float(np.dot(a, dinv_b)) / k3) * dinv_a
        yu = zeta**2 * xu + phi * float(np.dot(a, yw))
        return yu, None, yw


class _RtDetW(_DetLift, _HPowerW, family=ConeFamily.RTDET):
    # hgeom's forms with the equal weights 1/d, where its Sherman-Morrison
    # terms are multiples of W and its denominator k3 is 1 / c
    def _c(self) -> float:
        return self.phi / (self.w.size * self.zeta) + 1.0

    def _hessian_scalars(self, xu, _, tr):
        phi, zeta, d = self.phi, self.zeta, self.w.size
        dphi = phi * tr / d
        dzeta = -xu + dphi
        return -dzeta / zeta**2, None, -(dphi / zeta - phi * dzeta / zeta**2) / d

    def _inverse_scalars(self, xu, _, tr):
        phi, zeta, d, c = self.phi, self.zeta, self.w.size, self._c()
        s = (phi / d) * (xu + (tr + phi * xu) / (zeta * d))
        return zeta**2 * xu + phi * (tr + s * d) / (d * c), None, s, c

# --------------------------------------------------------------------------
# radial power cone
# --------------------------------------------------------------------------

class _RPowerW(BarrierWorkspace, family=(ConeFamily.RPOWER, ConeFamily.RGEOM)):
    # the radial block is read and written as a vector, also for rgeom
    def _prepare(self, u, _, w):
        self.u, self.w = np.atleast_1d(u), w
        self.alpha = self.cone.alpha
        self.nrm2 = float(np.dot(self.u, self.u))
        if not np.logical_and.reduce(w > 0.0):
            return False
        self.lw = np.log(w)
        self.phi = float(np.exp(2.0 * np.dot(self.alpha, self.lw)))
        self.zeta = self.phi - self.nrm2
        if not (math.isfinite(self.zeta) and self.zeta > 0.0):
            return False
        # the w block of the gradient, which the inverse Hessian reuses
        self.gw = -2.0 * self.alpha * self.phi / (w * self.zeta) - (1.0 - self.alpha) / w
        return True

    def value(self) -> float:
        return -np.log(self.zeta) - float(np.dot(1.0 - self.alpha, self.lw))

    def _grad_parts(self):
        return 2.0 * self.u / self.zeta, None, self.gw

    def _hessian(self, xu, _, xw):
        xu = np.atleast_1d(xu)
        u, w, alpha, phi, zeta = self.u, self.w, self.alpha, self.phi, self.zeta
        dphi = 2.0 * phi * float(np.dot(alpha, xw / w))
        dzeta = dphi - 2.0 * float(np.dot(u, xu))
        out_u = 2.0 * xu / zeta - 2.0 * u * dzeta / zeta**2
        dk = dphi / zeta - phi * dzeta / zeta**2
        out_w = (-2.0 * alpha * dk / w
                 + 2.0 * alpha * phi * xw / (zeta * w**2)
                 + (1.0 - alpha) * xw / w**2)
        return out_u, None, out_w

    def _inverse_hessian(self, xu, _, z):
        # closed form derived by differentiating the conjugate-gradient map
        xu = np.atleast_1d(xu)
        u, w, alpha, phi, zeta = self.u, self.w, self.alpha, self.phi, self.zeta
        gw = self.gw
        k1 = phi + self.nrm2
        k2 = float(np.add.reduce(alpha**2 / (w * gw)))
        k3 = k1 / (2.0 * phi) + 2.0 * k2 * self.nrm2 / zeta
        xu_u = float(np.dot(xu, u))
        s = float(np.add.reduce(alpha * z / gw))
        out_u = 0.5 * zeta * xu - (u / k3) * (((2.0 * k2 * phi + zeta * k3) / k1) * xu_u + s)
        out_w = -(w / gw) * z - (alpha / (k3 * gw)) * (xu_u - (2.0 * self.nrm2 / zeta) * s)
        return out_u, None, out_w


# --------------------------------------------------------------------------
# infinity norm cone and spectral norm cone
# --------------------------------------------------------------------------

class _LInfW(BarrierWorkspace, family=ConeFamily.LINF):
    def _prepare(self, u, _, w):
        self.u, self.w = u, w
        self.zi = u**2 - w**2
        return 0.0 < u < math.inf and np.logical_and.reduce(self.zi > 0.0)

    def value(self) -> float:
        return -float(np.add.reduce(np.log(self.zi))) + (self.w.size - 1) * np.log(self.u)

    def _grad_parts(self):
        d = self.w.size
        gu = (d - 1) / self.u - 2.0 * self.u * float(np.add.reduce(1.0 / self.zi))
        return gu, None, 2.0 * self.w / self.zi

    def _hessian(self, xu, _, xw):
        u, w, zi = self.u, self.w, self.zi
        d = w.size
        dz = 2.0 * u * xu - 2.0 * w * xw
        out_u = -(d - 1) * xu / u**2 - float(np.add.reduce(2.0 * xu / zi - 2.0 * u * dz / zi**2))
        return out_u, None, 2.0 * xw / zi - 2.0 * w * dz / zi**2

    def _inverse_hessian(self, xu, _, xw):
        # an arrowhead: diagonal 2 q / zi^2 (q = u^2 + w^2) bordered by the
        # u row -4 u w / zi^2, whose Schur complement is the sum of positive
        # terms (1 + sum(zi / q)) / u^2
        u, w, zi = self.u, self.w, self.zi
        q = u * u + w * w
        e = 2.0 * u * w / q
        yu = u * u * (xu + float(np.dot(e, xw))) / (1.0 + float(np.add.reduce(zi / q)))
        return yu, None, zi**2 * xw / (2.0 * q) + e * yu


class _LSpecW(_SingularLift, _LInfW, family=ConeFamily.LSPEC):
    def _offdiag(self, xt: np.ndarray, inverse: bool) -> np.ndarray:
        # (Xt_ij, Xt_ji) -> (2 / (z_i z_j)) [[u^2, s_i s_j], [s_i s_j, u^2]],
        # inverted with 2 (u^2 - s_i s_j) = z_i + z_j + (s_i - s_j)^2, free of
        # cancellation
        u2, s, zi = self.u * self.u, self.w, self.zi
        ss = s[:, None] * s
        if inverse:
            gap2 = zi[:, None] + zi + (s[:, None] - s)**2
            return zi[:, None] * zi * (u2 * xt - ss * xt.T) / (gap2 * (u2 + ss))
        return 2.0 * (u2 * xt + ss * xt.T) / (zi[:, None] * zi)

    def _complement(self, inverse: bool) -> np.ndarray:
        # the Hessian is X -> 2 T X there, T = (u^2 I - W W^T)^{-1}
        return 0.5 * self.zi if inverse else 2.0 / self.zi


# --------------------------------------------------------------------------
# module-level wrappers
# --------------------------------------------------------------------------

def _workspace(cone: ConeDescriptor, point: ConePoint) -> BarrierWorkspace:
    return BarrierWorkspace(cone, pack(cone, point))


def in_interior(cone: ConeDescriptor, point: ConePoint) -> bool:
    """Strict membership in the open primal cone: whether the barrier
    workspace builds at ``point``.

    Boundary points classify as not interior.  A malformed point or a
    non-symmetric matrix block raises ``ValueError``.
    """
    try:
        _workspace(cone, point)
    except NotInteriorError:
        return False
    return True


def value(cone: ConeDescriptor, point: ConePoint) -> float:
    """Barrier value ``f(point)``; raises away from the interior."""
    return _workspace(cone, point).value()


def gradient(cone: ConeDescriptor, point: ConePoint) -> ConePoint:
    """Barrier gradient ``g(point)``."""
    return unpack(cone, _workspace(cone, point).gradient())


def hessian_apply(cone: ConeDescriptor, point: ConePoint, x: ConePoint) -> ConePoint:
    """Hessian action ``H(point) x`` (exact, not finite differenced)."""
    return unpack(cone, _workspace(cone, point).hessian_apply(pack(cone, x)))


def inverse_hessian_apply(cone: ConeDescriptor, point: ConePoint, x: ConePoint) -> ConePoint:
    """Inverse Hessian action ``H(point)^{-1} x``."""
    return unpack(cone, _workspace(cone, point).inverse_hessian_apply(pack(cone, x)))


def hessian_dense(cone: ConeDescriptor, point: ConePoint) -> np.ndarray:
    """Dense Hessian in packed ambient coordinates (a test oracle)."""
    return _workspace(cone, point).hessian_dense()
