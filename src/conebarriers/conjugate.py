"""Specialized conjugate-gradient oracles g*(r) for all nine cones.

The conjugate gradient is the negated minimizer of ``<r, w> + f(w)`` over the
cone interior.  Each family reduces to a short closed form or to a univariate
root found by a guarded Newton-Raphson iteration:

* log / logdet        — closed form through the Wright omega function.
* hpower              — root of ``h(y) = sum_i alpha_i log(y - p alpha_i)
  - log prod_i r_i**alpha_i`` started at 0 (h is increasing and concave, so
  the iterates increase monotonically to the root).
* hgeom / rtdet       — closed form (equal-weight specialization).
* rpower              — after reducing the radial block to its norm s, the
  positive root of the decreasing convex ``h(y) = a + sum 2 alpha_i
  log1p(c_i / y) - log1p(b / y)`` with ``a = 2 (log s - log cap) < 0``,
  ``c_i = (1 + alpha_i)/(s alpha_i)`` and ``b = 2/s``.  The ``log y`` parts
  of the direct form's logs cancel exactly and are left out (but for a term
  in the weights' rounded sum), so near the dual boundary every term is of
  size o and plain binary64 resolves h.  The start is the larger of two
  proven lower bounds of the root: the equal-weight solution ``y_minus`` and
  a tail-expansion bound that stays tight near the dual boundary.
* rgeom               — closed form (``y_minus`` is the exact root).
* linf / lspec        — negative root of ``h(y) = p y
  + sum_i sqrt(1 + r_i^2 y^2) + 1``.  Close to the dual boundary ``p y``
  nearly cancels the square roots, so each root is split as
  ``|r_i| |y| + e_i`` and the linear parts are gathered into
  ``(p - ||r||_1) y`` with ``p - ||r||_1`` rounded once; what is left is a
  sum of positive terms, accurate in plain binary64.

Each vector family's g*, univariate reduction and closed-form f* form one
record in ``_KERNELS``.  A matrix family runs its vector family's record on
the spectrum of ``R`` (``FamilyRules.lift``) and rotates g* back through the
eigen or singular frames.

:func:`dual_in_interior` is the oracles' own domain check: the dual cone's
inequality (``FamilyRules.dual``) on the spectrum they decompose.  Next to
the boundary a kernel whose own slack rounds to zero or below raises
``NotInteriorError`` too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .barriers import value as barrier_value
from .cones import (
    ConeDescriptor,
    ConeFamily,
    ConePoint,
    NotInteriorError,
    check_shape,
    inner,
    pack,
    unpack,
)
from .linalg import sym_eigen, svd
from .scalars import StopRule, newton_raphson, wright_omega

__all__ = [
    "ConjugateResult",
    "conjugate_gradient",
    "conjugate_value",
    "dual_in_interior",
    "lemma_h",
]

_EPS = np.finfo(float).eps
# below this, the radial block of a dual point is treated as exactly zero
_RADIAL_ZERO_FACTOR = 1e2 * _EPS


@dataclass(frozen=True)
class ConjugateResult:
    """Conjugate gradient with its solve diagnostics.

    ``iterations`` counts Newton-Raphson steps (0 for closed forms) and
    ``residual`` is the optimality violation ``|<g*, r> + nu|``.
    """

    g_star: ConePoint
    iterations: int
    residual: float
    converged: bool


# --------------------------------------------------------------------------
# univariate reductions
# --------------------------------------------------------------------------

def _hpower_h(cone: ConeDescriptor, p, rv: np.ndarray):
    """h(y) = sum alpha_i log(y - p alpha_i) - log phi(r), increasing, concave."""
    alpha = cone.alpha
    log_phi_r = float(np.dot(alpha, np.log(rv)))
    pa = float(p) * alpha
    lo = float(np.max(pa))

    def fn(y: float):
        if y <= lo:
            raise ValueError("hpower reduction: y outside the domain of h")
        t = y - pa
        return float(np.dot(alpha, np.log(t)) - log_phi_r), float(np.sum(alpha / t))

    return fn


def _rpower_reduction(alpha: np.ndarray, s: float, rv: np.ndarray):
    """Decreasing convex h for the radial power cone, s = ||p|| > 0, and a.

    ``h(y) = a + sum 2 alpha_i log1p(c_i / y) - log1p(b / y)
    + 2 delta log(2 y^2)`` with ``a = 2 (log s - log cap)``, ``c_i = (1 +
    alpha_i)/(s alpha_i)``, ``b = 2/s`` and ``delta = sum alpha - 1``: the
    ``log y`` terms of the direct form's logs cancel up to ``delta``, so near
    the root every term is of size o and nothing cancels.  ``delta`` is zero
    in exact arithmetic, but binary64 weights sum to 1 only within an ulp,
    and dropping its term moves the root by up to 1e-2 relative at
    o = 1e-12.
    Returns the (h, h') callback, valid for y > 0, and ``a``.
    """
    a = 2.0 * (math.log(s) - float(np.dot(alpha, np.log(rv / alpha))))
    two_alpha = 2.0 * alpha
    c = (1.0 + alpha) / (s * alpha)
    k = two_alpha * c
    b = 2.0 / s
    two_delta = 2.0 * math.fsum([-1.0] + alpha.tolist())

    def fn(y: float):
        if y <= 0.0:
            raise ValueError("rpower reduction: y must be positive")
        h = (a + float(np.dot(two_alpha, np.log1p(c / y))) - math.log1p(b / y)
             + two_delta * (math.log(2.0) + 2.0 * math.log(y)))
        hp = b / (y * (y + b)) - float(np.sum(k / (y * (y + c)))) + 2.0 * two_delta / y
        return h, hp

    return fn, a


def _rpower_h(cone: ConeDescriptor, p, rv: np.ndarray):
    """The rpower reduction on the norm of the radial block ``p``."""
    _, s, zero = _radial_parts(p, rv)
    if zero:
        raise ValueError("rpower reduction needs a nonzero radial block")
    return _rpower_reduction(cone.alpha, s, rv)[0]


def _linf_reduction(p: float, r: np.ndarray):
    """Cancellation-free h(y) = p y + sum sqrt(1 + r_i^2 y^2) + 1, and its start.

    With a = |r|, t = a |y|, s = sqrt(1 + t^2) and e = 1/(s + t), each root
    is a |y| + e.  For y <= 0 the linear parts sum to delta y, where
    delta = p - ||r||_1 is correctly rounded, so h = delta y + 1 + sum e and
    h' = delta + sum a e / s add only positive terms; zero entries give e = 1.
    Returns the (h, h') callback, valid for every real y, and the Newton start.
    """
    a = np.abs(r)
    delta = math.fsum([p] + (-a).tolist())
    if delta <= 0.0:
        raise NotInteriorError("linf reduction: p - ||r||_1 is not positive")
    p_plus = p + float(np.sum(a))

    def fn(y: float):
        t = a * abs(y)
        s = np.sqrt(1.0 + t * t)
        e = 1.0 / (s + t)
        if y <= 0.0:
            return delta * y + 1.0 + float(np.sum(e)), delta + float(np.dot(a, e / s))
        return p_plus * y + 1.0 + float(np.sum(e)), p + float(np.dot(a, t / s))

    # both candidates bound the negative root from above (each comes from a
    # lower bound on h); the tighter one tracks the root as p approaches
    # ||r||_1, so Newton stays within a few steps at every offset
    y0 = min(-1.0 / delta, -(r.size + 1.0) / p)
    return fn, y0


# --------------------------------------------------------------------------
# per-family conjugate gradients on spectra
# --------------------------------------------------------------------------

def _log_parts(p: float, q: float, rv: np.ndarray):
    d = rv.size
    logs = np.log(-rv / p)
    # the slack of beta over its boundary value is a fine cancellation near
    # the dual boundary; an exact sum keeps it to the accuracy of the logs
    beta = math.fsum([1.0, float(d), -q / p] + logs.tolist()) / d - math.log(d)
    wbar = d * wright_omega(beta)
    if wbar <= 1.0:
        raise NotInteriorError("log conjugate: dual slack wbar - 1 is not positive")
    denom = p * (1.0 - wbar)
    gq = -1.0 / denom
    gr = wbar / (rv * (1.0 - wbar))
    # recover the leading component from <g*, r> = -nu, which it must satisfy
    gp = math.fsum([-float(d) - 2.0, -q * gq] + (-rv * gr).tolist()) / p
    return gp, gq, gr, wbar


def _rgeom_yminus(d2: int, s: float, m: float) -> float:
    # m = prod r_i^alpha_i, phi = m^2; factored denominator avoids squaring
    phi = m * m
    denom = (m * d2 - s) * (m * d2 + s)
    return -1.0 / s + d2 * (s + math.sqrt(phi * ((d2 / s) ** 2 * phi + d2 * d2 - 1.0))) / denom


def _rpower_tail_start(alpha: np.ndarray, s: float, a: float) -> float | None:
    """Second lower bound on the radial-power root from the tail of h.

    With a = h(inf) = 2 log(s / cap) < 0, the bounds log(1+x) <= x and
    log(1+x) >= x - x^2/2 give h(y) >= a + (2 d2 / s) / y - c2 / y^2, whose
    larger root lower-bounds the root of h.  Near the dual boundary this
    bound grows like d2 / (s o) and tracks the true root, where the
    equal-weight start does not.
    """
    if a >= 0.0:
        return None
    d2 = alpha.size
    b = 2.0 * d2 / s
    c2 = float(np.sum((1.0 + alpha) ** 2 / alpha)) / (s * s)
    disc = b * b + 4.0 * a * c2
    if disc <= 0.0:
        return None
    # slack factor: the bound becomes asymptotically exact near the boundary,
    # and a start a few Newton steps below the root keeps the iteration in
    # its monotone regime even when the bound's own rounding is at par with
    # its distance to the root
    return 0.9 * (b + math.sqrt(disc)) / (-2.0 * a)


def _linf_gr(yhat: float, rv: np.ndarray) -> np.ndarray:
    # (sqrt(1 + y^2 r^2) - 1)/r rewritten to avoid cancellation at small y r
    x2 = (yhat * rv) ** 2
    return rv * yhat**2 / (np.sqrt(1.0 + x2) + 1.0)


# --------------------------------------------------------------------------
# vector kernels: (cone, p, q, r) -> (g_p, g_q, g_r, RootResult or None)
# --------------------------------------------------------------------------

def _log_gradient(cone, p, q, rv):
    gp, gq, gr, _ = _log_parts(float(p), float(q), rv)
    return gp, gq, gr, None


def _log_value(p, q, rv) -> float:
    p, d = float(p), rv.size
    wbar = _log_parts(p, float(q), rv)[3]
    return (-2.0 - d - 2.0 * math.log(-p)
            - ((d + 1) * math.log(wbar - 1.0) - d * math.log(wbar))
            - float(np.sum(np.log(rv))))


def _hpower_gradient(cone, p, q, rv):
    p = float(p)
    res = newton_raphson(_hpower_h(cone, p, rv), 0.0, StopRule())
    yhat = res.root
    return -1.0 / p - 1.0 / yhat, None, (p * cone.alpha / yhat - 1.0) / rv, res


def _hgeom_gradient(cone, p, q, rv):
    p = float(p)
    phi = float(np.exp(np.mean(np.log(rv))))
    den = phi + p / rv.size
    if den <= 0.0:
        raise NotInteriorError("hgeom conjugate: dual slack phi + p/d is not positive")
    return -1.0 / p - 1.0 / den, None, -phi / (rv * den), None


def _hgeom_value(p, q, rv) -> float:
    p, d = float(p), rv.size
    phi = float(np.exp(np.mean(np.log(rv))))
    return (-1.0 - d - d * math.log((d * phi + p) / (d * phi))
            - math.log(-p) - float(np.sum(np.log(rv))))


def _radial_parts(p, rv):
    """Radial block as a vector, its norm, and whether it counts as zero."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    s = float(np.linalg.norm(p))
    return p, s, s <= _RADIAL_ZERO_FACTOR * float(np.linalg.norm(np.append(p, rv)))


def _radial_gradient(cone, p, q, rv):
    p, s, zero = _radial_parts(p, rv)
    alpha, res = cone.alpha, None
    if zero:
        gp = np.zeros_like(p)
        gr = -(1.0 + alpha) / rv
    else:
        y_minus = _rgeom_yminus(rv.size, s, float(np.exp(np.dot(alpha, np.log(rv)))))
        if cone.powers is None:
            # equal weights: y_minus is the exact root
            yhat = y_minus
        else:
            fn, a = _rpower_reduction(alpha, s, rv)
            y_tail = _rpower_tail_start(alpha, s, a)
            y0 = y_minus if y_tail is None else max(y_minus, y_tail)
            res = newton_raphson(fn, y0, StopRule())
            yhat = res.root
        gp = yhat * p / s
        gr = -(alpha * (1.0 + s * yhat) + 1.0) / rv
    return (gp if cone.layout.radial else float(gp[0])), None, gr, res


def _linf_gradient(cone, p, q, rv):
    p = float(p)
    if not np.any(rv != 0.0):
        yhat, res = -(rv.size + 1.0) / p, None
    else:
        fn, y0 = _linf_reduction(p, rv)
        res = newton_raphson(fn, y0, StopRule())
        yhat = res.root
    return yhat, None, _linf_gr(yhat, rv), res


@dataclass(frozen=True)
class _Kernel:
    """A vector family's g*, its univariate reduction ``(cone, p, r) ->
    (h, h')`` callback, and its closed-form f*, where these exist."""

    gradient: Callable
    reduction: Callable | None = None
    value: Callable | None = None


_RADIAL = _Kernel(_radial_gradient, _rpower_h)

_KERNELS = {
    ConeFamily.LOG: _Kernel(_log_gradient, value=_log_value),
    ConeFamily.HPOWER: _Kernel(_hpower_gradient, _hpower_h),
    ConeFamily.HGEOM: _Kernel(_hgeom_gradient, _hpower_h, _hgeom_value),
    ConeFamily.RPOWER: _RADIAL,
    ConeFamily.RGEOM: _RADIAL,
    ConeFamily.LINF: _Kernel(_linf_gradient,
                             lambda cone, p, rv: _linf_reduction(float(p), rv)[0]),
}


def _spectral(cone: ConeDescriptor, r: ConePoint):
    """The vector block, or the spectrum of ``R`` with its frames ``(U, V)``."""
    lift = cone.rules.lift
    if lift is None:
        return r.vec, None
    if lift == "eig":
        eig = sym_eigen(r.mat)
        return eig.values, (eig.vectors, eig.vectors)
    dec = svd(r.mat)
    return dec.sigma, (dec.U, dec.V)


def _dual_spectrum(cone: ConeDescriptor, r: ConePoint):
    """``_spectral`` of a strictly interior dual point, decomposed once.

    Membership is tested on the same spectrum the oracle uses; raises
    ``ValueError`` on a malformed point and ``NotInteriorError`` outside the
    open dual cone.
    """
    check_shape(cone, r)
    rv, frames = _spectral(cone, r)
    if not cone.rules.dual(cone, r.epi, r.persp, rv):
        raise NotInteriorError(
            f"dual point is not interior to the {cone.family.value} dual cone"
        )
    return rv, frames


# --------------------------------------------------------------------------
# public oracles
# --------------------------------------------------------------------------

def dual_in_interior(cone: ConeDescriptor, r: ConePoint) -> bool:
    """Strict membership in the open dual cone: whether ``r`` passes the
    conjugate oracles' domain check.

    Boundary points classify as not interior.  A malformed point or a
    non-symmetric matrix block raises ``ValueError``.
    """
    try:
        _dual_spectrum(cone, r)
    except NotInteriorError:
        return False
    return True


def lemma_h(cone: ConeDescriptor, r: ConePoint):
    """Univariate root function (h, h') underlying this cone's conjugate.

    Returns a callback suitable for :func:`conebarriers.scalars.newton_raphson`.
    Only the power and norm families, and their matrix lifts, have such a
    reduction.
    """
    check_shape(cone, r)
    reduction = _KERNELS[cone.rules.vector].reduction
    if reduction is None:
        raise ValueError(f"{cone.family.value}: conjugate gradient needs no root finding")
    rv, _ = _spectral(cone, r)
    return reduction(cone, r.epi, rv)


def conjugate_gradient(cone: ConeDescriptor, r: ConePoint) -> ConjugateResult:
    """Gradient of the conjugate barrier at a strictly interior dual point."""
    rv, frames = _dual_spectrum(cone, r)
    gp, gq, gr, res = _KERNELS[cone.rules.vector].gradient(cone, r.epi, r.persp, rv)
    if frames is None:
        g_star = ConePoint(epi=gp, persp=gq, vec=gr)
    else:
        u, v = frames
        g_star = ConePoint(epi=gp, persp=gq, mat=(u * gr) @ v.T)
    return ConjugateResult(g_star=g_star, iterations=0 if res is None else res.iterations,
                           residual=abs(inner(cone, g_star, r) + cone.nu),
                           converged=res is None or res.converged)


def conjugate_value(cone: ConeDescriptor, r: ConePoint) -> float:
    """Conjugate barrier value f*(r).

    Closed forms exist for the log and geometric-mean families and their
    matrix lifts; every other family evaluates ``-nu - f(-g*(r))``.
    """
    closed = _KERNELS[cone.rules.vector].value
    if closed is None:
        g_star = conjugate_gradient(cone, r).g_star
        return -cone.nu - barrier_value(cone, unpack(cone, -pack(cone, g_star)))
    rv, _ = _dual_spectrum(cone, r)
    return closed(r.epi, r.persp, rv)
