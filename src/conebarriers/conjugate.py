"""Specialized conjugate-gradient oracles g*(r) for all nine cones.

The conjugate gradient is the negated minimizer of ``<r, w> + f(w)`` over the
cone interior.  Each family reduces to a short closed form or to a univariate
root found by a guarded Newton-Raphson iteration:

* log / logdet        — closed form through the Wright omega function.
* hpower              — root of ``h(y) = sum_i alpha_i log(y - p alpha_i)
  - log prod_i r_i**alpha_i`` started at 0 (h is increasing and concave, so
  the iterates increase monotonically to the root).
* hgeom / rtdet       — closed form (equal-weight specialization).
* rpower              — after reducing the radial block to its norm, the
  positive root of the decreasing convex ``h`` below, started at the larger
  of two proven lower bounds of the root: the equal-weight solution
  ``y_minus`` and a tail-expansion bound that stays tight near the dual
  boundary.
* rgeom               — closed form (``y_minus`` is the exact root).
* linf / lspec        — negative root of ``h(y) = p y
  + sum_i sqrt(1 + r_i^2 y^2) + 1``.  Close to the dual boundary ``p y``
  nearly cancels the square roots, so each root is split as
  ``|r_i| |y| + e_i`` and the linear parts are gathered into
  ``(p - ||r||_1) y`` with ``p - ||r||_1`` rounded once; what is left is a
  sum of positive terms, accurate in plain binary64.

Matrix families reuse the vector procedures on the spectrum and lift the
result back through the eigenvector or singular-vector frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .barriers import value as barrier_value
from .cones import (
    ConeDescriptor,
    ConeFamily,
    ConePoint,
    NotInteriorError,
    check_shape,
    dual_in_interior,
    inner,
    pack,
    unpack,
)
from .linalg import sym_eigen, svd
from .scalars import RootResult, StopRule, newton_raphson, wright_omega

__all__ = [
    "ConjugateResult",
    "conjugate_gradient",
    "conjugate_value",
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


def _require_dual_interior(cone: ConeDescriptor, r: ConePoint) -> None:
    if not dual_in_interior(cone, r):
        raise NotInteriorError(
            f"dual point is not interior to the {cone.family.value} dual cone"
        )


def _negate(cone: ConeDescriptor, point: ConePoint) -> ConePoint:
    return unpack(cone, -pack(cone, point))


# --------------------------------------------------------------------------
# univariate reductions
# --------------------------------------------------------------------------

def _hpower_h(alpha: np.ndarray, p: float, log_phi_r: float):
    """h(y) = sum alpha_i log(y - p alpha_i) - log phi(r), increasing, concave."""
    pa = p * alpha
    lo = float(np.max(pa))

    def fn(y: float):
        if y <= lo:
            raise ValueError("hpower reduction: y outside the domain of h")
        t = y - pa
        return float(np.dot(alpha, np.log(t)) - log_phi_r), float(np.sum(alpha / t))

    return fn


def _rpower_h(alpha: np.ndarray, s: float, log_phi_r: float):
    """Decreasing convex h for the radial power cone, s = ||p|| > 0."""

    def fn(y: float):
        if y <= 0.0:
            raise ValueError("rpower reduction: y must be positive")
        t = 2.0 * alpha * y * y + 2.0 * y * (1.0 + alpha) / s
        h = (float(np.dot(2.0 * alpha, np.log(t))) - log_phi_r
             - math.log(2.0 * y / s + y * y) - 2.0 * math.log(2.0 * y / s))
        hp = (2.0 * float(np.sum(alpha**2 / (alpha * y + (1.0 + alpha) / s)))
              - 2.0 * (y + 1.0 / s) / (y * (y + 2.0 / s)))
        return h, hp

    return fn


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


def lemma_h(cone: ConeDescriptor, r: ConePoint):
    """Univariate root function (h, h') underlying this cone's conjugate.

    Returns a callback suitable for :func:`conebarriers.scalars.newton_raphson`.
    Only the power and norm families have such a reduction.
    """
    check_shape(cone, r)
    fam = cone.family
    if fam in (ConeFamily.HPOWER, ConeFamily.HGEOM):
        p = float(r.epi)
        return _hpower_h(cone.alpha, p, float(np.dot(cone.alpha, np.log(r.vec))))
    if fam in (ConeFamily.RPOWER, ConeFamily.RGEOM):
        s = float(np.linalg.norm(np.atleast_1d(np.asarray(r.epi, dtype=float))))
        if s <= _RADIAL_ZERO_FACTOR * float(np.linalg.norm(pack(cone, r))):
            raise ValueError("rpower reduction needs a nonzero radial block")
        return _rpower_h(cone.alpha, s, 2.0 * float(np.dot(cone.alpha, np.log(r.vec))))
    if fam is ConeFamily.LINF:
        return _linf_reduction(float(r.epi), r.vec)[0]
    if fam is ConeFamily.LSPEC:
        return _linf_reduction(float(r.epi), svd(r.mat).sigma)[0]
    raise ValueError(f"{fam.value}: conjugate gradient needs no root finding")


# --------------------------------------------------------------------------
# per-family conjugate gradients on spectra
# --------------------------------------------------------------------------

def _log_parts(d: int, p: float, q: float, rv: np.ndarray):
    logs = np.log(-rv / p)
    # the slack of beta over its boundary value is a fine cancellation near
    # the dual boundary; an exact sum keeps it to the accuracy of the logs
    beta = math.fsum([1.0, float(d), -q / p] + logs.tolist()) / d - math.log(d)
    wbar = d * wright_omega(beta)
    denom = p * (1.0 - wbar)
    gq = -1.0 / denom
    gr = wbar / (rv * (1.0 - wbar))
    # recover the leading component from <g*, r> = -nu, which it must satisfy
    gp = math.fsum([-float(d) - 2.0, -q * gq] + (-rv * gr).tolist()) / p
    return gp, gq, gr, wbar


def _hgeom_parts(d: int, p: float, rv: np.ndarray):
    phi = float(np.exp(np.mean(np.log(rv))))
    den = phi + p / d
    gp = -1.0 / p - 1.0 / den
    gr = -phi / (rv * den)
    return gp, gr


def _rgeom_yminus(d2: int, s: float, m: float) -> float:
    # m = prod r_i^alpha_i, phi = m^2; factored denominator avoids squaring
    phi = m * m
    denom = (m * d2 - s) * (m * d2 + s)
    return -1.0 / s + d2 * (s + math.sqrt(phi * ((d2 / s) ** 2 * phi + d2 * d2 - 1.0))) / denom


def _rpower_tail_start(alpha: np.ndarray, s: float, log_cap: float) -> float | None:
    """Second lower bound on the radial-power root from the tail of h.

    With a := h(inf) = 2 log(s / cap) < 0, the bounds log(1+x) <= x and
    log(1+x) >= x - x^2/2 give h(y) >= a + (2 d2 / s) / y - c2 / y^2, whose
    larger root lower-bounds the root of h.  Near the dual boundary this
    bound grows like d2 / (s o) and tracks the true root, where the
    equal-weight start does not.
    """
    a = 2.0 * (math.log(s) - log_cap)
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


def _linf_solve(p: float, rv: np.ndarray) -> tuple[float, RootResult | None]:
    if not np.any(rv != 0.0):
        return -(rv.size + 1.0) / p, None
    fn, y0 = _linf_reduction(p, rv)
    res = newton_raphson(fn, y0, StopRule())
    return res.root, res


def _linf_gr(yhat: float, rv: np.ndarray) -> np.ndarray:
    # (sqrt(1 + y^2 r^2) - 1)/r rewritten to avoid cancellation at small y r
    x2 = (yhat * rv) ** 2
    return rv * yhat**2 / (np.sqrt(1.0 + x2) + 1.0)


# --------------------------------------------------------------------------
# public oracles
# --------------------------------------------------------------------------

def conjugate_gradient(cone: ConeDescriptor, r: ConePoint) -> ConjugateResult:
    """Gradient of the conjugate barrier at a strictly interior dual point."""
    _require_dual_interior(cone, r)
    fam = cone.family
    iterations = 0
    converged = True

    if fam is ConeFamily.LOG:
        gp, gq, gr, _ = _log_parts(cone.d, float(r.epi), float(r.persp), r.vec)
        g_star = ConePoint(epi=gp, persp=gq, vec=gr)
    elif fam is ConeFamily.LOGDET:
        eig = sym_eigen(r.mat)
        gp, gq, glam, _ = _log_parts(cone.d, float(r.epi), float(r.persp), eig.values)
        u = eig.vectors
        g_star = ConePoint(epi=gp, persp=gq, mat=(u * glam) @ u.T)
    elif fam is ConeFamily.HPOWER:
        p, rv, alpha = float(r.epi), r.vec, cone.alpha
        res = newton_raphson(lemma_h(cone, r), 0.0, StopRule())
        iterations, converged = res.iterations, res.converged
        yhat = res.root
        gp = -1.0 / p - 1.0 / yhat
        gr = (p * alpha / yhat - 1.0) / rv
        g_star = ConePoint(epi=gp, vec=gr)
    elif fam is ConeFamily.HGEOM:
        gp, gr = _hgeom_parts(cone.d, float(r.epi), r.vec)
        g_star = ConePoint(epi=gp, vec=gr)
    elif fam is ConeFamily.RTDET:
        eig = sym_eigen(r.mat)
        gp, glam = _hgeom_parts(cone.d, float(r.epi), eig.values)
        u = eig.vectors
        g_star = ConePoint(epi=gp, mat=(u * glam) @ u.T)
    elif fam in (ConeFamily.RPOWER, ConeFamily.RGEOM):
        g_star, iterations, converged = _radial_conjugate(cone, r)
    elif fam is ConeFamily.LINF:
        p, rv = float(r.epi), r.vec
        yhat, res = _linf_solve(p, rv)
        if res is not None:
            iterations, converged = res.iterations, res.converged
        g_star = ConePoint(epi=yhat, vec=_linf_gr(yhat, rv))
    else:  # lspec
        p = float(r.epi)
        dec = svd(r.mat)
        yhat, res = _linf_solve(p, dec.sigma)
        if res is not None:
            iterations, converged = res.iterations, res.converged
        g_star = ConePoint(epi=yhat, mat=(dec.U * _linf_gr(yhat, dec.sigma)) @ dec.V.T)

    residual = abs(inner(cone, g_star, r) + cone.nu)
    return ConjugateResult(g_star=g_star, iterations=iterations,
                           residual=residual, converged=converged)


def _radial_conjugate(cone: ConeDescriptor, r: ConePoint):
    p = np.atleast_1d(np.asarray(r.epi, dtype=float))
    rv, alpha, d2 = r.vec, cone.alpha, cone.d2
    s = float(np.linalg.norm(p))
    scalar_epi = cone.family is ConeFamily.RGEOM

    if s <= _RADIAL_ZERO_FACTOR * float(np.linalg.norm(pack(cone, r))):
        gp = np.zeros_like(p)
        gr = -(1.0 + alpha) / rv
        epi = 0.0 if scalar_epi else gp
        return ConePoint(epi=epi, vec=gr), 0, True

    m = float(np.exp(np.dot(alpha, np.log(rv))))
    y_minus = _rgeom_yminus(d2, s, m)
    if scalar_epi:
        yhat, iterations, converged = y_minus, 0, True
    else:
        log_cap = float(np.dot(alpha, np.log(rv / alpha)))
        y_tail = _rpower_tail_start(alpha, s, log_cap)
        y0 = y_minus if y_tail is None else max(y_minus, y_tail)
        res = newton_raphson(lemma_h(cone, r), y0, StopRule())
        yhat, iterations, converged = res.root, res.iterations, res.converged
    gp = yhat * p / s
    gr = -(alpha * (1.0 + s * yhat) + 1.0) / rv
    epi = float(gp[0]) if scalar_epi else gp
    return ConePoint(epi=epi, vec=gr), iterations, converged


def conjugate_value(cone: ConeDescriptor, r: ConePoint) -> float:
    """Conjugate barrier value f*(r).

    Closed forms exist for the log and geometric-mean families; every other
    family evaluates ``-nu - f(-g*(r))``.
    """
    _require_dual_interior(cone, r)
    fam = cone.family
    if fam is ConeFamily.LOG:
        p, q, rv = float(r.epi), float(r.persp), r.vec
        d = cone.d
        _, _, _, wbar = _log_parts(d, p, q, rv)
        return (-2.0 - d - 2.0 * math.log(-p)
                - ((d + 1) * math.log(wbar - 1.0) - d * math.log(wbar))
                - float(np.sum(np.log(rv))))
    if fam is ConeFamily.HGEOM:
        p, rv = float(r.epi), r.vec
        d = cone.d
        phi = float(np.exp(np.mean(np.log(rv))))
        return (-1.0 - d - d * math.log((d * phi + p) / (d * phi))
                - math.log(-p) - float(np.sum(np.log(rv))))
    g_star = conjugate_gradient(cone, r).g_star
    return -cone.nu - barrier_value(cone, _negate(cone, g_star))
