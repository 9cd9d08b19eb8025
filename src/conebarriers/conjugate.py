"""Specialized conjugate-gradient oracles g*(r) for all nine cones.

The conjugate gradient is the negated minimizer of ``<r, w> + f(w)`` over the
cone interior.  Each family reduces to a short closed form or to a univariate
root found by a guarded Newton-Raphson iteration:

* log / logdet        — closed form through the Wright omega function.
* hpower              — root of ``h(y) = sum_i alpha_i log(y - p alpha_i)
  - log prod_i r_i**alpha_i`` started at 0 (h is increasing and concave, so
  the iterates increase monotonically to the root).
* hgeom / rtdet       — closed form (equal-weight specialization).
* rpower              — positive root of a decreasing convex h in the norm
  s of the radial block (``_rpower_reduction``), whose terms are all of
  size o near the dual boundary, started at the larger of two proven lower
  bounds: the equal-weight solution ``y_minus`` and a tail-expansion bound.
* rgeom               — closed form (``y_minus`` is the exact root).
* linf / lspec        — negative root of ``h(y) = p y + sum_i sqrt(1 +
  r_i^2 y^2) + 1``, written as a sum of positive terms
  (``_linf_reduction``) so that ``p y`` cancels nothing near the boundary.

Each vector family's domain step, g*, univariate reduction and closed-form
f* form one record in ``_KERNELS``.  f* is ``-<r, w> - f(w)`` at
``w = -g*``, written in the kernel's slack or root so that nothing cancels;
no oracle here calls the primal barrier.  A matrix family runs its vector
family's record on the spectrum of ``R`` (``FamilyRules.lift``) and rotates
g* back through the eigen or singular frames.

The domain step is the only test of the dual cone's inequality: it computes
the family's slack once, in the form its kernel uses, raises
``NotInteriorError`` unless it is positive, and hands it to the gradient,
the reduction and the closed-form f*.  :func:`dual_in_interior` is true
exactly when the domain step passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cones import (
    ConeDescriptor,
    ConeFamily,
    ConePoint,
    NotInteriorError,
    pack,
    unpack,
)
from .linalg import sym_eigen, svd
from .scalars import newton_raphson, wright_omega

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
# lspec's dual slack p - sum(sigma) must exceed this many eps * d1 * sigma_max:
# each computed singular value is off by up to 4.4 eps sigma_max against a
# 40-digit SVD (600 sampled and graded matrices, d1 <= 4), and their float
# sum by up to 1.8 d1 eps sigma_max; 8 leaves a margin over both
_SVD_SLACK_FACTOR = 8.0


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
# univariate reductions, start points and closed-form roots
# --------------------------------------------------------------------------

def _hpower_h(cone: ConeDescriptor, p, q, rv: np.ndarray, _=None):
    """h(y) = sum alpha_i log(y - p alpha_i) - log phi(r), increasing, concave."""
    alpha = cone.alpha
    log_phi_r = float(np.dot(alpha, np.log(rv)))
    pa = p * alpha
    lo = float(np.maximum.reduce(pa))

    def fn(y: float):
        if y <= lo:
            raise ValueError("hpower reduction: y outside the domain of h")
        t = y - pa
        return float(np.dot(alpha, np.log(t)) - log_phi_r), float(np.add.reduce(alpha / t))

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
    Returns the (h, h') callback, valid for y > 0, ``a`` and ``2 delta``.
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
        hp = b / (y * (y + b)) - float(np.add.reduce(k / (y * (y + c)))) + 2.0 * two_delta / y
        return h, hp

    return fn, a, two_delta


def _rpower_h(cone: ConeDescriptor, p, q, rv: np.ndarray, root):
    """The rpower reduction on the norm of the radial block ``p``."""
    _, s, fn, y = root
    if y is None:
        raise ValueError("rpower reduction needs a nonzero radial block")
    return fn or _rpower_reduction(cone.alpha, s, rv)[0]


def _linf_reduction(p: float, r: np.ndarray, delta: float):
    """Cancellation-free h(y) = p y + sum sqrt(1 + r_i^2 y^2) + 1, and its start.

    With a = |r|, t = a |y|, s = sqrt(1 + t^2) and e = 1/(s + t), each root
    is a |y| + e.  For y <= 0 the linear parts sum to delta y, where
    delta = p - ||r||_1 > 0 is the domain step's correctly rounded slack, so
    h = delta y + 1 + sum e and h' = delta + sum a e / s add only positive
    terms; zero entries give e = 1.
    Returns the (h, h') callback, valid for every real y, and the Newton start.
    """
    a = np.abs(r)
    p_plus = p + float(np.add.reduce(a))

    def fn(y: float):
        t = a * abs(y)
        s = np.sqrt(1.0 + t * t)
        e = 1.0 / (s + t)
        if y <= 0.0:
            return delta * y + 1.0 + float(np.add.reduce(e)), delta + float(np.dot(a, e / s))
        return p_plus * y + 1.0 + float(np.add.reduce(e)), p + float(np.dot(a, t / s))

    # both candidates bound the negative root from above (each comes from a
    # lower bound on h); the tighter one tracks the root as p approaches
    # ||r||_1, so Newton stays within a few steps at every offset
    y0 = min(-1.0 / delta, -(r.size + 1.0) / p)
    return fn, y0


def power_cap(alpha, r) -> float:
    """``prod (r_i / alpha_i)^alpha_i``, the dual cone's bound on ``-p``
    (hpower) or ``||p||`` (rpower)."""
    return float(np.exp(np.dot(alpha, np.log(r / alpha))))


def _rgeom_yminus(d2: int, s: float, m: float) -> float:
    # m = prod r_i^alpha_i; the root -1/s + d2 (s + sqrt(m^2 ((m d2 / s)^2
    # + d2^2 - 1))) / ((m d2)^2 - s^2) with -1/s cancelled against the square
    # root's leading term in closed form: for small s those two terms are of
    # size 1/s and the root of size s.  The denominator's factor m d2 - s is
    # rgeom's dual slack
    md2 = m * d2
    denom = (md2 - s) * (md2 + s)
    _require(denom > 0.0, "rgeom", "m d2 - s")
    eps = (d2 * d2 - 1.0) * (s / md2) ** 2
    return s * ((1.0 + d2) + (d2 * d2 - 1.0) / (1.0 + math.sqrt(1.0 + eps))) / denom


def _rpower_tail_start(alpha: np.ndarray, s: float, a: float) -> float | None:
    """Second lower bound on the radial-power root from the tail of h.

    With a = h(inf) = 2 log(s / cap) < 0, the bounds log(1+x) <= x and
    log(1+x) >= x - x^2/2 give h(y) >= a + (2 d2 / s) / y - c2 / y^2, whose
    larger root lower-bounds the root of h.  Near the dual boundary this
    bound grows like d2 / (s o) and tracks the true root, where the
    equal-weight start does not.
    """
    d2 = alpha.size
    b = 2.0 * d2 / s
    c2 = float(np.add.reduce((1.0 + alpha) ** 2 / alpha)) / (s * s)
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


def _radial_parts(p, rv):
    """Radial block as a vector, its norm, and whether it counts as zero."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    s = float(np.linalg.norm(p))
    return p, s, s <= _RADIAL_ZERO_FACTOR * float(np.linalg.norm(np.append(p, rv)))


# --------------------------------------------------------------------------
# domain steps: (cone, p, q, r) -> the family's slack, or NotInteriorError
# --------------------------------------------------------------------------

def _require(positive: bool, family: str, slack: str) -> None:
    if not positive:
        raise NotInteriorError(f"{family} conjugate: dual slack {slack} is not positive")


def _log_domain(cone, p, q, rv):
    """``wbar = d omega(beta)``; the slack is ``wbar - 1``."""
    _require(p < 0.0 and np.logical_and.reduce(rv > 0.0), "log", "-p or r_i")
    d = rv.size
    # the slack of beta over its boundary value is a fine cancellation near
    # the dual boundary; an exact sum keeps it to the accuracy of the logs
    try:
        beta = math.fsum([1.0, float(d), -q / p] + np.log(-rv / p).tolist()) / d - math.log(d)
    except ValueError:  # -inf + inf
        beta = math.nan
    # an infinite beta or wbar leaves g* at 0/0: the point is not interior
    wbar = d * wright_omega(beta) if math.isfinite(beta) else math.nan
    _require(1.0 < wbar < math.inf, "log", "wbar - 1")
    return wbar


def _power_domain(cone, p, q, rv):
    _require(p < 0.0 and np.logical_and.reduce(rv > 0.0) and -p < power_cap(cone.alpha, rv),
             "hpower", "power_cap(alpha, r) + p")


def _hgeom_domain(cone, p, q, rv):
    """``phi = prod r_i^(1/d)`` and the slack ``phi + p/d``."""
    _require(p < 0.0 and np.logical_and.reduce(rv > 0.0), "hgeom", "-p or r_i")
    phi = float(np.exp(float(np.add.reduce(np.log(rv))) / rv.size))
    den = phi + p / rv.size
    _require(den > 0.0, "hgeom", "phi + p/d")
    return phi, den


def _radial_domain(cone, p, q, rv):
    """The radial block, its norm ``s``, and the rpower callback with its
    start, or ``None`` with rgeom's root (``None, None`` for a zero block).

    The slack is rgeom's ``m d2 - s`` (in ``_rgeom_yminus``) and rpower's
    ``-a``.  The weights' rounded sum adds ``2 delta log(2 y^2)`` to h, so
    near the boundary h can have no root, or one left of the start; ``-a``
    above ``9 |2 delta| log(2 y^2)`` at ``y = 4 d2 / (s (-a))``, past the
    root, rules out both (the start's factor 0.9 leaves ``h(y0) ~ -a/9``);
    16 leaves a margin.
    """
    _require(np.logical_and.reduce(rv > 0.0), "radial", "r_i")
    p, s, zero = _radial_parts(p, rv)
    if zero:
        return p, s, None, None
    alpha = cone.alpha
    y_minus = _rgeom_yminus(rv.size, s, float(np.exp(np.dot(alpha, np.log(rv)))))
    if cone.powers is None:
        # equal weights: y_minus is the exact root
        return p, s, None, y_minus
    fn, a, two_delta = _rpower_reduction(alpha, s, rv)
    _require(a < 0.0 and -a > 16.0 * abs(two_delta) * (
        math.log(2.0) + 2.0 * math.log(4.0 * rv.size / (s * -a))), "rpower", "-a less its bound")
    y_tail = _rpower_tail_start(alpha, s, a)
    return p, s, fn, y_minus if y_tail is None else max(y_minus, y_tail)


def _linf_domain(cone, p, q, rv):
    """``delta = p - ||r||_1``, correctly rounded."""
    try:
        delta = math.fsum([p] + (-np.abs(rv)).tolist())
    except OverflowError:  # ||r||_1 exceeds p by more than the largest float
        delta = -math.inf
    # lspec: computed singular values are exact for a perturbation of R of
    # norm a few eps sigma_max (Weyl), so a slack inside the summed rounding
    # bound does not certify p > ||R||_*
    bound = _SVD_SLACK_FACTOR * rv.size * _EPS * float(rv[0]) if cone.rules.lift else 0.0
    _require(delta > bound, "linf", "p - ||r||_1 less its rounding bound")
    return delta


# --------------------------------------------------------------------------
# vector kernels: (cone, p, q, r, slack) -> (g_p, g_q, g_r, RootResult or
# None), or f*
# --------------------------------------------------------------------------

def _log_gradient(cone, p, q, rv, wbar):
    d = rv.size
    denom = p * (1.0 - wbar)
    gq = -1.0 / denom
    gr = wbar / (rv * (1.0 - wbar))
    # recover the leading component from <g*, r> = -nu, which it must satisfy
    gp = math.fsum([-float(d) - 2.0, -q * gq] + (-rv * gr).tolist()) / p
    return gp, gq, gr, None


def _log_value(cone, p, q, rv, wbar) -> float:
    d = rv.size
    return (-2.0 - d - 2.0 * math.log(-p)
            - ((d + 1) * math.log(wbar - 1.0) - d * math.log(wbar))
            - float(np.add.reduce(np.log(rv))))


def _hpower_gradient(cone, p, q, rv, _):
    res = newton_raphson(_hpower_h(cone, p, q, rv), 0.0)
    yhat = res.root
    # within a few ulps of power_cap the root can round to 0
    _require(yhat > 0.0, "hpower", "y")
    return -1.0 / p - 1.0 / yhat, None, (p * cone.alpha / yhat - 1.0) / rv, res


def _power_value(cone, p, rv, yhat, h, gap=0.0) -> float:
    """f* = -<r, w> - f(w) at ``w = -g*`` for a computed root ``yhat`` of
    the hypograph reduction, with ``h = h(yhat)`` and ``gap = 1 - sum alpha``
    (binary64 weights sum to 1 only within an ulp).

    At any ``yhat``, ``w_i = (1 - p alpha_i / yhat) / r_i``, ``<r, w> = nu
    + p gap / yhat`` and ``phi(w) - u = -1/p + expm1(h + gap log yhat) /
    yhat``, so nothing cancels; the shortcut ``phi(w) - u = -1/p`` holds
    only at the exact root, which Newton-Raphson stops up to 1e-9 short of.
    Next to hpower's own boundary the root can round to 0, or the last term
    outweigh ``-1/p``: ``w`` is then not inside the primal cone.
    """
    zeta = -1.0 / p + math.expm1(h + gap * math.log(yhat)) / yhat if yhat > 0.0 else 0.0
    _require(zeta > 0.0, "hpower", "y or phi(w) - u")
    w = (1.0 - p * cone.alpha / yhat) / rv
    return -cone.nu - p * gap / yhat + math.log(zeta) + float(np.add.reduce(np.log(w)))


def _hpower_value(cone, p, q, rv, _) -> float:
    fn = _hpower_h(cone, p, q, rv)
    yhat = newton_raphson(fn, 0.0).root
    return _power_value(cone, p, rv, yhat, fn(yhat)[0],
                        -math.fsum([-1.0] + cone.alpha.tolist()))


def _hgeom_gradient(cone, p, q, rv, slack):
    phi, den = slack
    return -1.0 / p - 1.0 / den, None, -phi / (rv * den), None


def _hgeom_value(cone, p, q, rv, slack) -> float:
    # the root is the slack phi + p/d; h = log(y - p/d) - log phi reads the
    # phi that membership tested, so it is 0 or the sum's rounding, never
    # phi's own rounding, which divided by a slack of a few ulps would
    # outweigh -1/p
    phi, den = slack
    return _power_value(cone, p, rv, den, math.log((den - p / rv.size) / phi))


def _radial_gradient(cone, p, q, rv, root):
    p, s, fn, yhat = root
    alpha, res = cone.alpha, None
    if fn is not None:
        res = newton_raphson(fn, yhat)
        yhat = res.root
    if yhat is None:
        gp = np.zeros_like(p)
        gr = -(1.0 + alpha) / rv
    else:
        gp = yhat * p / s
        gr = -(alpha * (1.0 + s * yhat) + 1.0) / rv
    return (gp if cone.layout.radial else float(gp[0])), None, gr, res


def _radial_value(cone, p, q, rv, root) -> float:
    # -nu - f(-g*) with f = -log(phi(w)^2 - ||u||^2) - sum (1 - alpha_i) log w_i;
    # at the minimizer f's radial gradient 2 u / (phi^2 - ||u||^2) is -p, so
    # phi(w)^2 - ||u||^2 = 2 y / s exactly and nothing cancels
    _, _, gr, res = _radial_gradient(cone, p, q, rv, root)
    alpha, lw, y = cone.alpha, np.log(-gr), root[3] if res is None else res.root
    log_zeta = 2.0 * float(np.dot(alpha, lw)) if y is None else math.log(2.0 * y / root[1])
    return -cone.nu + log_zeta + float(np.dot(1.0 - alpha, lw))


def _linf_root(p, rv, delta):
    """The reduction's callback, its root ``yhat < 0`` and the RootResult
    (``None`` for a zero ``r``, whose root is ``-(d + 1)/p``)."""
    fn, y0 = _linf_reduction(p, rv, delta)
    res = newton_raphson(fn, y0) if np.logical_or.reduce(rv != 0.0) else None
    y = -(rv.size + 1.0) / p if res is None else res.root
    # g* and f* square the root, about -(d + 1) / p; past binary64's range
    # that is an overflow, not an answer, until inputs are normalized by
    # their scale
    if not math.isfinite(y * y):
        raise NotInteriorError("linf conjugate: the root's square overflows binary64")
    return fn, y, res


def _linf_gradient(cone, p, q, rv, delta):
    _, yhat, res = _linf_root(p, rv, delta)
    return yhat, None, _linf_gr(yhat, rv), res


def _linf_value(cone, p, q, rv, delta) -> float:
    # -<r, w> - f(w) at w = -g*(y), f = -sum log(u^2 - w_i^2) + (d - 1) log u:
    # at any y, <r, w> = nu - h(y) and u^2 - w_i^2 = 2 y^2 / (sqrt(1 + y^2
    # r_i^2) + 1), also at r_i = 0; h(yhat) is what Newton-Raphson leaves
    fn, y, _ = _linf_root(p, rv, delta)
    z = 2.0 * y * y / (np.sqrt(1.0 + (y * rv) ** 2) + 1.0)
    return fn(y)[0] - cone.nu + float(np.add.reduce(np.log(z))) - (rv.size - 1) * math.log(-y)


@dataclass(frozen=True)
class _Kernel:
    """A vector family's domain step, g*, f* and ``(h, h')`` reduction."""

    domain: Callable
    gradient: Callable
    value: Callable
    reduction: Callable | None = None


_RADIAL = _Kernel(_radial_domain, _radial_gradient, _radial_value, _rpower_h)

_KERNELS = {
    ConeFamily.LOG: _Kernel(_log_domain, _log_gradient, _log_value),
    ConeFamily.HPOWER: _Kernel(_power_domain, _hpower_gradient, _hpower_value, _hpower_h),
    ConeFamily.HGEOM: _Kernel(_hgeom_domain, _hgeom_gradient, _hgeom_value, _hpower_h),
    ConeFamily.RPOWER: _RADIAL,
    ConeFamily.RGEOM: _RADIAL,
    ConeFamily.LINF: _Kernel(_linf_domain, _linf_gradient, _linf_value,
                             lambda cone, p, q, rv, delta: _linf_reduction(p, rv, delta)[0]),
}


def _dual_domain(cone: ConeDescriptor, r: ConePoint):
    """The packed ``r``, the frames ``(U, V)`` of ``R``, and the kernel
    arguments ``(p, q, r, slack)`` with ``r`` the vector block or the
    spectrum: ``ValueError`` on a malformed point, ``NotInteriorError``
    outside the open dual cone (a non-finite entry is outside)."""
    x = pack(cone, r)
    epi, persp, rv, mat = cone.layout.blocks(x)
    frames, lift = None, cone.rules.lift
    # sym_eigen and svd raise on a non-finite matrix block
    if lift == "eig":
        eig = sym_eigen(mat)
        rv, frames = eig.values, (eig.vectors, eig.vectors)
    elif lift == "svd":
        dec = svd(mat)
        rv, frames = dec.sigma, (dec.U, dec.V)
    if not np.logical_and.reduce(np.isfinite(x)):
        raise NotInteriorError(f"{cone.family.value}: a non-finite entry is not interior")
    return x, frames, (epi, persp, rv, _KERNELS[cone.rules.vector].domain(cone, epi, persp, rv))


# --------------------------------------------------------------------------
# public oracles
# --------------------------------------------------------------------------

def dual_in_interior(cone: ConeDescriptor, r: ConePoint) -> bool:
    """Strict membership in the open dual cone: whether ``r`` passes the
    conjugate oracles' domain step.

    Boundary points classify as not interior.  A malformed point or a
    non-symmetric matrix block raises ``ValueError``.
    """
    try:
        _dual_domain(cone, r)
    except NotInteriorError:
        return False
    return True


def lemma_h(cone: ConeDescriptor, r: ConePoint):
    """Univariate root function (h, h') underlying this cone's conjugate.

    Returns a callback suitable for :func:`conebarriers.scalars.newton_raphson`.
    Only the power and norm families, and their matrix lifts, have such a
    reduction; ``r`` must pass the same domain step as the oracles.
    """
    reduction = _KERNELS[cone.rules.vector].reduction
    if reduction is None:
        raise ValueError(f"{cone.family.value}: conjugate gradient needs no root finding")
    return reduction(cone, *_dual_domain(cone, r)[2])


def conjugate_gradient(cone: ConeDescriptor, r: ConePoint) -> ConjugateResult:
    """Gradient of the conjugate barrier at a strictly interior dual point."""
    x, frames, args = _dual_domain(cone, r)
    gp, gq, gr, res = _KERNELS[cone.rules.vector].gradient(cone, *args)
    if frames is None:
        vec, mat = gr, None
    else:
        u, v = frames
        vec, mat = None, (u * gr) @ v.T
    g = cone.layout.join(gp, gq, vec, mat)
    return ConjugateResult(g_star=unpack(cone, g),
                           iterations=0 if res is None else res.iterations,
                           residual=abs(float(np.dot(g, x)) + cone.nu),
                           converged=res is None or res.converged)


def conjugate_value(cone: ConeDescriptor, r: ConePoint) -> float:
    """Conjugate barrier value f*(r).

    Each family's f* is a closed form in its g* kernel's slack or root,
    evaluated on the spectrum for a matrix family; none calls the primal
    barrier.
    """
    return _KERNELS[cone.rules.vector].value(cone, *_dual_domain(cone, r)[2])
