"""50-digit mpmath references for the conjugate gradients g*(r).

Each reference rebuilds g* from the float inputs, converted exactly, with
the paper's closed forms evaluated in mpmath: the log families through the
Wright omega function, the power and norm families through the root of
their univariate function (the one ``conebarriers.lemma_h`` returns), found
by bracketed root finding at 50 digits.  Matrix families are checked on the
spectrum that ``sym_eigen``/``svd`` return, lifted back in binary64 through
the same frames.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

from conebarriers import ConeFamily, svd, sym_eigen, wright_omega

DIGITS = 50


def _mpf_vec(x) -> list:
    return [mp.mpf(float(v)) for v in np.ravel(x)]


def _bracket_root(fn, lo, hi):
    """Root of a monotone ``fn`` with a sign change on ``[lo, hi]``."""
    return mp.findroot(fn, (lo, hi), solver="anderson")


def omega(beta):
    """Wright omega at 50 digits: the x > 0 with x + log x = beta."""
    return mp.lambertw(mp.exp(beta)).real


def _log_spectrum(p, q, lam):
    d = len(lam)
    beta = (1 + d - q / p + mp.fsum(mp.log(-l / p) for l in lam)) / d - mp.log(d)
    wbar = d * omega(beta)
    gq = -1 / (p * (1 - wbar))
    glam = [wbar / (l * (1 - wbar)) for l in lam]
    gp = (-d - 2 - q * gq - mp.fsum(l * g for l, g in zip(lam, glam))) / p
    return gp, gq, glam, beta


def _hpower_spectrum(p, lam, alpha):
    log_phi = mp.fsum(a * mp.log(l) for a, l in zip(alpha, lam))
    lo = max(p * a for a in alpha)

    def h(y):
        return mp.fsum(a * mp.log(y - p * a) for a, l in zip(alpha, lam)) - log_phi

    hi = abs(lo) + 1
    while h(hi) <= 0:
        hi *= 2
    # h -> -inf at lo; step in towards lo until h < 0
    left = lo + (hi - lo) / 2
    while h(left) >= 0:
        left = lo + (left - lo) * mp.mpf(10) ** -8
    y = _bracket_root(h, left, hi)
    gp = -1 / p - 1 / y
    glam = [(p * a / y - 1) / l for a, l in zip(alpha, lam)]
    return gp, glam


def _rpower_parts(pvec, lam, alpha):
    s = mp.sqrt(mp.fsum(x * x for x in pvec))
    log_phi = 2 * mp.fsum(a * mp.log(l) for a, l in zip(alpha, lam))

    def h(y):
        t = mp.fsum(2 * a * mp.log(2 * a * y * y + 2 * y * (1 + a) / s) for a in alpha)
        return t - log_phi - mp.log(2 * y / s + y * y) - 2 * mp.log(2 * y / s)

    lo, hi = mp.mpf(1), mp.mpf(1)
    while h(lo) <= 0:
        lo /= 2
    while h(hi) >= 0:
        hi *= 2
    y = _bracket_root(h, lo, hi)
    gp = [y * x / s for x in pvec]
    glam = [-(a * (1 + s * y) + 1) / l for a, l in zip(alpha, lam)]
    return gp, glam


def _linf_spectrum(p, lam):
    d = len(lam)
    if all(l == 0 for l in lam):
        return -(d + 1) / p, [mp.mpf(0)] * d

    def h(y):
        return p * y + mp.fsum(mp.sqrt(1 + (l * y) ** 2) for l in lam) + 1

    delta = p - mp.fsum(abs(l) for l in lam)
    y = _bracket_root(h, -2 * (d + 1) / delta, mp.mpf(0))
    glam = [l * y * y / (mp.sqrt(1 + (l * y) ** 2) + 1) for l in lam]
    return y, glam


def _lift(frame_left, g, frame_right) -> np.ndarray:
    g = np.array([float(v) for v in g])
    return (frame_left * g) @ frame_right.T


def reference_g_star(cone, r) -> np.ndarray:
    """Packed 50-digit reference for ``conjugate_gradient(cone, r).g_star``."""
    fam = cone.family
    with mp.workdps(DIGITS):
        p = [mp.mpf(v) for v in np.atleast_1d(np.asarray(r.epi, dtype=float))]
        if fam is ConeFamily.LOG:
            gp, gq, glam, _ = _log_spectrum(p[0], mp.mpf(r.persp), _mpf_vec(r.vec))
            return np.array([float(gp), float(gq)] + [float(v) for v in glam])
        if fam is ConeFamily.LOGDET:
            eig = sym_eigen(r.mat)
            gp, gq, glam, _ = _log_spectrum(p[0], mp.mpf(r.persp), _mpf_vec(eig.values))
            mat = _lift(eig.vectors, glam, eig.vectors)
            return np.concatenate([[float(gp), float(gq)], mat.ravel()])
        if fam in (ConeFamily.HPOWER, ConeFamily.HGEOM):
            gp, glam = _hpower_spectrum(p[0], _mpf_vec(r.vec), _mpf_vec(cone.alpha))
            return np.array([float(gp)] + [float(v) for v in glam])
        if fam is ConeFamily.RTDET:
            eig = sym_eigen(r.mat)
            d = cone.d
            gp, glam = _hpower_spectrum(p[0], _mpf_vec(eig.values), [mp.mpf(1) / d] * d)
            mat = _lift(eig.vectors, glam, eig.vectors)
            return np.concatenate([[float(gp)], mat.ravel()])
        if fam in (ConeFamily.RPOWER, ConeFamily.RGEOM):
            alpha = [mp.mpf(1) / cone.d2] * cone.d2 if fam is ConeFamily.RGEOM \
                else _mpf_vec(cone.alpha)
            gp, glam = _rpower_parts(p, _mpf_vec(r.vec), alpha)
            return np.array([float(v) for v in gp] + [float(v) for v in glam])
        if fam is ConeFamily.LINF:
            y, glam = _linf_spectrum(p[0], _mpf_vec(r.vec))
            return np.array([float(y)] + [float(v) for v in glam])
        dec = svd(r.mat)
        y, glam = _linf_spectrum(p[0], _mpf_vec(dec.sigma))
        return np.concatenate([[float(y)], _lift(dec.U, glam, dec.V).ravel()])


def log_beta(cone, r):
    """The Wright omega argument of a log-family conjugate, at 50 digits."""
    with mp.workdps(DIGITS):
        lam = r.vec if cone.family is ConeFamily.LOG else sym_eigen(r.mat).values
        return _log_spectrum(mp.mpf(float(r.epi)), mp.mpf(r.persp), _mpf_vec(lam))[3]


def omega_error(beta) -> float:
    """Relative error of ``wright_omega`` at the float nearest ``beta``."""
    with mp.workdps(DIGITS):
        b = float(beta)
        ref = omega(mp.mpf(b))
        return float(abs(mp.mpf(wright_omega(b)) - ref) / ref)
