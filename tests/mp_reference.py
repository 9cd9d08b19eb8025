"""The nine barriers written from their definitions, in mpmath.

``barrier(cone)`` returns the barrier ``f`` of ``cone`` as a function of a
packed point (a sequence of mpf in the order of ``cone.layout``), evaluated
at mpmath's working precision.  The matrix blocks go through ``mp.det``.
Nothing here comes from ``conebarriers.barriers`` or
``conebarriers.conjugate``: the descriptor supplies only the packed layout,
the dimensions and the given weights, so a test that differentiates these
functions checks the package's oracles against an independent derivation.
"""

from mpmath import mp


def _blocks(cone, x):
    """``(epi, persp, vec, mat)`` of a packed point; ``epi`` is a list (the
    radial block of rpower and rgeom), ``mat`` an ``mp.matrix``."""
    layout = cone.layout
    epi = list(x[layout.epi])
    persp = None if layout.persp is None else x[layout.persp]
    vec = None if layout.vec is None else list(x[layout.vec])
    mat = None
    if layout.mat is not None:
        entries = list(x[layout.mat])
        d1, d2 = layout.mat_shape
        mat = mp.matrix([entries[i * d2:(i + 1) * d2] for i in range(d1)])
    return epi, persp, vec, mat


def _power(w, alpha):
    return mp.fprod(wi**ai for wi, ai in zip(w, alpha))


def _given(cone):
    return [mp.mpf(float(a)) for a in cone.alpha]


def _equal(n):
    return [mp.mpf(1) / n] * n


def _log(cone, x):
    # -log(v log prod(w / v) - u) - log v - sum log w
    (u,), v, w, _ = _blocks(cone, x)
    slog = mp.fsum(mp.log(wi) for wi in w)
    return -mp.log(v * (slog - len(w) * mp.log(v)) - u) - mp.log(v) - slog


def _logdet(cone, x):
    # -log(v log det(W / v) - u) - log v - log det W
    (u,), v, _, m = _blocks(cone, x)
    ldet = mp.log(mp.det(m))
    return -mp.log(v * (ldet - m.rows * mp.log(v)) - u) - mp.log(v) - ldet


def _hypograph(cone, x, alpha):
    # -log(prod w^alpha - u) - sum log w
    (u,), _, w, _ = _blocks(cone, x)
    return -mp.log(_power(w, alpha) - u) - mp.fsum(mp.log(wi) for wi in w)


def _rtdet(cone, x):
    # -log(det(W)^(1/d) - u) - log det W
    (u,), _, _, m = _blocks(cone, x)
    det = mp.det(m)
    return -mp.log(mp.root(det, m.rows) - u) - mp.log(det)


def _radial(cone, x, alpha):
    # -log(prod w^(2 alpha) - ||u||^2) - sum (1 - alpha) log w
    u, _, w, _ = _blocks(cone, x)
    zeta = _power(w, alpha)**2 - mp.fsum(ui**2 for ui in u)
    return -mp.log(zeta) - mp.fsum((1 - ai) * mp.log(wi) for wi, ai in zip(w, alpha))


def _linf(cone, x):
    # -sum log(u^2 - w^2) + (d - 1) log u
    (u,), _, w, _ = _blocks(cone, x)
    return -mp.fsum(mp.log(u**2 - wi**2) for wi in w) + (len(w) - 1) * mp.log(u)


def _lspec(cone, x):
    # -log det(u^2 I - W W^T) + (d1 - 1) log u, on the full matrix space
    (u,), _, _, m = _blocks(cone, x)
    gram = u**2 * mp.eye(m.rows) - m * m.T
    return -mp.log(mp.det(gram)) + (m.rows - 1) * mp.log(u)


_DEFINITIONS = {
    "log": _log,
    "logdet": _logdet,
    "hpower": lambda cone, x: _hypograph(cone, x, _given(cone)),
    "hgeom": lambda cone, x: _hypograph(cone, x, _equal(cone.d)),
    "rtdet": _rtdet,
    "rpower": lambda cone, x: _radial(cone, x, _given(cone)),
    "rgeom": lambda cone, x: _radial(cone, x, _equal(cone.d2)),
    "linf": _linf,
    "lspec": _lspec,
}


def barrier(cone):
    """``f`` of ``cone`` on packed points, from the barrier's definition."""
    definition = _DEFINITIONS[cone.family.value]
    return lambda x: definition(cone, x)


def hessian_action(cone, w, x):
    """``H(w) x`` at 50 digits, entry ``i`` the mixed derivative
    ``d^2/ds dt f(w + s e_i + t x)`` at ``s = t = 0`` (``mp.diff``); ``w``
    and ``x`` are packed float sequences, taken exactly."""
    f = barrier(cone)
    with mp.workdps(50):
        wm = [mp.mpf(float(a)) for a in w]
        xm = [mp.mpf(float(a)) for a in x]
        out = []
        for i in range(len(wm)):
            def along(s, t, i=i):
                y = [wj + t * xj for wj, xj in zip(wm, xm)]
                y[i] += s
                return f(y)
            out.append(mp.diff(along, (0, 0), (1, 1)))
        return out


def newton_step(cone, w, r, basis):
    """Newton's step ``H(w)^-1 (g(w) + r)`` for ``<r, w> + f(w)`` and its
    ``lambda^2 = <g(w) + r, step>`` at 50 digits, with ``g`` and ``H``
    differentiated from the definition (``mp.diff``) along the packed
    vectors of ``basis``.  The basis must span a subspace that holds
    ``g(w) + r`` and that ``H(w)`` maps into itself: the whole space, or the
    symmetric matrices for logdet and rtdet, whose barrier is defined on
    them only.  ``w``, ``r`` and the basis are taken exactly; the step is
    returned as mpf in packed order."""
    f = barrier(cone)
    with mp.workdps(50):
        wm = [mp.mpf(float(a)) for a in w]
        bm = [[mp.mpf(float(a)) for a in b] for b in basis]

        def at(*terms):
            return f([wj + mp.fsum(s * b[j] for s, b in terms) for j, wj in enumerate(wm)])

        n = len(bm)
        x = mp.matrix(n, 1)
        h = mp.matrix(n, n)
        for i, bi in enumerate(bm):
            x[i] = (mp.diff(lambda s: at((s, bi)), 0)
                    + mp.fsum(mp.mpf(float(rj)) * bij for rj, bij in zip(r, bi)))
            for j in range(i + 1):
                h[i, j] = h[j, i] = mp.diff(lambda s, t: at((s, bi), (t, bm[j])),
                                            (0, 0), (1, 1))
        c = mp.lu_solve(h, x)
        step = [mp.fsum(c[i] * bm[i][k] for i in range(n)) for k in range(len(wm))]
        return step, mp.fsum(x[i] * c[i] for i in range(n)), h
