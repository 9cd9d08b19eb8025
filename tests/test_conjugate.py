import math
from dataclasses import replace

import numpy as np
import pytest

from conebarriers import (
    ConeDescriptor,
    ConePoint,
    NotInteriorError,
    conjugate_gradient,
    conjugate_value,
    dual_in_interior,
    generic_conjugate_gradient,
    gradient,
    in_interior,
    inner,
    lemma_h,
    newton_raphson,
    pack,
    residual,
    sample_dual_point,
    svd,
    unpack,
    value,
)
from conftest import ALL_FAMILIES, MATRIX_FAMILIES, interior_point, random_cone
from test_scalars import bisect_omega

OFFSETS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)


def neg(cone, point):
    return unpack(cone, -pack(cone, point))


def dual_boundary_points(cone, r):
    """``r`` with one scalar block at 17 floats around its boundary value,
    computed from a values-only decomposition of a matrix block; for the
    radial families, the radial block with its norm at 17 floats around the
    power cap, along the sampled direction.  hpower's points sit on the
    equal-weight cap ``d prod r_i^(1/d)``, not on its own boundary."""
    family = cone.family.value
    if family in ("logdet", "rtdet"):
        lam = np.linalg.eigvalsh(r.mat)
    elif family == "lspec":
        lam = np.linalg.svd(r.mat, compute_uv=False)
    else:
        lam = r.vec
    if family in ("rpower", "rgeom"):
        direction = r.epi / np.linalg.norm(np.atleast_1d(r.epi))
        cap = float(np.exp(np.dot(cone.alpha, np.log(lam / cone.alpha))))
        for x in cap + np.spacing(cap) * np.arange(-8, 9):
            yield ConePoint(epi=x * direction, vec=r.vec)
        return
    p = float(r.epi)
    if family in ("log", "logdet"):
        block, edge = "persp", p * float(np.sum(np.log(-lam / p))) + p * lam.size
    elif family in ("linf", "lspec"):
        block, edge = "epi", float(np.sum(np.abs(lam)))
    else:
        block, edge = "epi", -lam.size * float(np.exp(np.mean(np.log(lam))))
    for x in edge + np.spacing(edge) * np.arange(-8, 9):
        yield ConePoint(epi=x if block == "epi" else r.epi,
                        persp=x if block == "persp" else r.persp, vec=r.vec, mat=r.mat)


def mp_conjugate_value(cone, r):
    """f*(r) = -<r, w> - f(w) at the minimizer w of ``<r, w> + f(w)``, in 50
    digits and rounded once to binary64, for the binary64 ``r`` and weights
    (a matrix block's spectrum in 50 digits).  w comes from Newton's root of
    the family's stationarity condition in y, started at the binary64 root.
    Binary64 power weights sum to 1 only within an ulp, so the hypograph
    condition is ``h(y) + (1 - sum alpha) log y = 0``."""
    import mpmath as mp

    with mp.workdps(50):
        return float(_mp_conjugate_value(mp, cone, r))


def _mp_conjugate_value(mp, cone, r):
    lift = cone.rules.lift
    if lift == "eig":
        lam = list(mp.eigsy(mp.matrix(r.mat.tolist()), eigvals_only=True))
    elif lift == "svd":
        lam = list(mp.svd_r(mp.matrix(r.mat.tolist()), compute_uv=False))
    else:
        lam = [mp.mpf(float(v)) for v in r.vec]
    d, p = len(lam), mp.mpf(float(r.epi))
    if cone.rules.vector.value == "linf":
        y = mp.mpf(float(conjugate_gradient(cone, r).g_star.epi))
        roots = [mp.sqrt(1 + (v * y) ** 2) for v in lam]
        for _ in range(6):  # quadratic from a root good to 1e-9
            y -= (p * y + mp.fsum(roots) + 1) / (
                p + mp.fsum(v * v * y / s for v, s in zip(lam, roots)))
            roots = [mp.sqrt(1 + (v * y) ** 2) for v in lam]
        u, w = -y, [-v * y * y / (s + 1) for v, s in zip(lam, roots)]
        f = -mp.fsum(mp.log(u * u - x * x) for x in w) + (d - 1) * mp.log(u)
    else:
        al = ([mp.mpf(float(a)) for a in cone.alpha] if cone.rules.weights == "given"
              else [mp.mpf(1) / d] * d)
        gap = 1 - mp.fsum(al)
        y = mp.mpf(newton_raphson(lemma_h(cone, r), 0.0).root)
        for _ in range(6):
            y -= ((mp.fsum(a * (mp.log(y - p * a) - mp.log(v)) for a, v in zip(al, lam))
                   + gap * mp.log(y))
                  / (mp.fsum(a / (y - p * a) for a in al) + gap / y))
        u, w = 1 / p + 1 / y, [(1 - p * a / y) / v for a, v in zip(al, lam)]
        phi = mp.exp(mp.fsum(a * mp.log(x) for a, x in zip(al, w)))
        f = -mp.log(phi - u) - mp.fsum(mp.log(x) for x in w)
    return -(u * p + mp.fsum(x * v for x, v in zip(w, lam))) - f


def roundtrip_error(cone, r):
    """|| -g(-g*(r)) - r || / (1 + ||r||)."""
    res = conjugate_gradient(cone, r)
    assert res.converged
    w = neg(cone, res.g_star)
    assert in_interior(cone, w)
    g = pack(cone, gradient(cone, w))
    rf = pack(cone, r)
    return float(np.linalg.norm(-g - rf) / (1 + np.linalg.norm(rf))), res


class TestWorkedExamples:
    def test_hgeom(self):
        cone = ConeDescriptor.hgeom(2)
        res = conjugate_gradient(cone, ConePoint(epi=-1.0, vec=np.array([1.0, 1.0])))
        assert res.g_star.epi == pytest.approx(-1.0, abs=1e-14)
        np.testing.assert_allclose(res.g_star.vec, [-2.0, -2.0], atol=1e-14)
        assert res.iterations == 0
        assert res.residual <= 1e-13

    def test_linf(self):
        cone = ConeDescriptor.linf(1)
        res = conjugate_gradient(cone, ConePoint(epi=2.0, vec=np.array([1.0])))
        assert res.g_star.epi == pytest.approx(-4.0 / 3.0, abs=1e-12)
        assert res.g_star.vec[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert res.residual <= 1e-13 * cone.nu

    def test_log_against_bisection_oracle(self):
        cone = ConeDescriptor.log(1)
        res = conjugate_gradient(cone, ConePoint(epi=-1.0, persp=0.0, vec=np.array([1.0])))
        # with p=-1, q=0, r=1 the argument of the omega function is 2
        wbar = bisect_omega(2.0)
        assert res.g_star.persp == pytest.approx(-1.0 / (wbar - 1.0), rel=1e-12)
        assert res.g_star.vec[0] == pytest.approx(-wbar / (wbar - 1.0), rel=1e-12)
        assert res.g_star.epi == pytest.approx((-3.0 + 2.0 * wbar) / (wbar - 1.0), rel=1e-11)
        assert res.g_star.epi == pytest.approx(0.2051370381473892, rel=1e-10)
        assert res.residual <= 1e-13 * cone.nu

    def test_rpower_zero_radial_branch(self):
        cone = ConeDescriptor.rpower(1, np.array([0.5, 0.5]))
        res = conjugate_gradient(cone, ConePoint(epi=np.array([0.0]),
                                                 vec=np.array([0.5, 0.5])))
        np.testing.assert_array_equal(res.g_star.epi, [0.0])
        np.testing.assert_allclose(res.g_star.vec, [-3.0, -3.0], atol=1e-13)
        assert res.iterations == 0

    def test_rgeom_closed_form(self):
        cone = ConeDescriptor.rgeom(2)
        res = conjugate_gradient(cone, ConePoint(epi=0.5, vec=np.array([0.5, 0.5])))
        # exact arithmetic: y = -2 + 2 (1/2 + sqrt(7)/2) / (3/4)
        expect = -2.0 + 2.0 * (0.5 + math.sqrt(1.75)) / 0.75
        assert res.g_star.epi == pytest.approx(expect, rel=1e-14)
        assert res.g_star.epi == pytest.approx(2.8610017480861214, rel=1e-12)
        np.testing.assert_allclose(res.g_star.vec,
                                   [-4.430500874043061, -4.430500874043061],
                                   rtol=1e-12)
        assert res.residual <= 1e-13 * cone.nu

    def test_linf_zero_vector_branch(self):
        cone = ConeDescriptor.linf(3)
        res = conjugate_gradient(cone, ConePoint(epi=2.0, vec=np.zeros(3)))
        assert res.g_star.epi == pytest.approx(-2.0, abs=1e-14)  # -(d+1)/p
        np.testing.assert_array_equal(res.g_star.vec, np.zeros(3))
        assert res.iterations == 0

    def test_linf_mixed_signs(self, rng):
        # signs of the conjugate components follow the signs of r
        cone = ConeDescriptor.linf(4)
        r = ConePoint(epi=2.5, vec=np.array([0.8, -0.6, 0.3, -0.1]))
        res = conjugate_gradient(cone, r)
        assert res.converged
        assert np.all(np.sign(res.g_star.vec) == np.sign(r.vec))
        w = neg(cone, res.g_star)
        back = -pack(cone, gradient(cone, w))
        assert np.linalg.norm(back - pack(cone, r)) <= 1e-10

    def test_linf_partially_zero_vector(self):
        # zero entries of r give zero conjugate components; the rest follow
        # the usual formula, and the round trip still closes
        cone = ConeDescriptor.linf(2)
        r = ConePoint(epi=1.0, vec=np.array([0.5, 0.0]))
        res = conjugate_gradient(cone, r)
        assert res.converged
        assert res.g_star.vec[1] == 0.0
        assert res.g_star.vec[0] != 0.0
        assert res.residual <= 1e-12 * cone.nu
        w = neg(cone, res.g_star)
        assert in_interior(cone, w)
        back = -pack(cone, gradient(cone, w))
        assert np.linalg.norm(back - pack(cone, r)) <= 1e-10

    def test_logdet_diagonal_matches_log(self, rng):
        d = 3
        r = rng.uniform(0.2, 1.0, d)
        p, q = -0.7, None
        q_bar = p * np.sum(np.log(-r / p)) + p * d
        q = q_bar * (1 + np.sign(q_bar) * 0.2)
        res_v = conjugate_gradient(ConeDescriptor.log(d),
                                   ConePoint(epi=p, persp=q, vec=r))
        res_m = conjugate_gradient(ConeDescriptor.logdet(d),
                                   ConePoint(epi=p, persp=q, mat=np.diag(r)))
        assert res_m.g_star.epi == pytest.approx(res_v.g_star.epi, rel=1e-12)
        assert res_m.g_star.persp == pytest.approx(res_v.g_star.persp, rel=1e-12)
        np.testing.assert_allclose(np.diag(res_m.g_star.mat), res_v.g_star.vec,
                                   rtol=1e-12)

    def test_rtdet_diagonal_matches_hgeom(self, rng):
        d = 4
        r = rng.uniform(0.2, 1.0, d)
        p = -0.8 * d * np.exp(np.mean(np.log(r)))
        res_v = conjugate_gradient(ConeDescriptor.hgeom(d), ConePoint(epi=p, vec=r))
        res_m = conjugate_gradient(ConeDescriptor.rtdet(d),
                                   ConePoint(epi=p, mat=np.diag(r)))
        assert res_m.g_star.epi == pytest.approx(res_v.g_star.epi, rel=1e-12)
        np.testing.assert_allclose(np.diag(res_m.g_star.mat), res_v.g_star.vec,
                                   rtol=1e-12)

    def test_lspec_diagonal_matches_linf(self, rng):
        d = 3
        r = rng.uniform(0.2, 1.0, d)
        p = 1.3 * np.sum(r)
        res_v = conjugate_gradient(ConeDescriptor.linf(d), ConePoint(epi=p, vec=r))
        res_m = conjugate_gradient(ConeDescriptor.lspec(d, d),
                                   ConePoint(epi=p, mat=np.diag(r)))
        assert res_m.g_star.epi == pytest.approx(res_v.g_star.epi, rel=1e-12)
        np.testing.assert_allclose(np.sort(np.diag(res_m.g_star.mat)),
                                   np.sort(res_v.g_star.vec), rtol=1e-11, atol=1e-13)


class TestLemmaH:
    def test_hpower_exact_root(self):
        # equal weights, p = -1, r = (1,1): the root is phi(r) + p/d = 1/2
        cone = ConeDescriptor.hpower(np.array([0.5, 0.5]))
        fn = lemma_h(cone, ConePoint(epi=-1.0, vec=np.array([1.0, 1.0])))
        h, hp = fn(0.5)
        assert h == pytest.approx(0.0, abs=1e-15)
        assert hp > 0.0

    def test_hpower_domain_error(self):
        cone = ConeDescriptor.hpower(np.array([0.5, 0.5]))
        fn = lemma_h(cone, ConePoint(epi=-1.0, vec=np.array([1.0, 1.0])))
        with pytest.raises(ValueError):
            fn(-0.6)  # below max(p alpha_i) = -1/2

    def test_rpower_equal_weights_root_is_yminus(self):
        from conebarriers.conjugate import _rgeom_yminus

        cone = ConeDescriptor.rpower(1, np.array([0.5, 0.5]))
        r = ConePoint(epi=np.array([0.5]), vec=np.array([0.5, 0.5]))
        fn = lemma_h(cone, r)
        m = math.sqrt(0.5 * 0.5)
        y = _rgeom_yminus(2, 0.5, m)
        h, _ = fn(y)
        assert h == pytest.approx(0.0, abs=1e-12)

    def test_rpower_domain_error(self):
        cone = ConeDescriptor.rpower(1, np.array([0.5, 0.5]))
        fn = lemma_h(cone, ConePoint(epi=np.array([0.5]), vec=np.array([0.5, 0.5])))
        with pytest.raises(ValueError):
            fn(-1.0)

    def test_rpower_zero_radial_rejected(self):
        cone = ConeDescriptor.rpower(2, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            lemma_h(cone, ConePoint(epi=np.zeros(2), vec=np.array([1.0, 1.0])))

    @pytest.mark.parametrize("family", ["hpower", "hgeom", "rtdet", "rpower", "rgeom",
                                        "linf", "lspec"])
    def test_exterior_and_nan_points_rejected(self, family, rng):
        # the reduction runs the oracles' domain step: outside the open dual
        # cone, or at a NaN entry, there is no root function to return
        cone = random_cone(family, rng)
        r = sample_dual_point(cone, 1e-3, rng)
        # past the cap, or below ||r||_1 for the norm families
        scale = 0.1 if family in ("linf", "lspec") else 10.0
        points = [replace(r, epi=scale * r.epi), replace(r, epi=np.nan * r.epi)]
        if r.vec is not None and family != "linf":
            rv = r.vec.copy()
            rv[0] = -rv[0]
            points.append(replace(r, vec=rv))
        for pt in points:
            assert not dual_in_interior(cone, pt)
            with pytest.raises(NotInteriorError):
                lemma_h(cone, pt)

    def test_log_has_no_reduction(self):
        cone = ConeDescriptor.log(2)
        r = ConePoint(epi=-1.0, persp=1.0, vec=np.ones(2))
        with pytest.raises(ValueError):
            lemma_h(cone, r)

    @pytest.mark.parametrize("family", ["hpower", "rpower", "linf", "lspec"])
    def test_start_points_have_correct_sign(self, family, rng):
        # the hypograph start is left of the root of an increasing h, the
        # radial start is left of the root of a decreasing h, and the norm
        # start is right of the root of an increasing h: h(y0) has a fixed
        # sign in all three cases
        from conebarriers.conjugate import (
            _linf_domain,
            _linf_reduction,
            _rgeom_yminus,
            _rpower_tail_start,
        )

        for _ in range(100):
            cone = random_cone(family, rng)
            o = 10.0 ** rng.uniform(-12, -0.5)
            r = sample_dual_point(cone, o, rng)
            fn = lemma_h(cone, r)
            fam = cone.family.value
            if fam == "hpower":
                h0, _ = fn(0.0)
                assert h0 <= 0.0
            elif fam == "rpower":
                s = float(np.linalg.norm(np.atleast_1d(r.epi)))
                rv = r.vec
                m = float(np.exp(np.dot(cone.alpha, np.log(rv))))
                y_minus = _rgeom_yminus(cone.d2, s, m)
                log_cap = float(np.dot(cone.alpha, np.log(rv / cone.alpha)))
                y_tail = _rpower_tail_start(cone.alpha, s, 2.0 * (math.log(s) - log_cap))
                y0 = y_minus if y_tail is None else max(y_minus, y_tail)
                h0, _ = fn(y0)
                assert h0 >= -1e-12
            else:
                sigma = r.vec if fam == "linf" else svd(r.mat).sigma
                p = float(r.epi)
                _, y0 = _linf_reduction(p, sigma, _linf_domain(cone, p, None, sigma))
                h0, _ = fn(y0)
                assert h0 >= 0.0

    def test_norm_callback_matches_direct_formula(self, rng):
        # away from the boundary nothing cancels, so the split form must
        # agree with h and h' evaluated directly, on both sides of y = 0
        for _ in range(20):
            cone = random_cone("linf", rng)
            # one zero entry, and signs of both kinds
            rv = rng.uniform(-1.0, 1.0, cone.d)
            rv[0] = 0.0
            p = 2.0 * float(np.sum(np.abs(rv)))
            fn = lemma_h(cone, ConePoint(epi=p, vec=rv))
            for y in (-7.0, -0.3, 0.0, 0.3, 7.0):
                root = np.sqrt(1.0 + (rv * y) ** 2)
                h, hp = fn(y)
                assert h == pytest.approx(p * y + np.sum(root) + 1.0, rel=1e-13, abs=1e-13)
                assert hp == pytest.approx(p + np.sum(rv**2 * y / root), rel=1e-13)

    @pytest.mark.parametrize("family", ["linf", "lspec"])
    @pytest.mark.parametrize("o", [1e-12, 1e-9, 1e-6])
    def test_norm_root_matches_mpmath(self, family, o, rng):
        # the root y = g*_p against a 50-digit root of the same function of
        # the same binary64 inputs; near the boundary p y cancels the square
        # roots, so this checks that h is evaluated without that cancellation
        import mpmath as mp

        for d in (2, 8, 24, 60):
            for _ in range(3):
                cone = ConeDescriptor.linf(d) if family == "linf" else \
                    ConeDescriptor.lspec(d, d)
                r = sample_dual_point(cone, o, rng)
                sigma = r.vec if family == "linf" else svd(r.mat).sigma
                yhat = float(conjugate_gradient(cone, r).g_star.epi)
                with mp.workdps(50):
                    p = mp.mpf(float(r.epi))
                    lam = [mp.mpf(float(v)) for v in sigma]
                    delta = p - mp.fsum(abs(v) for v in lam)

                    def h(y):
                        return p * y + mp.fsum(mp.sqrt(1 + (v * y) ** 2) for v in lam) + 1

                    # h(y) lies between delta y + 1 and delta y + 1 + d
                    y = mp.findroot(h, (-(d + 1) / delta, -1 / delta), solver="anderson")
                    assert abs(yhat - y) <= 1e-10 * abs(y)

    @pytest.mark.parametrize("o", [1e-12, 1e-9, 1e-6])
    def test_rpower_root_is_backward_stable(self, o, rng, monkeypatch):
        # the forward root error is about eps/o: h(inf) = a ~ -2o is a
        # difference of O(1) logs.  What the binary64 root can promise is a
        # small residual of the exact h of the same binary64 inputs, on the
        # scale of the logs that make up a.  h is taken in its direct form,
        # for the weights as given: they sum to 1 only within an ulp
        import mpmath as mp

        from conebarriers import conjugate

        roots = []

        def spy(fn, y0):
            res = newton_raphson(fn, y0)
            roots.append(res)
            return res

        monkeypatch.setattr(conjugate, "newton_raphson", spy)
        eps = np.finfo(float).eps
        for d in (2, 8, 24, 60):
            for d1 in (1, 2, 3):
                a = rng.uniform(0.05, 1.0, d)
                cone = ConeDescriptor.rpower(d1, a / a.sum())
                r = sample_dual_point(cone, o, rng)
                res = conjugate_gradient(cone, r)
                assert res.converged and res.iterations <= 8
                with mp.workdps(50):
                    y = mp.mpf(roots[-1].root)
                    s = mp.sqrt(mp.fsum(mp.mpf(float(v)) ** 2 for v in r.epi))
                    al = [mp.mpf(float(v)) for v in cone.alpha]
                    rv = [mp.mpf(float(v)) for v in r.vec]
                    h = (mp.fsum(2 * ai * mp.log(2 * ai * y * y + 2 * y * (1 + ai) / s)
                                 - 2 * ai * mp.log(ri) for ai, ri in zip(al, rv))
                         - mp.log(2 * y / s + y * y) - 2 * mp.log(2 * y / s))
                    scale = abs(mp.log(s)) + mp.fsum(abs(ai * mp.log(ri / ai))
                                                     for ai, ri in zip(al, rv))
                    assert abs(h) <= 64 * eps * scale

    @pytest.mark.parametrize("s", [1e-7, 1e-9, 1e-11])
    @pytest.mark.parametrize("family", ["rgeom", "rpower"])
    def test_radial_root_at_small_norm_matches_mpmath(self, family, s):
        # the root y = g*_p is of size s, and the closed-form root of the
        # equal-weight reduction (rgeom's g*, rpower's start) is a difference
        # of two terms of size 1/s unless that is cancelled in closed form;
        # uncancelled, it can read the wrong sign, or start rpower's
        # iteration at y <= 0.  The reference is the 50-digit root of the
        # direct form of h, for the same binary64 inputs; rgeom's root is
        # closed form, rpower's meets the Newton-Raphson stop rule, |h/h'|
        # below 1e-9 relative
        import mpmath as mp

        rv = np.array([0.3, 0.6, 0.9])
        if family == "rgeom":
            cone, r = ConeDescriptor.rgeom(3), ConePoint(epi=s, vec=rv)
        else:
            cone = ConeDescriptor.rpower(2, np.array([0.2, 0.3, 0.5]))
            r = ConePoint(epi=np.array([s, 0.0]), vec=rv)
        res = conjugate_gradient(cone, r)
        yhat = float(np.atleast_1d(res.g_star.epi)[0])
        assert res.converged and yhat > 0.0
        with mp.workdps(50):
            sm = mp.mpf(s)
            al = [mp.mpf(float(v)) for v in cone.alpha]
            rr = [mp.mpf(float(v)) for v in rv]

            def h(t):
                # h at y = s t, scaled so that the root t is of order 1
                y = sm * t
                return (mp.fsum(2 * ai * mp.log(2 * ai * y * y + 2 * y * (1 + ai) / sm)
                                - 2 * ai * mp.log(ri) for ai, ri in zip(al, rr))
                        - mp.log(2 * y / sm + y * y) - 2 * mp.log(2 * y / sm))

            y = sm * mp.findroot(h, mp.mpf(yhat / s))
            assert abs(yhat - y) <= (1e-13 if family == "rgeom" else 1e-9) * y


class TestRoundTrips:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_dual_round_trip(self, family, rng):
        # -g(-g*(r)) = r; the bound for the log families loosens at deep
        # offsets, where representing -g* in binary64 already loses more
        # boundary information than the 1e-8 target (see the project notes)
        for o in OFFSETS:
            for _ in range(40):
                cone = random_cone(family, rng)
                r = sample_dual_point(cone, o, rng)
                err, res = roundtrip_error(cone, r)
                if family in ("log", "logdet") and o < 1e-3:
                    assert err <= 2e-6
                else:
                    assert err <= 1e-8

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_primal_round_trip(self, family, rng):
        # -g*(-g(w)) = w for interior primal points with an O(1) margin
        for _ in range(100):
            cone = random_cone(family, rng)
            w = interior_point(cone, rng)
            r = neg(cone, gradient(cone, w))
            res = conjugate_gradient(cone, r)
            assert res.converged
            diff = np.linalg.norm(pack(cone, res.g_star) + pack(cone, w))
            assert diff <= 1e-8 * (1 + np.linalg.norm(pack(cone, w)))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_residuals_of_converged_results(self, family, rng):
        for o in OFFSETS:
            for _ in range(20):
                cone = random_cone(family, rng)
                r = sample_dual_point(cone, o, rng)
                res = conjugate_gradient(cone, r)
                assert res.converged
                if family in ("log", "logdet") and o < 1e-2:
                    assert res.residual <= 1e-7 * cone.nu
                else:
                    assert res.residual <= 1e-10 * cone.nu

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_iteration_counts_small(self, family, rng):
        for o in OFFSETS:
            for _ in range(10):
                cone = random_cone(family, rng, d=None)
                r = sample_dual_point(cone, o, rng)
                res = conjugate_gradient(cone, r)
                assert res.converged
                assert res.iterations <= 10

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_scaling_covariance(self, family, rng):
        # g* is homogeneous of degree -1
        for _ in range(30):
            cone = random_cone(family, rng)
            r = sample_dual_point(cone, 0.2, rng)
            base = pack(cone, conjugate_gradient(cone, r).g_star)
            for theta in (1e-3, 3.7, 1e3):
                scaled = pack(cone, conjugate_gradient(
                    cone, unpack(cone, theta * pack(cone, r))).g_star)
                assert np.linalg.norm(scaled - base / theta) <= \
                    1e-10 * np.linalg.norm(base) / theta

    def test_equal_weight_specializations_coincide(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 9))
            r = rng.uniform(0.1, 1.0, d)
            cap = d * np.exp(np.mean(np.log(r)))
            p = -0.6 * cap
            point = ConePoint(epi=p, vec=r)
            a = np.full(d, 1.0 / d)
            g1 = conjugate_gradient(ConeDescriptor.hgeom(d), point).g_star
            g2 = conjugate_gradient(ConeDescriptor.hpower(a), point).g_star
            assert g1.epi == pytest.approx(g2.epi, rel=1e-12)
            np.testing.assert_allclose(g1.vec, g2.vec, rtol=1e-12)

            s = 0.4 * cap
            point = ConePoint(epi=s, vec=r)
            g3 = conjugate_gradient(ConeDescriptor.rgeom(d), point).g_star
            g4 = conjugate_gradient(
                ConeDescriptor.rpower(1, a),
                ConePoint(epi=np.array([s]), vec=r)).g_star
            assert g3.epi == pytest.approx(float(np.atleast_1d(g4.epi)[0]), rel=1e-12)
            np.testing.assert_allclose(g3.vec, g4.vec, rtol=1e-12)

    def test_equal_boundary_rgeom_deep_offset(self, rng):
        # points near the equal-weight cone's own boundary stay accurate
        for o in OFFSETS:
            d = 6
            r = rng.uniform(0.1, 1.0, d)
            cap = d * np.exp(np.mean(np.log(r)))
            for sign in (1.0, -1.0):
                cone = ConeDescriptor.rgeom(d)
                err, res = roundtrip_error(cone, ConePoint(epi=sign * (1 - o) * cap, vec=r))
                assert err <= 1e-8


class TestConjugateValue:
    def test_hgeom_closed_form(self):
        cone = ConeDescriptor.hgeom(2)
        r = ConePoint(epi=-1.0, vec=np.array([1.0, 1.0]))
        assert conjugate_value(cone, r) == pytest.approx(-3.0 + 2.0 * math.log(2.0),
                                                         rel=1e-14)

    def test_log_closed_form(self):
        cone = ConeDescriptor.log(1)
        r = ConePoint(epi=-1.0, persp=0.0, vec=np.array([1.0]))
        wbar = bisect_omega(2.0)
        expect = -3.0 - math.log((wbar - 1.0) ** 2 / wbar)
        assert conjugate_value(cone, r) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_consistent_with_barrier_at_minimizer(self, family, rng):
        # f*(r) = -nu - f(-g*(r)) for every family, also at a zero radial block
        for k in range(30):
            cone = random_cone(family, rng)
            r = sample_dual_point(cone, 0.3, rng)
            if k == 0 and family in ("rpower", "rgeom"):
                r = replace(r, epi=0.0 * r.epi)
            f1 = conjugate_value(cone, r)
            f2 = -cone.nu - value(cone, neg(cone, conjugate_gradient(cone, r).g_star))
            assert f1 == pytest.approx(f2, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("family", ["hpower", "hgeom", "rtdet", "linf", "lspec"])
    def test_matches_mpmath(self, family):
        # against the conjugate's definition in 50 digits, for the same
        # binary64 r.  f* moves by sum |g*_i r_i| per unit relative change
        # of the packed entries, so a few eps times that is the rounding of
        # the input; -nu - f(-g*) read 7.8 of it here for hpower, where
        # phi(w) - u cancels
        eps = np.finfo(float).eps
        rng = np.random.default_rng(5)
        for o in (1e-1, 1e-3, 1e-6, 1e-9, 1e-12):
            for _ in range(4):
                cone = (ConeDescriptor.lspec(4, 6) if family == "lspec"
                        else random_cone(family, rng, d=4 if family == "rtdet" else 6))
                r = sample_dual_point(cone, o, rng)
                g = pack(cone, conjugate_gradient(cone, r).g_star)
                scale = float(np.abs(g * pack(cone, r)).sum())
                err = abs(conjugate_value(cone, r) - mp_conjugate_value(cone, r))
                assert err <= 4 * eps * scale, (o, err / (eps * scale))


class TestValidation:
    def test_rejects_non_interior_dual(self):
        cone = ConeDescriptor.linf(2)
        with pytest.raises(NotInteriorError):
            conjugate_gradient(cone, ConePoint(epi=1.0, vec=np.array([1.0, 1.0])))

    def test_rejects_boundary_dual(self):
        cone = ConeDescriptor.hgeom(2)
        cap = 2.0 * np.exp(0.5 * np.log(1.0))
        with pytest.raises(NotInteriorError):
            conjugate_gradient(cone, ConePoint(epi=-cap, vec=np.array([1.0, 1.0])))

    @pytest.mark.parametrize("family", MATRIX_FAMILIES)
    def test_one_decomposition_per_call(self, family, rng, monkeypatch):
        # membership is tested on the spectrum the oracle decomposes; no
        # values-only decomposition runs beside it, and f* calls no primal
        # oracle that would decompose again
        from conebarriers import barriers, conjugate

        cone = random_cone(family, rng)
        r = sample_dual_point(cone, 1e-3, rng)
        exterior = ConePoint(epi=-r.epi, persp=r.persp, mat=r.mat)
        calls = []

        def counted(fn):
            def wrapper(a):
                calls.append(fn.__name__)
                return fn(a)
            return wrapper

        def no_values_only(*args, **kwargs):
            raise AssertionError("values-only decomposition")

        svd_full = np.linalg.svd

        def svd_with_frames(a, *args, **kwargs):
            if not kwargs.get("compute_uv", True):
                no_values_only()
            return svd_full(a, *args, **kwargs)

        for module in (barriers, conjugate):
            monkeypatch.setattr(module, "sym_eigen", counted(module.sym_eigen))
            monkeypatch.setattr(module, "svd", counted(module.svd))
        monkeypatch.setattr(np.linalg, "eigvalsh", no_values_only)
        monkeypatch.setattr(np.linalg, "svd", svd_with_frames)
        for oracle in (conjugate_gradient, conjugate_value):
            calls.clear()
            oracle(cone, r)
            assert len(calls) == 1
            calls.clear()
            with pytest.raises(NotInteriorError):
                oracle(cone, exterior)
            assert len(calls) == 1
            if family != "lspec":
                skew = r.mat.copy()
                skew[0, -1] += 1e-3
                with pytest.raises(ValueError, match="not symmetric"):
                    oracle(cone, ConePoint(epi=r.epi, persp=r.persp, mat=skew))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_membership_agrees_with_oracle_at_the_boundary(self, family):
        # the sampler accepts a point by dual_in_interior, and an
        # interior-point method relies on "r is interior" and "g*(r)
        # evaluates" being the same statement: within rounding of the
        # boundary, every accepted point evaluates g* and f*, and every
        # rejected point makes both raise NotInteriorError
        def raises(oracle, cone, pt):
            try:
                oracle(cone, pt)
            except NotInteriorError:
                return True
            return False

        for seed in (11, 12, 13):
            rng = np.random.default_rng(seed)
            for _ in range(20):
                cone = random_cone(family, rng, d=6)
                r = sample_dual_point(cone, 1e-3, rng)
                for pt in dual_boundary_points(cone, r):
                    outside = not dual_in_interior(cone, pt)
                    assert raises(conjugate_gradient, cone, pt) == outside
                    assert raises(conjugate_value, cone, pt) == outside

    def test_linf_slack_below_rounding_raises(self):
        # ||r||_1 rounds to 1 below p = 1 + ulp, but its exact value exceeds
        # p: membership reads the same correctly rounded slack as the
        # reduction, so it rejects r, and the oracle raises
        cone = ConeDescriptor.linf(4)
        r = ConePoint(epi=1.0 + np.spacing(1.0), vec=np.array([1.0, 1e-16, 1e-16, 1e-16]))
        assert not dual_in_interior(cone, r)
        with pytest.raises(NotInteriorError):
            conjugate_gradient(cone, r)

    def test_lspec_slack_within_spectrum_rounding_rejected(self):
        # p - sum(sigma) within the rounding of computed singular values
        # certifies nothing: the start -1/delta then met the stop rule with
        # |<g*, r> + nu| up to 13, and -g* could leave the primal cone.  At
        # every point the dual check accepts, the slack exceeds the bound, g*
        # pairs with r to a fraction of nu, and f* evaluates
        rng = np.random.default_rng(11)
        eps = np.finfo(float).eps
        for _ in range(20):
            cone = random_cone("lspec", rng, d=6)
            r = sample_dual_point(cone, 1e-3, rng)
            for pt in dual_boundary_points(cone, r):
                if not dual_in_interior(cone, pt):
                    with pytest.raises(NotInteriorError):
                        conjugate_gradient(cone, pt)
                    continue
                sigma = svd(pt.mat).sigma
                assert pt.epi - float(np.sum(sigma)) > 8.0 * cone.d1 * eps * sigma[0]
                res = conjugate_gradient(cone, pt)
                assert res.converged
                assert res.residual <= 0.25 * cone.nu
                assert math.isfinite(conjugate_value(cone, pt))

    def test_hpower_value_at_its_own_cap(self):
        # within a few ulps of power_cap the root rounds to 0, or to where
        # -g* is not inside the primal cone; f* then raises NotInteriorError,
        # not a division by zero or a math domain error
        from conebarriers.conjugate import power_cap

        rng = np.random.default_rng(12)
        for _ in range(20):
            cone = random_cone("hpower", rng, d=6)
            r = sample_dual_point(cone, 1e-3, rng)
            cap = power_cap(cone.alpha, r.vec)
            for x in -cap + np.spacing(cap) * np.arange(-8, 9):
                try:
                    assert math.isfinite(conjugate_value(cone, ConePoint(epi=x, vec=r.vec)))
                except NotInteriorError:
                    pass

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_hpower_gradient_at_its_own_cap(self, seed):
        # the 17-float probe on hpower's own boundary power_cap(alpha, r):
        # where the root rounds to 0, g* raises NotInteriorError, not a
        # division by zero.  Membership still accepts such points
        from conebarriers.conjugate import power_cap

        rng = np.random.default_rng(seed)
        for _ in range(20):
            cone = random_cone("hpower", rng, d=6)
            r = sample_dual_point(cone, 1e-3, rng)
            cap = power_cap(cone.alpha, r.vec)
            for x in -cap + np.spacing(cap) * np.arange(-8, 9):
                pt = ConePoint(epi=x, vec=r.vec)
                if not dual_in_interior(cone, pt):
                    continue
                try:
                    g_star = conjugate_gradient(cone, pt).g_star
                except NotInteriorError:
                    continue
                assert np.all(np.isfinite(pack(cone, g_star)))

    @pytest.mark.parametrize("family", ["log", "logdet", "hgeom", "rtdet", "rpower", "rgeom",
                                        "linf", "lspec"])
    def test_accepted_boundary_points_give_finite_gradients(self, family, rng):
        # next to the boundary the domain step rejects every point whose
        # slack rounds to the wrong sign: an accepted point gets a finite g*
        # and f*, never NotInteriorError, a division by zero or a NaN
        for _ in range(20):
            cone = random_cone(family, rng, d=6)
            r = sample_dual_point(cone, 1e-3, rng)
            for pt in dual_boundary_points(cone, r):
                if not dual_in_interior(cone, pt):
                    continue
                g_star = conjugate_gradient(cone, pt).g_star
                assert np.all(np.isfinite(pack(cone, g_star))), family
                assert math.isfinite(conjugate_value(cone, pt)), family

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_residual_matches_experiment_residual(self, family, rng):
        # the oracle's residual on the packed blocks is the same float as
        # |<g*, r> + nu| through inner
        for o in (1e-1, 1e-6):
            cone = random_cone(family, rng)
            r = sample_dual_point(cone, o, rng)
            res = conjugate_gradient(cone, r)
            assert res.residual == residual(cone, res.g_star, r)

    def test_extreme_finite_points_classify(self):
        # an fsum past the largest float, or an infinite beta, is a
        # classification (not interior), not an exception
        huge = np.finfo(float).max
        linf = ConeDescriptor.linf(2)
        assert not dual_in_interior(linf, ConePoint(epi=1.0, vec=np.array([huge, huge])))
        log = ConeDescriptor.log(2)
        for q in (huge, -huge):
            # -q/p overflows to -inf or +inf; +inf leaves g* at 0/0
            pt = ConePoint(epi=-1e-10, persp=q, vec=np.ones(2))
            assert not dual_in_interior(log, pt)
            with pytest.raises(NotInteriorError):
                conjugate_gradient(log, pt)

    @pytest.mark.parametrize("family, t", [("linf", 1e-160), ("linf", 1e-200),
                                           ("linf", 2.0**-600), ("lspec", 1e-200)])
    def test_norm_root_past_binary64_raises_typed(self, family, t):
        # at t r, h's root is about -(d + 1) / p and its square overflows:
        # g* and f* end as NotInteriorError until ROADMAP item 7 normalizes
        # the scale; at t = 1e-150 both evaluate and g* scales as 1 / t
        if family == "linf":
            cone, r = ConeDescriptor.linf(3), ConePoint(epi=2.0, vec=np.array([0.3, 0.5, 0.7]))
        else:
            cone = ConeDescriptor.lspec(2, 3)
            r = ConePoint(epi=2.0, mat=np.array([[0.3, 0.1, 0.0], [0.0, 0.5, 0.2]]))
        x = pack(cone, r)
        for oracle in (conjugate_gradient, conjugate_value):
            with pytest.raises(NotInteriorError):
                oracle(cone, unpack(cone, t * x))
        g = pack(cone, conjugate_gradient(cone, r).g_star)
        scaled = pack(cone, conjugate_gradient(cone, unpack(cone, 1e-150 * x)).g_star)
        assert np.linalg.norm(1e-150 * scaled - g) <= 1e-12 * np.linalg.norm(g)
        assert math.isfinite(conjugate_value(cone, unpack(cone, 1e-150 * x)))

    def test_beta_below_exp_normal_range_classifies(self):
        # beta is about -1024, where exp(beta) underflows to 0: Wright omega
        # returns exp(beta), wbar - 1 < 0, and the point is not interior
        for cone, pt in (
            (ConeDescriptor.log(3),
             ConePoint(epi=-1.0, persp=-1000.0, vec=np.full(3, 1e-300))),
            (ConeDescriptor.logdet(3),
             ConePoint(epi=-1.0, persp=-1000.0, mat=1e-300 * np.eye(3))),
        ):
            assert not dual_in_interior(cone, pt)
            with pytest.raises(NotInteriorError):
                conjugate_gradient(cone, pt)
            with pytest.raises(NotInteriorError):
                generic_conjugate_gradient(cone, pt)
