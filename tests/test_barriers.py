import numpy as np
import pytest

from conebarriers import (
    BarrierWorkspace,
    ConeDescriptor,
    ConePoint,
    NotInteriorError,
    cholesky_solve,
    conjugate_gradient,
    gradient,
    hessian_apply,
    hessian_dense,
    inner,
    inverse_hessian_apply,
    pack,
    sample_dual_point,
    unpack,
    value,
)
from conftest import (
    ALL_FAMILIES,
    VECTOR_FAMILIES,
    interior_point,
    rand_orthogonal,
    random_cone,
    random_direction,
)
import mp_reference


class TestValue:
    def test_hgeom_zero(self):
        cone = ConeDescriptor.hgeom(2)
        assert value(cone, ConePoint(epi=0.0, vec=np.array([1.0, 1.0]))) == 0.0

    def test_linf_zero(self):
        cone = ConeDescriptor.linf(1)
        assert value(cone, ConePoint(epi=1.0, vec=np.array([0.0]))) == 0.0

    def test_log_zero(self):
        cone = ConeDescriptor.log(1)
        assert value(cone, ConePoint(epi=-1.0, persp=1.0, vec=np.array([1.0]))) == 0.0

    def test_rejects_non_interior(self):
        cone = ConeDescriptor.linf(2)
        with pytest.raises(NotInteriorError):
            value(cone, ConePoint(epi=1.0, vec=np.array([1.0, 0.0])))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_log_homogeneity(self, family, rng):
        for _ in range(30):
            cone = random_cone(family, rng)
            w = interior_point(cone, rng)
            f0 = value(cone, w)
            for theta in (1e-3, 0.37, 1.0, 42.0, 1e3):
                fs = value(cone, unpack(cone, theta * pack(cone, w)))
                assert fs == pytest.approx(f0 - cone.nu * np.log(theta), abs=1e-10 * (1 + abs(f0)))


class TestGradient:
    def test_linf_example(self):
        cone = ConeDescriptor.linf(1)
        g = gradient(cone, ConePoint(epi=1.0, vec=np.array([0.0])))
        assert g.epi == -2.0
        assert g.vec[0] == 0.0

    def test_hpower_example(self):
        cone = ConeDescriptor.hpower(np.array([1.0]))
        g = gradient(cone, ConePoint(epi=-1.0, vec=np.array([1.0])))
        assert g.epi == pytest.approx(0.5)
        assert g.vec[0] == pytest.approx(-1.5)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_nu_identity(self, family, rng):
        for _ in range(200):
            cone = random_cone(family, rng)
            w = interior_point(cone, rng)
            g = gradient(cone, w)
            assert abs(inner(cone, g, w) + cone.nu) <= 1e-10 * cone.nu

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_matches_finite_differences(self, family, rng):
        for _ in range(25):
            cone = random_cone(family, rng)
            w = interior_point(cone, rng)
            x0 = pack(cone, w)
            g = pack(cone, gradient(cone, w))
            h = 1e-6 * (1 + np.linalg.norm(x0))
            for _ in range(3):
                d = random_direction(cone, rng)
                fd = (value(cone, unpack(cone, x0 + h * d))
                      - value(cone, unpack(cone, x0 - h * d))) / (2 * h)
                dg = float(np.dot(g, d))
                assert abs(dg - fd) <= 1e-5 * (1 + abs(dg))

    def test_logdet_diagonal_matches_log(self, rng):
        d = 4
        w = rng.uniform(0.5, 2.0, d)
        v = 1.3
        u = v * (np.log(w).sum() - d * np.log(v)) - 0.5
        glog = gradient(ConeDescriptor.log(d), ConePoint(epi=u, persp=v, vec=w))
        gldet = gradient(ConeDescriptor.logdet(d),
                         ConePoint(epi=u, persp=v, mat=np.diag(w)))
        np.testing.assert_allclose(np.diag(gldet.mat), glog.vec, atol=1e-12)
        np.testing.assert_allclose(gldet.mat - np.diag(np.diag(gldet.mat)), 0, atol=1e-12)
        assert gldet.epi == pytest.approx(glog.epi, abs=1e-13)
        assert gldet.persp == pytest.approx(glog.persp, abs=1e-13)


class TestHessian:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_action_on_point_gives_negative_gradient(self, family, rng):
        # differentiate f(theta w) = f(w) - nu log theta: H(w) w = -g(w)
        for _ in range(50):
            cone = random_cone(family, rng)
            w = interior_point(cone, rng)
            hw = pack(cone, hessian_apply(cone, w, w))
            g = pack(cone, gradient(cone, w))
            assert np.linalg.norm(hw + g) <= 1e-10 * (1 + np.linalg.norm(g))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_matches_finite_differences_of_gradient(self, family, rng):
        for _ in range(25):
            cone = random_cone(family, rng)
            w = interior_point(cone, rng)
            x0 = pack(cone, w)
            h = 1e-6 * (1 + np.linalg.norm(x0))
            d = random_direction(cone, rng)
            hd = pack(cone, hessian_apply(cone, w, unpack(cone, d)))
            gp = pack(cone, gradient(cone, unpack(cone, x0 + h * d)))
            gm = pack(cone, gradient(cone, unpack(cone, x0 - h * d)))
            fd = (gp - gm) / (2 * h)
            assert np.linalg.norm(hd - fd) <= 1e-5 * (1 + np.linalg.norm(hd))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_symmetric_and_positive(self, family, rng):
        for _ in range(30):
            cone = random_cone(family, rng)
            ws = BarrierWorkspace(cone, pack(cone, interior_point(cone, rng)))
            x = random_direction(cone, rng)
            y = random_direction(cone, rng)
            hx = ws.hessian_apply(x)
            hy = ws.hessian_apply(y)
            assert float(np.dot(y, hx)) == pytest.approx(float(np.dot(x, hy)),
                                                         rel=1e-9, abs=1e-9)
            assert float(np.dot(x, hx)) > 0.0

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_action_matches_definition(self, family, rng):
        # entry i of H(w) x is d^2/ds dt f(w + s e_i + t x) at 50 digits,
        # with f written from its definition (mp_reference); for logdet and
        # rtdet x stays symmetric, where f is the barrier, and lspec's f is
        # defined on the full matrix space
        for k in range(3):
            if family in ("logdet", "rtdet"):
                cone = random_cone(family, rng, d=2)
            elif family == "lspec":
                cone = ConeDescriptor.lspec(2, 2 + k % 2)
            else:
                cone = random_cone(family, rng, d=2 + k)
            w = pack(cone, interior_point(cone, rng))
            x = (rng.standard_normal(cone.ambient_dim) if family == "lspec"
                 else random_direction(cone, rng))
            hx = BarrierWorkspace(cone, w).hessian_apply(x)
            ref = np.array([float(y) for y in mp_reference.hessian_action(cone, w, x)])
            assert np.linalg.norm(hx - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("family", ["logdet", "rtdet"])
    def test_skew_directions(self, family, rng):
        # f is a barrier on symmetric W only; the lifted Hessian extends it
        # to the full matrix space as X -> c W^-1 X W^-1 on skew X, with no
        # u or v part, which keeps H positive definite there (a convention,
        # not a derivative of f)
        for _ in range(20):
            cone = random_cone(family, rng)
            w = interior_point(cone, rng)
            ws = BarrierWorkspace(cone, pack(cone, w))
            a = rng.standard_normal((cone.d, cone.d))
            skew = a - a.T
            x = np.zeros(cone.ambient_dim)
            x[cone.layout.mat] = skew.ravel()
            winv = np.linalg.inv(w.mat)
            expected = np.zeros(cone.ambient_dim)
            expected[cone.layout.mat] = (ws._c() * winv @ skew @ winv).ravel()
            hx = ws.hessian_apply(x)
            assert np.linalg.norm(hx - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_matrix_cone_diagonal_matches_vector(self, rng):
        # at a diagonal point and direction, the lifted Hessian and its
        # inverse are the vector family's on the diagonal and zero off it
        d = 4
        for _ in range(10):
            w = rng.uniform(0.5, 2.0, d)
            v = rng.uniform(0.5, 2.0)
            signed = w * rng.choice([-1.0, 1.0], d)
            pairs = [
                (ConeDescriptor.log(d), ConeDescriptor.logdet(d), w,
                 {"epi": v * (np.log(w).sum() - d * np.log(v)) - 0.5, "persp": v}),
                (ConeDescriptor.hgeom(d), ConeDescriptor.rtdet(d), w,
                 {"epi": np.exp(np.mean(np.log(w))) - 0.5}),
                (ConeDescriptor.linf(d), ConeDescriptor.lspec(d, d), signed,
                 {"epi": np.abs(signed).max() + 0.5}),
            ]
            for cone_v, cone_m, vec, scalars in pairs:
                x = rng.standard_normal(cone_v.ambient_dim)
                xs = dict(zip(scalars, x))
                xvec = x[len(xs):]
                for oracle in (hessian_apply, inverse_hessian_apply):
                    yv = oracle(cone_v, ConePoint(vec=vec, **scalars),
                                ConePoint(vec=xvec, **xs))
                    ym = oracle(cone_m, ConePoint(mat=np.diag(vec), **scalars),
                                ConePoint(mat=np.diag(xvec), **xs))
                    assert ym.epi == pytest.approx(yv.epi, rel=1e-12)
                    if "persp" in scalars:
                        assert ym.persp == pytest.approx(yv.persp, rel=1e-12)
                    np.testing.assert_allclose(np.diag(ym.mat), yv.vec, rtol=1e-12)
                    off = ym.mat - np.diag(np.diag(ym.mat))
                    assert np.abs(off).max() <= 1e-12 * np.abs(yv.vec).max()


class TestPackedWorkspace:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_packed_matches_cone_point(self, family, rng):
        # one code path: the ConePoint functions only pack and unpack
        for _ in range(10):
            cone = random_cone(family, rng)
            w = interior_point(cone, rng)
            ws = BarrierWorkspace(cone, pack(cone, w))
            assert value(cone, w) == ws.value()
            np.testing.assert_array_equal(pack(cone, gradient(cone, w)), ws.gradient())
            x = random_direction(cone, rng)
            for oracle in (hessian_apply, inverse_hessian_apply):
                packed = getattr(ws, oracle.__name__)(x)
                assert isinstance(packed, np.ndarray)
                np.testing.assert_array_equal(packed, pack(cone, oracle(cone, w, unpack(cone, x))))
            dense = hessian_dense(cone, w)
            assert dense.shape == (cone.ambient_dim, cone.ambient_dim)
            np.testing.assert_array_equal(dense, ws.hessian_dense())

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_packed_input_checks(self, family, rng):
        cone = random_cone(family, rng)
        wf = pack(cone, interior_point(cone, rng))
        with pytest.raises(ValueError):
            BarrierWorkspace(cone, wf[:-1])
        with pytest.raises(ValueError):
            BarrierWorkspace(cone, np.append(wf, 1.0))
        with pytest.raises(NotInteriorError):
            BarrierWorkspace(cone, -wf)
        with pytest.raises(ValueError):
            BarrierWorkspace(cone, wf).hessian_apply(wf[:-1])


class TestInverseHessian:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_inverse_composition_identity(self, family, rng):
        for _ in range(30):
            cone = random_cone(family, rng)
            ws = BarrierWorkspace(cone, pack(cone, interior_point(cone, rng)))
            x = random_direction(cone, rng)
            back = ws.hessian_apply(ws.inverse_hessian_apply(x))
            assert np.linalg.norm(back - x) <= 1e-9

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_inverse_on_negative_gradient_gives_point(self, family, rng):
        for _ in range(20):
            cone = random_cone(family, rng)
            wf = pack(cone, interior_point(cone, rng))
            ws = BarrierWorkspace(cone, wf)
            back = ws.inverse_hessian_apply(-ws.gradient())
            assert np.linalg.norm(back - wf) <= 1e-9 * (1 + np.linalg.norm(wf))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_closed_form_matches_dense_solve(self, family, rng):
        # the closed forms must agree with an independent factorization route
        for i in range(100):
            cone = random_cone(family, rng)
            if family == "lspec" and i % 2:
                # off the square case the complement of V adds a block
                d1 = int(rng.integers(1, 5))
                cone = ConeDescriptor.lspec(d1, d1 + int(rng.integers(1, 5)))
            w = interior_point(cone, rng)
            ws = BarrierWorkspace(cone, pack(cone, w))
            x = random_direction(cone, rng)
            if i % 2 and cone.mat_shape is not None:
                # the matrix-family Hessians act on the full matrix space,
                # so the closed forms must hold off the symmetric subspace
                x = rng.standard_normal(cone.ambient_dim)
            closed = ws.inverse_hessian_apply(x)
            dense = cholesky_solve(hessian_dense(cone, w), x)
            assert np.linalg.norm(closed - dense) <= 1e-10 * (1 + np.linalg.norm(dense))

    @pytest.mark.parametrize("o", [1e-5, 1e-3, 1e-1])
    @pytest.mark.parametrize("family", ["logdet", "rtdet", "hgeom", "hpower",
                                        "log", "linf", "lspec"])
    def test_backward_error_near_boundary(self, family, o, rng):
        # at w = -g*(r) the dual point is r = -g(w) = H(w) w, part of the
        # right-hand side g(w) + r of every Newton step; near the boundary
        # a bordered 3x3 solve of the logdet scalar rows reads 1e-4 to 1e-1
        # here at o = 1e-5, the eliminated form at most about 2e-7
        for _ in range(10):
            cone = random_cone(family, rng, d=8)
            r = sample_dual_point(cone, o, rng)
            w = unpack(cone, -pack(cone, conjugate_gradient(cone, r).g_star))
            y = inverse_hessian_apply(cone, w, r)
            x = pack(cone, r)
            back = pack(cone, hessian_apply(cone, w, y))
            assert np.linalg.norm(back - x) <= 1e-6 * np.linalg.norm(x)

    def test_inverse_rejects_non_interior(self):
        cone = ConeDescriptor.hgeom(2)
        bad = ConePoint(epi=2.0, vec=np.array([1.0, 1.0]))
        with pytest.raises(NotInteriorError):
            inverse_hessian_apply(cone, bad, ConePoint(epi=1.0, vec=np.zeros(2)))

    def test_rpower_zero_radial_block(self, rng):
        # u = 0 is interior; the formulas must not hit 0/0
        cone = ConeDescriptor.rpower(2, np.array([0.3, 0.7]))
        ws = BarrierWorkspace(cone, pack(cone, ConePoint(epi=np.zeros(2), vec=np.array([1.5, 0.8]))))
        x = random_direction(cone, rng)
        back = ws.hessian_apply(ws.inverse_hessian_apply(x))
        assert np.linalg.norm(back - x) <= 1e-10


def _symmetric_basis(cone):
    # unit vectors for the scalar blocks, E_ii and E_ij + E_ji for W
    n, d, off = cone.ambient_dim, cone.d, cone.layout.mat.start
    basis = list(np.eye(n)[:off])
    for i in range(d):
        for j in range(i, d):
            b = np.zeros(n)
            b[off + i * d + j] = b[off + j * d + i] = 1.0
            basis.append(b)
    return basis


class TestNewtonStep:
    @pytest.mark.parametrize("family", VECTOR_FAMILIES)
    def test_vector_families_are_gradient_and_inverse(self, family, rng):
        # bit for bit the sequence generic Newton ran before the oracle
        for o in (1e-5, 1e-1):
            cone = random_cone(family, rng)
            ws = BarrierWorkspace(cone, pack(cone, interior_point(cone, rng)))
            r = pack(cone, sample_dual_point(cone, o, rng))
            step, lam2 = ws.newton_step(r)
            grad_obj = ws.gradient() + r
            want = ws.inverse_hessian_apply(grad_obj)
            assert np.array_equal(step, want)
            assert lam2 == float(np.dot(grad_obj, want))

    @pytest.mark.parametrize("cone", [
        ConeDescriptor.logdet(2), ConeDescriptor.logdet(3), ConeDescriptor.rtdet(2),
        ConeDescriptor.rtdet(3), ConeDescriptor.lspec(2, 2), ConeDescriptor.lspec(2, 3),
        ConeDescriptor.lspec(3, 5),
    ], ids=lambda c: f"{c.family.value}-{c.mat_shape[0]}x{c.mat_shape[1]}")
    def test_matrix_families_match_definition(self, cone, rng):
        # the frame-basis step and lambda^2 against H^-1 (g + r) at 50 digits
        # from the barrier's definition, within a few eps times the Hessian's
        # condition number; the non-square lspec cones reach the complement
        square = cone.family.value != "lspec"
        for o in (1e-3, 1e-1):
            w = pack(cone, interior_point(cone, rng))
            r = pack(cone, sample_dual_point(cone, o, rng))
            basis = _symmetric_basis(cone) if square else list(np.eye(cone.ambient_dim))
            ref, ref_lam2, h = mp_reference.newton_step(cone, w, r, basis)
            ref = np.array([float(y) for y in ref])
            tol = 32.0 * np.finfo(float).eps * np.linalg.cond(np.array(h.tolist(), dtype=float))
            step, lam2 = BarrierWorkspace(cone, w).newton_step(r)
            assert np.linalg.norm(step - ref) <= tol * np.linalg.norm(ref)
            assert abs(lam2 - float(ref_lam2)) <= tol * float(ref_lam2)


def test_logdet_zeta_is_one_rounding_from_its_terms(rng):
    # zeta = v log det(W / v) - u at scale 1e9 with zeta near 1, where u and
    # v log det(W / v) cancel: log det(W / v) is summed from ratios of order
    # one, so zeta's error stays within one rounding of those two terms;
    # log det W - d log v cancels, and v times its rounding exceeds that
    from mpmath import mp

    d = 12
    for _ in range(10):
        v = float(rng.uniform(1e9, 5e9))
        q = rand_orthogonal(rng, d)
        m = (q * (v * np.exp(rng.uniform(0.0, 4.0, d)))) @ q.T
        m = 0.5 * (m + m.T)
        with mp.workdps(50):
            vphi = mp.mpf(v) * (mp.log(mp.det(mp.matrix(m.tolist()))) - d * mp.log(mp.mpf(v)))
            u = float(vphi - 1)
            ref = vphi - mp.mpf(u)
            unit = np.finfo(float).eps * (abs(u) + abs(float(vphi)))
            cone = ConeDescriptor.logdet(d)
            ws = BarrierWorkspace(cone, pack(cone, ConePoint(epi=u, persp=v, mat=m)))
            assert abs(float(ws.zeta - ref)) <= unit
