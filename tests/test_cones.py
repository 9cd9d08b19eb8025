import numpy as np
import pytest

from conebarriers import (
    ConeDescriptor,
    ConeFamily,
    ConePoint,
    PowerParams,
    barrier_parameter,
    dual_in_interior,
    in_interior,
    inner,
    pack,
    unpack,
)
from conftest import ALL_FAMILIES, interior_point, rand_orthogonal, random_cone


class TestPowerParams:
    def test_valid(self):
        p = PowerParams(np.array([0.25, 0.75]))
        assert p.d == 2
        # every power family hands out shared, read-only weights
        for cone in (ConeDescriptor.hpower(p), ConeDescriptor.hgeom(3),
                     ConeDescriptor.rpower(2, p), ConeDescriptor.rgeom(3)):
            assert not cone.alpha.flags.writeable
            assert cone.alpha is cone.alpha
        np.testing.assert_array_equal(ConeDescriptor.rgeom(3).alpha, np.full(3, 1.0 / 3.0))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            PowerParams(np.array([0.5, 0.6]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PowerParams(np.array([1.5, -0.5]))

    def test_no_silent_renormalization(self):
        # off by more than the tolerance must raise, not be repaired
        with pytest.raises(ValueError):
            PowerParams(np.array([0.5, 0.5 + 1e-9]))


class TestBarrierParameter:
    def test_log(self):
        assert barrier_parameter(ConeDescriptor.log(1)) == 3.0

    def test_hgeom(self):
        assert barrier_parameter(ConeDescriptor.hgeom(2)) == 3.0

    def test_rpower(self):
        cone = ConeDescriptor.rpower(3, np.array([0.5, 0.5]))
        assert barrier_parameter(cone) == 3.0

    def test_all_families(self):
        assert barrier_parameter(ConeDescriptor.logdet(4)) == 6.0
        assert barrier_parameter(ConeDescriptor.hpower([0.3, 0.7])) == 3.0
        assert barrier_parameter(ConeDescriptor.rtdet(5)) == 6.0
        assert barrier_parameter(ConeDescriptor.rgeom(4)) == 5.0
        assert barrier_parameter(ConeDescriptor.linf(7)) == 8.0
        assert barrier_parameter(ConeDescriptor.lspec(2, 6)) == 3.0


class TestDescriptorValidation:
    def test_rpower_needs_matching_alpha(self):
        with pytest.raises(ValueError):
            ConeDescriptor(ConeFamily.RPOWER, d1=2, d2=3,
                           powers=PowerParams(np.array([0.5, 0.5])))

    def test_lspec_dimension_order(self):
        with pytest.raises(ValueError):
            ConeDescriptor.lspec(5, 3)

    @pytest.mark.parametrize("family, dims", [
        (ConeFamily.LOG, {"d": 3, "d1": 7}),
        (ConeFamily.LSPEC, {"d": 5, "d1": 2, "d2": 3}),
        (ConeFamily.RGEOM, {"d": 2, "d1": 1, "d2": 3}),
    ])
    def test_rejects_dimension_the_family_does_not_read(self, family, dims):
        # every field takes part in equality, so a stray one would make a
        # second, unequal descriptor of the same cone
        with pytest.raises(ValueError, match="takes no d"):
            ConeDescriptor(family, **dims)

    def test_ambient_dims(self):
        assert ConeDescriptor.log(3).ambient_dim == 5
        assert ConeDescriptor.logdet(3).ambient_dim == 11
        assert ConeDescriptor.rpower(2, [0.5, 0.5]).ambient_dim == 4
        assert ConeDescriptor.lspec(2, 3).ambient_dim == 7


class TestMembership:
    def test_linf_interior(self):
        cone = ConeDescriptor.linf(2)
        assert in_interior(cone, ConePoint(epi=2.0, vec=np.array([1.0, -1.0])))

    def test_linf_boundary_rejected(self):
        cone = ConeDescriptor.linf(2)
        assert not in_interior(cone, ConePoint(epi=1.0, vec=np.array([1.0, 0.0])))

    def test_hgeom_interior(self):
        cone = ConeDescriptor.hgeom(2)
        assert in_interior(cone, ConePoint(epi=0.5, vec=np.array([1.0, 1.0])))

    def test_linf_dual(self):
        cone = ConeDescriptor.linf(2)
        assert dual_in_interior(cone, ConePoint(epi=3.0, vec=np.array([1.0, 1.0])))
        assert not dual_in_interior(cone, ConePoint(epi=2.0, vec=np.array([1.0, 1.0])))

    def test_hpower_dual(self):
        # phi(r/alpha) = 2 exceeds -p = 1
        cone = ConeDescriptor.hpower(np.array([0.5, 0.5]))
        assert dual_in_interior(cone, ConePoint(epi=-1.0, vec=np.array([1.0, 1.0])))
        assert not dual_in_interior(cone, ConePoint(epi=-2.0, vec=np.array([1.0, 1.0])))

    def test_log_dual(self):
        # q_bar = p log(-r/p) + p d = -1 below q = 0
        cone = ConeDescriptor.log(1)
        assert dual_in_interior(cone, ConePoint(epi=-1.0, persp=0.0, vec=np.array([1.0])))
        assert not dual_in_interior(cone, ConePoint(epi=-1.0, persp=-1.0, vec=np.array([1.0])))

    def test_shape_mismatch_raises(self):
        cone = ConeDescriptor.log(3)
        with pytest.raises(ValueError):
            in_interior(cone, ConePoint(epi=0.0, vec=np.ones(3)))  # missing persp
        with pytest.raises(ValueError):
            in_interior(cone, ConePoint(epi=0.0, persp=1.0, vec=np.ones(2)))

    def test_nonsymmetric_matrix_rejected(self):
        cone = ConeDescriptor.logdet(2)
        bad = ConePoint(epi=-1.0, persp=1.0, mat=np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            in_interior(cone, bad)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_sampled_points_are_interior(self, family, rng):
        for _ in range(50):
            cone = random_cone(family, rng)
            assert in_interior(cone, interior_point(cone, rng))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_scaling_preserves_membership(self, family, rng):
        for _ in range(20):
            cone = random_cone(family, rng)
            w = interior_point(cone, rng)
            for theta in (1e-3, 0.5, 7.0, 1e3):
                assert in_interior(cone, unpack(cone, theta * pack(cone, w)))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_primal_dual_pairing_positive(self, family, rng):
        from conebarriers import sample_dual_point

        for _ in range(25):
            cone = random_cone(family, rng)
            w = interior_point(cone, rng)
            r = sample_dual_point(cone, 0.3, rng)
            assert inner(cone, w, r) > 0.0

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_classification_tracks_defining_inequality(self, family, rng):
        # scale the leading block across the boundary: strictly inside iff
        # the scale factor keeps the defining inequality strict
        from conebarriers import sample_dual_point

        for _ in range(1000):
            cone = random_cone(family, rng)
            inside = interior_point(cone, rng)
            t = float(rng.uniform(0.2, 1.8))
            fam = cone.family.value
            if fam in ("linf", "lspec"):
                # epigraph: u_boundary = norm(w); scaled u = t * boundary
                bound = (np.max(np.abs(inside.vec)) if fam == "linf"
                         else np.linalg.norm(inside.mat, 2))
                probe = ConePoint(epi=t * bound, persp=inside.persp,
                                  vec=inside.vec, mat=inside.mat)
                expect = t > 1.0 and bound > 0.0
            elif fam in ("log", "logdet"):
                lam = inside.vec if fam == "log" else np.linalg.eigvalsh(inside.mat)
                v = inside.persp
                bound = v * float(np.sum(np.log(lam / v)))
                probe = ConePoint(epi=bound - (1.0 - t), persp=v,
                                  vec=inside.vec, mat=inside.mat)
                expect = t < 1.0
            elif fam in ("hpower", "hgeom", "rtdet"):
                lam = inside.vec if fam != "rtdet" else np.linalg.eigvalsh(inside.mat)
                alpha = (cone.alpha if fam != "rtdet"
                         else np.full(cone.d, 1.0 / cone.d))
                bound = float(np.exp(np.dot(alpha, np.log(lam))))
                probe = ConePoint(epi=t * bound, persp=inside.persp,
                                  vec=inside.vec, mat=inside.mat)
                expect = t < 1.0
            else:  # radial families
                bound = float(np.exp(np.dot(cone.alpha, np.log(inside.vec))))
                direction = np.atleast_1d(np.asarray(inside.epi, float))
                nrm = np.linalg.norm(direction)
                direction = direction / nrm if nrm > 0 else \
                    np.eye(1 if fam == "rgeom" else cone.d1)[0]
                epi = t * bound * direction
                if fam == "rgeom":
                    epi = float(epi[0])
                probe = ConePoint(epi=epi, vec=inside.vec)
                expect = t < 1.0
            assert in_interior(cone, probe) == expect, (fam, t)

    @pytest.mark.parametrize("family", ["logdet", "rtdet"])
    def test_psd_boundary_follows_the_sign(self, family, rng):
        # W = Q diag(lam) Q^T with lam_min = +-1e-13 or +-1e-8 lam_max, far
        # outside W's own rounding (about 1e-15 lam_max): the Cholesky
        # factor's pivots decide membership as the sign of lam_min does
        for d in (2, 4, 8):
            cone = ConeDescriptor(ConeFamily(family), d=d)
            for lam_min in (1e-13, -1e-13, 1e-8, -1e-8):
                for _ in range(10):
                    lam = np.concatenate(([1.0], rng.uniform(0.1, 1.0, d - 2), [lam_min]))
                    q = rand_orthogonal(rng, d)
                    m = (q * lam) @ q.T
                    # u far below the epigraph: only W decides
                    pt = ConePoint(epi=-1e3, persp=1.0 if family == "logdet" else None,
                                   mat=0.5 * (m + m.T))
                    assert in_interior(cone, pt) is (lam_min > 0.0)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_agrees_with_workspace_at_the_boundary(self, family, rng):
        # membership is the barrier workspace's own domain check: with the
        # leading block at 17 floats around its boundary value, in_interior
        # accepts a point exactly when the workspace builds there
        from conebarriers import BarrierWorkspace, NotInteriorError

        for _ in range(20):
            cone = random_cone(family, rng, d=6)
            w = interior_point(cone, rng)
            if cone.mat_shape is None:
                lam = w.vec
            elif family == "lspec":
                lam = np.linalg.svd(w.mat, compute_uv=False)
            else:
                lam = np.linalg.eigvalsh(w.mat)
            direction = 1.0
            if family in ("log", "logdet"):
                edge = w.persp * float(np.sum(np.log(lam / w.persp)))
            elif family in ("linf", "lspec"):
                edge = float(np.max(np.abs(lam)))
            else:
                edge = float(np.exp(np.dot(cone.alpha, np.log(lam))))
                if family == "rpower":
                    nrm = np.linalg.norm(w.epi)
                    direction = w.epi / nrm if nrm > 0.0 else np.eye(cone.d1)[0]
            for x in edge + np.spacing(edge) * np.arange(-8, 9):
                pt = ConePoint(epi=x * direction, persp=w.persp, vec=w.vec, mat=w.mat)
                try:
                    BarrierWorkspace(cone, pack(cone, pt))
                    builds = True
                except NotInteriorError:
                    builds = False
                assert in_interior(cone, pt) == builds, (family, x)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_nan_entry_is_never_interior(self, family, rng):
        # a NaN at any packed index, also in the strict upper triangle of a
        # symmetric block, which eigh does not read: every oracle rejects
        # the point with a ValueError (NotInteriorError is one) or returns
        # False, and none builds or raises numpy's LinAlgError
        from conebarriers import (
            BarrierWorkspace,
            conjugate_gradient,
            conjugate_value,
            generic_conjugate_gradient,
            sample_dual_point,
            value,
        )

        cone = random_cone(family, rng, d=3)
        if family == "lspec":
            cone = ConeDescriptor.lspec(3, 3)
        primal = pack(cone, interior_point(cone, rng))
        dual = pack(cone, sample_dual_point(cone, 1e-1, rng))
        for i in range(cone.ambient_dim):
            w, r = primal.copy(), dual.copy()
            w[i] = r[i] = np.nan
            wp, rp = unpack(cone, w), unpack(cone, r)
            for name, call in (
                ("in_interior", lambda: in_interior(cone, wp)),
                ("workspace", lambda: BarrierWorkspace(cone, w)),
                ("value", lambda: value(cone, wp)),
                ("dual_in_interior", lambda: dual_in_interior(cone, rp)),
                ("conjugate_gradient", lambda: conjugate_gradient(cone, rp)),
                ("conjugate_value", lambda: conjugate_value(cone, rp)),
                ("generic", lambda: generic_conjugate_gradient(cone, rp)),
            ):
                try:
                    out = call()
                except np.linalg.LinAlgError as exc:
                    pytest.fail(f"{family} {name} index {i}: LinAlgError {exc}")
                except ValueError:
                    continue
                assert out is False, (family, name, i)

    @pytest.mark.parametrize("inf", [np.inf, -np.inf])
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_infinite_entry_is_never_interior(self, family, inf, rng):
        # +-inf at any packed index of the canonical primal point or of a
        # sampled dual point: membership returns False and every oracle
        # raises NotInteriorError; in a matrix block the decomposition's
        # finite check raises ValueError first
        from conebarriers import (
            BarrierWorkspace,
            NotInteriorError,
            conjugate_gradient,
            conjugate_value,
            generic_conjugate_gradient,
            gradient,
            sample_dual_point,
            value,
        )
        from conebarriers.cones import canonical_point

        cone = random_cone(family, rng, d=3)
        if family == "lspec":
            cone = ConeDescriptor.lspec(3, 3)
        primal = pack(cone, canonical_point(cone))
        dual = pack(cone, sample_dual_point(cone, 1e-1, rng))
        mat = cone.layout.mat
        for i in range(cone.ambient_dim):
            w, r = primal.copy(), dual.copy()
            w[i] = r[i] = inf
            wp, rp = unpack(cone, w), unpack(cone, r)
            in_mat = mat is not None and i >= mat.start
            for name, call, is_membership in (
                ("in_interior", lambda: in_interior(cone, wp), True),
                ("dual_in_interior", lambda: dual_in_interior(cone, rp), True),
                ("workspace", lambda: BarrierWorkspace(cone, w), False),
                ("value", lambda: value(cone, wp), False),
                ("gradient", lambda: gradient(cone, wp), False),
                ("conjugate_gradient", lambda: conjugate_gradient(cone, rp), False),
                ("conjugate_value", lambda: conjugate_value(cone, rp), False),
                ("generic", lambda: generic_conjugate_gradient(cone, rp), False),
            ):
                if in_mat:
                    with pytest.raises(ValueError, match="not finite"):
                        call()
                elif is_membership:
                    assert call() is False, (family, name, i)
                else:
                    with pytest.raises(NotInteriorError):
                        call()


class TestPackUnpack:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_round_trip(self, family, rng):
        cone = random_cone(family, rng)
        w = interior_point(cone, rng)
        x = pack(cone, w)
        assert x.shape == (cone.ambient_dim,)
        y = pack(cone, unpack(cone, x))
        np.testing.assert_array_equal(x, y)

    def test_inner_matches_blockwise(self, rng):
        cone = ConeDescriptor.logdet(3)
        a = interior_point(cone, rng)
        b = interior_point(cone, rng)
        expect = a.epi * b.epi + a.persp * b.persp + np.sum(a.mat * b.mat)
        assert inner(cone, a, b) == pytest.approx(expect, rel=1e-14)
