import numpy as np
import pytest

from conebarriers import (
    BarrierWorkspace,
    ConeDescriptor,
    ConeFamily,
    ConePoint,
    DAMPED_THRESHOLD,
    DEFAULT_EPS,
    NewtonStatus,
    NotInteriorError,
    conjugate_gradient,
    default_initial_point,
    dual_in_interior,
    generic_conjugate_gradient,
    gradient,
    in_interior,
    inner,
    pack,
    sample_dual_point,
    unpack,
)
from conebarriers import experiment, newton
from conebarriers.cones import canonical_point
from conftest import ALL_FAMILIES, interior_point, random_cone


def neg(cone, point):
    return unpack(cone, -pack(cone, point))


def _count_decompositions(monkeypatch, *counted):
    """Counts the calls to numpy's ``counted`` decompositions, each as
    whether it ran inside generic Newton's dual membership test, and the
    workspace builds (key ``builds``); numpy's other decompositions and
    ``inv`` raise.  numpy's bindings are patched, so no route through the
    package escapes."""
    calls = {name: [] for name in (*counted, "builds")}
    inside = []

    def counter(name, fn):
        def counted_call(*args, **kwargs):
            calls[name].append(bool(inside))
            return fn(*args, **kwargs)
        return counted_call

    def refuse(*args, **kwargs):
        raise AssertionError(f"decomposition or inverse other than {counted}")

    for name in ("eigh", "eigvalsh", "svd", "cholesky", "inv"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, counter(name, fn) if name in counted else refuse)
    build, membership = BarrierWorkspace.__init__, newton.dual_in_interior

    def counted_build(ws, *args):
        calls["builds"].append(None)
        build(ws, *args)

    def flagged_membership(*args):
        inside.append(None)
        try:
            return membership(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(BarrierWorkspace, "__init__", counted_build)
    monkeypatch.setattr(newton, "dual_in_interior", flagged_membership)
    return calls


class TestLocalNorm:
    """The local norm the solver reads: ``lambda^2`` from the workspace's
    ``newton_step``, on packed vectors."""

    @staticmethod
    def lam(cone, w, r):
        _, lam2 = BarrierWorkspace(cone, pack(cone, w)).newton_step(pack(cone, r))
        return np.sqrt(max(lam2, 0.0))

    def test_zero_at_matched_gradient(self, rng):
        # r = -g(w) makes w the exact minimizer
        cone = ConeDescriptor.hgeom(3)
        w = interior_point(cone, rng)
        r = neg(cone, gradient(cone, w))
        assert self.lam(cone, w, r) <= 1e-6

    def test_positive_off_minimizer(self, rng):
        cone = ConeDescriptor.hgeom(3)
        w = interior_point(cone, rng)
        r = sample_dual_point(cone, 0.3, rng)
        # rescale r so <w, r> = nu while r != -g(w): lambda must be positive
        r = unpack(cone, pack(cone, r) * (cone.nu / inner(cone, w, r)))
        assert inner(cone, w, r) == pytest.approx(cone.nu, rel=1e-12)
        assert self.lam(cone, w, r) > 1e-3

    def test_simplified_matches_definition(self, rng):
        # at moderate lambda the definition agrees with the simplified
        # radicand nu - 2 <w, r> + <r, H^-1 r>, which the solver does not
        # use because it cancels once lambda is small
        cone = ConeDescriptor.hgeom(2)
        w = np.array([0.0, 1.0, 1.0])
        r = np.array([-1.0, 1.0, 1.0])
        ws = BarrierWorkspace(cone, w)
        rad = cone.nu - 2.0 * float(np.dot(w, r)) + float(np.dot(r, ws.inverse_hessian_apply(r)))
        lam = self.lam(cone, unpack(cone, w), unpack(cone, r))
        assert np.sqrt(rad) == pytest.approx(lam, abs=1e-10)

    def test_rejects_non_interior(self):
        cone = ConeDescriptor.linf(2)
        bad = ConePoint(epi=0.5, vec=np.array([1.0, 0.0]))
        r = ConePoint(epi=3.0, vec=np.array([1.0, 1.0]))
        with pytest.raises(NotInteriorError):
            self.lam(cone, bad, r)


class TestInitialPoint:
    def test_linf_example(self):
        cone = ConeDescriptor.linf(1)
        r = ConePoint(epi=2.0, vec=np.array([1.0]))
        w0 = default_initial_point(cone, r)
        assert w0.epi == pytest.approx(1.0)
        assert w0.vec[0] == 0.0

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_scaling_law_and_interiority(self, family, rng):
        for _ in range(25):
            cone = random_cone(family, rng)
            r = sample_dual_point(cone, 10.0 ** rng.uniform(-5, -0.5), rng)
            w0 = default_initial_point(cone, r)
            assert in_interior(cone, w0)
            assert inner(cone, w0, r) == pytest.approx(cone.nu, rel=1e-12)

    @pytest.mark.parametrize("family, t", [("linf", 1e-320), ("hgeom", 1e-310)])
    def test_scale_past_binary64_is_not_interior(self, family, t):
        # nu / <w_c, r> overflows at these interior dual points; the scaled
        # point would hold inf (and NaN where w_c is 0), so the start raises,
        # and generic Newton, which shares the scale, stops at the unscaled
        # canonical point
        cone = ConeDescriptor(ConeFamily(family), d=3)
        base = (np.array([2.0, 0.3, 0.5, 0.7]) if family == "linf"
                else pack(cone, sample_dual_point(cone, 0.1, np.random.default_rng(3))))
        r = unpack(cone, t * base)
        assert newton.dual_in_interior(cone, r)
        with pytest.raises(NotInteriorError):
            default_initial_point(cone, r)
        res, trace = generic_conjugate_gradient(cone, r)
        assert trace.status is NewtonStatus.LEFT_INTERIOR
        assert trace.iterations == 0
        assert np.array_equal(pack(cone, res.g_star), -pack(cone, canonical_point(cone)))


class TestGenericSolver:
    def test_zero_iterations_at_exact_start(self, rng):
        cone = ConeDescriptor.hgeom(4)
        w0 = interior_point(cone, rng)
        r = neg(cone, gradient(cone, w0))
        res, trace = generic_conjugate_gradient(cone, r, w0=w0)
        assert trace.status is NewtonStatus.CONVERGED
        assert trace.iterations == 0
        assert trace.lambdas == [0.0]
        np.testing.assert_array_equal(pack(cone, res.g_star), -pack(cone, w0))

    def test_hgeom_matches_closed_form(self):
        cone = ConeDescriptor.hgeom(2)
        r = ConePoint(epi=-1.0, vec=np.array([1.0, 1.0]))
        res, trace = generic_conjugate_gradient(cone, r)
        assert trace.status in (NewtonStatus.CONVERGED, NewtonStatus.STALLED)
        assert res.g_star.epi == pytest.approx(-1.0, abs=1e-8)
        np.testing.assert_allclose(res.g_star.vec, [-2.0, -2.0], atol=1e-8)

    def test_log_d20_reference_band(self, rng):
        # reference mean iterations for this cell is about 40
        cone = ConeDescriptor.log(20)
        iters = []
        for _ in range(10):
            r = sample_dual_point(cone, 1e-1, rng)
            res, trace = generic_conjugate_gradient(cone, r)
            assert trace.status in (NewtonStatus.CONVERGED, NewtonStatus.STALLED)
            iters.append(trace.iterations)
        assert 25 <= np.mean(iters) <= 60

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_matches_specialized(self, family, rng):
        for o in (1e-1, 1e-2):
            for _ in range(5):
                cone = random_cone(family, rng)
                r = sample_dual_point(cone, o, rng)
                gen, trace = generic_conjugate_gradient(cone, r)
                assert trace.status in (NewtonStatus.CONVERGED, NewtonStatus.STALLED)
                spec = conjugate_gradient(cone, r)
                diff = np.linalg.norm(pack(cone, gen.g_star) - pack(cone, spec.g_star))
                assert diff <= 1e-6 * (1 + np.linalg.norm(pack(cone, spec.g_star)))

    def test_trace_invariants(self, rng):
        cone = ConeDescriptor.hpower(np.array([0.3, 0.3, 0.4]))
        r = sample_dual_point(cone, 1e-2, rng)
        res, trace = generic_conjugate_gradient(cone, r)
        assert len(trace.lambdas) == trace.iterations + 1
        if trace.status is NewtonStatus.CONVERGED:
            assert trace.lambdas[-1] <= DEFAULT_EPS
            # the scalar identity <w0, r> = nu holds to a small multiple of
            # eps * nu at the converged point
            assert abs(-inner(cone, res.g_star, r) - cone.nu) <= \
                10 * np.sqrt(cone.nu) * DEFAULT_EPS * cone.nu

    def test_quadratic_regime(self, rng):
        # once below the damping threshold the local norm decreases
        # quadratically: lambda' <= C lambda^2 with a modest constant
        cone = ConeDescriptor.hgeom(10)
        r = sample_dual_point(cone, 1e-1, rng)
        _, trace = generic_conjugate_gradient(cone, r)
        lams = trace.lambdas
        for a, b in zip(lams, lams[1:]):
            if 1e-7 < a < DAMPED_THRESHOLD:
                assert b <= 2.0 * a * a

    def test_iterations_grow_with_depth(self, rng):
        cone = ConeDescriptor.log(20)
        means = []
        for o in (1e-1, 1e-3, 1e-5):
            iters = [generic_conjugate_gradient(
                cone, sample_dual_point(cone, o, rng))[1].iterations
                for _ in range(5)]
            means.append(np.mean(iters))
        assert means[0] < means[1] < means[2]

    def test_rejects_non_interior_dual(self):
        cone = ConeDescriptor.linf(2)
        with pytest.raises(NotInteriorError):
            generic_conjugate_gradient(cone, ConePoint(epi=1.0, vec=np.array([1.0, 1.0])))

    def test_rejects_bad_w0(self, rng):
        cone = ConeDescriptor.linf(2)
        r = sample_dual_point(cone, 0.3, rng)
        with pytest.raises(NotInteriorError):
            generic_conjugate_gradient(cone, r, w0=ConePoint(epi=-1.0, vec=np.zeros(2)))

    def test_stall_returns_best_iterate(self, rng):
        # deep-offset instances stop by stalling at the round-off floor of
        # the local norm; the returned point must still be a high-accuracy
        # minimizer (checked through the specialized oracle)
        cone = ConeDescriptor.log(12)
        r = sample_dual_point(cone, 1e-5, rng)
        gen, trace = generic_conjugate_gradient(cone, r)
        assert trace.status in (NewtonStatus.CONVERGED, NewtonStatus.STALLED)
        spec = conjugate_gradient(cone, r)
        diff = np.linalg.norm(pack(cone, gen.g_star) - pack(cone, spec.g_star))
        assert diff <= 1e-6 * (1 + np.linalg.norm(pack(cone, spec.g_star)))

    def test_non_finite_local_norm_leaves_interior(self, rng, monkeypatch):
        # a closed-form inverse has no pivot check, so a NaN step must end
        # the solve like a failed factorization, not read as converged
        cone = ConeDescriptor.hpower(np.array([0.1, 0.2, 0.3, 0.4]))
        r = sample_dual_point(cone, 1e-2, rng)
        cls = type(BarrierWorkspace(cone, pack(cone, default_initial_point(cone, r))))
        solve = cls.inverse_hessian_apply
        calls = []

        def nan_on_third_call(ws, x):
            calls.append(None)
            if len(calls) == 3:
                return np.full(cone.ambient_dim, np.nan)
            return solve(ws, x)

        monkeypatch.setattr(cls, "inverse_hessian_apply", nan_on_third_call)
        res, trace = generic_conjugate_gradient(cone, r)
        assert trace.status is NewtonStatus.LEFT_INTERIOR
        assert not res.converged
        assert all(np.isfinite(trace.lambdas))
        # the best iterate seen is returned, and it is interior
        assert in_interior(cone, neg(cone, res.g_star))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_no_cholesky_factorization(self, family, rng, monkeypatch):
        # every family solves with a closed-form inverse Hessian, so no
        # factorization of Hessian order (d^2 + 2 for logdet, d^2 + 1 for
        # rtdet) runs: logdet and rtdet factor W, of order d, and the other
        # families factor nothing.  linalg looks up np.linalg.cholesky on
        # each call, so patching numpy's binding guards every route through
        # the package
        factor = np.linalg.cholesky

        def guarded(a, *args, **kwargs):
            if family not in ("logdet", "rtdet") or len(a) != cone.d:
                raise AssertionError(f"Cholesky factorization of order {len(a)}")
            return factor(a, *args, **kwargs)

        monkeypatch.setattr("numpy.linalg.cholesky", guarded)
        for o in (1e-5, 1e-1):
            cone = random_cone(family, rng)
            r = sample_dual_point(cone, o, rng)
            _, trace = generic_conjugate_gradient(cone, r)
            assert trace.status in (NewtonStatus.CONVERGED, NewtonStatus.STALLED)
            assert trace.iterations > 0

    @pytest.mark.parametrize("family", ["logdet", "rtdet"])
    def test_determinant_workspaces_decompose_no_iterate(self, family, rng, monkeypatch):
        # the dual membership test decomposes r once; every workspace build
        # after it factors W once, no iterate is decomposed and no W^-1 is
        # formed: the Newton step runs in the factor's frame
        calls = _count_decompositions(monkeypatch, "cholesky", "eigh")
        for o in (1e-5, 1e-1):
            cone = random_cone(family, rng)
            r = sample_dual_point(cone, o, rng)
            for seen in calls.values():
                seen.clear()
            _, trace = generic_conjugate_gradient(cone, r)
            assert calls["eigh"] == [True]
            assert len(calls["builds"]) > trace.iterations > 0
            assert calls["cholesky"] == [False] * len(calls["builds"])

    def test_singular_workspaces_decompose_each_build_once(self, rng, monkeypatch):
        # lspec's twin: one SVD for the dual membership test and one per
        # workspace build, and no other decomposition or inverse
        calls = _count_decompositions(monkeypatch, "svd")
        for o in (1e-5, 1e-1):
            cone = random_cone("lspec", rng)
            r = sample_dual_point(cone, o, rng)
            for seen in calls.values():
                seen.clear()
            _, trace = generic_conjugate_gradient(cone, r)
            assert len(calls["builds"]) > trace.iterations > 0
            assert calls["svd"] == [True] + [False] * len(calls["builds"])

    @pytest.mark.parametrize("family", ["logdet", "rtdet", "lspec"])
    def test_matrix_cones_supported(self, family, rng):
        cone = random_cone(family, rng)
        r = sample_dual_point(cone, 1e-1, rng)
        gen, trace = generic_conjugate_gradient(cone, r)
        assert trace.status in (NewtonStatus.CONVERGED, NewtonStatus.STALLED)
        spec = conjugate_gradient(cone, r)
        diff = np.linalg.norm(pack(cone, gen.g_star) - pack(cone, spec.g_star))
        assert diff <= 1e-6 * (1 + np.linalg.norm(pack(cone, spec.g_star)))


# scales past binary64's range for generic Newton: log's inverse Hessian
# and lspec's start workspace overflow a Python float's square, and
# logdet's start scale nu / <w_c, r> is infinite
_SCALE_EXITS = [("log", 1e-300), ("lspec", 1e-300), ("logdet", 2.0**-1060)]
# scales at which generic Newton breaks g*(t r) = g*(r) / t (ROADMAP item 7):
# linf, hpower and hgeom end CONVERGED after 0 iterations with lambda = 0,
# because the inverse Hessian underflows, at a g* that is 93-100% off;
# rtdet stalls after 22 iterations at lambda 3.5e-5, 0.3% off, with
# zeta**2 underflowed to 0 at its iterates
_SCALE_DEFECTS = [("linf", 1e110), ("hpower", 1e170), ("hgeom", 1e170),
                  ("rtdet", 1e300)]


def _scaled_problem(family, t):
    rng = np.random.default_rng(3)
    cone = experiment._make_cone(ConeFamily(family), 4, rng)
    r = sample_dual_point(cone, 0.1, rng)
    return cone, r, unpack(cone, t * pack(cone, r))


class TestHomogeneity:
    @pytest.mark.parametrize("family, t", [
        *((f, t) for f in ALL_FAMILIES for t in (2.0**-40, 2.0**40)),
        *_SCALE_EXITS,
        *(pytest.param(f, t, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 7"))
          for f, t in _SCALE_DEFECTS),
    ])
    def test_scaled_dual_point(self, family, t):
        # at t r the solve raises NotInteriorError, reports that it failed,
        # or returns t g*(t r) = g*(r)
        cone, r, tr = _scaled_problem(family, t)
        ref = pack(cone, generic_conjugate_gradient(cone, r)[0].g_star)
        try:
            res, trace = generic_conjugate_gradient(cone, tr)
        except NotInteriorError:
            return
        if trace.status in (NewtonStatus.CONVERGED, NewtonStatus.STALLED):
            got = t * pack(cone, res.g_star)
            assert np.linalg.norm(got - ref) <= 1e-8 * np.linalg.norm(ref)

    @pytest.mark.parametrize("family, t", _SCALE_EXITS)
    def test_past_binary64_leaves_interior(self, family, t):
        # an overflowing start or iterate ends the solve like a start whose
        # workspace does not build, with a finite g*
        cone, _, tr = _scaled_problem(family, t)
        res, trace = generic_conjugate_gradient(cone, tr)
        assert trace.status is NewtonStatus.LEFT_INTERIOR
        assert trace.iterations == res.iterations == 0
        assert trace.lambdas == [np.inf]
        assert not res.converged
        assert np.all(np.isfinite(pack(cone, res.g_star)))


# scales at which the specialized oracles break t g*(t r) = g*(r) (ROADMAP
# item 7), as a wrong g*, a numpy overflow or division by zero, or the
# typed NotInteriorError of linf's and lspec's overflowing norm root; log
# and logdet hold at all four scales
_SPEC_SCALES = (2.0**600, 2.0**-600, 1e150, 1e-150)
_SPEC_SCALE_DEFECTS = {
    "hpower": (2.0**-600, 1e-150),
    "hgeom": (2.0**600, 2.0**-600),
    "rtdet": (2.0**600, 2.0**-600),
    "rpower": (2.0**600, 2.0**-600, 1e150),
    "rgeom": (2.0**600, 2.0**-600),
    "linf": (2.0**600, 2.0**-600, 1e150),
    "lspec": (2.0**600, 2.0**-600, 1e150),
}


class TestSpecializedHomogeneity:
    @staticmethod
    def check(cone, r, t):
        # g* is homogeneous of degree -1: t g*(t r) = g*(r)
        tr = unpack(cone, t * pack(cone, r))
        assert dual_in_interior(cone, tr)
        ref = pack(cone, conjugate_gradient(cone, r).g_star)
        got = t * pack(cone, conjugate_gradient(cone, tr).g_star)
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("family, t", [
        pytest.param(f, t, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 7"))
        if t in _SPEC_SCALE_DEFECTS.get(f, ()) else (f, t)
        for f in ALL_FAMILIES for t in _SPEC_SCALES
    ])
    def test_scaled_dual_point(self, family, t):
        cone, r, _ = _scaled_problem(family, t)
        self.check(cone, r, t)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 7")
    def test_rpower_reduction_at_small_scale(self):
        # r at 1e-150 passes dual_in_interior, and the reduction's
        # derivative overflows, after which it raises an untyped ValueError
        cone = ConeDescriptor.rpower(1, np.array([0.7045353616939859, 0.29546463830601405]))
        r = ConePoint(epi=np.array([-0.02507656299083186]),
                      vec=np.array([0.00550714189510382, 0.11977994755898602]))
        self.check(cone, r, 1e-150)


class TestRareExits:
    """The exits that the solves above never reach: a start point whose
    workspace does not build, a non-finite local norm or a float error at
    the start, a backtracked step, a step that no halving keeps interior
    and the iteration cap."""

    @staticmethod
    def problem(rng):
        cone = ConeDescriptor.log(6)
        return cone, sample_dual_point(cone, 1e-1, rng)

    @staticmethod
    def start_lambda(cone, r, w):
        # the local norm the solver computes at w, as the first entry of a
        # run started there
        return generic_conjugate_gradient(cone, r, w0=w)[1].lambdas[0]

    def assert_stopped_at_start(self, cone, r, res, trace):
        assert trace.status is NewtonStatus.LEFT_INTERIOR
        assert trace.iterations == res.iterations == 0
        assert trace.lambdas == [np.inf]
        assert not res.converged
        w = pack(cone, default_initial_point(cone, r))
        np.testing.assert_array_equal(pack(cone, res.g_star), -w)
        assert res.residual == abs(float(np.dot(-w, pack(cone, r)))
                                   + cone.nu)

    def test_start_workspace_not_built(self, rng, monkeypatch):
        cone, r = self.problem(rng)

        def refuse(cone, x):
            raise NotInteriorError("refused")

        monkeypatch.setattr(newton, "BarrierWorkspace", refuse)
        res, trace = generic_conjugate_gradient(cone, r)
        self.assert_stopped_at_start(cone, r, res, trace)

    def test_nan_step_at_start(self, rng, monkeypatch):
        cone, r = self.problem(rng)
        cls = type(BarrierWorkspace(cone, pack(cone, default_initial_point(cone, r))))
        monkeypatch.setattr(cls, "inverse_hessian_apply",
                            lambda ws, x: np.full(cone.ambient_dim, np.nan))
        res, trace = generic_conjugate_gradient(cone, r)
        self.assert_stopped_at_start(cone, r, res, trace)

    def test_float_error_at_start(self, rng, monkeypatch):
        # log's inverse Hessian divides by v**2, which underflows to 0 at a
        # dual point scaled by 1e200; the solve stops as at a NaN step
        cone, r = self.problem(rng)
        cls = type(BarrierWorkspace(cone, pack(cone, default_initial_point(cone, r))))

        def divide_by_zero(ws, x):
            return 1.0 / 0.0

        monkeypatch.setattr(cls, "inverse_hessian_apply", divide_by_zero)
        res, trace = generic_conjugate_gradient(cone, r)
        self.assert_stopped_at_start(cone, r, res, trace)

    def test_backtracks_past_refused_builds(self, rng, monkeypatch):
        # the first two candidates of the first step are refused, so the
        # step taken is a quarter of the damped one
        cone, r = self.problem(rng)
        _, plain = generic_conjugate_gradient(cone, r)
        build = newton.BarrierWorkspace
        points = []

        def refuse_two(cone, x):
            points.append(np.array(x))
            if len(points) in (2, 3):
                raise NotInteriorError("refused")
            return build(cone, x)

        monkeypatch.setattr(newton, "BarrierWorkspace", refuse_two)
        res, trace = generic_conjugate_gradient(cone, r)
        monkeypatch.undo()
        assert trace.status is NewtonStatus.CONVERGED
        assert trace.iterations == res.iterations == len(points) - 3
        assert len(trace.lambdas) == trace.iterations + 1
        assert trace.lambdas[0] == plain.lambdas[0]
        assert trace.lambdas[1] != plain.lambdas[1]
        w, first, second, taken = points[:4]
        np.testing.assert_allclose(w - first, 2.0 * (w - second), rtol=1e-12)
        np.testing.assert_allclose(w - first, 4.0 * (w - taken), rtol=1e-12)
        assert self.start_lambda(cone, r, unpack(cone, taken)) == trace.lambdas[1]
        np.testing.assert_array_equal(pack(cone, res.g_star), -points[-1])
        assert res.converged and trace.lambdas[-1] <= DEFAULT_EPS

    def test_every_halving_refused(self, rng, monkeypatch):
        # the start builds and every candidate of the first step is refused
        cone, r = self.problem(rng)
        build = newton.BarrierWorkspace
        points = []

        def refuse_candidates(cone, x):
            points.append(np.array(x))
            if len(points) > 1:
                raise NotInteriorError("refused")
            return build(cone, x)

        monkeypatch.setattr(newton, "BarrierWorkspace", refuse_candidates)
        res, trace = generic_conjugate_gradient(cone, r)
        assert len(points) == 2 + newton._MAX_BACKTRACKS
        assert trace.status is NewtonStatus.LEFT_INTERIOR
        assert trace.iterations == res.iterations == 0
        assert len(trace.lambdas) == 1 and np.isfinite(trace.lambdas[0])
        assert not res.converged
        np.testing.assert_array_equal(pack(cone, res.g_star), -points[0])
        w = pack(cone, default_initial_point(cone, r))
        np.testing.assert_array_equal(points[0], w)

    def test_iteration_cap(self, rng, monkeypatch):
        cone, r = self.problem(rng)
        _, plain = generic_conjugate_gradient(cone, r)
        assert plain.iterations > 3
        monkeypatch.setattr(newton, "_MAX_ITER", 3)
        res, trace = generic_conjugate_gradient(cone, r)
        assert trace.status is NewtonStatus.ITERATION_CAP
        assert trace.iterations == res.iterations == 3
        assert trace.lambdas == plain.lambdas[:4]
        assert not res.converged
        # the best of the four iterates is returned
        assert self.start_lambda(cone, r, neg(cone, res.g_star)) == \
            min(trace.lambdas)


class TestNegativeLambdaSquared:
    """``lambda^2 = <g + r, H^-1 (g + r)>`` rounds below zero by at most
    ``n eps`` times the sum of its terms' magnitudes.  Within that it reads
    as ``lambda = 0``; beyond it the solve ends ``LEFT_INTERIOR`` with the
    best iterate before it, as at a non-finite local norm."""

    @pytest.mark.parametrize("d, o", [(4, 1e-9), (4, 1e-12), (20, 1e-9)])
    def test_rpower_deep_offsets_are_not_converged(self, d, o):
        # each of these solves meets one lambda^2 of -0.55 to -648, 1e7 to
        # 6e8 times eps times its terms below zero; read as lambda = 0 it
        # ended them converged with g* 22-100% off the specialized one
        for trial in range(5):
            rng = experiment._cell_rng(42, ConeFamily.RPOWER, d, o, trial)
            cone = experiment._make_cone(ConeFamily.RPOWER, d, rng)
            r = sample_dual_point(cone, o, rng)
            res, trace = generic_conjugate_gradient(cone, r)
            assert trace.status is NewtonStatus.LEFT_INTERIOR
            assert not res.converged
            # the iterate with the negative lambda^2 records no local norm
            assert len(trace.lambdas) == trace.iterations > 0
            assert all(np.isfinite(trace.lambdas))
            assert TestLocalNorm.lam(cone, neg(cone, res.g_star), r) == min(trace.lambdas)

    @pytest.mark.parametrize("factor, status", [(0.5, NewtonStatus.CONVERGED),
                                                (2.0, NewtonStatus.LEFT_INTERIOR)])
    def test_rounding_bound(self, factor, status, rng, monkeypatch):
        # the last iterate's lambda^2 is replaced by -factor times its
        # rounding bound n eps sum |(g + r)_i step_i|
        cone = ConeDescriptor.linf(4)
        r = sample_dual_point(cone, 1e-1, rng)
        plain_res, plain = generic_conjugate_gradient(cone, r)
        # the last iterate is the best, and the only one below DEFAULT_EPS
        assert plain.lambdas[-1] == min(plain.lambdas) <= DEFAULT_EPS < plain.lambdas[-2]
        build = newton.BarrierWorkspace

        def negative_at_the_end(cone, x):
            ws = build(cone, x)
            newton_step = ws.newton_step

            def step_and_rad(rf):
                step, rad = newton_step(rf)
                if rad <= DEFAULT_EPS ** 2:
                    terms = np.dot(np.abs(ws.gradient() + rf), np.abs(step))
                    rad = -factor * rf.size * np.finfo(float).eps * terms
                return step, rad

            ws.newton_step = step_and_rad
            return ws

        monkeypatch.setattr(newton, "BarrierWorkspace", negative_at_the_end)
        res, trace = generic_conjugate_gradient(cone, r)
        monkeypatch.undo()
        assert trace.status is status
        assert trace.iterations == plain.iterations
        if status is NewtonStatus.CONVERGED:
            assert trace.lambdas == plain.lambdas[:-1] + [0.0]
            np.testing.assert_array_equal(pack(cone, res.g_star),
                                          pack(cone, plain_res.g_star))
        else:
            assert trace.lambdas == plain.lambdas[:-1]
            assert TestLocalNorm.lam(cone, neg(cone, res.g_star), r) == plain.lambdas[-2]


class TestIterateSymmetry:
    """Generic Newton symmetrizes each candidate's matrix block exactly, so
    sym_eigen accepts it by its equality test; every point from outside
    keeps every check."""

    @pytest.mark.parametrize("family", ["logdet", "rtdet"])
    def test_iterates_after_the_start_are_exactly_symmetric(self, family, rng):
        cone = random_cone(family, rng, d=5)
        r = sample_dual_point(cone, 1e-3, rng)
        plain_res, plain = generic_conjugate_gradient(cone, r)
        build = newton.BarrierWorkspace
        points = []

        def spy(cone, x):
            points.append(np.array(x))
            return build(cone, x)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(newton, "BarrierWorkspace", spy)
            res, trace = generic_conjugate_gradient(cone, r)
        assert trace.lambdas == plain.lambdas and trace.iterations > 2
        np.testing.assert_array_equal(pack(cone, res.g_star), pack(cone, plain_res.g_star))
        assert len(points) == trace.iterations + 1
        for x in points[1:]:
            m = x[cone.layout.mat].reshape(cone.layout.mat_shape)
            np.testing.assert_array_equal(m, m.T)

    @pytest.mark.parametrize("family", ["logdet", "rtdet"])
    @pytest.mark.parametrize("defect", ["skew", "nan"])
    def test_outside_points_keep_every_check(self, family, defect, rng):
        cone = random_cone(family, rng, d=4)
        r = sample_dual_point(cone, 1e-1, rng)
        x = pack(cone, default_initial_point(cone, r))
        m = x[cone.layout.mat].reshape(cone.layout.mat_shape)
        # eigh and cholesky read only the lower triangle, so the defect sits
        # above it
        m[0, -1] = np.nan if defect == "nan" else m[0, -1] + 1e-11 * np.linalg.norm(m)
        point = unpack(cone, x)
        for call in (lambda: BarrierWorkspace(cone, x),
                     lambda: in_interior(cone, point),
                     lambda: generic_conjugate_gradient(cone, r, w0=point)):
            with pytest.raises(ValueError, match="not finite" if defect == "nan"
                               else "not symmetric"):
                call()

    def test_packed_arguments_keep_their_check(self, rng):
        cone = random_cone("logdet", rng, d=3)
        ws = BarrierWorkspace(cone, pack(cone, interior_point(cone, rng)))
        x = rng.integers(-3, 4, cone.ambient_dim)
        np.testing.assert_array_equal(ws.inverse_hessian_apply(x),
                                      ws.inverse_hessian_apply(x.astype(float)))
        for bad in (np.zeros(cone.ambient_dim + 1), np.zeros((1, cone.ambient_dim))):
            with pytest.raises(ValueError, match="flat vector"):
                ws.hessian_apply(bad)
