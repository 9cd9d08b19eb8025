import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conebarriers
from conebarriers import (
    NonPositiveDefiniteError,
    cholesky_solve,
    svd,
    sym_eigen,
)
from conftest import rand_orthogonal


class TestSymEigen:
    def test_identity(self):
        e = sym_eigen(np.eye(2))
        np.testing.assert_allclose(e.values, [1.0, 1.0])
        np.testing.assert_allclose(e.vectors @ e.vectors.T, np.eye(2), atol=1e-14)

    def test_diagonal(self):
        e = sym_eigen(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(e.values, [3.0, 1.0])

    def test_descending_order(self, rng):
        a = rng.standard_normal((6, 6))
        a = a + a.T
        e = sym_eigen(a)
        assert np.all(np.diff(e.values) <= 0)

    def test_reconstruction_property(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 21))
            a = rng.standard_normal((n, n))
            a = 0.5 * (a + a.T)
            e = sym_eigen(a)
            scale = max(np.linalg.norm(a), 1.0)
            assert np.linalg.norm(e.reconstruct() - a) <= 1e-12 * scale
            assert np.linalg.norm(e.vectors.T @ e.vectors - np.eye(n)) <= 1e-12

    def test_recovers_known_spectrum(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 12))
            lam = np.sort(rng.uniform(-5, 5, n))[::-1]
            q = rand_orthogonal(rng, n)
            a = (q * lam) @ q.T
            e = sym_eigen(0.5 * (a + a.T))
            np.testing.assert_allclose(e.values, lam, atol=1e-10)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_symmetry_tolerance_around_exact_symmetry(self, rng):
        # an exactly symmetric matrix passes without the tolerance test's
        # norms; off it, the tolerance 1e-13 * max(|A|, 1) still decides
        a = rng.standard_normal((6, 6))
        a = 0.5 * (a + a.T)
        values, vectors = np.linalg.eigh(a)
        e = sym_eigen(a)
        assert e.values.tobytes() == values[::-1].tobytes()
        assert e.vectors.tobytes() == vectors[:, ::-1].tobytes()
        for skew, ok in ((1e-15, True), (1e-12, False)):
            b = a.copy()
            b[0, 5] += skew * np.linalg.norm(a)
            if ok:
                np.testing.assert_allclose(sym_eigen(b).values, e.values, atol=1e-12)
            else:
                with pytest.raises(ValueError, match="not symmetric"):
                    sym_eigen(b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entry(self, bad):
        # eigh reads only the lower triangle, so an entry above it must be
        # caught before the decomposition, where the symmetry test misses
        # it (a NaN compares False, and inf <= inf holds); inf equals inf,
        # so a symmetric pair passes the exact-symmetry test as well
        for cells in (((0, 2),), ((2, 0),), ((1, 1),), ((0, 2), (2, 0))):
            a = np.eye(3)
            for i, j in cells:
                a[i, j] = bad
            with pytest.raises(ValueError, match="not finite"):
                sym_eigen(a)


class TestSvd:
    def test_zero_matrix(self):
        s = svd(np.zeros((2, 4)))
        np.testing.assert_array_equal(s.sigma, np.zeros(2))

    def test_diagonal_embedded(self):
        a = np.zeros((2, 3))
        a[0, 0], a[1, 1] = 2.0, 1.0
        s = svd(a)
        np.testing.assert_allclose(s.sigma, [2.0, 1.0])

    def test_reconstruction_property(self, rng):
        for _ in range(1000):
            d1 = int(rng.integers(1, 13))
            d2 = d1 + int(rng.integers(0, 9))
            a = rng.standard_normal((d1, d2))
            s = svd(a)
            scale = max(np.linalg.norm(a), 1.0)
            assert np.linalg.norm(s.reconstruct() - a) <= 1e-12 * scale
            assert np.linalg.norm(s.U.T @ s.U - np.eye(d1)) <= 1e-12
            assert np.linalg.norm(s.V.T @ s.V - np.eye(d1)) <= 1e-12
            assert np.all(np.diff(s.sigma) <= 0) and np.all(s.sigma >= 0)

    def test_rejects_tall(self):
        with pytest.raises(ValueError):
            svd(np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entry(self, bad):
        # numpy's LinAlgError would escape run_grid, which catches only the
        # package's own error types
        a = np.ones((2, 3))
        a[1, 2] = bad
        with pytest.raises(ValueError, match="not finite"):
            svd(a)


class TestCholeskySolve:
    def test_identity(self):
        b = np.ones(4)
        np.testing.assert_array_equal(cholesky_solve(np.eye(4), b), b)

    def test_diagonal(self):
        np.testing.assert_allclose(cholesky_solve(np.diag([4.0]), np.array([8.0])), [2.0])

    def test_residual_property(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 21))
            a = rng.standard_normal((n, n))
            h = a @ a.T + n * np.eye(n)
            b = rng.standard_normal(n)
            x = cholesky_solve(h, b)
            cond = np.linalg.cond(h)
            assert np.linalg.norm(h @ x - b) <= 1e-10 * cond * max(np.linalg.norm(b), 1.0)

    def test_non_pd_raises_distinct_error(self):
        h = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(NonPositiveDefiniteError):
            cholesky_solve(h, np.ones(2))

    def test_rejects_non_square(self):
        # numpy's LinAlgError for a bad shape is not a failed pivot
        with pytest.raises(ValueError, match="square"):
            cholesky_solve(np.ones((2, 3)), np.ones(2))


# every family's oracles, generic Newton, a one-cell grid and the dense
# Cholesky oracle, its pivot error included, in a fresh interpreter: none
# may load scipy
_NO_SCIPY_SCRIPT = """
import sys
import numpy as np
import conebarriers as cb
from conebarriers.cones import canonical_point

cones = [cb.ConeDescriptor.log(3), cb.ConeDescriptor.logdet(3),
         cb.ConeDescriptor.hpower([0.2, 0.3, 0.5]), cb.ConeDescriptor.hgeom(3),
         cb.ConeDescriptor.rtdet(3), cb.ConeDescriptor.rpower(2, [0.2, 0.3, 0.5]),
         cb.ConeDescriptor.rgeom(3), cb.ConeDescriptor.linf(3),
         cb.ConeDescriptor.lspec(2, 3)]
assert len({c.family for c in cones}) == len(cb.ConeFamily)
rng = np.random.default_rng(0)
for cone in cones:
    w = canonical_point(cone)
    r = cb.sample_dual_point(cone, 1e-3, rng)
    assert cb.in_interior(cone, w) and cb.dual_in_interior(cone, r)
    cb.value(cone, w)
    g = cb.gradient(cone, w)
    cb.hessian_apply(cone, w, g)
    cb.inverse_hessian_apply(cone, w, g)
    h, x = cb.hessian_dense(cone, w), cb.pack(cone, g)
    assert np.allclose(h @ cb.cholesky_solve(h, x), x)
    cb.conjugate_gradient(cone, r)
    cb.conjugate_value(cone, r)
    cb.generic_conjugate_gradient(cone, r)
    cell = cb.ExperimentConfig(cones=(cone.family.value,), dims=(3,),
                               offsets=(1e-3,), trials=1)
    assert cb.run_grid(cell)[0].failures == 0
try:
    cb.cholesky_solve(-np.eye(3), np.ones(3))
except cb.NonPositiveDefiniteError:
    pass
else:
    raise AssertionError("no pivot error")
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


class TestColdStart:
    def test_oracles_run_without_scipy(self):
        src = str(Path(conebarriers.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT],
                             env={**os.environ, "PYTHONPATH": path},
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"
