import math

import numpy as np
import pytest

from conebarriers import (
    ConeDescriptor,
    ConePoint,
    ExperimentConfig,
    IterationStats,
    NotInteriorError,
    conjugate_gradient,
    dual_in_interior,
    render_table,
    residual,
    run_grid,
    sample_dual_point,
)
from conebarriers.cli import main as cli_main
from conftest import ALL_FAMILIES, random_cone


class TestSampler:
    def test_log_offset_rule(self):
        # with r = (1) and p = -1 the boundary value is q_bar = -1 and the
        # multiplicative rule gives q = -0.9 at offset 0.1
        rng = np.random.default_rng(0)

        class Fixed:
            def uniform(self, lo=0.0, hi=1.0, size=None):
                if size is None:
                    return 1.0
                return np.ones(size)

            def standard_normal(self, *a):
                return rng.standard_normal(*a)

        cone = ConeDescriptor.log(1)
        pt = sample_dual_point(cone, 0.1, Fixed())
        assert pt.epi == -1.0
        assert pt.persp == pytest.approx(-0.9)
        assert pt.vec[0] == 1.0

    def test_linf_offset_rule(self):
        class Fixed:
            def uniform(self, lo=0.0, hi=1.0, size=None):
                if size is None:
                    return 0.5
                return np.full(size, 0.5)

        cone = ConeDescriptor.linf(2)
        pt = sample_dual_point(cone, 0.01, Fixed())
        assert pt.epi == pytest.approx(1.01)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_samples_always_dual_interior(self, family, rng):
        for o in (1e-5, 1e-3, 1e-1, 0.9):
            for _ in range(25):
                cone = random_cone(family, rng)
                pt = sample_dual_point(cone, o, rng)
                assert dual_in_interior(cone, pt)

    def test_hpower_offset_is_exact(self, rng):
        cone = random_cone("hpower", rng)
        pt = sample_dual_point(cone, 0.25, rng)
        cap = float(np.exp(np.dot(cone.alpha, np.log(pt.vec / cone.alpha))))
        assert -pt.epi / cap == pytest.approx(0.75, rel=1e-12)

    def test_rejects_bad_offset(self, rng):
        with pytest.raises(ValueError):
            sample_dual_point(ConeDescriptor.linf(2), 1.5, rng)


class TestResidual:
    def test_exact_pair_is_zero(self, rng):
        cone = ConeDescriptor.hgeom(3)
        r = sample_dual_point(cone, 0.2, rng)
        res = conjugate_gradient(cone, r)
        assert residual(cone, res.g_star, r) <= 1e-10 * cone.nu

    def test_worked_example(self):
        cone = ConeDescriptor.hgeom(2)
        g = ConePoint(epi=-1.0, vec=np.array([-2.0, -2.0]))
        r = ConePoint(epi=-1.0, vec=np.array([1.0, 1.0]))
        assert residual(cone, g, r) == 0.0

    def test_linear_in_perturbation(self, rng):
        # perturbing g* along the epigraph slot moves the residual by
        # exactly |delta * p| up to the residual already present
        cone = ConeDescriptor.linf(3)
        r = sample_dual_point(cone, 0.2, rng)
        res = conjugate_gradient(cone, r)
        delta = 1e-3
        bumped = ConePoint(epi=res.g_star.epi + delta, vec=res.g_star.vec)
        assert residual(cone, bumped, r) == pytest.approx(abs(delta * r.epi), rel=1e-6)


class TestRunGrid:
    def test_deterministic(self):
        cfg = ExperimentConfig(cones=("linf", "hgeom"), dims=(6,),
                               offsets=(1e-2, 1e-1), trials=3, seed=11)
        a = run_grid(cfg)
        b = run_grid(cfg)
        assert a == b
        assert render_table(a, "csv") == render_table(b, "csv")

    @pytest.mark.parametrize("golden, cones, d", [
        ("small_grid_seed7.csv", ("log", "hpower", "linf"), 6),
        ("all_families_seed7.csv", tuple(ALL_FAMILIES), 4),
    ], ids=["small_grid", "all_families"])
    def test_matches_reviewed_golden_file(self, golden, cones, d):
        # pins the sampling protocol, solver behavior, and CSV formatting
        # end to end; regenerate tests/data/<golden> from this config after
        # an intentional protocol change
        import pathlib

        cfg = ExperimentConfig(cones=cones, dims=(d,), offsets=(1e-3, 1e-1),
                               trials=3, seed=7)
        text = render_table(run_grid(cfg), "csv")
        path = pathlib.Path(__file__).parent / "data" / golden
        assert text == path.read_text()

    def test_subset_independence(self):
        # a cell's statistics do not depend on which other cells run
        full = run_grid(ExperimentConfig(cones=("linf", "log"), dims=(5, 8),
                                         offsets=(1e-2,), trials=3, seed=4))
        sub = run_grid(ExperimentConfig(cones=("log",), dims=(8,),
                                        offsets=(1e-2,), trials=3, seed=4))
        pick = [s for s in full if s.cone == "log" and s.d == 8]
        assert pick == sub

    def test_cell_invariants(self):
        stats = run_grid(ExperimentConfig(cones=("hpower", "linf"), dims=(8,),
                                          offsets=(1e-3, 1e-1), trials=5))
        for s in stats:
            assert s.trials == 5
            assert s.failures == 0
            assert s.mean_iters_specialized <= 10
            assert s.mean_iters_generic >= s.mean_iters_specialized
            assert s.mean_residual_specialized >= 0

    def test_residuals_within_factor_100(self):
        stats = run_grid(ExperimentConfig(dims=(10,), offsets=(1e-1, 1e-2),
                                          trials=5))
        for s in stats:
            # comparable accuracy between the two methods on converged cells
            assert s.mean_residual_generic <= 100 * max(s.mean_residual_specialized,
                                                        1e-13)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(offsets=(0.0,))
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(cones=("nosuchcone",))
        with pytest.raises(ValueError):
            render_table(TestRendering._stats(), "tsv")
        for grid in (dict(cones=()), dict(dims=()), dict(offsets=()),
                     dict(dims=(0,)), dict(dims=(4, -1)), dict(dims=(2.5,))):
            with pytest.raises(ValueError):
                ExperimentConfig(**grid)

    def test_config_requires_integer_counts_and_seed(self):
        # each of these reached run_grid, which then died in range() or
        # SeedSequence with a TypeError or ValueError
        for bad in (dict(trials=2.5), dict(trials=True), dict(dims=(True,)),
                    dict(seed=-1), dict(seed=1.0), dict(seed=False)):
            with pytest.raises(ValueError):
                ExperimentConfig(**bad)
        cfg = ExperimentConfig(dims=(np.int64(4),), trials=np.int64(2), seed=np.int64(0))
        assert cfg.seed == 0

    def test_failures_counted_without_aborting(self, monkeypatch):
        import conebarriers.experiment as exp

        real = exp.conjugate_gradient
        calls = {"n": 0}

        def flaky(cone, r):
            calls["n"] += 1
            if calls["n"] % 3 == 0:
                raise RuntimeError("synthetic trial failure")
            return real(cone, r)

        monkeypatch.setattr(exp, "conjugate_gradient", flaky)
        stats = run_grid(ExperimentConfig(cones=("linf",), dims=(4,),
                                          offsets=(1e-1,), trials=6))
        (s,) = stats
        assert s.failures == 2
        assert s.trials == 6
        # means computed over the surviving trials only
        assert math.isfinite(s.mean_iters_generic)

    def test_only_trial_failures_are_counted(self, monkeypatch):
        # a point outside the cone fails its trial; any other exception is
        # a fault in the program and must not be counted away
        import conebarriers.experiment as exp

        def raising(exc):
            def oracle(cone, r):
                raise exc("synthetic")
            return oracle

        cfg = ExperimentConfig(cones=("linf",), dims=(4,), offsets=(1e-1,), trials=2)
        monkeypatch.setattr(exp, "conjugate_gradient", raising(NotInteriorError))
        (s,) = run_grid(cfg)
        assert s.failures == 2
        monkeypatch.setattr(exp, "conjugate_gradient", raising(ZeroDivisionError))
        with pytest.raises(ZeroDivisionError):
            run_grid(cfg)


class TestRendering:
    @staticmethod
    def _stats():
        return [IterationStats(cone="linf", d=4, o=1e-2, trials=3,
                               mean_iters_generic=12.3456,
                               mean_iters_specialized=3.21,
                               mean_residual_generic=1.23e-11,
                               mean_residual_specialized=4.56e-13,
                               failures=0)]

    def test_csv_single_row(self):
        text = render_table(self._stats(), "csv")
        lines = text.strip().split("\n")
        assert lines[0].startswith("cone,d,o,trials,mean_iters_generic")
        assert lines[1] == "linf,4,0.01,3,12.3,3.2,1.2e-11,4.6e-13,0"

    def test_markdown_layout_parses_back(self):
        stats = run_grid(ExperimentConfig(cones=("linf", "hgeom"), dims=(4, 6),
                                          offsets=(1e-2, 1e-1), trials=2))
        text = render_table(stats, "markdown")
        lines = text.strip().split("\n")
        assert lines[0].startswith("| d | o | linf g | linf s | hgeom g | hgeom s |")
        # two d blocks of two offset rows, a separator between blocks
        assert len([ln for ln in lines if ln.startswith("| 4 |")]) == 2
        assert len([ln for ln in lines if ln.startswith("| 6 |")]) == 2
        # the data rows parse back to the rendered statistics
        cell = {(s.d, s.o): s for s in stats if s.cone == "linf"}
        for line in lines[2:]:
            parts = [p.strip() for p in line.strip("|").split("|")]
            if not parts[0]:
                continue
            d, o = int(parts[0]), float(parts[1])
            assert float(parts[2]) == pytest.approx(
                cell[(d, o)].mean_iters_generic, abs=0.05)
            assert float(parts[3]) == pytest.approx(
                cell[(d, o)].mean_iters_specialized, abs=0.05)

    def test_closed_form_cones_report_zero_specialized(self):
        stats = run_grid(ExperimentConfig(cones=("hgeom",), dims=(4,),
                                          offsets=(1e-1,), trials=2))
        text = render_table(stats, "markdown")
        assert "| 0.0 |" in text

    def test_empty_stats_rejected(self):
        with pytest.raises(ValueError):
            render_table([], "csv")


class TestCli:
    def test_determinism_and_exit_code(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["--cones", "linf", "--dims", "5", "--offsets", "1e-2,1e-1",
                "--trials", "2", "--seed", "42"]
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_stdout_csv(self, capsys):
        assert cli_main(["--cones", "hgeom", "--dims", "3", "--offsets", "0.1",
                         "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("cone,d,o,")
        assert "hgeom,3,0.1,1," in out

    def test_markdown_format(self, capsys):
        assert cli_main(["--cones", "linf", "--dims", "3", "--offsets", "0.1",
                         "--trials", "1", "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| d | o | linf g | linf s |")

    def test_include_matrix_flag(self, capsys):
        assert cli_main(["--cones", "linf", "--include-matrix", "--dims", "3",
                         "--offsets", "0.1", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        for name in ("logdet", "rtdet", "lspec"):
            assert name in out

    def test_bad_config_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--offsets", "1.5"])
        assert exc.value.code != 0

    @pytest.mark.parametrize("grid", [["--dims", "0"], ["--dims", ""],
                                      ["--cones", ""], ["--offsets", ""],
                                      ["--seed", "-1"]],
                             ids=["dims-0", "dims-empty", "cones-empty", "offsets-empty",
                                  "seed-negative"])
    def test_bad_grid_is_usage_error(self, grid, capsys):
        # the failures must not reach run_grid, which counts a descriptor's
        # ValueError as failed trials
        args = ["--cones", "linf", "--dims", "4", "--offsets", "0.1",
                "--trials", "2"] + grid
        with pytest.raises(SystemExit) as exc:
            cli_main(args)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage: conebench" in captured.err

    def test_no_arguments_build_the_default_config(self, monkeypatch):
        # every option's default is ExperimentConfig's own; the grid is not run
        from conebarriers import cli

        class Built(Exception):
            pass

        def stop(config):
            raise Built(config)

        monkeypatch.setattr(cli, "run_grid", stop)
        with pytest.raises(Built) as built:
            cli_main([])
        assert built.value.args[0] == ExperimentConfig()

    def test_unknown_cone_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--cones", "bogus"])
        assert exc.value.code != 0
