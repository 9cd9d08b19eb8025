"""The three workloads, their fixed input sets and one timed pass of each.

Every workload is a closed loop: one process, one caller, one solve at a
time.  A pass goes once over the workload's fixed input set; the inputs
depend only on the seed.

* ``grid``   -- ``run_grid(ExperimentConfig(seed=S))``, the ``conebench``
  default: 6 vector cones x d in {20, 40, 60} x 5 offsets x 10 trials, each
  solved by both methods.  Generic Newton (``newton``, ``barriers``,
  ``cones``) takes most of the time.
* ``conj``   -- ``conjugate_gradient`` only, on all nine families at
  d in {8, 24, 60} and offsets down to 1e-12, 36 trials each (4860 calls),
  inputs generated before timing.  ``scalars``, ``conjugate`` and the eigh/SVD calls do the work;
  ``newton`` and ``barriers`` never run in the pass.
* ``matrix`` -- the ``conebench --include-matrix`` path of ``run_grid`` on
  logdet, rtdet and lspec at d in {8, 12, 16}, 20 trials per cell (540):
  the dense Hessian of order d^2 + 2 and its Cholesky factorization
  dominate.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

import numpy as np

from conebarriers import (
    ConeDescriptor,
    ConeFamily,
    ExperimentConfig,
    conjugate_gradient,
    generic_conjugate_gradient,
    sample_dual_point,
)
from conebarriers import experiment

FAMILIES = tuple(f.value for f in ConeFamily)

CONJ_DIMS = (8, 24, 60)
CONJ_OFFSETS = (1e-12, 1e-9, 1e-6, 1e-3, 1e-1)
CONJ_TRIALS = 36
# generic Newton re-solves the conj inputs of the smallest size (a dense
# Hessian of order d^2 + 2 is cheap only there) at these offsets, the
# grid's range, where criterion 6 defines agreement
CROSS_OFFSETS = (1e-3, 1e-1)

# Generic cost per call grows steeply with d, so with two sizes the median
# call would sit on the edge between them and jump from seed to seed; a
# middle size puts it inside one.  Twice run_grid's default trials makes a
# pass long enough to average out drift in the host's speed.
MATRIX_DIMS = (8, 12, 16)
MATRIX_TRIALS = 20

TINY = {
    "grid": dict(dims=(4,), offsets=(1e-3, 1e-1), trials=2),
    "matrix": dict(dims=(3,), offsets=(1e-3,), trials=2),
    "conj": dict(dims=(4,), offsets=(1e-12, 1e-3), trials=2),
}


def grid_config(workload: str, seed: int, tiny: bool = False) -> ExperimentConfig:
    if workload == "grid":
        kw = {}
    else:
        kw = dict(cones=tuple(experiment.MATRIX_CONES), dims=MATRIX_DIMS,
                  offsets=(1e-5, 1e-3, 1e-1), trials=MATRIX_TRIALS)
    if tiny:
        kw.update(TINY[workload])
    return ExperimentConfig(seed=seed, **kw)


def families(workload: str) -> tuple[str, ...]:
    if workload == "grid":
        return tuple(experiment.DEFAULT_CONES)
    if workload == "matrix":
        return tuple(experiment.MATRIX_CONES)
    return FAMILIES


def make_cone(family: str, d: int, rng) -> ConeDescriptor:
    """Cone of size d, drawing power weights from ``rng`` as the grid does."""
    fam = ConeFamily(family)
    if fam in (ConeFamily.HPOWER, ConeFamily.RPOWER):
        a = rng.uniform(0.0, 1.0, d) + np.finfo(float).tiny
        a /= a.sum()
        return ConeDescriptor.hpower(a) if fam is ConeFamily.HPOWER \
            else ConeDescriptor.rpower(d, a)
    if fam is ConeFamily.LSPEC:
        return ConeDescriptor.lspec(d, d)
    if fam is ConeFamily.RGEOM:
        return ConeDescriptor.rgeom(d)
    return ConeDescriptor(fam, d=d)


@dataclass(frozen=True)
class Cell:
    family: str
    d: int
    o: float
    trial: int
    cone: ConeDescriptor
    point: object


def conj_inputs(seed: int, tiny: bool = False) -> list[Cell]:
    """The conj workload's fixed input set, one RNG substream per cell."""
    size = TINY["conj"] if tiny else dict(dims=CONJ_DIMS, offsets=CONJ_OFFSETS,
                                          trials=CONJ_TRIALS)
    dims, offsets, trials = size["dims"], size["offsets"], size["trials"]
    cells = []
    for fi, family in enumerate(FAMILIES):
        for d in dims:
            for oi, o in enumerate(offsets):
                rng = np.random.default_rng(
                    np.random.SeedSequence(seed, spawn_key=(fi, d, oi)))
                for trial in range(trials):
                    cone = make_cone(family, d, rng)
                    cells.append(Cell(family, d, o, trial, cone,
                                      sample_dual_point(cone, o, rng)))
    return cells


def cross_check_cells(cells: list[Cell]) -> list[int]:
    """Indices of the conj inputs that generic Newton re-solves."""
    dim = min(c.d for c in cells)
    return [i for i, c in enumerate(cells) if c.d == dim and c.o in CROSS_OFFSETS]


def warm_up(workload: str) -> None:
    """One call per family and method the workload uses, at d = 3, so that
    lazy imports and first-call costs land in set-up, not in the pass.

    conj times only ``conjugate_gradient``, but its cross-check solves with
    generic Newton too, so every workload warms both methods.
    """
    rng = np.random.default_rng(0)
    for family in families(workload):
        cone = make_cone(family, 3, rng)
        point = sample_dual_point(cone, 0.1, rng)
        conjugate_gradient(cone, point)
        generic_conjugate_gradient(cone, point)


# --------------------------------------------------------------------------
# timing of solves at the benchmark's boundary
# --------------------------------------------------------------------------

@dataclass
class Call:
    method: str          # "sample", "spec" or "gen"
    cone: ConeDescriptor
    point: object        # the dual point solved at, or sampled
    o: float             # its boundary offset
    seconds: float
    result: object       # ConjugateResult, or (ConjugateResult, NewtonTrace)
    error: BaseException | None


class Recorder:
    """Times each solve the workload makes and keeps its inputs and output.

    Inside ``run_grid`` it also records each sampled point, which carries
    the offset the gate's tolerances depend on.
    """

    def __init__(self):
        self.calls: list[Call] = []
        self.offset = float("nan")

    def sampled(self, fn):
        def sample(cone, o, rng):
            self.offset = o
            try:
                point = fn(cone, o, rng)
            except Exception as exc:
                self.calls.append(Call("sample", cone, None, o, 0.0, None, exc))
                raise
            self.calls.append(Call("sample", cone, point, o, 0.0, None, None))
            return point

        return sample

    def timed(self, method: str, fn):
        calls = self.calls
        clock = time.perf_counter

        def call(cone, point, *args, **kwargs):
            o = self.offset
            t0 = clock()
            try:
                out = fn(cone, point, *args, **kwargs)
            except Exception as exc:
                calls.append(Call(method, cone, point, o, clock() - t0, None, exc))
                raise
            calls.append(Call(method, cone, point, o, clock() - t0, out, None))
            return out

        return call


@contextlib.contextmanager
def patched(module, **names):
    """Replace module attributes for the duration of the block."""
    saved = {name: getattr(module, name) for name in names}
    try:
        for name, value in names.items():
            setattr(module, name, value)
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


def run_pass(workload: str, inputs, rec: Recorder):
    """One pass over the input set.  Returns what the program reported
    (``run_grid``'s statistics, or None for conj)."""
    if workload == "conj":
        solve = rec.timed("spec", conjugate_gradient)
        for cell in inputs:
            rec.offset = cell.o
            _recorded(solve, cell)
        return None
    with patched(experiment,
                 sample_dual_point=rec.sampled(experiment.sample_dual_point),
                 conjugate_gradient=rec.timed("spec", experiment.conjugate_gradient),
                 generic_conjugate_gradient=rec.timed(
                     "gen", experiment.generic_conjugate_gradient)):
        return experiment.run_grid(inputs)


def cross_check(cells: list[Cell], indices: list[int], rec: Recorder) -> None:
    solve = rec.timed("gen", generic_conjugate_gradient)
    for i in indices:
        rec.offset = cells[i].o
        _recorded(solve, cells[i])


def _recorded(solve, cell: Cell) -> None:
    # the recorder keeps the exception, which the gate counts as a failure;
    # the loop goes on, as run_grid's does
    try:
        solve(cell.cone, cell.point)
    except Exception:
        pass
