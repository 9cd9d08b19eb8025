"""Benchmark grid: specialized conjugate-gradient procedures versus the
generic Newton method on randomly sampled dual points.

Sampling protocol.  Every family draws its vector (or spectral) block
componentwise from Uniform(0, 1), then places the remaining scalar so that
the relative violation of the dual cone's defining inequality equals an
offset fraction ``o``:

* log / logdet   — a perspective scalar ``p = -Uniform(0,1)`` and
  ``q = q_bar (1 + sign(q_bar) o)`` where ``q_bar`` is the boundary value.
* hpower/rpower  — cap the leading block at ``(1-o)`` of the power product
  ``prod (r_i / alpha_i)**alpha_i`` for the cone's own weights; the radial
  direction is uniform on the sphere.
* hgeom/rgeom (and the rtdet lift) — same construction, but the cap uses a
  freshly drawn random weight vector rather than the equal weights.  The
  resulting points are strictly interior for the equal-weight cone while
  sitting at an essentially offset-independent distance from its boundary,
  which is the regime the reference iteration counts for these cones
  exhibit (they are flat in ``o``); a rejection loop guards the rare draw
  that lands outside.
* linf / lspec   — ``p = (1+o) * l1-norm`` of the vector or spectrum.

A matrix family runs its vector family's entry of ``_SAMPLERS`` for the
spectrum, then draws a random orthogonal frame (and for lspec an orthonormal
right frame).  The grid's cone of size ``d`` has a spectrum of length ``d``;
its power weights are drawn first.

Reproducibility.  Each (cone, d, o, trial) cell owns an RNG substream
spawned from ``SeedSequence(seed, spawn_key=(cone_index, d, o_bits_hi,
o_bits_lo, trial))`` where ``o_bits`` is the IEEE-754 bit pattern of ``o``
split into 32-bit halves; results are therefore independent of which other
cells run and byte-identical across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cones import (
    RULES,
    ConeDescriptor,
    ConeFamily,
    ConePoint,
    NotInteriorError,
    PowerParams,
    inner,
    pack,  # noqa: F401  # wrapped by perfbench/tracer.py
    power_cap,
)
from .conjugate import conjugate_gradient, dual_in_interior
from .linalg import NonPositiveDefiniteError
from .newton import DEFAULT_EPS, NewtonStatus, generic_conjugate_gradient

__all__ = [
    "ExperimentConfig",
    "IterationStats",
    "sample_dual_point",
    "residual",
    "run_grid",
    "render_table",
    "DEFAULT_CONES",
    "MATRIX_CONES",
]

DEFAULT_CONES = ["log", "hpower", "hgeom", "rpower", "rgeom", "linf"]
MATRIX_CONES = ["logdet", "rtdet", "lspec"]

# cone identifier used in the RNG spawn key; append-only
_CONE_IDS = {fam: i for i, fam in enumerate(ConeFamily)}


@dataclass(frozen=True)
class ExperimentConfig:
    cones: tuple[str, ...] = tuple(DEFAULT_CONES)
    dims: tuple[int, ...] = (20, 40, 60)
    offsets: tuple[float, ...] = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1)
    trials: int = 10
    seed: int = 42
    eps: float = DEFAULT_EPS
    fmt: str = "csv"

    def __post_init__(self):
        if not (self.cones and self.dims and self.offsets):
            raise ValueError("cones, dims and offsets must be non-empty")
        for name in self.cones:
            ConeFamily(name)  # raises on unknown names
        if any(not isinstance(d, (int, np.integer)) or d < 1 for d in self.dims):
            raise ValueError("dims must be integers >= 1")
        if any(not (0.0 < o < 1.0) for o in self.offsets):
            raise ValueError("offsets must lie strictly in (0, 1)")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise ValueError(f"eps must be finite and positive; got {self.eps!r}")
        if self.fmt not in ("csv", "markdown"):
            raise ValueError("format must be 'csv' or 'markdown'")


@dataclass(frozen=True)
class IterationStats:
    cone: str
    d: int
    o: float
    trials: int
    mean_iters_generic: float
    mean_iters_specialized: float
    mean_residual_generic: float
    mean_residual_specialized: float
    failures: int


def residual(cone: ConeDescriptor, g_star: ConePoint, r: ConePoint) -> float:
    """Optimality violation ``|<g*, r> + nu|`` of a conjugate-gradient value."""
    return abs(inner(cone, g_star, r) + cone.nu)


def _rand_orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _positive_uniform(rng, n: int) -> np.ndarray:
    r = rng.uniform(0.0, 1.0, n)
    while np.any(r == 0.0):
        r = rng.uniform(0.0, 1.0, n)
    return r


def _random_alpha(rng, n: int) -> np.ndarray:
    a = _positive_uniform(rng, n)
    return a / a.sum()


def _sample_log(cone: ConeDescriptor, o: float, rng):
    r = _positive_uniform(rng, cone.spectrum_dim)
    p = -float(_positive_uniform(rng, 1)[0])
    q_bar = p * float(np.sum(np.log(-r / p))) + p * r.size
    q = q_bar * (1.0 + math.copysign(1.0, q_bar) * o) if q_bar != 0.0 else o
    return p, q, r


def _sample_hpower(cone: ConeDescriptor, o: float, rng):
    r = _positive_uniform(rng, cone.spectrum_dim)
    # equal-weight cones cap with fresh random weights (module docstring)
    alpha = cone.alpha if cone.powers is not None else _random_alpha(rng, r.size)
    return -(1.0 - o) * power_cap(alpha, r), None, r


def _sample_rpower(cone: ConeDescriptor, o: float, rng):
    r = _positive_uniform(rng, cone.spectrum_dim)
    direction = rng.standard_normal(cone.d1)
    direction /= np.linalg.norm(direction)
    return (1.0 - o) * power_cap(cone.alpha, r) * direction, None, r


def _sample_rgeom(cone: ConeDescriptor, o: float, rng):
    r = _positive_uniform(rng, cone.spectrum_dim)
    cap = power_cap(_random_alpha(rng, r.size), r)
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    return sign * (1.0 - o) * cap, None, r


def _sample_linf(cone: ConeDescriptor, o: float, rng):
    r = _positive_uniform(rng, cone.spectrum_dim)
    return (1.0 + o) * float(np.sum(np.abs(r))), None, r


# (cone, o, rng) -> (epi, persp, r) with r the vector block or the spectrum
_SAMPLERS = {
    ConeFamily.LOG: _sample_log,
    ConeFamily.HPOWER: _sample_hpower,
    ConeFamily.HGEOM: _sample_hpower,
    ConeFamily.RPOWER: _sample_rpower,
    ConeFamily.RGEOM: _sample_rgeom,
    ConeFamily.LINF: _sample_linf,
}


def sample_dual_point(cone: ConeDescriptor, o: float, rng) -> ConePoint:
    """Random strictly interior dual point at relative boundary offset ``o``."""
    if not (0.0 < o < 1.0):
        raise ValueError("offset must lie strictly in (0, 1)")
    for _ in range(100):
        point = _sample_once(cone, o, rng)
        if dual_in_interior(cone, point):
            return point
    raise RuntimeError(f"could not sample an interior dual point for {cone.family.value}")


def _sample_once(cone: ConeDescriptor, o: float, rng) -> ConePoint:
    epi, persp, r = _SAMPLERS[cone.rules.vector](cone, o, rng)
    lift = cone.rules.lift
    if lift is None:
        return ConePoint(epi=epi, persp=persp, vec=r)
    u = _rand_orthogonal(rng, r.size)
    if lift == "eig":
        mat = (u * r) @ u.T
        return ConePoint(epi=epi, persp=persp, mat=0.5 * (mat + mat.T))
    v, _ = np.linalg.qr(rng.standard_normal((cone.mat_shape[1], r.size)))
    return ConePoint(epi=epi, persp=persp, mat=(u * r) @ v.T)


def _make_cone(fam: ConeFamily, d: int, rng) -> ConeDescriptor:
    # power weights are part of the trial draw; they are consumed from the
    # substream before the point itself
    rules = RULES[fam]
    powers = PowerParams(_random_alpha(rng, d)) if rules.weights == "given" else None
    return ConeDescriptor(fam, powers=powers, **rules.dims(d))


def _cell_rng(seed: int, fam: ConeFamily, d: int, o: float, trial: int):
    bits = int(np.float64(o).view(np.uint64))
    key = (_CONE_IDS[fam], d, bits >> 32, bits & 0xFFFFFFFF, trial)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def run_grid(config: ExperimentConfig) -> list[IterationStats]:
    """Run the full (cone, d, o) grid; failed trials are excluded from the
    means and counted per cell.  A stalled generic run is a normal stop.
    """
    stats = []
    for name in config.cones:
        fam = ConeFamily(name)
        for d in config.dims:
            for o in config.offsets:
                gi, si, gres, sres = [], [], [], []
                failures = 0
                for trial in range(config.trials):
                    rng = _cell_rng(config.seed, fam, d, o, trial)
                    try:
                        cone = _make_cone(fam, d, rng)
                        point = sample_dual_point(cone, o, rng)
                        spec = conjugate_gradient(cone, point)
                        gen, trace = generic_conjugate_gradient(
                            cone, point, eps=config.eps)
                    except (NotInteriorError, NonPositiveDefiniteError, RuntimeError):
                        failures += 1
                        continue
                    ok_generic = trace.status in (NewtonStatus.CONVERGED,
                                                  NewtonStatus.STALLED)
                    if not (spec.converged and ok_generic):
                        failures += 1
                        continue
                    gi.append(trace.iterations)
                    si.append(spec.iterations)
                    gres.append(gen.residual)
                    sres.append(spec.residual)

                def mean(xs):
                    return float(np.mean(xs)) if xs else math.nan

                stats.append(IterationStats(
                    cone=name, d=d, o=o, trials=config.trials,
                    mean_iters_generic=mean(gi),
                    mean_iters_specialized=mean(si),
                    mean_residual_generic=mean(gres),
                    mean_residual_specialized=mean(sres),
                    failures=failures,
                ))
    return stats


# --------------------------------------------------------------------------
# rendering
# --------------------------------------------------------------------------

_CSV_HEADER = ("cone,d,o,trials,mean_iters_generic,mean_iters_specialized,"
               "mean_residual_generic,mean_residual_specialized,failures")


def _fmt_iters(x: float) -> str:
    return "nan" if math.isnan(x) else f"{x:.1f}"


def _fmt_res(x: float) -> str:
    return "nan" if math.isnan(x) else f"{x:.1e}"


def render_table(stats: list[IterationStats], fmt: str = "csv") -> str:
    """Render cell statistics as CSV rows or a grouped markdown table."""
    if not stats:
        raise ValueError("no statistics to render")
    if fmt == "csv":
        lines = [_CSV_HEADER]
        for s in stats:
            lines.append(
                f"{s.cone},{s.d},{s.o:g},{s.trials},"
                f"{_fmt_iters(s.mean_iters_generic)},"
                f"{_fmt_iters(s.mean_iters_specialized)},"
                f"{_fmt_res(s.mean_residual_generic)},"
                f"{_fmt_res(s.mean_residual_specialized)},{s.failures}"
            )
        return "\n".join(lines) + "\n"
    if fmt != "markdown":
        raise ValueError("format must be 'csv' or 'markdown'")

    cones = list(dict.fromkeys(s.cone for s in stats))
    dims = sorted({s.d for s in stats})
    offsets = sorted({s.o for s in stats})
    cell = {(s.cone, s.d, s.o): s for s in stats}

    header = ["d", "o"]
    for c in cones:
        header += [f"{c} g", f"{c} s"]
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---:" for _ in header) + "|"]
    for d in dims:
        for o in offsets:
            row = [str(d), f"{o:g}"]
            for c in cones:
                s = cell.get((c, d, o))
                if s is None:
                    row += ["", ""]
                else:
                    row += [_fmt_iters(s.mean_iters_generic),
                            _fmt_iters(s.mean_iters_specialized)]
            lines.append("| " + " | ".join(row) + " |")
        if d != dims[-1]:
            lines.append("|" + "|".join(" " for _ in header) + "|")
    return "\n".join(lines) + "\n"
