"""Metric definitions and their computation.

End-to-end metrics come from untraced passes.  Per-layer metrics come from
a trace run: counts, layer totals and self times from its traced pass; the
per-call and per-iteration rates from its first untraced pass, so that tracing
cost does not inflate them.  ``PER_LAYER`` records, for each per-layer
metric, the end-to-end metric it should move and on which workloads.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

FAMILIES = ("log", "logdet", "hpower", "hgeom", "rtdet", "rpower", "rgeom",
            "linf", "lspec")
STATUSES = ("converged", "stalled", "left_interior", "iteration_cap")

# name -> (unit, better); bounds live in BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "spec_ms_p50": ("ms", "lower"),
    "spec_ms_tail": ("ms", "lower"),
    "gen_ms_p50": ("ms", "lower"),
    "gen_ms_tail": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# name -> (unit, better, should move, on)
PER_LAYER = {
    "scalars.newton_raphson.calls": ("count", "lower", "spec_ms_tail, wall_s", "conj; grid"),
    "scalars.newton_raphson.iters": ("count", "lower", "spec_ms_tail, wall_s", "conj; grid"),
    "scalars.newton_raphson.ms": ("ms", "lower", "spec_ms_tail, wall_s", "conj; grid"),
    "scalars.newton_raphson.unconverged": ("count", "lower", "spec_ms_tail", "conj"),
    "scalars.wright_omega.calls": ("count", "lower", "spec_ms_p50", "conj"),
    "scalars.wright_omega.ms": ("ms", "lower", "spec_ms_p50", "conj"),
    "conjugate.calls": ("count", "lower", "spec_ms_p50, spec_ms_tail", "conj"),
    "conjugate.self_ms": ("ms", "lower", "spec_ms_p50, spec_ms_tail", "conj"),
    "conjugate.rootfind_share": ("ratio", "lower", "spec_ms_p50, spec_ms_tail", "conj"),
    **{f"conjugate.{f}.us_p50": ("us", "lower", "spec_ms_p50, spec_ms_tail", "conj")
       for f in FAMILIES},
    "linalg.cholesky.calls": ("count", "lower", "gen_ms_p50, gen_ms_tail", "matrix"),
    "linalg.cholesky.ms": ("ms", "lower", "gen_ms_p50, gen_ms_tail", "matrix"),
    "linalg.cholesky.failures": ("count", "lower", "gen_ms_p50, gen_ms_tail", "matrix"),
    "linalg.cholesky.gflop_computed": ("GFLOP", "lower", "gen_ms_p50, gen_ms_tail", "matrix"),
    "linalg.eigh.calls": ("count", "lower", "spec_ms_*; gen_ms_*", "conj; matrix"),
    "linalg.eigh.ms": ("ms", "lower", "spec_ms_*; gen_ms_*", "conj; matrix"),
    "linalg.svd.calls": ("count", "lower", "spec_ms_*; gen_ms_*", "conj; matrix"),
    "linalg.svd.ms": ("ms", "lower", "spec_ms_*; gen_ms_*", "conj; matrix"),
    "cones.pack.calls": ("count", "lower", "gen_ms_p50; spec_ms_p50", "grid; conj"),
    "cones.unpack.calls": ("count", "lower", "gen_ms_p50; spec_ms_p50", "grid; conj"),
    "cones.pack_unpack.ms": ("ms", "lower", "gen_ms_p50; spec_ms_p50", "grid; conj"),
    "cones.membership.calls": ("count", "lower", "gen_ms_p50; spec_ms_p50", "grid; conj"),
    "cones.membership.ms": ("ms", "lower", "gen_ms_p50; spec_ms_p50", "grid; conj"),
    "barriers.workspace.builds": ("count", "lower", "gen_ms_*", "grid, matrix"),
    "barriers.workspace.ms": ("ms", "lower", "gen_ms_*", "grid, matrix"),
    "barriers.workspace.accept_ratio": ("ratio", "higher", "gen_ms_*", "grid, matrix"),
    "barriers.gradient.ms": ("ms", "lower", "gen_ms_*", "grid, matrix"),
    "barriers.inverse_hessian.calls": ("count", "lower", "gen_ms_*", "grid, matrix"),
    "barriers.inverse_hessian.ms": ("ms", "lower", "gen_ms_*", "grid, matrix"),
    "newton.calls": ("count", "lower", "gen_ms_*, failed_share", "grid, matrix"),
    "newton.iters_mean": ("count", "lower", "gen_ms_*, failed_share", "grid, matrix"),
    "newton.ms_per_iter": ("ms", "lower", "gen_ms_*", "grid, matrix"),
    "newton.self_ms": ("ms", "lower", "gen_ms_*", "grid, matrix"),
    "newton.wasted_iters": ("count", "lower", "gen_ms_*, failed_share", "grid, matrix"),
    **{f"newton.{f}.ms_per_iter": ("ms", "lower", "gen_ms_*", "grid, matrix")
       for f in FAMILIES},
    **{f"newton.status.{s}_share": ("ratio", "higher" if s == "converged" else "lower",
                                    "gen_ms_*, failed_share", "grid, matrix")
       for s in STATUSES},
    "experiment.sample.calls": ("count", "lower", "wall_s", "grid"),
    "experiment.sample.ms": ("ms", "lower", "wall_s", "grid"),
    "experiment.sample.retries": ("count", "lower", "wall_s", "grid"),
    "gate.failed_share": ("ratio", "lower", "correctness, not speed", "all"),
    "trace.spans": ("count", "lower", "none: tracing cost", "all"),
    "trace.overhead_s": ("s", "lower", "none: tracing cost", "all"),
}


def tail_level(n_per_pass: int) -> float:
    """Highest conventional percentile with at least ten of one pass's
    samples beyond it; fixed per workload, whatever the pass count."""
    for level in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n_per_pass * (100.0 - level) / 100.0 >= 10.0:
            return level
    return 50.0


def percentile(values, level: float) -> float:
    xs = sorted(values)
    if not xs:
        return 0.0
    k = (len(xs) - 1) * level / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def latency(ms: list[float], n_per_pass: int) -> dict:
    """Median and tail of per-call times."""
    level = tail_level(n_per_pass)
    return {"p50": percentile(ms, 50.0), "tail": percentile(ms, level),
            "tail_percentile": level, "samples": len(ms)}


def _family_of(call) -> str:
    return call.cone.family.value


def per_layer(tracer, untraced_calls, overhead_s: float, gate) -> dict[str, float]:
    """Per-layer metrics of a trace run."""
    summ = tracer.summary()

    def total(name, key="ms"):
        return summ.get(name, {}).get(key, 0.0)

    def calls(name):
        return summ.get(name, {}).get("calls", 0)

    def raised(name):
        return summ.get(name, {}).get("raised", 0)

    def infos(name):
        return [tracer.info[i] for i in tracer.by_name(name)]

    out: dict[str, float] = {}
    roots = [i for i in infos("scalars.newton_raphson") if i and i[0] != "raised"]
    out["scalars.newton_raphson.calls"] = calls("scalars.newton_raphson")
    out["scalars.newton_raphson.iters"] = sum(i[0] for i in roots)
    out["scalars.newton_raphson.ms"] = total("scalars.newton_raphson")
    out["scalars.newton_raphson.unconverged"] = sum(1 for i in roots if not i[1])
    out["scalars.wright_omega.calls"] = calls("scalars.wright_omega")
    out["scalars.wright_omega.ms"] = total("scalars.wright_omega")

    conj_ids = set(tracer.by_name("conjugate"))
    nr_in_conj = sum(tracer.t1[i] - tracer.t0[i] for i in tracer.by_name("scalars.newton_raphson")
                     if tracer.parent[i] in conj_ids) * 1e3
    out["conjugate.calls"] = calls("conjugate")
    out["conjugate.self_ms"] = total("conjugate", "self_ms")
    out["conjugate.rootfind_share"] = nr_in_conj / total("conjugate") if conj_ids else 0.0
    spec_by_family = defaultdict(list)
    gen_by_family = defaultdict(lambda: [0.0, 0])
    for c in untraced_calls:
        if c.error is not None:
            continue
        if c.method == "spec":
            spec_by_family[_family_of(c)].append(c.seconds * 1e6)
        elif c.method == "gen":
            acc = gen_by_family[_family_of(c)]
            acc[0] += c.seconds * 1e3
            acc[1] += c.result[1].iterations
    for f in FAMILIES:
        xs = spec_by_family.get(f)
        out[f"conjugate.{f}.us_p50"] = statistics.median(xs) if xs else 0.0

    chol = tracer.by_name("linalg.cholesky")
    out["linalg.cholesky.calls"] = len(chol)
    out["linalg.cholesky.ms"] = total("linalg.cholesky")
    out["linalg.cholesky.failures"] = raised("linalg.cholesky")
    # computed from the matrix order, not measured
    out["linalg.cholesky.gflop_computed"] = sum(
        tracer.info[i] ** 3 / 3.0 for i in chol if isinstance(tracer.info[i], int)) / 1e9
    for op in ("eigh", "svd"):
        out[f"linalg.{op}.calls"] = calls(f"linalg.{op}")
        out[f"linalg.{op}.ms"] = total(f"linalg.{op}")

    out["cones.pack.calls"] = calls("cones.pack")
    out["cones.unpack.calls"] = calls("cones.unpack")
    out["cones.pack_unpack.ms"] = total("cones.pack") + total("cones.unpack")
    out["cones.membership.calls"] = calls("cones.membership")
    out["cones.membership.ms"] = total("cones.membership")

    attempts = calls("barriers.workspace")
    out["barriers.workspace.builds"] = attempts - raised("barriers.workspace")
    out["barriers.workspace.ms"] = total("barriers.workspace")
    out["barriers.workspace.accept_ratio"] = (
        out["barriers.workspace.builds"] / attempts if attempts else 0.0)
    out["barriers.gradient.ms"] = total("barriers.gradient")
    out["barriers.inverse_hessian.calls"] = calls("barriers.inverse_hessian")
    out["barriers.inverse_hessian.ms"] = total("barriers.inverse_hessian")

    runs = [i for i in infos("newton") if i and i[0] != "raised"]
    iters = sum(i[1] for i in runs)
    gen_ms = sum(acc[0] for acc in gen_by_family.values())
    gen_iters = sum(acc[1] for acc in gen_by_family.values())
    status = Counter(i[2] for i in runs)
    out["newton.calls"] = calls("newton")
    out["newton.iters_mean"] = iters / len(runs) if runs else 0.0
    out["newton.ms_per_iter"] = gen_ms / gen_iters if gen_iters else 0.0
    out["newton.self_ms"] = total("newton", "self_ms")
    out["newton.wasted_iters"] = sum(
        i[1] for i in runs if i[2] in ("left_interior", "iteration_cap"))
    for f in FAMILIES:
        ms, it = gen_by_family.get(f, (0.0, 0))
        out[f"newton.{f}.ms_per_iter"] = ms / it if it else 0.0
    for s in STATUSES:
        out[f"newton.status.{s}_share"] = status[s] / len(runs) if runs else 0.0

    sample_ids = set(tracer.by_name("experiment.sample"))
    out["experiment.sample.calls"] = len(sample_ids)
    out["experiment.sample.ms"] = total("experiment.sample")
    out["experiment.sample.retries"] = sum(
        1 for i in tracer.by_name("cones.membership")
        if tracer.parent[i] in sample_ids and tracer.info[i] is False)

    out["gate.failed_share"] = gate.failed / gate.attempted
    out["trace.spans"] = len(tracer)
    out["trace.overhead_s"] = overhead_s
    return out


def trace_counts(tracer) -> dict:
    """Counts the traced pass must share with the untraced pass."""
    runs = [i for i in (tracer.info[j] for j in tracer.by_name("newton"))
            if i and i[0] != "raised"]
    roots = [i for i in (tracer.info[j] for j in tracer.by_name("scalars.newton_raphson"))
             if i and i[0] != "raised"]
    return {
        "spec_calls": len(tracer.by_name("conjugate")),
        "gen_calls": len(tracer.by_name("newton")),
        "gen_iters": sum(i[1] for i in runs),
        "gen_status": dict(Counter(i[2] for i in runs)),
        "spec_iters": sum(i[0] for i in roots),
    }


def recorder_counts(calls) -> dict:
    """The same counts, taken from a pass's recorded solves."""
    spec = [c for c in calls if c.method == "spec"]
    gen = [c for c in calls if c.method == "gen"]
    ok_gen = [c for c in gen if c.error is None]
    return {
        "spec_calls": len(spec),
        "gen_calls": len(gen),
        "gen_iters": sum(c.result[1].iterations for c in ok_gen),
        "gen_status": dict(Counter(c.result[1].status.value for c in ok_gen)),
        "spec_iters": sum(c.result.iterations for c in spec if c.error is None),
    }
