"""Benchmark of the ``conebarriers`` oracles: specialized conjugate gradients
against generic damped Newton, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {grid,conj,matrix} --seed N \\
        --seconds S --trace {0,1} [--size tiny]

The package is imported from ``src/``.  BLAS runs on one thread.  With
``--trace 0`` rounds of one pass and one set-up probe repeat while another
round fits in ``--seconds``; set-up (import plus one warm-up call per family
and method) is timed in this process and in each probe's fresh interpreter,
and ``setup_s`` is the median.  The last line printed is the end-to-end
metrics.  With ``--trace 1`` an untraced, a traced and an untraced pass
run and the last line is the per-layer metrics.  Reports and spans go to
``perfbench/out/``.

``failed`` counts the solves the gate in ``gate.py`` rejects, out of
``attempted``.  ``correct`` is false when the run itself is inconsistent:
passes over the same inputs, or the traced and untraced passes, disagree,
or ``run_grid``'s failure count differs from the gate's.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env
import metrics

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("grid", "conj", "matrix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few trials per workload, for the self-test")
    return parser.parse_args(argv)


def setup_seconds(workload: str) -> float:
    """One set-up, timed in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "probe_setup.py"), workload],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Workload:
    """The input set of one workload and seed, and the gate for its passes."""

    def __init__(self, name: str, seed: int, tiny: bool):
        import workloads

        self.name, self.wl = name, workloads
        if name == "conj":
            self.inputs = workloads.conj_inputs(seed, tiny)
            self.cross = workloads.cross_check_cells(self.inputs)
            self.per_pass = {"spec": len(self.inputs), "gen": len(self.cross)}
        else:
            self.inputs = workloads.grid_config(name, seed, tiny)
            c = self.inputs
            self.trials = len(c.cones) * len(c.dims) * len(c.offsets) * c.trials
            self.per_pass = {"spec": self.trials, "gen": self.trials}

    def run_pass(self):
        """One timed pass: (seconds, recorded solves, run_grid statistics)."""
        rec = self.wl.Recorder()
        t0 = time.perf_counter()
        stats = self.wl.run_pass(self.name, self.inputs, rec)
        return time.perf_counter() - t0, rec, stats

    def cross_check(self):
        """conj's generic Newton solves, outside the pass's wall time."""
        rec = self.wl.Recorder()
        if self.name == "conj":
            self.wl.cross_check(self.inputs, self.cross, rec)
        return rec

    def gate(self, rec, stats, cross):
        """Gate one pass; returns the gate and any consistency problems."""
        import gate

        if self.name == "conj":
            return gate.gate_conj(self.inputs, rec.calls, self.cross, cross.calls,
                                  gate.reference_sample(self.inputs)), []
        result = gate.gate_pairs(rec.calls, self.trials)
        reported = sum(s.failures for s in stats)
        if reported != result.reported_trials:
            return result, [f"run_grid reports {reported} failed trials, "
                            f"the solves show {result.reported_trials}"]
        return result, []


class PassSummary:
    """What the comparisons and the latencies need from one pass."""

    def __init__(self, wl, seconds, rec, stats, cross):
        import gate
        from conebarriers import render_table

        calls = rec.calls + cross.calls
        self.seconds = seconds
        self.ms = {m: [c.seconds * 1e3 for c in calls if c.method == m]
                   for m in ("spec", "gen")}
        # solves, iterations, statuses, residuals and the rendered table
        self.outcome = (gate.outcome_signature(calls),
                        render_table(stats) if wl.name != "conj" else None)


def timed_run(wl: Workload, seconds: float, setup: list[float]):
    """Repeat rounds of one pass, conj's cross-check and one set-up probe
    while another round fits in ``seconds``.  Interleaving spreads every
    sample over the whole run, so drift in the host's speed averages out;
    one more probe runs first, and more at the end if fewer than five set-up
    samples were taken."""
    start = time.perf_counter()
    passes = []
    setup.append(setup_seconds(wl.name))
    while True:
        t0 = time.perf_counter()
        seconds_, rec, stats = wl.run_pass()
        cross = wl.cross_check()
        passes.append(PassSummary(wl, seconds_, rec, stats, cross))
        if len(passes) == 1:
            # gate now, so that no pass's solves outlive its round and the
            # peak memory does not depend on how many rounds fit
            result, problems = wl.gate(rec, stats, cross)
        del rec, stats, cross
        setup.append(setup_seconds(wl.name))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    while len(setup) < 5:
        setup.append(setup_seconds(wl.name))
    if any(p.outcome != passes[0].outcome for p in passes[1:]):
        problems.append("passes over the same inputs gave different outcomes")
    spec = metrics.latency([x for p in passes for x in p.ms["spec"]], wl.per_pass["spec"])
    gen = metrics.latency([x for p in passes for x in p.ms["gen"]], wl.per_pass["gen"])
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.seconds for p in passes),
        "spec_ms_p50": spec["p50"],
        "spec_ms_tail": spec["tail"],
        "gen_ms_p50": gen["p50"],
        "gen_ms_tail": gen["tail"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"pass_seconds": [p.seconds for p in passes], "setup_samples_s": setup,
              "latency": {"spec": spec, "gen": gen}}
    return values, result, problems, detail


def trace_run(wl: Workload, spans_path: Path):
    """Untraced, traced, untraced passes: the order cancels a steady drift
    of the host's speed out of the tracing overhead."""
    from tracer import Tracer

    untraced = wl.run_pass()
    cross = wl.cross_check()
    result, problems = wl.gate(*untraced[1:], cross)
    with Tracer(wl.wl) as tracer:
        traced = wl.run_pass()
    untraced_again = wl.run_pass()
    counts_u = metrics.recorder_counts(untraced[1].calls)
    counts_t = metrics.trace_counts(tracer)
    if counts_u != counts_t:
        problems.append(f"traced counts {counts_t} differ from untraced {counts_u}")
    runs = (untraced, traced, untraced_again)
    if len({PassSummary(wl, *run, cross).outcome for run in runs}) != 1:
        problems.append("traced and untraced passes gave different outcomes")
    wall_u, wall_t = (untraced[0] + untraced_again[0]) / 2.0, traced[0]
    values = metrics.per_layer(tracer, untraced[1].calls, wall_t - wall_u, result)
    tracer.write_jsonl(spans_path)
    detail = {"pass_seconds": [run[0] for run in runs],
              "untraced_wall_s": wall_u, "traced_wall_s": wall_t,
              "overhead_share": (wall_t - wall_u) / wall_u,
              "counts_untraced": counts_u, "counts_traced": counts_t,
              "layers": tracer.summary(), "spans_file": spans_path.name,
              "should_move": {name: {"metric": row[2], "on": row[3]}
                              for name, row in metrics.PER_LAYER.items()}}
    return values, result, problems, detail


def print_layers(layers: dict) -> None:
    print(f"{'span':28} {'calls':>9} {'raised':>7} {'total ms':>11} {'self ms':>11}")
    for name, row in layers.items():
        print(f"{name:28} {row['calls']:9d} {row['raised']:7d} "
              f"{row['ms']:11.1f} {row['self_ms']:11.1f}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not env.package_present():
        print(f"error: no conebarriers package under {env.SRC}", file=sys.stderr)
        return 2
    env.pin_blas()
    sys.path.insert(0, str(env.SRC))

    t0 = time.perf_counter()
    import conebarriers  # noqa: F401
    import workloads
    workloads.warm_up(args.workload)
    setup = [time.perf_counter() - t0]

    wl = Workload(args.workload, args.seed, args.size == "tiny")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        values, result, problems, detail = trace_run(wl, OUT / f"{stem}.spans.jsonl")
        units = {k: v[0] for k, v in metrics.PER_LAYER.items()}
    else:
        values, result, problems, detail = timed_run(wl, args.seconds, setup)
        units = {k: v[0] for k, v in metrics.END_TO_END.items()}
    correct = not problems

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "environment": env.environment_record(args.seed),
        "correct": correct, "problems": problems,
        "gate": {"attempted": result.attempted, "failed": result.failed,
                 "failed_share": result.failed / result.attempted,
                 "wrong_numbers": result.wrong,
                 "reasons": dict(result.reasons), "checks": dict(result.checks),
                 "worst": result.worst},
        "metrics": values, "detail": detail,
    }
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))

    if args.trace:
        print_layers(detail["layers"])
    for problem in problems:
        print(f"problem: {problem}")
    print(f"gate: {result.failed}/{result.attempted} failed {dict(result.reasons)}")
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
