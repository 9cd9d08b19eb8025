"""Per-solve correctness gate.

A solve counts as failed when

* it raises, or could not run because its trial's sampling or specialized
  solve raised;
* the specialized solve reports ``converged=False``;
* the generic status is not ``CONVERGED`` or ``STALLED`` (a stall is the
  normal stop at the round-off floor of the local norm);
* both methods ended normally and disagree by more than criterion 6's
  relative tolerance, ``|g_gen - g_spec| / (1 + |g_spec|) > 1e-6``; both
  solves of the pair count;
* its residual ``|<g*, r> + nu|`` exceeds ``RESIDUAL_RTOL`` times the size
  of the pairing's terms, ``sum |g*_i r_i|``;
* on conj, its g* differs from the 50-digit mpmath reference by more than
  ``reference_tolerance``, or Wright omega from its reference by more than
  64 ulps.

The first three are failures the program reported itself; the others are
wrong numbers it did not flag.

Near the dual boundary g* grows like 1/o while ``<g*, r> = -nu`` stays
fixed, so the pairing cancels: ``kappa = sum |g*_i r_i| / nu`` measures how
far.  One ulp of error in the logs, norms or power products g* is built
from then moves g* by about ``eps * kappa`` relative.  The tolerances are
stated in those terms, so they hold a backward-stable oracle at every
offset and flag one that loses more.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from conebarriers import NewtonStatus, pack

AGREE_RTOL = 1e-6
EPS = float(np.finfo(float).eps)
# a residual the rounding of the pairing alone cannot explain (normal
# solves stay below 200 ulps of the terms' size)
RESIDUAL_RTOL = 1e-12
# the reference check allows REFERENCE_ULPS * eps * kappa, and at least ten
# times the relative root tolerance of the Newton-Raphson stop rule
REFERENCE_ULPS = 10.0
REFERENCE_FLOOR = 1e-8
OMEGA_RTOL = 64 * EPS
NORMAL_STOPS = (NewtonStatus.CONVERGED, NewtonStatus.STALLED)
WRONG = ("disagree", "residual", "reference", "omega")


def pairing_size(cone, g, r) -> float:
    """``sum |g_i r_i|`` over the packed coordinates."""
    return float(np.sum(np.abs(pack(cone, g) * pack(cone, r))))


def reference_tolerance(kappa: float) -> float:
    return REFERENCE_FLOOR + REFERENCE_ULPS * EPS * kappa


@dataclass
class GateResult:
    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    checks: Counter = field(default_factory=Counter)
    worst: dict = field(default_factory=dict)
    # run_grid trials the program itself reported as failed
    reported_trials: int = 0

    @property
    def wrong(self) -> int:
        return sum(self.reasons[k] for k in WRONG)

    def note(self, key: str, value: float) -> None:
        if not math.isnan(value):
            self.worst[key] = max(self.worst.get(key, 0.0), value)


def _residual_fails(gate: GateResult, call, res) -> bool:
    ratio = res.residual / pairing_size(call.cone, res.g_star, call.point)
    gate.note("residual_over_terms", ratio)
    return not ratio <= RESIDUAL_RTOL


def _spec_fails(gate: GateResult, call) -> bool:
    if call.error is not None:
        gate.reasons["raised"] += 1
        return True
    if not call.result.converged:
        gate.reasons["spec_unconverged"] += 1
        return True
    if _residual_fails(gate, call, call.result):
        gate.reasons["residual"] += 1
        return True
    return False


def _gen_fails(gate: GateResult, call) -> bool:
    if call.error is not None:
        gate.reasons["raised"] += 1
        return True
    res, trace = call.result
    if trace.status not in NORMAL_STOPS:
        gate.reasons[f"generic_{trace.status.value}"] += 1
        return True
    if _residual_fails(gate, call, res):
        gate.reasons["residual"] += 1
        return True
    return False


def _disagree(gate: GateResult, spec, gen) -> bool:
    cone = spec.cone
    gs = pack(cone, spec.result.g_star)
    gg = pack(cone, gen.result[0].g_star)
    rel = float(np.linalg.norm(gg - gs) / (1.0 + np.linalg.norm(gs)))
    gate.note("disagreement", rel)
    if not rel <= AGREE_RTOL:
        gate.reasons["disagree"] += 1
        return True
    return False


def gate_pairs(calls, trials: int) -> GateResult:
    """Gate one ``run_grid`` pass.  ``calls`` are its sampled points and
    solves in order: per trial a sample, a specialized solve and, unless
    that raised, a generic solve on the same point."""
    gate = GateResult(attempted=2 * trials)
    groups = []
    for call in calls:
        if call.method == "sample":
            groups.append([call])
        else:
            groups[-1].append(call)
    for group in groups:
        solves = {c.method: c for c in group[1:]}
        spec, gen = solves.get("spec"), solves.get("gen")
        if spec is None:
            # sampling raised; the trial's solves never ran
            gate.reasons["not_run"] += 2
            gate.failed += 2
            gate.reported_trials += 1
            continue
        bad_spec = _spec_fails(gate, spec)
        if gen is None:
            gate.reasons["not_run"] += 1
            gate.failed += 1 + bad_spec
            gate.reported_trials += 1
            continue
        bad_gen = _gen_fails(gate, gen)
        gate.reported_trials += (
            spec.error is not None or not spec.result.converged
            or gen.error is not None or gen.result[1].status not in NORMAL_STOPS)
        if not (bad_spec or bad_gen) and _disagree(gate, spec, gen):
            bad_spec = bad_gen = True
        gate.failed += bad_spec + bad_gen
    # a trial whose cone could not even be built left no sample call
    unsampled = trials - len(groups)
    if unsampled:
        gate.reasons["not_run"] += 2 * unsampled
        gate.failed += 2 * unsampled
        gate.reported_trials += unsampled
    return gate


def gate_conj(cells, spec_calls, cross_indices, gen_calls, reference_sample) -> GateResult:
    """Gate the conj pass, its generic cross-check and its mpmath sample."""
    import reference

    gate = GateResult(attempted=len(spec_calls) + len(gen_calls))
    bad = [_spec_fails(gate, call) for call in spec_calls]
    for idx, gen in zip(cross_indices, gen_calls):
        if _gen_fails(gate, gen):
            gate.failed += 1
        elif not bad[idx] and _disagree(gate, spec_calls[idx], gen):
            bad[idx] = True
            gate.failed += 1
    for idx in reference_sample:
        call, cell = spec_calls[idx], cells[idx]
        if bad[idx]:
            continue
        ref = reference.reference_g_star(cell.cone, cell.point)
        got = pack(cell.cone, call.result.g_star)
        err = float(np.linalg.norm(got - ref) / np.linalg.norm(ref))
        kappa = float(np.sum(np.abs(ref * pack(cell.cone, cell.point)))) / cell.cone.nu
        ratio = err / reference_tolerance(kappa)
        gate.note("reference_err_over_tol", ratio)
        gate.checks["reference"] += 1
        if not ratio <= 1.0:
            gate.reasons["reference"] += 1
            bad[idx] = True
        if cell.family in ("log", "logdet"):
            gate.checks["omega"] += 1
            oerr = reference.omega_error(reference.log_beta(cell.cone, cell.point))
            gate.note("omega_rel_err", oerr)
            if not oerr <= OMEGA_RTOL:
                gate.reasons["omega"] += 1
                bad[idx] = True
    gate.failed += sum(bad)
    return gate


def reference_sample(cells) -> list[int]:
    """The fixed mpmath subsample: trial 0 of every (family, d, o) cell."""
    return [i for i, c in enumerate(cells) if c.trial == 0]


def outcome_signature(calls) -> tuple:
    """Everything deterministic about a pass's solves, to compare passes."""
    sig = []
    for c in calls:
        if c.method == "sample":
            continue
        if c.error is not None:
            sig.append((c.method, type(c.error).__name__))
        elif c.method == "spec":
            r = c.result
            sig.append((c.method, r.iterations, r.converged, r.residual))
        else:
            r, t = c.result
            sig.append((c.method, t.iterations, t.status.value, r.residual))
    return tuple(sig)
