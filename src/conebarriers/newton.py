"""Generic conjugate-gradient computation by damped/full Newton steps.

Minimizes the self-concordant objective ``<r, w> + f(w)`` over the cone
interior.  The local norm of the objective gradient,

    lambda = sqrt(<g(w) + r, H(w)^{-1} (g(w) + r)>),

drives everything: steps are damped by ``1/(1+lambda)`` until ``lambda``
drops below ``(3 - sqrt(5))/2``, after which full Newton steps converge
quadratically.  Each iterate's workspace gives ``lambda`` and the step
once, and the stop tests run in this order: ``STALLED`` if ``lambda``
exceeds ``1000 (lambda'/(1 - lambda'))^2`` for the previous ``lambda'``,
``CONVERGED`` if ``lambda <= DEFAULT_EPS``, the one tolerance,
``ITERATION_CAP`` at the step cap.  Otherwise the step is halved until its
workspace builds.  ``lambda^2`` below zero by at most ``n eps sum |(g +
r)_i step_i|`` (``n`` the packed length) is rounding and reads as 0.  A
start point that is not interior, a start or iterate that overflows
binary64, a non-finite ``lambda``, a ``lambda^2`` further below zero or a
step that no halving keeps interior ends the solve as ``LEFT_INTERIOR``.
The iterate of least ``lambda`` (the last one, if converged), negated, is
the conjugate gradient.

``lambda`` is evaluated from its definition above with the same solve that
produces the step: the workspace's ``newton_step`` returns both, the matrix
families in their frames, where the pairing is a sum over frame blocks and
the gradient's matrix block is never formed.  The algebraically equal form
``sqrt(nu - 2 <w, r> + <r, H^{-1} r>)`` is not used: it cancels
catastrophically once ``lambda`` is small (the radicand is a difference of
numbers of size ``nu``), so it could never reach the tolerance of
1000 times machine epsilon.

The iteration works in packed coordinates end to end: iterates, steps and
workspaces (``BarrierWorkspace(cone, x)`` on a packed vector) are float64
vectors in the cone's :class:`~.cones.PackedLayout`, and :class:`ConePoint`
appears only at the API edge, in the arguments and the returned ``g_star``.
Each step's candidate has its matrix block symmetrized exactly, as
``0.5 * (m + m.T)``, so that :func:`~.linalg.check_symmetric` accepts it
with one equality test in place of the two norms of its tolerance test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .barriers import BarrierWorkspace, in_interior
from .cones import (
    ConeDescriptor,
    ConePoint,
    NotInteriorError,
    canonical_point,
    pack,
    unpack,
)
from .conjugate import ConjugateResult, dual_in_interior

__all__ = [
    "NewtonStatus",
    "NewtonTrace",
    "DAMPED_THRESHOLD",
    "DEFAULT_EPS",
    "default_initial_point",
    "generic_conjugate_gradient",
]

DAMPED_THRESHOLD = (3.0 - math.sqrt(5.0)) / 2.0
DEFAULT_EPS = 1000.0 * np.finfo(float).eps
_MAX_ITER = 1000
_MAX_BACKTRACKS = 20


class NewtonStatus(Enum):
    CONVERGED = "converged"
    STALLED = "stalled"
    ITERATION_CAP = "iteration_cap"
    LEFT_INTERIOR = "left_interior"


@dataclass(frozen=True)
class NewtonTrace:
    iterations: int
    lambdas: list[float]
    status: NewtonStatus


def _start_scale(cone: ConeDescriptor, wc: np.ndarray, rf: np.ndarray) -> float:
    """``nu / <w_c, r>``, which scales the packed canonical point ``w_c`` to
    ``<w0, r> = nu``; at an extreme dual scale it overflows to ``inf``."""
    return cone.nu / float(np.dot(wc, rf))


def default_initial_point(cone: ConeDescriptor, r: ConePoint) -> ConePoint:
    """Canonical interior point rescaled so that ``<w0, r> = nu``.

    The scaling factor is positive because a primal interior point and a
    dual interior point have positive pairing, and cones are invariant
    under positive scaling, so the result stays interior.  Where binary64
    cannot hold the factor, ``NotInteriorError`` is raised.
    """
    wc = pack(cone, canonical_point(cone))
    scale = _start_scale(cone, wc, pack(cone, r))
    if not math.isfinite(scale):
        raise NotInteriorError("the start scale nu / <w_c, r> overflows binary64")
    return unpack(cone, scale * wc)


def generic_conjugate_gradient(
    cone: ConeDescriptor,
    r: ConePoint,
    w0: ConePoint | None = None,
) -> tuple[ConjugateResult, NewtonTrace]:
    """Compute g*(r) by Newton iteration on ``<r, w> + f(w)``.

    Returns the conjugate result (``iterations`` counts Newton steps) and
    the solver trace with the sequence of local norms.
    """
    if not dual_in_interior(cone, r):
        raise NotInteriorError(
            f"dual point is not interior to the {cone.family.value} dual cone"
        )
    if w0 is not None and not in_interior(cone, w0):
        raise NotInteriorError("supplied initial point is not interior")

    rf = pack(cone, r)
    wf = pack(cone, canonical_point(cone) if w0 is None else w0)
    # the canonical point scales to <w0, r> = nu; at an extreme dual scale
    # the factor overflows, and the solve stops at the unscaled point
    scale = _start_scale(cone, wf, rf) if w0 is None else 1.0
    if math.isfinite(scale):
        wf = scale * wf
    # round-off drifts an iterate's matrix block off the symmetric subspace,
    # which the membership test rejects
    sym = cone.layout.mat if cone.rules.lift == "eig" else None
    status = NewtonStatus.LEFT_INTERIOR
    iterations, lambdas, best_lam, best_wf = 0, [], math.inf, wf
    # NaN compares false, so the stall test cannot fire at the start point
    lam_prev = math.nan
    # the constructed initial point is interior by design; only extreme
    # scaling can break it in floating point (membership fails, or a Python
    # float's arithmetic leaves binary64's range)
    try:
        ws = BarrierWorkspace(cone, wf) if math.isfinite(scale) else None
    except (NotInteriorError, ArithmeticError):
        ws = None
    while ws is not None:
        try:
            step, rad = ws.newton_step(rf)
        except ArithmeticError:  # a Python float's square over- or underflows
            rad = math.nan
        if not math.isfinite(rad):
            # closed-form inverses have no pivot check; a non-finite local
            # norm means the iterate is numerically off the interior
            break
        if rad < 0.0:  # rounding, unless past n eps times its terms' sizes
            terms = float(np.dot(np.abs(ws.gradient() + rf), np.abs(step)))
            if not -rad <= rf.size * np.finfo(float).eps * terms:
                break
            rad = 0.0
        lam = math.sqrt(rad)
        lambdas.append(lam)
        if lam < best_lam:
            best_lam, best_wf = lam, wf
        # insufficient progress between consecutive iterations; near the
        # boundary the local norm floors above eps at round-off level, so
        # this is the stop that ends deep-offset runs
        if lam_prev != 1.0 and lam > 1000.0 * (lam_prev / (1.0 - lam_prev)) ** 2:
            status = NewtonStatus.STALLED
            break
        if lam <= DEFAULT_EPS:
            status = NewtonStatus.CONVERGED
            break
        if iterations >= _MAX_ITER:
            status = NewtonStatus.ITERATION_CAP
            break
        alpha = 1.0 / (1.0 + lam) if lam > DAMPED_THRESHOLD else 1.0
        for _ in range(_MAX_BACKTRACKS + 1):
            cand = wf - alpha * step
            if sym is not None:
                m = cand[sym].reshape(cone.layout.mat_shape)
                m[...] = 0.5 * (m + m.T)
            try:
                ws = BarrierWorkspace(cone, cand)
                break
            except (NotInteriorError, ArithmeticError):
                alpha *= 0.5
        else:  # no halving keeps the step interior
            break
        wf, lam_prev = cand, lam
        iterations += 1

    g_star = unpack(cone, -best_wf)
    residual = abs(float(np.dot(-best_wf, rf)) + cone.nu)
    result = ConjugateResult(
        g_star=g_star,
        iterations=iterations,
        residual=residual,
        converged=status is NewtonStatus.CONVERGED,
    )
    return result, NewtonTrace(iterations, lambdas or [math.inf], status)
