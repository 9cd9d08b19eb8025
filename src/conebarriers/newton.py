"""Generic conjugate-gradient computation by damped/full Newton steps.

Minimizes the self-concordant objective ``<r, w> + f(w)`` over the cone
interior.  The local norm of the objective gradient,

    lambda = sqrt(<g(w) + r, H(w)^{-1} (g(w) + r)>),

drives everything: steps are damped by ``1/(1+lambda)`` until ``lambda``
drops below ``(3 - sqrt(5))/2``, after which full Newton steps converge
quadratically; the iteration stops at ``lambda <= eps``, on a
slow-progress (stall) test, on an iteration cap, or if a step cannot be
kept inside the cone.  The minimizer negated is the conjugate gradient.

``lambda`` is evaluated from its definition above with the same solve that
produces the step.  The algebraically equal form
``sqrt(nu - 2 <w, r> + <r, H^{-1} r>)`` cancels catastrophically once
``lambda`` is small (the radicand is a difference of numbers of size
``nu``), so it could never reach the default tolerance of 1000 times
machine epsilon; it is exposed separately as :func:`local_norm_lambda`.

The iteration works in packed coordinates end to end: iterates, steps and
workspaces (``BarrierWorkspace(cone, x)`` on a packed vector) are float64
vectors in the cone's :class:`~.cones.PackedLayout`, and :class:`ConePoint`
appears only at the API edge, in the arguments and the returned ``g_star``.
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
from .linalg import NonPositiveDefiniteError

__all__ = [
    "NewtonStatus",
    "NewtonTrace",
    "DAMPED_THRESHOLD",
    "DEFAULT_EPS",
    "local_norm_lambda",
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


def local_norm_lambda(cone: ConeDescriptor, w: ConePoint, r: ConePoint) -> float:
    """Local norm of the objective gradient via the simplified radicand
    ``nu - 2 <w, r> + <r, H(w)^{-1} r>``, clamped at zero against round-off.
    """
    rf = pack(cone, r)
    wf = pack(cone, w)
    hinv_r = BarrierWorkspace(cone, wf).inverse_hessian_apply(rf)
    rad = cone.nu - 2.0 * float(np.dot(wf, rf)) + float(np.dot(rf, hinv_r))
    return math.sqrt(max(rad, 0.0))


def default_initial_point(cone: ConeDescriptor, r: ConePoint) -> ConePoint:
    """Canonical interior point rescaled so that ``<w0, r> = nu``.

    The scaling factor is positive because a primal interior point and a
    dual interior point have positive pairing, and cones are invariant
    under positive scaling, so the result stays interior.
    """
    return unpack(cone, _initial_packed(cone, pack(cone, r)))


def _initial_packed(cone: ConeDescriptor, rf: np.ndarray) -> np.ndarray:
    wc = pack(cone, canonical_point(cone))
    return (cone.nu / float(np.dot(wc, rf))) * wc


def _symmetrize_inplace(cone: ConeDescriptor, wf: np.ndarray) -> None:
    # round-off can drift the matrix block of an iterate off the symmetric
    # subspace, which the membership test rejects
    if cone.rules.lift == "eig":
        _, _, _, m = cone.layout.blocks(wf)
        m[...] = 0.5 * (m + m.T)


def generic_conjugate_gradient(
    cone: ConeDescriptor,
    r: ConePoint,
    eps: float = DEFAULT_EPS,
    w0: ConePoint | None = None,
) -> tuple[ConjugateResult, NewtonTrace]:
    """Compute g*(r) by Newton iteration on ``<r, w> + f(w)``.

    Returns the conjugate result (``iterations`` counts Newton steps) and
    the solver trace with the sequence of local norms.  A stalled run
    returns the best iterate seen, mirroring the use of stalling as a
    stopping rather than failure condition.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be finite and positive; got {eps!r}")
    if not dual_in_interior(cone, r):
        raise NotInteriorError(
            f"dual point is not interior to the {cone.family.value} dual cone"
        )
    if w0 is not None and not in_interior(cone, w0):
        raise NotInteriorError("supplied initial point is not interior")

    rf = pack(cone, r)
    wf = pack(cone, w0) if w0 is not None else _initial_packed(cone, rf)

    def lam_and_direction(ws: BarrierWorkspace):
        grad_obj = ws.gradient() + rf
        step = ws.inverse_hessian_apply(grad_obj)
        rad = float(np.dot(grad_obj, step))
        if not math.isfinite(rad):
            # closed-form inverses have no pivot check; a non-finite local
            # norm means the iterate is numerically off the interior
            raise NonPositiveDefiniteError("non-finite local norm")
        return math.sqrt(max(rad, 0.0)), step

    status = NewtonStatus.CONVERGED
    iterations = 0
    try:
        ws = BarrierWorkspace(cone, wf)
        lam, step = lam_and_direction(ws)
    except (NotInteriorError, NonPositiveDefiniteError):
        # the constructed initial point is interior by design; only extreme
        # scaling can break it in floating point
        status = NewtonStatus.LEFT_INTERIOR
        lam, step = math.inf, None
    lambdas = [lam]
    best_lam, best_wf = lam, wf.copy()

    while status is NewtonStatus.CONVERGED and lam > eps:
        if iterations >= _MAX_ITER:
            status = NewtonStatus.ITERATION_CAP
            break
        alpha = 1.0 / (1.0 + lam) if lam > DAMPED_THRESHOLD else 1.0
        accepted = None
        for _ in range(_MAX_BACKTRACKS + 1):
            cand = wf - alpha * step
            _symmetrize_inplace(cone, cand)
            try:
                cand_ws = BarrierWorkspace(cone, cand)
                accepted = (cand, cand_ws)
                break
            except NotInteriorError:
                alpha *= 0.5
        if accepted is None:
            status = NewtonStatus.LEFT_INTERIOR
            break
        wf, ws = accepted[0], accepted[1]
        iterations += 1
        lam_prev = lam
        try:
            lam, step = lam_and_direction(ws)
        except NonPositiveDefiniteError:
            status = NewtonStatus.LEFT_INTERIOR
            break
        lambdas.append(lam)
        if lam < best_lam:
            best_lam, best_wf = lam, wf.copy()
        # insufficient progress between consecutive iterations; near the
        # boundary the local norm floors above eps at round-off level, so
        # this is the stop that ends deep-offset runs
        if lam_prev != 1.0 and lam > 1000.0 * (lam_prev / (1.0 - lam_prev)) ** 2:
            status = NewtonStatus.STALLED
            break

    if status in (NewtonStatus.STALLED, NewtonStatus.ITERATION_CAP,
                  NewtonStatus.LEFT_INTERIOR):
        wf = best_wf
    g_star = unpack(cone, -wf)
    residual = abs(float(np.dot(-wf, rf)) + cone.nu)
    result = ConjugateResult(
        g_star=g_star,
        iterations=iterations,
        residual=residual,
        converged=status is NewtonStatus.CONVERGED,
    )
    return result, NewtonTrace(iterations=iterations, lambdas=lambdas, status=status)
