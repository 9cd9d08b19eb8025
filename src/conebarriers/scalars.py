"""Scalar numerical kernels: Wright omega and a guarded Newton-Raphson iteration.

Both work in plain binary64.  The root functions that the conjugate oracles
pass to :func:`newton_raphson` are written so that they do not cancel near
the dual boundary (see :mod:`conebarriers.conjugate`), so no extended
precision is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "wright_omega",
    "StopRule",
    "RootResult",
    "newton_raphson",
]

_EPS = 2.220446049250313e-16  # 2**-52
# log of the smallest normal double; below it exp(beta) is subnormal or 0
_LOG_TINY = math.log(2.2250738585072014e-308)


# --------------------------------------------------------------------------
# Wright omega
# --------------------------------------------------------------------------

def wright_omega(beta: float) -> float:
    """Unique positive solution of ``x + log(x) = beta``.

    Initial guess ``beta`` for ``beta > 1`` and ``exp(beta)`` otherwise
    (the two asymptotic regimes of ``x + log x``), refined by Newton steps
    on ``x + log(x) - beta``.  The map is concave and increasing, so after
    the first step the iterates increase monotonically to the root; a
    handful of steps reaches full double precision.

    Below ``log`` of the smallest normal double, ``omega = exp(beta - omega)``
    with ``exp(-omega)`` rounding to 1, so ``exp(beta)`` is the answer; the
    iteration therefore only ever sees normal iterates, which stay positive.
    """
    beta = float(beta)
    if not math.isfinite(beta):
        raise ValueError("wright_omega: beta must be finite")
    if beta < _LOG_TINY:
        return math.exp(beta)
    x = beta if beta > 1.0 else math.exp(beta)
    for _ in range(32):
        f = x + math.log(x) - beta
        # Newton step for f with f' = 1 + 1/x, written to avoid overflow.
        step = f * x / (x + 1.0)
        x_new = x - step
        if abs(step) <= 2.0 * _EPS * x_new:
            x = x_new
            break
        x = x_new
    return x


# --------------------------------------------------------------------------
# Guarded Newton-Raphson
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class StopRule:
    """Deterministic stopping rule for :func:`newton_raphson`.

    ``abs_h=None`` resolves to ``1e3 * eps * (1 + |h(y0)|)`` so the residual
    test adapts to the scale of the function at the start point.  The
    residual test alone can fire while the root still carries significant
    error when ``h`` is nearly flat (its value becomes small long before the
    iterate settles), so it only counts as converged once the impending
    Newton correction ``|h/h'|`` is below ``root_rtol`` relative to the
    iterate; a sufficiently small accepted step always stops.
    """

    abs_h: float | None = None
    rel_step: float = 4.0 * _EPS
    root_rtol: float = 1e-9
    max_iter: int = 64


@dataclass(frozen=True)
class RootResult:
    root: float
    iterations: int
    converged: bool
    residual: float


def newton_raphson(h_and_deriv, y0, stop: StopRule = StopRule()) -> RootResult:
    """Newton-Raphson iteration ``y <- y - h(y)/h'(y)`` with explicit stopping.

    Stops successfully when ``|h| <= abs_h`` or the last step satisfied
    ``|dy| <= rel_step * (1 + |y|)``; reports ``converged=False`` when the
    derivative vanishes or the iteration cap is hit.  ``iterations`` counts
    accepted steps, so a start point that already satisfies the residual
    test reports zero.

    The callback maps a float ``y`` to the float pair ``(h(y), h'(y))``.
    """
    y = float(y0)
    h, hp = h_and_deriv(y)
    abs_h = stop.abs_h
    if abs_h is None:
        abs_h = 1e3 * _EPS * (1.0 + abs(h))

    def residual_stop(h, hp, y):
        if abs(h) > abs_h:
            return False
        if hp == 0.0:
            return True
        return abs(h / hp) <= max(stop.root_rtol * abs(y),
                                  stop.rel_step * (1.0 + abs(y)))

    if residual_stop(h, hp, y):
        return RootResult(y, 0, True, abs(h))
    for k in range(1, stop.max_iter + 1):
        if hp == 0.0:
            return RootResult(y, k - 1, False, abs(h))
        step = h / hp
        y = y - step
        h, hp = h_and_deriv(y)
        if residual_stop(h, hp, y) or abs(step) <= stop.rel_step * (1.0 + abs(y)):
            return RootResult(y, k, True, abs(h))
    return RootResult(y, stop.max_iter, False, abs(h))
