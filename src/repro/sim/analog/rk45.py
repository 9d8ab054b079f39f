"""Dormand–Prince 5(4) integration on Python lists.

A port of SciPy's ``solve_ivp(method="RK45")`` for what the RCSJ simulator
asks of it: forward integration, output sampled at ``t_eval``, a
``max_step`` cap, a scalar ``rtol`` and a per-component ``atol``.  It keeps
SciPy's tableau, its initial-step heuristic (Hairer, Nørsett, Wanner,
"Solving ODEs I", Sec. II.4), its accept/reject rule (safety 0.9, step
factors clipped to [0.2, 10], RMS error norm, ``min_step`` of ten ulps of
``t``) and its quartic dense output (Shampine's optimum ``c_6``), so the
step sequence and the ``nfev`` count equal SciPy's for the same problem.

Unlike SciPy, a step that falls below ``min_step`` raises
:class:`StepSizeError` instead of returning the samples reached so far.

The six stage combinations are written out term by term: the state has a
handful of components, and a generic loop over coefficient rows would
cost more than the arithmetic.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, List, NamedTuple, Sequence, Union

#: Multiplies step factors derived from the asymptotic error behaviour.
SAFETY = 0.9
#: Bounds on the factor by which one step changes the next.
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
#: ``-1 / (error_estimator_order + 1)`` for the order-4 error estimate.
ERROR_EXPONENT = -1 / 5

# Dormand–Prince nodes, stage weights, 5th-order weights (B2 = 0) and
# error weights (E2 = 0).
C2, C3, C4, C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
A21 = 1 / 5
A31, A32 = 3 / 40, 9 / 40
A41, A42, A43 = 44 / 45, -56 / 15, 32 / 9
A51, A52, A53, A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
A61, A62, A63, A64, A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
B1, B3, B4, B5, B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
E1, E3, E4, E5, E6, E7 = (
    -71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40,
)
# Dense-output coefficients: column j of SciPy's ``P`` for stages 1, 3..7
# (the x**1 column is stage 1 alone, and stage 2 contributes nothing).
P12, P13, P14 = -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432
P32, P33, P34 = 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799
P42, P43, P44 = -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072
P52, P53, P54 = 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632
P62, P63, P64 = -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844
P72, P73, P74 = 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423

Derivatives = Callable[[float, List[float]], Sequence[float]]


class StepSizeError(RuntimeError):
    """The step size fell below the spacing of floats around ``t``."""


class Solution(NamedTuple):
    """Samples of an integration: ``y[i][k]`` is component ``i`` at ``t[k]``."""

    t: List[float]
    y: List[List[float]]
    nfev: int


def _rms(values: Sequence[float]) -> float:
    return math.sqrt(sum([v * v for v in values])) / len(values) ** 0.5


def _initial_step(fun, t0, y0, f0, t_bound, max_step, rtol, atol) -> float:
    """SciPy's ``select_initial_step`` for a forward order-4 estimator."""
    interval = t_bound - t0
    scale = [a + abs(v) * rtol for v, a in zip(y0, atol)]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([f / s for f, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0, [v + h0 * f for v, f in zip(y0, f0)])
    d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval, max_step)


def solve_ivp(
    fun: Derivatives,
    t_span: Sequence[float],
    y0: Sequence[float],
    t_eval: Sequence[float],
    max_step: float = math.inf,
    rtol: float = 1e-3,
    atol: Union[float, Sequence[float]] = 1e-6,
) -> Solution:
    """Integrate ``dy/dt = fun(t, y)`` over ``t_span`` and sample at ``t_eval``.

    ``fun`` receives the state as a list and returns a sequence of the same
    length; ``t_eval`` must be sorted and lie inside ``t_span``.  Raises
    :class:`StepSizeError` when the error cannot be held without a step
    below ten ulps of ``t``.
    """
    t, t_bound = float(t_span[0]), float(t_span[1])
    t_eval = list(t_eval)
    if t_bound <= t:
        raise ValueError("t_span must run forward")
    if t_eval and (t_eval[0] < t or t_eval[-1] > t_bound):
        raise ValueError("t_eval is not within t_span")
    y = [float(v) for v in y0]
    n = len(y)
    atol = [float(a) for a in atol] if hasattr(atol, "__iter__") else [float(atol)] * n
    if len(atol) != n:
        raise ValueError("atol has the wrong length")
    rtol = max(rtol, 100 * sys.float_info.epsilon)
    if n == 0:
        return Solution(t_eval, [], 0)

    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_bound, max_step, rtol, atol)
    nfev = 2
    sqrt_n = n ** 0.5
    samples: List[List[float]] = []
    next_sample, num_samples = 0, len(t_eval)

    while t < t_bound:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepSizeError(
                    f"required step {h_abs:.3g} is below the float spacing at t = {t:.6g}"
                )
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = h
            k1 = f
            k2 = fun(t + C2 * h, [v + (A21 * a) * h for v, a in zip(y, k1)])
            k3 = fun(t + C3 * h, [v + (A31 * a + A32 * b) * h for v, a, b in zip(y, k1, k2)])
            k4 = fun(t + C4 * h, [
                v + (A41 * a + A42 * b + A43 * c) * h for v, a, b, c in zip(y, k1, k2, k3)
            ])
            k5 = fun(t + C5 * h, [
                v + (A51 * a + A52 * b + A53 * c + A54 * d) * h
                for v, a, b, c, d in zip(y, k1, k2, k3, k4)
            ])
            k6 = fun(t + h, [
                v + (A61 * a + A62 * b + A63 * c + A64 * d + A65 * e) * h
                for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)
            ])
            y_new = [
                v + h * (B1 * a + B3 * c + B4 * d + B5 * e + B6 * g)
                for v, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)
            ]
            k7 = fun(t_new, y_new)
            nfev += 6
            scaled = [
                (E1 * a + E3 * c + E4 * d + E5 * e + E6 * g + E7 * k) * h
                / (tol + max(abs(v), abs(w)) * rtol)
                for v, w, tol, a, c, d, e, g, k in zip(y, y_new, atol, k1, k3, k4, k5, k6, k7)
            ]
            error_norm = math.sqrt(sum([s * s for s in scaled])) / sqrt_n
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True

        if next_sample < num_samples and t_eval[next_sample] <= t_new:
            # Quartic interpolant over [t, t_new]:
            # y(x) = y + h * (k1 x + q2 x^2 + q3 x^3 + q4 x^4), x = (s - t) / h.
            q2 = [
                P12 * a + P32 * c + P42 * d + P52 * e + P62 * g + P72 * k
                for a, c, d, e, g, k in zip(k1, k3, k4, k5, k6, k7)
            ]
            q3 = [
                P13 * a + P33 * c + P43 * d + P53 * e + P63 * g + P73 * k
                for a, c, d, e, g, k in zip(k1, k3, k4, k5, k6, k7)
            ]
            q4 = [
                P14 * a + P34 * c + P44 * d + P54 * e + P64 * g + P74 * k
                for a, c, d, e, g, k in zip(k1, k3, k4, k5, k6, k7)
            ]
            while next_sample < num_samples and t_eval[next_sample] <= t_new:
                x = (t_eval[next_sample] - t) / h
                x2 = x * x
                x3 = x2 * x
                x4 = x3 * x
                samples.append([
                    v + h * (a * x + b * x2 + c * x3 + d * x4)
                    for v, a, b, c, d in zip(y, k1, q2, q3, q4)
                ])
                next_sample += 1
        t, y, f = t_new, y_new, k7

    return Solution(t_eval, [list(row) for row in zip(*samples)] or [[] for _ in y], nfev)
