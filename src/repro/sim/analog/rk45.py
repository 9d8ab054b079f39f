"""Dormand–Prince 5(4) integration in plain Python, without numpy.

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

The step loop is straight-line code generated once per state length
(:func:`_step_loop`): every component is a local variable and every stage
sum is written out term by term, so a step builds no list but the
arguments of ``fun``.  The state has a handful of components, and loops
over them (or over coefficient rows) would cost more than the arithmetic.
"""

from __future__ import annotations

import functools
import math
import re
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
    samples, nfev = _step_loop(n)(fun, t, t_bound, y, f, h_abs, max_step, rtol, atol, t_eval)
    return Solution(t_eval, samples, 2 + nfev)


#: The step loop of :func:`solve_ivp`, before expansion by :func:`_expand`.
#: Components are spelled with ``{i}``: each ``<<...>>`` becomes the
#: comma-joined row of its ``n`` copies, and any other line holding ``{i}``
#: is repeated once per component.
_STEP_LOOP = """\
def integrate(fun, t, t_bound, y, f, h_abs, max_step, rtol, atol, t_eval):
    [<<y{i}>>] = y
    [<<k1_{i}>>] = f
    [<<tol{i}>>] = atol
    out{i} = []
    nfev = 0
    next_sample, num_samples = 0, len(t_eval)
    while t < t_bound:
        min_step = 10 * abs(nextafter(t, inf) - t)
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
            [<<k2_{i}>>] = fun(t + C2 * h, [<<y{i} + (A21 * k1_{i}) * h>>])
            [<<k3_{i}>>] = fun(t + C3 * h, [<<y{i} + (A31 * k1_{i} + A32 * k2_{i}) * h>>])
            [<<k4_{i}>>] = fun(t + C4 * h, [
                <<y{i} + (A41 * k1_{i} + A42 * k2_{i} + A43 * k3_{i}) * h>>
            ])
            [<<k5_{i}>>] = fun(t + C5 * h, [
                <<y{i} + (A51 * k1_{i} + A52 * k2_{i} + A53 * k3_{i} + A54 * k4_{i}) * h>>
            ])
            [<<k6_{i}>>] = fun(t + h, [
                <<y{i} + (A61 * k1_{i} + A62 * k2_{i} + A63 * k3_{i} + A64 * k4_{i} + A65 * k5_{i}) * h>>
            ])
            y_new{i} = y{i} + h * (B1 * k1_{i} + B3 * k3_{i} + B4 * k4_{i} + B5 * k5_{i} + B6 * k6_{i})
            [<<k7_{i}>>] = fun(t_new, [<<y_new{i}>>])
            nfev += 6
            s{i} = (E1 * k1_{i} + E3 * k3_{i} + E4 * k4_{i} + E5 * k5_{i} + E6 * k6_{i} + E7 * k7_{i}) * h / (tol{i} + max(abs(y{i}), abs(y_new{i})) * rtol)
            error_norm = sqrt(sum((<<s{i} * s{i}>>,))) / sqrt_n
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
            q2_{i} = P12 * k1_{i} + P32 * k3_{i} + P42 * k4_{i} + P52 * k5_{i} + P62 * k6_{i} + P72 * k7_{i}
            q3_{i} = P13 * k1_{i} + P33 * k3_{i} + P43 * k4_{i} + P53 * k5_{i} + P63 * k6_{i} + P73 * k7_{i}
            q4_{i} = P14 * k1_{i} + P34 * k3_{i} + P44 * k4_{i} + P54 * k5_{i} + P64 * k6_{i} + P74 * k7_{i}
            while next_sample < num_samples and t_eval[next_sample] <= t_new:
                x = (t_eval[next_sample] - t) / h
                x2 = x * x
                x3 = x2 * x
                x4 = x3 * x
                out{i}.append(y{i} + h * (k1_{i} * x + q2_{i} * x2 + q3_{i} * x3 + q4_{i} * x4))
                next_sample += 1
        t = t_new
        [<<y{i}>>] = [<<y_new{i}>>]
        [<<k1_{i}>>] = [<<k7_{i}>>]
    return [<<out{i}>>], nfev
"""


def _expand(template: str, n: int) -> str:
    """Write out ``template`` for ``n`` components (see :data:`_STEP_LOOP`)."""

    def row(match: "re.Match[str]") -> str:
        return ", ".join(match[1].replace("{i}", str(i)) for i in range(n))

    lines = []
    for line in template.splitlines(keepends=True):
        if "<<" in line:
            lines.append(re.sub(r"<<(.*?)>>", row, line))
        elif "{i}" in line:
            lines.extend(line.replace("{i}", str(i)) for i in range(n))
        else:
            lines.append(line)
    return "".join(lines)


@functools.lru_cache(maxsize=None)
def _step_loop(n: int) -> Callable:
    """The step loop of :func:`solve_ivp`, compiled for an ``n``-component state.

    The error norm adds its squares with ``sum``, as :func:`_rms` does:
    Python 3.12 changed how ``sum`` adds floats, so ``s0 * s0 + ...``
    written out would round differently there.
    """
    namespace = {name: value for name, value in globals().items() if name.isupper()}
    namespace.update(
        StepSizeError=StepSizeError, nextafter=math.nextafter, inf=math.inf, sqrt=math.sqrt,
        sqrt_n=n ** 0.5,
    )
    exec(compile(_expand(_STEP_LOOP, n), f"<rk45 step loop, n={n}>", "exec"), namespace)
    return namespace["integrate"]
