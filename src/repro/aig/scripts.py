"""High-level AIG optimisation scripts.

The paper runs unmodified ABC scripts on the xSFQ-bound AIGs; this module
provides the equivalent entry points for this framework's passes.  The
default script mirrors the spirit of ABC's ``compress2``:
``balance; rewrite; refactor; balance; rewrite`` iterated until the node
count stops improving (bounded by ``max_rounds``).

Every script invocation can optionally verify each intermediate result
against the original with random simulation + SAT (:mod:`repro.aig.cec`),
which the test-suite exercises on all benchmark generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .balance import balance
from .cec import assert_equivalent
from .graph import Aig
from .rework import refactor, rewrite

PassFn = Callable[[Aig], Aig]

#: Named passes available to :func:`run_script`.
#:
#: This registry is unified with the flow-stage registry of
#: :mod:`repro.core.flowgraph`: every name here is also resolvable as a
#: :class:`~repro.core.flowgraph.Stage` (applied to ``FlowState.aig``),
#: so ``Flow.from_script(["frontend", "balance", "rewrite", ...])`` mixes
#: AIG passes and flow stages freely.  Passes added later through
#: :func:`register_pass` are picked up by the stage resolver dynamically.
PASSES: Dict[str, PassFn] = {
    "balance": balance,
    "rewrite": rewrite,
    "rewrite -z": lambda aig: rewrite(aig, zero_gain=True),
    "refactor": refactor,
    "refactor -z": lambda aig: refactor(aig, zero_gain=True),
    "cleanup": lambda aig: aig.cleanup(),
}


def register_pass(name: str) -> Callable[[PassFn], PassFn]:
    """Decorator: add a named ``(Aig) -> Aig`` pass to :data:`PASSES`.

    The pass immediately becomes usable in :func:`run_script` scripts and
    (through the registry bridge) as a stage in
    :meth:`repro.core.flowgraph.Flow.from_script` compositions.
    """

    def decorator(fn: PassFn) -> PassFn:
        PASSES[name] = fn
        return fn

    return decorator

#: The default area-oriented script (an ABC ``compress2`` analogue).
DEFAULT_SCRIPT: Sequence[str] = (
    "balance",
    "rewrite",
    "refactor",
    "balance",
    "rewrite",
    "rewrite -z",
    "balance",
    "refactor -z",
    "rewrite -z",
    "balance",
)


@dataclass
class OptimizationReport:
    """Record of an optimisation run: per-pass node and depth counts."""

    script: List[str] = field(default_factory=list)
    nodes_before: int = 0
    nodes_after: int = 0
    depth_before: int = 0
    depth_after: int = 0
    history: List[Dict[str, int]] = field(default_factory=list)

    @property
    def node_reduction(self) -> float:
        """Fractional node-count reduction achieved by the script."""
        if self.nodes_before == 0:
            return 0.0
        return 1.0 - self.nodes_after / self.nodes_before


def run_script(
    aig: Aig,
    script: Sequence[str] = DEFAULT_SCRIPT,
    verify: bool = False,
    report: Optional[OptimizationReport] = None,
) -> Aig:
    """Run a named sequence of passes over ``aig`` and return the result."""
    return _run_passes(aig.cleanup(), script, verify, aig, report)


def _run_passes(
    current: Aig,
    script: Sequence[str],
    verify: bool,
    original: Aig,
    report: Optional[OptimizationReport] = None,
) -> Aig:
    """:func:`run_script` on an already clean ``current``, checked against ``original``."""
    for pass_name in script:
        if pass_name not in PASSES:
            raise ValueError(f"unknown optimisation pass {pass_name!r}")
        current = PASSES[pass_name](current)
        if report is not None:
            report.history.append(
                {"pass": pass_name, "ands": current.num_ands, "depth": current.depth()}
            )
        if verify:
            assert_equivalent(original, current)
    return current


def optimize(
    aig: Aig,
    effort: str = "high",
    verify: bool = False,
    max_rounds: int = 4,
) -> Aig:
    """Area-oriented optimisation of an AIG (the flow's ``abc -script`` step).

    Args:
        aig: Input graph.
        effort: ``"low"`` (one balance+rewrite round), ``"medium"`` (one full
            default script), or ``"high"`` (default script iterated until the
            AND count stops improving, at most ``max_rounds`` times).
        verify: Verify equivalence with the input after every pass.
        max_rounds: Iteration bound for ``"high"`` effort.

    Returns:
        The optimised AIG (never larger than the cleaned-up input).
    """
    if effort not in {"low", "medium", "high"}:
        raise ValueError(f"unknown effort level {effort!r}")
    # ``run_script`` starts from ``aig.cleanup()`` itself.
    if effort == "low":
        return run_script(aig, ("balance", "rewrite"), verify=verify)
    if effort == "medium":
        return run_script(aig, DEFAULT_SCRIPT, verify=verify)
    # Cleaned once: later rounds start from a pass's output, which
    # ``cleanup`` would copy node for node.
    best = aig.cleanup()
    for _ in range(max_rounds):
        candidate = _run_passes(best, DEFAULT_SCRIPT, verify, best)
        if candidate.num_ands >= best.num_ands:
            break
        best = candidate
    return best


def optimize_with_report(aig: Aig, effort: str = "medium", verify: bool = False) -> tuple[Aig, OptimizationReport]:
    """Like :func:`optimize` but also returns an :class:`OptimizationReport`."""
    report = OptimizationReport(
        script=list(DEFAULT_SCRIPT),
        nodes_before=aig.num_ands,
        depth_before=aig.depth(),
    )
    if effort == "low":
        script: Sequence[str] = ("balance", "rewrite")
    else:
        script = DEFAULT_SCRIPT
    result = run_script(aig, script, verify=verify, report=report)
    if effort == "high":
        improved = optimize(result, effort="high", verify=verify)
        if improved.num_ands < result.num_ands:
            result = improved
    report.nodes_after = result.num_ands
    report.depth_after = result.depth()
    report.script = list(script)
    return result, report
