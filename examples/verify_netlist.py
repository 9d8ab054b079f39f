"""Verify a synthesised netlist at the pulse level — and read a counterexample.

Run with::

    python examples/verify_netlist.py

The walkthrough has four acts:

1. synthesise a benchmark circuit with a custom staged flow that *ends in
   the ``verify`` stage*, so the flow itself produces a machine-checkable
   equivalence verdict;
2. verify a batch of patterns by hand with ``repro.verify_result`` and
   watch the elaboration counter: hundreds of patterns, one elaboration;
3. deliberately corrupt one mapped cell and read the resulting
   counterexample — the failing input pattern, the diverging output and
   the first divergence net that localises the bug;
4. run a miniature verification campaign over several catalogued
   circuits through the parallel runner, like ``repro verify`` does.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro  # noqa: E402
from repro.core.cells import CellKind  # noqa: E402
from repro.sim.pulse import elaboration_count  # noqa: E402
from repro.verify import catalog_specs, render_verification_table  # noqa: E402


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A flow that ends in a verdict
    # ------------------------------------------------------------------
    print("=== 1. Flow with a terminal 'verify' stage ===")
    flow = repro.Flow.default().with_stage("verify", {"patterns": 128, "seed": 1})
    state = flow.run_state(repro.build_circuit("c880", "quick"))
    verdict = state.artifacts["verification"]
    print(f"stages  : {' -> '.join(flow.stage_names())}")
    print(f"verdict : {verdict.status} — {verdict.summary()}\n")

    # ------------------------------------------------------------------
    # 2. Batched verification by hand: N patterns, one elaboration
    # ------------------------------------------------------------------
    print("=== 2. Batched multi-pattern verification ===")
    network = repro.build_circuit("c880", "quick")
    result = repro.Flow.default().run(network)
    before = elaboration_count()
    verdict = repro.verify_result(result, golden=network, patterns=256, seed=0)
    print(f"patterns verified : {verdict.patterns} ({verdict.mode})")
    print(f"elaborations      : {elaboration_count() - before} (one batch, one build)")
    print(f"status            : {verdict.status} in {verdict.seconds:.2f}s\n")

    # ------------------------------------------------------------------
    # 3. Corrupt a cell, inspect the counterexample
    # ------------------------------------------------------------------
    print("=== 3. Reading a counterexample ===")
    broken = repro.Flow.default().run(network)
    victim = next(c for c in broken.netlist.cells if c.kind is CellKind.LA)
    victim.kind = CellKind.FA  # one AND silently becomes an OR
    print(f"corrupted cell    : {victim.name} (LA -> FA)")
    verdict = repro.verify_result(broken, golden=network, patterns=256, seed=0)
    cex = verdict.counterexample
    print(f"status            : {verdict.status}")
    print(f"failing pattern   : #{cex.pattern} {cex.inputs}")
    print(f"diverging output  : {cex.output} (expected {cex.expected}, got {cex.observed})")
    print(f"first divergence  : net {verdict.first_divergence_net!r} — the cell "
          "driving this net is the place to start debugging\n")

    # ------------------------------------------------------------------
    # 4. A miniature campaign through the parallel runner
    # ------------------------------------------------------------------
    print("=== 4. Campaign over several circuits (the `repro verify` engine) ===")
    specs = catalog_specs(circuits=["ctrl", "int2float", "s27"], patterns=64, seed=0)
    report = repro.Runner(jobs=2, cache=None).campaign(repro.VerificationCampaign(specs))
    print(render_verification_table(report.records))
    print(f"all equivalent    : {report.all_equivalent} "
          f"({report.total_patterns()} patterns in {report.elapsed_s:.2f}s)")


if __name__ == "__main__":
    main()
