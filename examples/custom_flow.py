"""Compose, time and extend the staged synthesis flow.

Run with::

    python examples/custom_flow.py

The xSFQ flow is an ordered composition of named stages registered in
``repro.STAGES`` (``frontend -> aig-opt -> pipeline -> polarity -> map ->
sequential -> report``).  This example shows the pass-manager features in
turn:

1. run the default flow and print the per-stage rows the run recorded
   in ``FlowState.stage_rows`` (the rows ``repro run --stage-timing``
   folds into its table);
2. derive a variant flow (``with_options``) and watch the stage cache
   reuse the expensive post-``aig-opt`` AIG instead of re-optimising;
3. register a *custom* stage with ``repro.register_stage`` and splice it
   into a flow built from a script of stage and AIG-pass names;
4. stop a flow mid-way (``until=``), inspect the intermediate
   ``FlowState``, and resume it to completion.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro  # noqa: E402
from repro.core import render_stage_table  # noqa: E402


def main() -> None:
    net = repro.build_circuit("c880", "quick")

    # ------------------------------------------------------------------
    # 1. The default flow, timed stage by stage
    # ------------------------------------------------------------------
    print("=== 1. Default flow, one row per stage ===")
    flow = repro.Flow.default()
    state = flow.run_state(net)
    result = state.result
    print(render_stage_table(state.stage_rows))
    total = sum(row["seconds"] for row in state.stage_rows)
    print(f"total {total:.3f}s -> {result.jj_count()} JJs\n")

    # ------------------------------------------------------------------
    # 2. A polarity variant reuses the cached optimised AIG
    # ------------------------------------------------------------------
    print("=== 2. Variant flow: stage cache reuses the aig-opt prefix ===")
    cache = repro.get_stage_cache()
    hits_before = cache.hits
    variant = flow.with_options("polarity", mode="positive")
    variant_state = variant.run_state(repro.build_circuit("c880", "quick"))
    variant_result = variant_state.result
    reused = [row["stage"] for row in variant_state.stage_rows if row["cached"]]
    print(f"stages served from cache : {reused}")
    print(f"stage-cache hits         : {cache.hits - hits_before}")
    print(f"positive-only polarity   : {variant_result.jj_count()} JJs "
          f"(optimised: {result.jj_count()})\n")

    # ------------------------------------------------------------------
    # 3. A user-registered stage in a scripted flow
    # ------------------------------------------------------------------
    print("=== 3. Custom stage spliced into a scripted flow ===")

    @repro.register_stage(
        "and-budget",
        defaults={"max_ands": 1000},
        description="Fail fast when the optimised AIG exceeds an AND budget",
    )
    def and_budget(state, options):
        ands = state.aig.num_ands
        if ands > int(options["max_ands"]):
            raise repro.FlowError(
                f"design needs {ands} ANDs, budget is {options['max_ands']}"
            )
        print(f"  [and-budget] {ands} ANDs <= {options['max_ands']} — ok")
        return state

    scripted = repro.Flow.from_script([
        "frontend",
        "balance",            # a raw AIG pass from repro.aig.scripts.PASSES
        "rewrite",
        ("and-budget", {"max_ands": 800}),
        ("polarity", {"mode": "optimize"}),
        "map",
        "sequential",
        "report",
    ])
    scripted_result = scripted.run(repro.build_circuit("c880", "quick"))
    print(f"scripted flow            : {scripted_result.jj_count()} JJs")
    print(f"signature stages         : {[s for s, _ in scripted.signature()]}\n")

    # ------------------------------------------------------------------
    # 4. Inspect mid-flow, then resume
    # ------------------------------------------------------------------
    print("=== 4. Stop after aig-opt, inspect, resume ===")
    state = flow.run_state(repro.build_circuit("c880", "quick"), until="aig-opt")
    print(f"source network           : {state.source_stats['ands']} AIG ANDs")
    print(f"after optimisation       : {state.aig.num_ands} AIG ANDs")
    finished = flow.resume(state)
    print(f"resumed to completion    : {finished.result.jj_count()} JJs")


if __name__ == "__main__":
    main()
