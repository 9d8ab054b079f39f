"""Pipelining and register placement on AIGs.

The paper uses ABC's retiming for two purposes:

* **Table 5** — pipelining the (combinational) c6288 multiplier: register
  ranks are inserted across the logic so the critical path between
  synchronisation barriers shrinks.  :func:`insert_pipeline_registers`
  implements this by cutting the AIG at depth-balanced level boundaries
  (which is the fixed point ABC's min-period retiming reaches when registers
  start at the outputs).
* **Section 3.2 / Table 6** — splitting each DROC pair of a logical xSFQ
  flip-flop and pushing the second DROC forward into the combinational
  logic so the two synchronous phases have balanced depth.  The helpers
  :func:`level_cut` and :func:`cut_signals` compute the balanced cut used by
  :mod:`repro.core.sequential` to place that second rank.

Both operations are plain graph restructurings that preserve the
combinational functions between register boundaries; the test-suite checks
the resulting sequential behaviour cycle-by-cycle against the reference
network.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .graph import FALSE, Aig, lit_is_complemented, lit_node, lit_not, make_lit


def stage_thresholds(depth: int, num_ranks: int) -> List[int]:
    """Level thresholds that split ``depth`` levels into ``num_ranks + 1`` balanced regions.

    A node at level L belongs to stage ``sum(L > t for t in thresholds)``.
    """
    if num_ranks <= 0:
        return []
    return [round(depth * (i + 1) / (num_ranks + 1)) for i in range(num_ranks)]


def stage_assignment(aig: Aig, thresholds: Sequence[int]) -> Dict[int, int]:
    """Assign every node to a pipeline stage based on its logic level."""
    levels = aig.levels()
    stages: Dict[int, int] = {}
    for node in aig.nodes():
        level = levels[node]
        stages[node] = sum(1 for t in thresholds if level > t)
    return stages


def level_cut(aig: Aig, fraction: float = 0.5) -> int:
    """Level threshold that splits the combinational depth at ``fraction``."""
    return round(aig.depth() * fraction)


def cut_signals(aig: Aig, threshold: int) -> List[int]:
    """Nodes whose output crosses the level cut at ``threshold``.

    A node crosses the cut when its own level is <= ``threshold`` and it has
    at least one fanout (AND node, PO or latch-next) with level > ``threshold``
    — these are the signals on which pipeline registers must be placed.
    """
    levels = aig.levels()
    crossing = set()
    for node in aig.and_nodes():
        if levels[node] <= threshold:
            continue
        for lit in aig.fanins(node):
            fanin = lit_node(lit)
            if levels[fanin] <= threshold:
                crossing.add(fanin)
    for lit in aig.combinational_roots():
        fanin = lit_node(lit)
        if levels[fanin] <= threshold and threshold < aig.depth():
            crossing.add(fanin)
    return sorted(crossing)


def insert_pipeline_registers(aig: Aig, num_ranks: int, name_prefix: str = "pipe") -> Aig:
    """Insert ``num_ranks`` ranks of registers at depth-balanced cuts.

    The input must be a combinational AIG; the result is a sequential AIG in
    which every PI-to-PO path passes through exactly ``num_ranks`` latches,
    i.e. the circuit computes the same function with a latency of
    ``num_ranks`` cycles.

    Registers are shared: a signal needed by several later stages gets one
    register chain, not one per consumer.
    """
    if aig.latches:
        raise ValueError("insert_pipeline_registers expects a combinational AIG")
    if num_ranks <= 0:
        return aig.cleanup()

    thresholds = stage_thresholds(aig.depth(), num_ranks)
    stages = stage_assignment(aig, thresholds)
    last_stage = num_ranks

    dest = Aig(aig.name)
    lit_map: Dict[int, int] = {FALSE: FALSE}
    for node, name in zip(aig.pi_nodes, aig.pi_names):
        lit_map[make_lit(node)] = dest.add_pi(name)

    # delayed[(node, k)] = literal of the node value delayed by k cycles.
    delayed: Dict[Tuple[int, int], int] = {}
    latch_counter = [0]

    def delayed_lit(node: int, delay: int) -> int:
        """Literal for ``node`` delayed by ``delay`` register ranks."""
        base = lit_map[make_lit(node)]
        if delay <= 0:
            return base
        key = (node, delay)
        if key in delayed:
            return delayed[key]
        prev = delayed_lit(node, delay - 1)
        latch_counter[0] += 1
        # The register boundary (rank) this latch sits on is encoded in its
        # name so downstream mapping (repro.core.pipeline) can recover it.
        boundary = stages[node] + delay
        latch_lit = dest.add_latch(
            f"{name_prefix}_b{boundary}_n{node}_d{delay}", init=0
        )
        dest.set_latch_next(latch_lit, prev)
        delayed[key] = latch_lit
        return latch_lit

    def fanin_value(lit: int, consumer_stage: int) -> int:
        node = lit_node(lit)
        source_stage = stages.get(node, 0)
        value = delayed_lit(node, consumer_stage - source_stage)
        return lit_not(value) if lit_is_complemented(lit) else value

    for node in aig.and_nodes():
        stage = stages[node]
        f0, f1 = aig.fanins(node)
        lit_map[make_lit(node)] = dest.add_and(
            fanin_value(f0, stage), fanin_value(f1, stage)
        )

    for name, lit in zip(aig.po_names, aig.po_lits):
        dest.add_po(fanin_value(lit, last_stage), name)
    return dest


def pipeline_register_ranks(aig: Aig, name_prefix: str = "pipe") -> Dict[str, int]:
    """Recover the register boundary (rank) index of every pipeline latch.

    Latches created by :func:`insert_pipeline_registers` encode their
    boundary in their name (``<prefix>_b<rank>_n<node>_d<delay>``); this
    helper parses it back.  Boundaries are numbered from 1 (closest to the
    primary inputs).
    """
    ranks: Dict[str, int] = {}
    for latch in aig.latches:
        if not latch.name.startswith(f"{name_prefix}_b"):
            continue
        try:
            rank = int(latch.name[len(name_prefix) + 2:].split("_", 1)[0])
        except ValueError:
            continue
        ranks[latch.name] = rank
    return ranks


def max_stage_depth(aig: Aig) -> int:
    """Maximum combinational depth between register/IO boundaries.

    For a combinational AIG this is simply the depth; for a sequential AIG it
    is the longest combinational path from any PI or latch output to any PO
    or latch input, i.e. the quantity that determines the circuit clock
    period.
    """
    return aig.depth()
