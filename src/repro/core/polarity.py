"""Rail-requirement analysis and output phase assignment (paper Sections 3.1.4-3.1.5).

Dual-rail xSFQ logic only *has* to produce both polarities of a signal where
both are actually consumed.  Because primary outputs feed DROC cells (which
regenerate both polarities) or dual-rail-to-single-rail converters, each
output needs only one polarity — and which one is a free choice.  Choosing
output polarities well and propagating the requirements backwards through
the AIG ("backward bubble pushing") removes most of the dual-rail
duplication penalty.

This module computes, for a given polarity choice at every sink (primary
output or latch next-state input), the set of rails required at every AIG
node; the LA/FA cell count and duplication penalty that follow; and a
greedy output-phase-assignment heuristic in the spirit of the domino-logic
literature the paper cites (Puri et al.), which flips sink polarities while
doing so reduces the total cell count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..aig.graph import Aig, lit_is_complemented, lit_node


class Rail(enum.Enum):
    """Polarity rail of a dual-rail signal."""

    POS = "p"
    NEG = "n"

    def flipped(self) -> "Rail":
        return Rail.NEG if self is Rail.POS else Rail.POS


@dataclass(frozen=True)
class Sink:
    """A combinational sink of the AIG whose polarity can be chosen freely.

    Attributes:
        name: Output or latch name.
        lit: Literal driving the sink.
        is_latch_input: True for latch next-state inputs, False for POs.
    """

    name: str
    lit: int
    is_latch_input: bool


@dataclass
class RailAnalysis:
    """Result of a rail-requirement analysis.

    Attributes:
        required: Set of required rails per AND node id.
        leaf_rails: Rails of PI / latch-output / constant nodes actually used.
        polarities: The sink polarity assignment the analysis was run with.
        num_la: Number of LA cells (positive rails of AND nodes).
        num_fa: Number of FA cells (negative rails of AND nodes).
    """

    required: Dict[int, Set[Rail]]
    leaf_rails: Dict[int, Set[Rail]]
    polarities: Dict[str, Rail]
    num_la: int = 0
    num_fa: int = 0

    @property
    def num_cells(self) -> int:
        """Total LA + FA cell count."""
        return self.num_la + self.num_fa

    @property
    def num_active_nodes(self) -> int:
        """AND nodes needing at least one rail."""
        return sum(1 for rails in self.required.values() if rails)

    @property
    def duplication_penalty(self) -> float:
        """Fraction of extra cells relative to one cell per active AIG node.

        Direct dual-rail mapping (both rails everywhere) yields 1.0 (100%);
        a fully single-rail mapping yields 0.0.
        """
        active = self.num_active_nodes
        if active == 0:
            return 0.0
        return (self.num_cells - active) / active


def sinks_of(aig: Aig) -> List[Sink]:
    """The polarity-assignable sinks of an AIG: POs and latch next-states."""
    sinks: List[Sink] = []
    for name, lit in zip(aig.po_names, aig.po_lits):
        sinks.append(Sink(name, lit, False))
    for latch in aig.latches:
        if latch.next_lit is None:
            raise ValueError(f"latch {latch.name!r} has no next-state literal")
        sinks.append(Sink(f"{latch.name}$next", latch.next_lit, True))
    return sinks


def positive_polarities(aig: Aig) -> Dict[str, Rail]:
    """The default polarity assignment: every sink keeps its positive rail."""
    return {sink.name: Rail.POS for sink in sinks_of(aig)}


def analyze_rails(
    aig: Aig,
    polarities: Optional[Mapping[str, Rail]] = None,
    force_dual_rail: bool = False,
) -> RailAnalysis:
    """Compute the rails required at every node for a polarity assignment.

    Args:
        aig: The optimised AIG (combinational part is analysed; latch
            outputs behave like PIs because DROC cells provide both rails).
        polarities: Rail kept at every sink (default: all positive).
        force_dual_rail: Build both rails of every reachable node — the
            behaviour of the direct mapping of Section 3.1.1, used as the
            baseline when reporting the duplication penalty.

    Returns:
        A :class:`RailAnalysis`.
    """
    if polarities is None:
        polarities = positive_polarities(aig)
    sinks = sinks_of(aig)
    required: Dict[int, Set[Rail]] = {node: set() for node in aig.and_nodes()}
    leaf_rails: Dict[int, Set[Rail]] = {}

    def require(node: int, rail: Rail, pending: List[Tuple[int, Rail]]) -> None:
        if aig.is_and(node):
            if rail not in required[node]:
                required[node].add(rail)
                pending.append((node, rail))
        else:
            leaf_rails.setdefault(node, set()).add(rail)

    pending: List[Tuple[int, Rail]] = []
    for sink in sinks:
        polarity = polarities.get(sink.name, Rail.POS)
        rail = polarity
        if lit_is_complemented(sink.lit):
            rail = rail.flipped()
        require(lit_node(sink.lit), rail, pending)
        if force_dual_rail:
            require(lit_node(sink.lit), rail.flipped(), pending)

    while pending:
        node, rail = pending.pop()
        f0, f1 = aig.fanins(node)
        for lit in (f0, f1):
            fanin_rail = rail
            if lit_is_complemented(lit):
                fanin_rail = fanin_rail.flipped()
            require(lit_node(lit), fanin_rail, pending)
            if force_dual_rail:
                require(lit_node(lit), fanin_rail.flipped(), pending)

    analysis = RailAnalysis(
        required=required,
        leaf_rails=leaf_rails,
        polarities=dict(polarities),
    )
    analysis.num_la = sum(1 for rails in required.values() if Rail.POS in rails)
    analysis.num_fa = sum(1 for rails in required.values() if Rail.NEG in rails)
    return analysis


def assign_output_polarities(
    aig: Aig,
    max_sweeps: int = 4,
    initial: Optional[Mapping[str, Rail]] = None,
) -> Tuple[Dict[str, Rail], RailAnalysis]:
    """Greedy output phase assignment minimising the LA/FA cell count.

    Starting from the all-positive assignment (or ``initial``), the
    heuristic sweeps over the sinks and keeps any single-polarity flip that
    strictly reduces the total number of LA/FA cells, repeating until a
    sweep makes no change or ``max_sweeps`` is reached.  This mirrors the
    output phase assignment heuristic from the domino-logic literature the
    paper applies (Section 3.1.5).

    Each trial flip is evaluated incrementally on :class:`_RailDemand`
    (only the flipped sink's cone is revisited) and undone unless it
    helps; the choices are those of a full :func:`analyze_rails` per
    trial.  Returns the chosen assignment together with its
    :class:`RailAnalysis`.
    """
    polarities: Dict[str, Rail] = dict(initial) if initial else positive_polarities(aig)
    sinks = sinks_of(aig)
    demand = _RailDemand(aig)
    for sink in sinks:
        demand.add(sink.lit, polarities.get(sink.name, Rail.POS))
    for _ in range(max_sweeps):
        improved = False
        for sink in sinks:
            rail = polarities[sink.name]
            cells = demand.cells
            demand.flip(sink.lit, rail)
            if demand.cells < cells:
                polarities[sink.name] = rail.flipped()
                improved = True
            else:
                demand.flip(sink.lit, rail.flipped())
        if not improved:
            break
    return polarities, analyze_rails(aig, polarities)


class _RailDemand:
    """Reference counts of the demands on every ``(node, rail)`` pair.

    A sink kept on ``rail`` demands its node's matching rail, and every
    demanded rail of an AND node demands the matching rails of both
    fanins.  A rail is required while its count is positive; ``cells``
    counts the required rails of AND nodes, i.e. the LA + FA cells of
    :func:`analyze_rails` under the same sink polarities.
    """

    def __init__(self, aig: Aig) -> None:
        self.aig = aig
        self.counts: Dict[Tuple[int, Rail], int] = {}
        self.cells = 0

    def add(self, lit: int, rail: Rail) -> None:
        """Demand ``rail`` of the sink literal ``lit``."""
        self._update(lit, rail, 1)

    def flip(self, lit: int, rail: Rail) -> None:
        """Move a sink on ``lit`` from ``rail`` to the other rail."""
        self._update(lit, rail, -1)
        self._update(lit, rail.flipped(), 1)

    def _update(self, lit: int, rail: Rail, step: int) -> None:
        aig = self.aig
        counts = self.counts
        pending = [(lit_node(lit), rail.flipped() if lit_is_complemented(lit) else rail)]
        while pending:
            key = pending.pop()
            count = counts.get(key, 0) + step
            if count:
                counts[key] = count
            else:
                del counts[key]
            # A rail appears (0 -> 1) or disappears (1 -> 0): so do its
            # demands on the fanins.
            if count != (1 if step > 0 else 0) or not aig.is_and(key[0]):
                continue
            self.cells += step
            node, node_rail = key
            for fanin in aig.fanins(node):
                fanin_rail = node_rail.flipped() if lit_is_complemented(fanin) else node_rail
                pending.append((lit_node(fanin), fanin_rail))


def direct_mapping_analysis(aig: Aig) -> RailAnalysis:
    """Rail analysis of the unoptimised direct mapping (Section 3.1.1).

    Every reachable AIG node is implemented as a full LA-FA pair, i.e. the
    duplication penalty is 100% by construction.
    """
    return analyze_rails(aig, force_dual_rail=True)
