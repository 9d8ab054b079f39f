"""Area-oriented AIG resynthesis: refactoring and rewriting.

These are the framework's counterparts of ABC's ``refactor`` and ``rewrite``
commands.  Both passes work the same way:

1. choose a cut for each AND node (one large reconvergence-driven cut for
   refactoring, several small enumerated cuts for rewriting);
2. compute the truth table of the cone over the cut, evaluating the cone's
   nodes once in topological order;
3. resynthesise the function with Minato-Morreale ISOP + algebraic
   factoring (the cheaper of the function and its complement);
4. accept the replacement when the estimated number of new AND nodes is
   smaller than the size of the maximum fanout-free cone (MFFC) that would
   be freed.  A factored form needs at least one literal leaf per support
   variable and two per binate one (:func:`~repro.aig.sop.literal_floor`),
   and the MFFC holds at most the cone, so a cut whose literal floor
   already rules out acceptance against ``|cone|`` skips the MFFC count,
   and one that fails against the MFFC skips step 3.  Quick factoring of an
   ISOP cover costs at least one operation less than it has cubes
   (:func:`~repro.aig.sop.isop_fits`), so ``refactor`` also skips step 3
   when the covers of both ``f`` and ``!f`` hold more cubes than the gain
   test allows;
5. rebuild the AIG with the accepted replacements and sweep dangling nodes.

As a safety net, the rebuilt AIG is only returned when it is not larger than
the input (otherwise the input is returned unchanged), so the passes are
monotone in node count.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .cuts import cone_nodes, enumerate_cuts, mffc_size, reconvergence_cut
from .graph import FALSE, Aig, lit_is_complemented, lit_node, lit_not, make_lit
from .simulate import cone_table
from .sop import (
    FactorNode,
    build_factor_into_aig,
    factored_form_cost,
    isop_fits,
    literal_floor,
    table_mask,
)

#: ``literal_floor`` for ``rewrite``: its cuts have at most ``cut_size``
#: (four) leaves, so the same few tables recur across every node and pass.
_cut_literal_floor = lru_cache(maxsize=1 << 16)(literal_floor)


class _Replacement:
    """A planned cone replacement for one AND node."""

    __slots__ = ("leaves", "factor", "complemented")

    def __init__(self, leaves: Sequence[int], factor: FactorNode, complemented: bool) -> None:
        self.leaves = list(leaves)
        self.factor = factor
        self.complemented = complemented


def _rebuild_with_replacements(aig: Aig, replacements: Dict[int, _Replacement]) -> Aig:
    """Reconstruct the AIG, substituting the planned cone replacements."""
    dest = Aig(aig.name)
    lit_map: Dict[int, int] = {FALSE: FALSE}
    for node, name in zip(aig.pi_nodes, aig.pi_names):
        lit_map[make_lit(node)] = dest.add_pi(name)
    latch_out_map: Dict[int, int] = {}
    for latch in aig.latches:
        new_lit = dest.add_latch(latch.name, latch.init)
        lit_map[make_lit(latch.node)] = new_lit
        latch_out_map[latch.node] = new_lit

    def mapped(lit: int) -> int:
        out = lit_map[lit & ~1]
        return lit_not(out) if lit_is_complemented(lit) else out

    for node in aig.and_nodes():
        replacement = replacements.get(node)
        if replacement is None:
            f0, f1 = aig.fanins(node)
            lit_map[make_lit(node)] = dest.add_and(mapped(f0), mapped(f1))
            continue
        leaf_lits = [mapped(make_lit(leaf)) for leaf in replacement.leaves]
        new_lit = build_factor_into_aig(
            replacement.factor, leaf_lits, dest.add_and, lit_not, FALSE
        )
        if replacement.complemented:
            new_lit = lit_not(new_lit)
        lit_map[make_lit(node)] = new_lit

    for name, lit in zip(aig.po_names, aig.po_lits):
        dest.add_po(mapped(lit), name)
    for latch in aig.latches:
        dest.set_latch_next(latch_out_map[latch.node], mapped(latch.next_lit))
    return dest.cleanup()


def _may_gain(bound: int, best: Optional[Tuple[int, _Replacement, List[int]]], zero_gain: bool) -> bool:
    """Whether a cut whose gain is at most ``bound`` can still be chosen."""
    if bound < 0 or (bound == 0 and not zero_gain):
        return False
    return best is None or bound > best[0]


def refactor(aig: Aig, max_cut: int = 10, zero_gain: bool = False) -> Aig:
    """Collapse-and-resynthesise large cones (ABC's ``refactor``).

    Args:
        aig: Input graph.
        max_cut: Maximum number of cut leaves for the collapsed cones.
        zero_gain: Accept replacements that keep the node count unchanged
            (useful to perturb the structure between passes).

    Returns:
        A functionally equivalent AIG with at most as many AND nodes.
    """
    refs = aig.fanout_counts()
    replacements: Dict[int, _Replacement] = {}
    claimed: set[int] = set()

    for node in sorted(aig.and_nodes(), reverse=True):
        if node in claimed:
            continue
        leaves = reconvergence_cut(aig, node, max_cut)
        if len(leaves) < 2 or leaves == [node]:
            continue
        cone = cone_nodes(aig, node, leaves)
        if len(cone) < 2:
            continue
        try:
            table = cone_table(aig, node, cone, leaves)
        except ValueError:
            continue
        # The literal floor bounds the gain from above, and
        # ``freed <= len(cone)`` bounds that bound: skip the MFFC, then the
        # factoring, when the bound could not be accepted.
        floor = literal_floor(table, len(leaves)) - 1
        if not _may_gain(len(cone) - floor, None, zero_gain):
            continue
        freed = mffc_size(aig, node, leaves, refs)
        if not _may_gain(freed - floor, None, zero_gain):
            continue
        # The factoring costs at least ``cubes - 1`` operations for the
        # smaller of the ISOP covers of f and !f, so skip it when neither
        # fits in the largest count the gain test could still accept.
        # The budgeted ISOP stops at the first cube past the budget.
        budget = freed + 1 if zero_gain else freed
        inverse = ~table & table_mask(len(leaves))
        if not (
            isop_fits(table, table, len(leaves), budget)
            or isop_fits(inverse, inverse, len(leaves), budget)
        ):
            continue
        cost, factor, complemented = factored_form_cost(table, len(leaves))
        if cost < freed or (zero_gain and cost == freed):
            replacements[node] = _Replacement(leaves, factor, complemented)
            claimed.update(cone)

    if not replacements:
        return aig
    rebuilt = _rebuild_with_replacements(aig, replacements)
    return rebuilt if rebuilt.num_ands <= aig.num_ands else aig


def rewrite(aig: Aig, cut_size: int = 4, max_cuts_per_node: int = 8, zero_gain: bool = False) -> Aig:
    """Cut-based local rewriting (ABC's ``rewrite``).

    Each node's k-feasible cuts are evaluated; the one whose resynthesised
    implementation gives the best improvement over the freed MFFC is applied.
    """
    refs = aig.fanout_counts()
    all_cuts = enumerate_cuts(aig, cut_size, max_cuts_per_node)
    replacements: Dict[int, _Replacement] = {}
    claimed: set[int] = set()

    for node in sorted(aig.and_nodes(), reverse=True):
        if node in claimed:
            continue
        best: Optional[Tuple[int, _Replacement, List[int]]] = None
        for cut in all_cuts[node]:
            leaves = sorted(cut)
            if leaves == [node] or len(leaves) < 2:
                continue
            cone = cone_nodes(aig, node, leaves)
            if not cone:
                continue
            try:
                table = cone_table(aig, node, cone, leaves)
            except ValueError:
                continue
            # The literal floor bounds the gain from above, and
            # ``freed <= len(cone)`` bounds that bound: skip the MFFC, then
            # the factoring, when the bound could not be accepted or beat
            # ``best``.
            floor = _cut_literal_floor(table, len(leaves)) - 1
            if not _may_gain(len(cone) - floor, best, zero_gain):
                continue
            freed = mffc_size(aig, node, leaves, refs)
            if not _may_gain(freed - floor, best, zero_gain):
                continue
            cost, factor, complemented = factored_form_cost(table, len(leaves))
            gain = freed - cost
            if gain > 0 or (zero_gain and gain == 0):
                if best is None or gain > best[0]:
                    best = (gain, _Replacement(leaves, factor, complemented), cone)
        if best is not None:
            replacements[node] = best[1]
            claimed.update(best[2])

    if not replacements:
        return aig
    rebuilt = _rebuild_with_replacements(aig, replacements)
    return rebuilt if rebuilt.num_ands <= aig.num_ands else aig
