"""Cut computation on AIGs.

Two flavours of cuts are provided, mirroring the two ABC passes the paper
relies on:

* :func:`reconvergence_cut` — a single, as-large-as-possible
  reconvergence-driven cut per node, used by the refactoring pass
  (collapse the cone, resynthesise it with ISOP + factoring);
* :func:`enumerate_cuts` — bottom-up k-feasible cut enumeration with
  dominance pruning, used by the rewriting pass (small cuts, cached
  resyntheses).

Also included are the cone / MFFC (maximum fanout-free cone) helpers needed
to estimate the gain of replacing a cone with a resynthesised version.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from .graph import Aig, NodeType, lit_node


def reconvergence_cut(aig: Aig, node: int, max_leaves: int = 10) -> List[int]:
    """Compute a reconvergence-driven cut of up to ``max_leaves`` leaves.

    Starting from the node itself, leaves that are AND nodes are repeatedly
    expanded into their fanins, preferring expansions that do not increase
    the leaf count (i.e. where fanins are already leaves or shared), until
    no expansion fits within ``max_leaves``.

    Returns the sorted list of leaf node ids.
    """
    leaves: Set[int] = {node}
    while True:
        best_leaf = None
        best_cost = None
        for leaf in leaves:
            if not aig.is_and(leaf):
                continue
            f0, f1 = aig.fanins(leaf)
            fanin_nodes = {lit_node(f0), lit_node(f1)}
            new_leaves = len(fanin_nodes - leaves)
            cost = new_leaves - 1  # removing the expanded leaf itself
            if len(leaves) + cost > max_leaves:
                continue
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_leaf = leaf
                if cost <= 0:
                    break
        if best_leaf is None:
            break
        f0, f1 = aig.fanins(best_leaf)
        leaves.discard(best_leaf)
        leaves.add(lit_node(f0))
        leaves.add(lit_node(f1))
    return sorted(leaves)


def cone_nodes(aig: Aig, root: int, leaves: Sequence[int]) -> List[int]:
    """AND nodes strictly inside the cone between ``root`` and ``leaves`` (root included)."""
    types = aig._type
    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    and_type = NodeType.AND
    leaf_set = set(leaves)
    cone: Set[int] = set()
    stack = [root]
    while stack:
        current = stack.pop()
        if current in cone or current in leaf_set:
            continue
        if types[current] is not and_type:
            continue
        cone.add(current)
        stack.append(fanin0[current] >> 1)
        stack.append(fanin1[current] >> 1)
    return sorted(cone)


def mffc_size(aig: Aig, root: int, cone: Sequence[int], fanout_counts: Sequence[int]) -> int:
    """Number of cone nodes freed when the cone of ``root`` is replaced.

    ``cone`` is the :func:`cone_nodes` of ``root`` over the cut.  A cone
    node (other than the root) is counted only when *all* of its fanouts
    lie inside the counted set — i.e. it belongs to the maximum fanout-free
    cone of the root restricted to the cut.
    """
    # Build fanout counts and consumer lists restricted to the cone in one
    # pass (the consumer rescan per node made this quadratic in cone size).
    inside_fanouts: Dict[int, int] = {n: 0 for n in cone}
    consumers: Dict[int, List[int]] = {n: [] for n in cone}
    for n in cone:
        f0, f1 = aig.fanins(n)
        for fanin in {lit_node(f0), lit_node(f1)}:
            if fanin in inside_fanouts:
                inside_fanouts[fanin] += 1
                consumers[fanin].append(n)
    freed = {root}
    # Process in reverse topological order (descending ids).
    for n in sorted(cone, reverse=True):
        if n == root:
            continue
        if fanout_counts[n] == inside_fanouts[n]:
            # All fanouts are inside the cone; freed only if all consumers
            # (which have larger ids and are already decided) are freed.
            if all(m in freed for m in consumers[n]):
                freed.add(n)
    return len(freed)


def enumerate_cuts(
    aig: Aig, k: int = 4, max_cuts_per_node: int = 8
) -> Dict[int, List[FrozenSet[int]]]:
    """Bottom-up enumeration of k-feasible cuts for every node.

    Every node receives its trivial cut ``{node}`` plus up to
    ``max_cuts_per_node`` merged cuts of its fanins, with dominated cuts
    (supersets of other cuts) removed.  PIs, latches and the constant node
    only have their trivial cut.
    """
    cuts: Dict[int, List[FrozenSet[int]]] = {}
    for node in aig.nodes():
        if not aig.is_and(node):
            cuts[node] = [frozenset({node})]
            continue
        f0, f1 = aig.fanins(node)
        n0, n1 = lit_node(f0), lit_node(f1)
        merged: List[FrozenSet[int]] = []
        seen: Set[FrozenSet[int]] = set()
        for c0 in cuts[n0]:
            for c1 in cuts[n1]:
                cut = c0 | c1
                if len(cut) > k or cut in seen:
                    continue
                seen.add(cut)
                merged.append(cut)
        # Dominance pruning: drop any cut that is a superset of another.
        merged.sort(key=len)
        pruned: List[FrozenSet[int]] = []
        for cut in merged:
            if not any(other < cut for other in pruned):
                pruned.append(cut)
        pruned = pruned[:max_cuts_per_node]
        pruned.append(frozenset({node}))
        cuts[node] = pruned
    return cuts
