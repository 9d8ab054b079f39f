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

from typing import Dict, FrozenSet, List, Sequence, Set

from .graph import Aig, NodeType


def reconvergence_cut(aig: Aig, node: int, max_leaves: int = 10) -> List[int]:
    """Compute a reconvergence-driven cut of up to ``max_leaves`` leaves.

    Starting from the node itself, leaves that are AND nodes are repeatedly
    expanded into their fanins, preferring expansions that do not increase
    the leaf count (i.e. where fanins are already leaves or shared), until
    no expansion fits within ``max_leaves``.

    Returns the sorted list of leaf node ids.
    """
    types = aig._type
    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    and_type = NodeType.AND
    leaves: Set[int] = {node}
    while True:
        best_leaf = None
        best_cost = None
        for leaf in leaves:
            if types[leaf] is not and_type:
                continue
            n0 = fanin0[leaf] >> 1
            n1 = fanin1[leaf] >> 1
            # Leaves the expansion adds, minus the expanded leaf itself.
            cost = (n0 not in leaves) + (n1 != n0 and n1 not in leaves) - 1
            if len(leaves) + cost > max_leaves:
                continue
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_leaf = leaf
                if cost <= 0:
                    break
        if best_leaf is None:
            break
        leaves.discard(best_leaf)
        leaves.add(fanin0[best_leaf] >> 1)
        leaves.add(fanin1[best_leaf] >> 1)
    return sorted(leaves)


def cone_nodes(aig: Aig, root: int, leaves: Sequence[int]) -> List[int]:
    """AND nodes strictly inside the cone between ``root`` and ``leaves`` (root included)."""
    types = aig._type
    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    and_type = NodeType.AND
    seen = set(leaves)
    cone: List[int] = []
    stack = [root]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        if types[current] is and_type:
            cone.append(current)
            stack.append(fanin0[current] >> 1)
            stack.append(fanin1[current] >> 1)
    cone.sort()
    return cone


def mffc_size(aig: Aig, root: int, leaves: Sequence[int], refs: List[int]) -> int:
    """Number of nodes freed when the cone of ``root`` over ``leaves`` is replaced.

    This is ABC's reference-counted MFFC: dereferencing the root's fanins
    frees every AND node whose last fanout was freed, stopping at the
    cut.  A node other than the root is thus counted only when *all* of
    its fanouts are freed, and the root is always counted.

    ``refs`` holds the fanout count of every node
    (:meth:`~repro.aig.graph.Aig.fanout_counts`); it is updated in place
    during the walk and restored before returning.
    """
    types = aig._type
    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    and_type = NodeType.AND
    # An extra reference on every leaf stops the walk at the cut.
    for leaf in leaves:
        refs[leaf] += 1
    freed = [root]
    stack = [root]
    while stack:
        node = stack.pop()
        for fanin in (fanin0[node] >> 1, fanin1[node] >> 1):
            refs[fanin] -= 1
            if not refs[fanin] and types[fanin] is and_type:
                freed.append(fanin)
                stack.append(fanin)
    for node in freed:
        refs[fanin0[node] >> 1] += 1
        refs[fanin1[node] >> 1] += 1
    for leaf in leaves:
        refs[leaf] -= 1
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
    types = aig._type
    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    and_type = NodeType.AND
    cuts: Dict[int, List[FrozenSet[int]]] = {}
    for node in range(len(types)):
        if types[node] is not and_type:
            cuts[node] = [frozenset({node})]
            continue
        cuts1 = cuts[fanin1[node] >> 1]
        merged: List[FrozenSet[int]] = []
        seen: Set[FrozenSet[int]] = set()
        for c0 in cuts[fanin0[node] >> 1]:
            for c1 in cuts1:
                cut = c0 | c1
                if len(cut) > k or cut in seen:
                    continue
                seen.add(cut)
                merged.append(cut)
        # Dominance pruning: drop any cut that is a superset of another.
        # Pruning only looks back, so the first ``max_cuts_per_node``
        # survivors are final.
        merged.sort(key=len)
        pruned: List[FrozenSet[int]] = []
        for cut in merged:
            if len(pruned) == max_cuts_per_node:
                break
            if not any(other < cut for other in pruned):
                pruned.append(cut)
        pruned.append(frozenset({node}))
        cuts[node] = pruned
    return cuts
