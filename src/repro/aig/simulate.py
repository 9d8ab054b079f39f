"""Bit-parallel functional simulation of AIGs.

Used for three purposes in the flow:

* fast random-vector filtering before SAT-based equivalence checking
  (:mod:`repro.aig.cec`),
* exhaustive truth-table computation of whole (small) AIGs for the test
  suite, and
* truth-table computation of cut cones for the refactoring / rewriting
  passes (:mod:`repro.aig.rework`).

Two interchangeable kernels back :func:`simulate_patterns`:

* ``int`` — Python integers as arbitrarily wide bit vectors, one
  topological pass over the flat fanin arrays.  CPython bigint bitwise
  ops run in C over the whole word, so this is already bit-parallel and
  it wins on the narrow, deep graphs the synthesis flow produces.
* ``numpy`` — patterns packed into little-endian uint64 word blocks, the
  graph levelised once (cached on the ``Aig``) and each level evaluated
  as three array ops (gather, xor with complement masks, and).  This
  wins when levels are wide relative to the number of 64-bit words per
  pattern block; the ``auto`` dispatch applies a measured crossover so
  callers never pay numpy overhead on graphs where bigints are faster.

Both kernels are pinned bit-equal to :func:`simulate_patterns_reference`
by the differential suites in ``tests/aig/test_simulate_kernels.py`` and
``tests/perf/test_kernels.py``.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .._compat import load_numpy, scalar_kernels_forced
from .cuts import cone_nodes
from .graph import Aig, NodeType, lit_is_complemented, lit_node
from .sop import table_mask, var_tables

#: Below this node count the numpy kernel is never considered: schedule
#: construction and per-level dispatch overhead dominate tiny graphs.
_NUMPY_MIN_NODES = 512
#: ``auto`` picks numpy only when the mean AND-level width clears this
#: floor and exceeds ``_NUMPY_WIDTH_PER_WORD`` per 64-bit pattern word —
#: the measured crossover against the bigint kernel on this container
#: (bigints win ~3x on width-8 graphs; numpy wins up to ~28x at width
#: 1500 with single-word blocks).
_NUMPY_MIN_WIDTH = 32.0
_NUMPY_WIDTH_PER_WORD = 8.0


class _LevelSchedule:
    """Levelised evaluation plan of an AIG, cached per graph.

    Nodes are bucketed by AND depth (non-AND nodes first).  The level
    widths, all :func:`select_backend` reads, are plain Python.  The
    numpy kernel's arrays are built on its first run (:func:`_numpy_levels`):
    nodes permuted level-major, so each level's results scatter into a
    contiguous row slice, and per level the gather index vector (fanin0
    rows followed by fanin1 rows) and the complement mask column
    (all-ones words where the literal is complemented).
    """

    __slots__ = ("stamp", "buckets", "max_width", "avg_width", "pos", "levels")

    def __init__(self, stamp, buckets, max_width, avg_width) -> None:
        self.stamp = stamp
        self.buckets = buckets
        self.max_width = max_width
        self.avg_width = avg_width
        #: Numpy row of each node and ``(start, end, idx, cmask)`` per
        #: AND level; ``None`` until the numpy kernel first runs.
        self.pos = None
        self.levels = None


def _level_schedule(aig: Aig) -> _LevelSchedule:
    """Build (or fetch the cached) :class:`_LevelSchedule` of ``aig``.

    ``Aig`` node arrays are append-only, so the node count is a valid
    cache stamp: any structural growth invalidates the plan.
    """
    schedule = getattr(aig, "_level_plan", None)
    if schedule is not None and schedule.stamp == len(aig._type):
        return schedule

    types = aig._type
    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    n = len(types)
    and_type = NodeType.AND
    level = [0] * n
    max_level = 0
    for node in range(n):
        if types[node] is and_type:
            depth = 1 + max(level[fanin0[node] >> 1], level[fanin1[node] >> 1])
            level[node] = depth
            if depth > max_level:
                max_level = depth

    buckets: List[List[int]] = [[] for _ in range(max_level + 1)]
    for node in range(n):
        buckets[level[node]].append(node)

    widths = [len(bucket) for bucket in buckets[1:] if bucket]
    max_width = max(widths) if widths else 0
    avg_width = (sum(widths) / len(widths)) if widths else 0.0
    schedule = _LevelSchedule(n, buckets, max_width, avg_width)
    aig._level_plan = schedule
    return schedule


def _numpy_levels(aig: Aig, np) -> _LevelSchedule:
    """``aig``'s schedule with its numpy arrays built (once per stamp)."""
    schedule = _level_schedule(aig)
    if schedule.levels is not None:
        return schedule
    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    buckets = schedule.buckets
    pos = [0] * schedule.stamp
    row = 0
    for bucket in buckets:
        for node in bucket:
            pos[node] = row
            row += 1

    full = np.uint64(0xFFFFFFFFFFFFFFFF)
    zero = np.uint64(0)
    levels: List[Tuple[int, int, object, object]] = []
    start = len(buckets[0])
    for bucket in buckets[1:]:
        k = len(bucket)
        if not k:
            continue
        idx = np.empty(2 * k, dtype=np.intp)
        cmask = np.empty(2 * k, dtype="<u8")
        for i, node in enumerate(bucket):
            f0 = fanin0[node]
            f1 = fanin1[node]
            idx[i] = pos[f0 >> 1]
            idx[k + i] = pos[f1 >> 1]
            cmask[i] = full if f0 & 1 else zero
            cmask[k + i] = full if f1 & 1 else zero
        levels.append((start, start + k, idx, cmask.reshape(2 * k, 1)))
        start += k
    schedule.pos = pos
    schedule.levels = levels
    return schedule


class PackedValues(Mapping):
    """Lazy node-id -> packed-word view over the numpy kernel's output.

    Behaves like the plain dict the ``int`` kernel returns — same keys
    (every node id), same Python-int words, equality against dicts — but
    converts rows to bigints only on access, so large-graph simulations
    don't pay an O(nodes) conversion for the handful of output words a
    caller actually reads.
    """

    __slots__ = ("_rows", "_pos", "_mask", "_cache")

    def __init__(self, rows, pos: List[int], num_patterns: int) -> None:
        self._rows = rows
        self._pos = pos
        self._mask = (1 << num_patterns) - 1
        self._cache: Dict[int, int] = {}

    def __getitem__(self, node: int) -> int:
        word = self._cache.get(node)
        if word is None:
            if not isinstance(node, int) or not 0 <= node < len(self._pos):
                raise KeyError(node)
            raw = self._rows[self._pos[node]].tobytes()
            word = int.from_bytes(raw, "little") & self._mask
            self._cache[node] = word
        return word

    def __len__(self) -> int:
        return len(self._pos)

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self._pos)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PackedValues):
            if other is self:
                return True
            other = dict(other.items())
        if not isinstance(other, Mapping):
            return NotImplemented
        if len(other) != len(self._pos):
            return False
        sentinel = object()
        return all(other.get(node, sentinel) == self[node] for node in self)

    __hash__ = None  # mutable-mapping semantics, like dict

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PackedValues({dict(self.items())!r})"


def _pack_word(np, word: int, width: int):
    """Pack a (pre-masked) Python int into ``width`` little-endian uint64s."""
    return np.frombuffer(word.to_bytes(width * 8, "little"), dtype="<u8")


def select_backend(aig: Aig, num_patterns: int, backend: str = "auto") -> str:
    """Resolve the kernel (``"int"`` or ``"numpy"``) for a simulation call.

    ``backend="numpy"`` forces the numpy kernel (raising a descriptive
    ``ImportError`` when numpy is absent); ``"int"`` forces the bigint
    kernel; ``"auto"`` applies the measured width/word-count crossover
    and falls back to ``"int"`` when numpy is unavailable or
    ``REPRO_SCALAR_KERNELS=1`` is set.
    """
    if backend == "int":
        return "int"
    if backend == "numpy":
        load_numpy(required=True)
        return "numpy"
    if backend != "auto":
        raise ValueError(
            f"unknown simulate_patterns backend {backend!r}; "
            f"expected 'auto', 'int' or 'numpy'"
        )
    if scalar_kernels_forced() or len(aig._type) < _NUMPY_MIN_NODES:
        return "int"
    # The width test reads plain-Python level widths, so a graph that
    # fails it never imports numpy.
    avg_width = _level_schedule(aig).avg_width
    words = (num_patterns + 63) // 64
    if (
        avg_width >= _NUMPY_MIN_WIDTH
        and avg_width >= _NUMPY_WIDTH_PER_WORD * max(words, 1)
        and load_numpy() is not None
    ):
        return "numpy"
    return "int"


def _simulate_patterns_numpy(
    aig: Aig, input_words: List[Tuple[int, int]], num_patterns: int
) -> PackedValues:
    """Word-parallel levelised sweep: 64 patterns per lane, W lanes per block."""
    np = load_numpy(required=True)
    schedule = _numpy_levels(aig, np)
    mask = (1 << num_patterns) - 1
    width = (num_patterns + 63) // 64
    pos = schedule.pos
    rows = np.zeros((len(pos), width), dtype="<u8")
    for node, word in input_words:
        rows[pos[node]] = _pack_word(np, word & mask, width)
    if schedule.levels:
        gather = np.empty((2 * schedule.max_width, width), dtype="<u8")
        for start, end, idx, cmask in schedule.levels:
            k = end - start
            g = gather[: 2 * k]
            np.take(rows, idx, axis=0, out=g)
            np.bitwise_xor(g, cmask, out=g)
            np.bitwise_and(g[:k], g[k:], out=rows[start:end])
        if width and num_patterns % 64:
            # Complemented literals set garbage above bit ``num_patterns``
            # in the top word of every block; AND propagation can carry it
            # into results, so clear the tail lane before handing rows out.
            tail = np.uint64((1 << (num_patterns % 64)) - 1)
            rows[:, width - 1] &= tail
    return PackedValues(rows, pos, num_patterns)


def simulate_patterns(
    aig: Aig,
    pi_patterns: Mapping[int, int],
    num_patterns: int,
    strict: bool = True,
    backend: str = "auto",
) -> Mapping[int, int]:
    """Simulate the combinational part of ``aig`` on packed input patterns.

    The graph is walked once in topological order (node ids are created in
    topological order by construction), either over the flat fanin arrays
    with Python bigints as pattern words or — for graphs wide enough to
    amortise array dispatch — as a levelised numpy sweep over uint64 word
    blocks (see the module docstring and :func:`select_backend`).  This
    is the golden-model kernel of the verification subsystem; the original
    per-node dict/method implementation is kept as
    :func:`simulate_patterns_reference` for the differential tests in
    ``tests/perf`` and ``tests/aig``.

    Args:
        aig: The graph to simulate.
        pi_patterns: Packed pattern word for every PI *and latch* node id
            (bit ``i`` of the word is the node value in pattern ``i``).
        num_patterns: Number of valid pattern bits in each word.
        strict: Raise ``KeyError`` listing the missing node ids when
            ``pi_patterns`` does not cover every PI and latch.  Passing
            ``strict=False`` restores the historical zero-fill of absent
            inputs (only meaningful for deliberately partial stimuli).
        backend: ``"auto"`` (default) dispatches between the bigint and
            numpy kernels on graph shape; ``"int"`` / ``"numpy"`` force a
            kernel (``"numpy"`` raises ``ImportError`` with install
            instructions when numpy is missing).

    Returns:
        A mapping from every node id to its packed output word — a plain
        dict from the ``int`` kernel, a lazily converting
        :class:`PackedValues` (equal to that dict) from the numpy kernel.
    """
    mask = (1 << num_patterns) - 1
    input_words: List[Tuple[int, int]] = []
    missing = []
    for node in aig.pi_nodes:
        word = pi_patterns.get(node)
        if word is None:
            missing.append(node)
        else:
            input_words.append((node, word))
    for latch in aig.latches:
        word = pi_patterns.get(latch.node)
        if word is None:
            missing.append(latch.node)
        else:
            input_words.append((latch.node, word))
    if strict and missing:
        raise KeyError(
            f"pi_patterns is missing pattern words for PI/latch node(s) "
            f"{sorted(missing)} of {aig.name!r}; pass strict=False to "
            f"zero-fill deliberately partial stimuli"
        )
    if select_backend(aig, num_patterns, backend) == "numpy":
        return _simulate_patterns_numpy(aig, input_words, num_patterns)

    types = aig._type
    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    values = [0] * len(types)
    for node, word in input_words:
        values[node] = word & mask
    and_type = NodeType.AND
    for node in range(len(types)):
        if types[node] is not and_type:
            continue
        f0 = fanin0[node]
        f1 = fanin1[node]
        v0 = values[f0 >> 1]
        if f0 & 1:
            v0 ^= mask
        v1 = values[f1 >> 1]
        if f1 & 1:
            v1 ^= mask
        values[node] = v0 & v1
    return dict(enumerate(values))


def simulate_patterns_reference(
    aig: Aig, pi_patterns: Mapping[int, int], num_patterns: int
) -> Dict[int, int]:
    """Original (pre-optimisation) pattern simulation kernel.

    Kept as the oracle for the kernel-equivalence micro-benchmarks; it
    zero-fills missing inputs like the historical implementation did.  Do
    not use in new code — call :func:`simulate_patterns`.
    """
    mask = (1 << num_patterns) - 1
    values: Dict[int, int] = {0: 0}
    for node in aig.pi_nodes:
        values[node] = pi_patterns.get(node, 0) & mask
    for latch in aig.latches:
        values[latch.node] = pi_patterns.get(latch.node, 0) & mask
    for node in aig.and_nodes():
        f0, f1 = aig.fanins(node)
        v0 = values[lit_node(f0)]
        if lit_is_complemented(f0):
            v0 ^= mask
        v1 = values[lit_node(f1)]
        if lit_is_complemented(f1):
            v1 ^= mask
        values[node] = v0 & v1
    return values


def lit_values(values: Mapping[int, int], lit: int, num_patterns: int) -> int:
    """Extract the packed value word of a literal from node values."""
    mask = (1 << num_patterns) - 1
    word = values[lit_node(lit)]
    return (word ^ mask) if lit_is_complemented(lit) else word & mask


def simulate_random(
    aig: Aig, num_patterns: int = 256, seed: int = 0
) -> Mapping[int, int]:
    """Simulate ``num_patterns`` uniformly random input patterns.

    Latch outputs are also randomised, which makes the result usable as a
    quick combinational-equivalence filter for sequential AIGs whose latch
    correspondence is known.
    """
    rng = random.Random(seed)
    patterns: Dict[int, int] = {}
    for node in list(aig.pi_nodes) + [l.node for l in aig.latches]:
        patterns[node] = rng.getrandbits(num_patterns)
    return simulate_patterns(aig, patterns, num_patterns)


def output_signatures(aig: Aig, num_patterns: int = 256, seed: int = 0) -> List[int]:
    """Packed output words of every PO under random simulation (for CEC filtering)."""
    values = simulate_random(aig, num_patterns, seed)
    return [lit_values(values, lit, num_patterns) for lit in aig.po_lits]


def exhaustive_truth_tables(aig: Aig, max_inputs: int = 16) -> List[int]:
    """Exhaustive truth table of every PO of a combinational AIG.

    The truth table of output *o* is an integer whose bit ``i`` is the output
    value under the input assignment where PI ``k`` (in ``pi_nodes`` order)
    takes bit ``k`` of ``i``.
    """
    if aig.latches:
        raise ValueError("exhaustive_truth_tables requires a combinational AIG")
    n = aig.num_pis
    if n > max_inputs:
        raise ValueError(f"AIG has {n} inputs, exceeding limit of {max_inputs}")
    num_patterns = 1 << n
    patterns = dict(zip(aig.pi_nodes, var_tables(n)))
    values = simulate_patterns(aig, patterns, num_patterns)
    return [lit_values(values, lit, num_patterns) for lit in aig.po_lits]


def cone_table(aig: Aig, root: int, cone: Sequence[int], leaves: Sequence[int]) -> int:
    """Truth table of node ``root`` over ``leaves``, evaluating ``cone`` in order.

    ``cone`` must list the AND nodes between ``root`` and ``leaves`` in
    topological (ascending id) order, as :func:`repro.aig.cuts.cone_nodes`
    returns them.  Leaf ``k`` is variable ``k`` and node 0 is constant 0.
    A fanin that is neither a leaf nor an earlier cone node raises
    :class:`ValueError`, as does a ``root`` that is none of these.
    """
    k = len(leaves)
    mask = table_mask(k)
    values: Dict[int, int] = {0: 0}
    values.update(zip(leaves, var_tables(k)))
    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    try:
        for node in cone:
            f0 = fanin0[node]
            f1 = fanin1[node]
            v0 = values[f0 >> 1]
            if f0 & 1:
                v0 ^= mask
            v1 = values[f1 >> 1]
            if f1 & 1:
                v1 ^= mask
            values[node] = v0 & v1
        return values[root]
    except KeyError as exc:
        raise ValueError(f"node {exc.args[0]} is not inside the cut cone") from None


def cone_truth_table(aig: Aig, root_lit: int, leaves: Sequence[int]) -> int:
    """Truth table of the cone rooted at ``root_lit`` expressed over ``leaves``.

    ``leaves`` are node ids forming a cut of the cone; the returned table has
    ``2**len(leaves)`` bits with leaf ``k`` as variable ``k``.  All paths from
    the root must stop at leaves (or constants); otherwise a
    :class:`ValueError` is raised.
    """
    root = lit_node(root_lit)
    table = cone_table(aig, root, cone_nodes(aig, root, leaves), leaves)
    if lit_is_complemented(root_lit):
        table ^= table_mask(len(leaves))
    return table
