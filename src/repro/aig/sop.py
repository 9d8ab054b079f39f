"""Truth-table manipulation, irredundant sum-of-products and factoring.

These routines power the refactoring / rewriting passes: the truth table of
a cut cone is converted to an irredundant sum-of-products cover with the
Minato-Morreale procedure and then algebraically factored into an
AND/OR/NOT expression tree, which is finally rebuilt as AIG nodes.

Truth tables over ``n`` variables are plain Python integers with ``2**n``
bits; variable ``k`` follows the standard ordering where bit ``i`` of the
table corresponds to the assignment ``x_k = (i >> k) & 1``.

Cubes are bitmask pairs ``(pos, neg)``: bit ``k`` of ``pos`` is the literal
``x_k``, bit ``k`` of ``neg`` the literal ``!x_k``, and a variable in neither
mask is a don't-care.  A cover is a list of cubes, with the empty cube
``(0, 0)`` denoting the tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Sequence, Tuple

Cube = Tuple[int, int]
Cover = List[Cube]

# The ISOP recursion evaluates these projection masks millions of times per
# synthesis run (they dominated the pre-optimisation profile of
# ``repro verify``/``repro fuzz``), so all three are memoised.  The key
# space is tiny: ``num_vars`` is bounded by the cut size of the resynthesis
# passes and by the input limit of ``exhaustive_truth_tables``.
_TABLE_MASKS: Dict[int, int] = {}
_VAR_TABLES: Dict[int, List[int]] = {}
_PROJECTIONS: Dict[int, List[Tuple[int, int, int]]] = {}


def table_mask(num_vars: int) -> int:
    """All-ones truth table over ``num_vars`` variables."""
    mask = _TABLE_MASKS.get(num_vars)
    if mask is None:
        mask = (1 << (1 << num_vars)) - 1
        _TABLE_MASKS[num_vars] = mask
    return mask


def var_tables(num_vars: int) -> List[int]:
    """Truth tables of the projection functions ``x_0 .. x_{num_vars-1}``.

    The list is memoised and shared: callers must not modify it.
    """
    words = _VAR_TABLES.get(num_vars)
    if words is None:
        words = []
        for var in range(num_vars):
            block = 1 << var
            word = 0
            for start in range(block, 1 << num_vars, 2 * block):
                word |= ((1 << block) - 1) << start
            words.append(word)
        _VAR_TABLES[num_vars] = words
    return words


def var_table(var: int, num_vars: int) -> int:
    """Truth table of the projection function ``x_var``."""
    return var_tables(num_vars)[var]


def _projections(num_vars: int) -> List[Tuple[int, int, int]]:
    """``(x_var table, !x_var table, 2**var)`` for every variable, memoised."""
    rows = _PROJECTIONS.get(num_vars)
    if rows is None:
        mask = table_mask(num_vars)
        rows = [
            (high, ~high & mask, 1 << var) for var, high in enumerate(var_tables(num_vars))
        ]
        _PROJECTIONS[num_vars] = rows
    return rows


def cofactor(table: int, var: int, value: int, num_vars: int) -> int:
    """Shannon cofactor of ``table`` with respect to ``x_var = value``.

    The result is still expressed over all ``num_vars`` variables (it simply
    no longer depends on ``x_var``).
    """
    high, low, block = _projections(num_vars)[var]
    if value:
        positive = table & high
        return positive | (positive >> block)
    negative = table & low
    return negative | (negative << block)


def support(table: int, num_vars: int) -> List[int]:
    """Variables the function actually depends on."""
    return [
        var
        for var, (_, low, block) in enumerate(_projections(num_vars))
        if ((table >> block) & low) != (table & low)
    ]


def literal_floor(table: int, num_vars: int) -> int:
    """Fewest literal leaves of any AND/OR form of ``f`` or ``!f``.

    Such a form is monotone in every variable it uses in one polarity
    only, so it needs a leaf per support variable and two per binate one
    (one that ``f`` depends on both ways).  A form with ``L`` leaves
    costs ``L - 1`` operations, so ``literal_floor - 1`` bounds
    :func:`factored_form_cost` from below.
    """
    leaves = 0
    for _, low, block in _projections(num_vars):
        negative = table & low
        positive = (table >> block) & low
        if negative != positive:
            leaves += 2 if negative & ~positive and positive & ~negative else 1
    return leaves


def cube_table(cube: Cube, num_vars: int) -> int:
    """Truth table of a single cube."""
    pos, neg = cube
    table = table_mask(num_vars)
    for var, (high, low, _) in enumerate(_projections(num_vars)):
        if pos >> var & 1:
            table &= high
        if neg >> var & 1:
            table &= low
    return table


def cover_table(cover: Cover, num_vars: int) -> int:
    """Truth table of a cover (OR of its cubes)."""
    table = 0
    for cube in cover:
        table |= cube_table(cube, num_vars)
    return table


def isop(on_set: int, upper: int, num_vars: int) -> Tuple[Cover, int]:
    """Minato-Morreale irredundant sum-of-products.

    Computes a cover ``C`` with ``on_set <= table(C) <= upper`` using the
    interval-ISOP recursion.  Returns the cover and its truth table.  For a
    completely specified function call ``isop(f, f, n)``.
    """
    # An irredundant cover has at most one cube per on-set minterm, so
    # this budget is never reached.
    return _budgeted_isop(on_set, upper, num_vars, 1 << num_vars)


def isop_fits(on_set: int, upper: int, num_vars: int, limit: int) -> bool:
    """Whether ``isop(on_set, upper, num_vars)`` has at most ``limit`` cubes.

    Runs the same recursion with a cube budget and stops at the first cube
    past it, so a cover far over the budget costs little more than
    ``limit`` cubes of work.
    """
    try:
        _budgeted_isop(on_set, upper, num_vars, limit)
    except _OverBudget:
        return False
    return True


class _OverBudget(Exception):
    """The ISOP cover being built has outgrown its cube budget."""


def _budgeted_isop(on_set: int, upper: int, num_vars: int, budget: int) -> Tuple[Cover, int]:
    mask = table_mask(num_vars)
    on_set &= mask
    upper &= mask
    if on_set & ~upper & mask:
        raise ValueError("isop requires on_set to be contained in upper")
    return _isop_recursive(on_set, upper, mask, _projections(num_vars), num_vars, [budget])


def _isop_recursive(
    lower: int,
    upper: int,
    mask: int,
    projections: List[Tuple[int, int, int]],
    var_limit: int,
    budget: List[int],
) -> Tuple[Cover, int]:
    """ISOP of the interval; raises :class:`_OverBudget` once ``budget[0]`` runs out.

    Every cube of the result is one tautology leaf of the recursion, so
    counting the leaves down from the budget is exact: the count passes it
    exactly when the finished cover would have more cubes.
    """
    if lower == 0:
        return [], 0
    if upper == mask:
        budget[0] -= 1
        if budget[0] < 0:
            raise _OverBudget
        return [(0, 0)], mask
    # Pick the highest-index variable that either bound depends on; the
    # cofactors that decide it are the halves of the split.
    for var in reversed(range(var_limit)):
        high, low, block = projections[var]
        l0 = lower & low
        l1 = (lower >> block) & low
        u0 = upper & low
        u1 = (upper >> block) & low
        if l0 != l1 or u0 != u1:
            break
    else:
        # lower is a non-zero constant but upper is not the tautology —
        # cannot happen for consistent bounds.
        raise ValueError("inconsistent ISOP bounds")
    l0 |= l0 << block
    l1 |= l1 << block
    u0 |= u0 << block
    u1 |= u1 << block

    cover0, table0 = _isop_recursive(l0 & ~u1, u0, mask, projections, var, budget)
    cover1, table1 = _isop_recursive(l1 & ~u0, u1, mask, projections, var, budget)
    l_new = (l0 & ~table0) | (l1 & ~table1)
    cover2, table2 = _isop_recursive(l_new, u0 & u1, mask, projections, var, budget)

    bit = 1 << var
    result_cover: Cover = [(pos, neg | bit) for pos, neg in cover0]
    result_cover.extend((pos | bit, neg) for pos, neg in cover1)
    result_cover.extend(cover2)
    return result_cover, (table0 & low) | (table1 & high) | table2


# ---------------------------------------------------------------------------
# Factored forms
# ---------------------------------------------------------------------------


@dataclass
class FactorNode:
    """Node of a factored-form expression tree.

    ``kind`` is one of ``"lit"``, ``"and"``, ``"or"``, ``"const0"``,
    ``"const1"``.  For literals, ``var`` is the variable index and
    ``negated`` its polarity; for internal nodes ``children`` holds the
    operands.
    """

    kind: str
    var: int = -1
    negated: bool = False
    children: Tuple["FactorNode", ...] = ()

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind == "lit":
            return ("!" if self.negated else "") + f"x{self.var}"
        if self.kind in ("const0", "const1"):
            return self.kind
        sep = " & " if self.kind == "and" else " | "
        return "(" + sep.join(str(c) for c in self.children) + ")"


class _Spread(dict):
    """Mask -> its bits moved ``width`` bits apart, one counter field per bit.

    Summing the spread masks of a cover's cubes counts every literal at
    once: field ``k`` of the sum is the number of cubes with bit ``k`` set.
    """

    def __init__(self, width: int) -> None:
        super().__init__()
        self.width = width

    def __missing__(self, mask: int) -> int:
        spread = 0
        rest = mask
        while rest:
            low = rest & -rest
            spread |= 1 << (self.width * (low.bit_length() - 1))
            rest ^= low
        self[mask] = spread
        return spread


_SPREADS: Dict[int, _Spread] = {}


def _best_literal(cover: Cover) -> Tuple[int, bool, int]:
    """The most frequent literal of ``cover`` as ``(var, positive, count)``.

    Ties go to the lower variable; when ``x`` and ``!x`` tie, the polarity
    in the first cube that mentions ``x`` wins.
    """
    width = len(cover).bit_length()
    spread = _SPREADS.get(width)
    if spread is None:
        spread = _SPREADS[width] = _Spread(width)
    positives, negatives = zip(*cover)
    pos_counts = sum(map(spread.__getitem__, positives))
    neg_counts = sum(map(spread.__getitem__, negatives))
    field = (1 << width) - 1
    best_var = best_count = best_pos = best_neg = 0
    var = 0
    while pos_counts or neg_counts:
        positive = pos_counts & field
        negative = neg_counts & field
        if positive > best_count or negative > best_count:
            best_var, best_pos, best_neg = var, positive, negative
            best_count = positive if positive > negative else negative
        pos_counts >>= width
        neg_counts >>= width
        var += 1
    if best_pos != best_neg:
        return best_var, best_pos > best_neg, best_count
    bit = 1 << best_var
    first = next(pos for pos, neg in cover if (pos | neg) & bit)
    return best_var, bool(first & bit), best_count


def _cube_factor(cube: Cube) -> Tuple[FactorNode, int]:
    pos, neg = cube
    literals = []
    for var in range((pos | neg).bit_length()):
        if pos >> var & 1:
            literals.append(FactorNode("lit", var=var))
        if neg >> var & 1:
            literals.append(FactorNode("lit", var=var, negated=True))
    if len(literals) == 1:
        return literals[0], 0
    return FactorNode("and", children=tuple(literals)), len(literals) - 1


def factor_cover(cover: Cover) -> Tuple[FactorNode, int]:
    """Algebraically factor a cover into an AND/OR expression tree.

    Uses "quick factoring": the most frequent literal is chosen as divisor,
    the cover is divided into quotient and remainder, and both parts are
    factored recursively.  Single-cube covers become pure AND terms.

    Returns the tree and the number of two-input AND/OR operations needed
    to realise it.  For a cover with no cube contained in another, such
    as an ISOP, that is at least ``len(cover) - 1``: the quotient and
    remainder of a split partition the cubes and keep the property, and
    the AND with the divisor and the OR with a non-empty remainder add
    one operation each.
    """
    if not cover:
        return FactorNode("const0"), 0
    if (0, 0) in cover:
        return FactorNode("const1"), 0
    if len(cover) == 1:
        return _cube_factor(cover[0])

    var, positive, count = _best_literal(cover)
    if count <= 1:
        # No common literal: plain sum of products.
        terms = [_cube_factor(cube) for cube in cover]
        ops = sum(term_ops for _, term_ops in terms) + len(terms) - 1
        return FactorNode("or", children=tuple(term for term, _ in terms)), ops

    divisor_lit = FactorNode("lit", var=var, negated=not positive)
    bit = 1 << var
    if positive:
        quotient = [(pos ^ bit, neg) for pos, neg in cover if pos & bit]
        remainder = [cube for cube in cover if not cube[0] & bit]
    else:
        quotient = [(pos, neg ^ bit) for pos, neg in cover if neg & bit]
        remainder = [cube for cube in cover if not cube[1] & bit]

    quotient_expr, ops = factor_cover(quotient)
    if quotient_expr.kind == "const1":
        factored_part: FactorNode = divisor_lit
    else:
        factored_part = FactorNode("and", children=(divisor_lit, quotient_expr))
        ops += 1
    if not remainder:
        return factored_part, ops
    remainder_expr, remainder_ops = factor_cover(remainder)
    return FactorNode("or", children=(factored_part, remainder_expr)), ops + remainder_ops + 1


def factor_table(table: int, num_vars: int) -> Tuple[FactorNode, int]:
    """ISOP + factoring of a completely specified truth table.

    Returns the tree and its operation count, like :func:`factor_cover`.
    Complemented forms are handled by the caller through the top literal
    polarity — see :func:`factored_form_cost`, which factors both the
    function and its complement and memoises the cheaper form.
    """
    mask = table_mask(num_vars)
    table &= mask
    if table == 0:
        return FactorNode("const0"), 0
    if table == mask:
        return FactorNode("const1"), 0
    cover, _ = isop(table, table, num_vars)
    return factor_cover(cover)


def build_factor_into_aig(
    factor: FactorNode,
    leaf_literals: Sequence[int],
    add_and: Callable[[int, int], int],
    lit_not: Callable[[int], int],
    const_false: int = 0,
) -> int:
    """Instantiate a factored form as AIG nodes.

    Args:
        factor: Expression tree over variables ``0..len(leaf_literals)-1``.
        leaf_literals: AIG literal for each variable.
        add_and: Callable creating/reusing an AND node and returning a literal.
        lit_not: Callable complementing a literal.
        const_false: The constant-false literal.

    Returns:
        The literal realising the factored form.
    """

    def build(node: FactorNode) -> int:
        if node.kind == "const0":
            return const_false
        if node.kind == "const1":
            return lit_not(const_false)
        if node.kind == "lit":
            lit = leaf_literals[node.var]
            return lit_not(lit) if node.negated else lit
        child_lits = [build(c) for c in node.children]
        if node.kind == "and":
            acc = child_lits[0]
            for lit in child_lits[1:]:
                acc = add_and(acc, lit)
            return acc
        if node.kind == "or":
            acc = child_lits[0]
            for lit in child_lits[1:]:
                acc = lit_not(add_and(lit_not(acc), lit_not(lit)))
            return acc
        raise ValueError(f"unknown factor node kind {node.kind!r}")

    return build(factor)


@lru_cache(maxsize=1 << 16)
def factored_form_cost(table: int, num_vars: int) -> Tuple[int, FactorNode, bool]:
    """Return the cheaper of factoring ``f`` and ``!f``.

    Returns ``(cost, factor, complemented)`` where ``complemented`` indicates
    that the factored form realises the complement of ``table`` and the
    caller must invert the resulting literal.

    Results are memoised — the resynthesis passes re-factor the same small
    cone functions constantly — so callers must treat the returned
    :class:`FactorNode` tree as immutable (they all do: the only consumer
    is :func:`build_factor_into_aig`, which reads it).  The cost is never
    below ``literal_floor(table, num_vars) - 1``, nor below one less than
    the smaller ISOP cover of ``f`` and ``!f`` (:func:`factor_cover`); the
    resynthesis passes use both floors to skip cuts that cannot gain.
    """
    direct, direct_ops = factor_table(table, num_vars)
    inverse, inverse_ops = factor_table(~table & table_mask(num_vars), num_vars)
    if inverse_ops < direct_ops:
        return inverse_ops, inverse, True
    return direct_ops, direct, False
