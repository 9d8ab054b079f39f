"""Truth-table manipulation, irredundant sum-of-products and factoring.

These routines power the refactoring / rewriting passes: the truth table of
a cut cone is converted to an irredundant sum-of-products cover with the
Minato-Morreale procedure and then algebraically factored into an
AND/OR/NOT expression tree, which is finally rebuilt as AIG nodes.

Truth tables over ``n`` variables are plain Python integers with ``2**n``
bits; variable ``k`` follows the standard ordering where bit ``i`` of the
table corresponds to the assignment ``x_k = (i >> k) & 1``.

Cubes are dictionaries mapping variable index to 0 or 1 (missing variables
are don't-cares); a cover is a list of cubes, with the empty cube denoting
the tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

Cube = Dict[int, int]
Cover = List[Cube]

# The ISOP recursion evaluates these projection masks millions of times per
# synthesis run (they dominated the pre-optimisation profile of
# ``repro verify``/``repro fuzz``), so both are memoised.  The key space is
# tiny: ``num_vars`` is bounded by the cut size of the resynthesis passes.
_TABLE_MASKS: Dict[int, int] = {}
_VAR_TABLES: Dict[Tuple[int, int], int] = {}


def table_mask(num_vars: int) -> int:
    """All-ones truth table over ``num_vars`` variables."""
    mask = _TABLE_MASKS.get(num_vars)
    if mask is None:
        mask = (1 << (1 << num_vars)) - 1
        _TABLE_MASKS[num_vars] = mask
    return mask


def var_table(var: int, num_vars: int) -> int:
    """Truth table of the projection function ``x_var``."""
    word = _VAR_TABLES.get((var, num_vars))
    if word is None:
        block = 1 << var
        word = 0
        for start in range(block, 1 << num_vars, 2 * block):
            word |= ((1 << block) - 1) << start
        _VAR_TABLES[(var, num_vars)] = word
    return word


def cofactor(table: int, var: int, value: int, num_vars: int) -> int:
    """Shannon cofactor of ``table`` with respect to ``x_var = value``.

    The result is still expressed over all ``num_vars`` variables (it simply
    no longer depends on ``x_var``).
    """
    mask = table_mask(num_vars)
    vmask = var_table(var, num_vars)
    block = 1 << var
    if value:
        positive = table & vmask
        return (positive | (positive >> block)) & mask
    negative = table & ~vmask & mask
    return (negative | (negative << block)) & mask


def depends_on(table: int, var: int, num_vars: int) -> bool:
    """True when the function depends on variable ``var``."""
    low = ~var_table(var, num_vars) & table_mask(num_vars)
    return ((table >> (1 << var)) & low) != (table & low)


def support(table: int, num_vars: int) -> List[int]:
    """Variables the function actually depends on."""
    return [v for v in range(num_vars) if depends_on(table, v, num_vars)]


def cube_table(cube: Cube, num_vars: int) -> int:
    """Truth table of a single cube."""
    table = table_mask(num_vars)
    for var, value in cube.items():
        vt = var_table(var, num_vars)
        table &= vt if value else (~vt & table_mask(num_vars))
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
    mask = table_mask(num_vars)
    on_set &= mask
    upper &= mask
    if on_set & ~upper & mask:
        raise ValueError("isop requires on_set to be contained in upper")
    return _isop_recursive(on_set, upper, num_vars, num_vars)


def _isop_recursive(lower: int, upper: int, num_vars: int, var_limit: int) -> Tuple[Cover, int]:
    mask = table_mask(num_vars)
    if lower == 0:
        return [], 0
    if upper == mask:
        return [{}], mask
    # Pick the highest-index variable that either bound depends on.
    var = None
    for v in reversed(range(var_limit)):
        if depends_on(lower, v, num_vars) or depends_on(upper, v, num_vars):
            var = v
            break
    if var is None:
        # lower is a non-zero constant but upper is not the tautology —
        # cannot happen for consistent bounds.
        raise ValueError("inconsistent ISOP bounds")
    l0 = cofactor(lower, var, 0, num_vars)
    l1 = cofactor(lower, var, 1, num_vars)
    u0 = cofactor(upper, var, 0, num_vars)
    u1 = cofactor(upper, var, 1, num_vars)

    cover0, table0 = _isop_recursive(l0 & ~u1 & mask, u0, num_vars, var)
    cover1, table1 = _isop_recursive(l1 & ~u0 & mask, u1, num_vars, var)
    l_new = (l0 & ~table0 & mask) | (l1 & ~table1 & mask)
    cover2, table2 = _isop_recursive(l_new, u0 & u1, num_vars, var)

    vt = var_table(var, num_vars)
    result_cover: Cover = []
    for cube in cover0:
        new_cube = dict(cube)
        new_cube[var] = 0
        result_cover.append(new_cube)
    for cube in cover1:
        new_cube = dict(cube)
        new_cube[var] = 1
        result_cover.append(new_cube)
    result_cover.extend(cover2)
    result_table = (table0 & ~vt & mask) | (table1 & vt) | table2
    return result_cover, result_table


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

    def num_ops(self) -> int:
        """Number of two-input AND/OR operations needed to realise the tree."""
        if self.kind in ("lit", "const0", "const1"):
            return 0
        child_ops = sum(c.num_ops() for c in self.children)
        return child_ops + max(0, len(self.children) - 1)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind == "lit":
            return ("!" if self.negated else "") + f"x{self.var}"
        if self.kind in ("const0", "const1"):
            return self.kind
        sep = " & " if self.kind == "and" else " | "
        return "(" + sep.join(str(c) for c in self.children) + ")"


def _literal_counts(cover: Cover) -> Dict[Tuple[int, int], int]:
    counts: Dict[Tuple[int, int], int] = {}
    for cube in cover:
        for var, value in cube.items():
            counts[(var, value)] = counts.get((var, value), 0) + 1
    return counts


def factor_cover(cover: Cover) -> FactorNode:
    """Algebraically factor a cover into an AND/OR expression tree.

    Uses "quick factoring": the most frequent literal is chosen as divisor,
    the cover is divided into quotient and remainder, and both parts are
    factored recursively.  Single-cube covers become pure AND terms.
    """
    if not cover:
        return FactorNode("const0")
    if any(len(cube) == 0 for cube in cover):
        return FactorNode("const1")
    if len(cover) == 1:
        cube = cover[0]
        literals = [FactorNode("lit", var=v, negated=(val == 0)) for v, val in sorted(cube.items())]
        if len(literals) == 1:
            return literals[0]
        return FactorNode("and", children=tuple(literals))

    counts = _literal_counts(cover)
    (best_var, best_val), best_count = max(counts.items(), key=lambda item: (item[1], -item[0][0]))
    if best_count <= 1:
        # No common literal: plain sum of products.
        terms = [factor_cover([cube]) for cube in cover]
        return FactorNode("or", children=tuple(terms))

    divisor_lit = FactorNode("lit", var=best_var, negated=(best_val == 0))
    quotient: Cover = []
    remainder: Cover = []
    for cube in cover:
        if cube.get(best_var) == best_val:
            reduced = {v: val for v, val in cube.items() if v != best_var}
            quotient.append(reduced)
        else:
            remainder.append(cube)

    quotient_expr = factor_cover(quotient)
    if quotient_expr.kind == "const1":
        factored_part: FactorNode = divisor_lit
    else:
        factored_part = FactorNode("and", children=(divisor_lit, quotient_expr))
    if not remainder:
        return factored_part
    remainder_expr = factor_cover(remainder)
    return FactorNode("or", children=(factored_part, remainder_expr))


def factor_table(table: int, num_vars: int) -> FactorNode:
    """ISOP + factoring of a completely specified truth table.

    Complemented forms are handled by the caller through the top literal
    polarity — see :func:`factored_form_cost`, which factors both the
    function and its complement and memoises the cheaper form.
    """
    mask = table_mask(num_vars)
    table &= mask
    if table == 0:
        return FactorNode("const0")
    if table == mask:
        return FactorNode("const1")
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
    is :func:`build_factor_into_aig`, which reads it).  Every factored form
    of a function has at least one literal leaf per support variable, so
    its cost is never below ``len(support(table, num_vars)) - 1``; the
    resynthesis passes use that floor to skip cuts that cannot gain.
    """
    direct = factor_table(table, num_vars)
    inverse = factor_table(~table & table_mask(num_vars), num_vars)
    if inverse.num_ops() < direct.num_ops():
        return inverse.num_ops(), inverse, True
    return direct.num_ops(), direct, False
