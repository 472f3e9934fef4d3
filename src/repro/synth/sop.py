"""Sum-of-products covers and algebraic factoring.

This module provides the cube-cover algebra used by ``refactor`` and the
SOP-balancing pass: ISOP extraction (delegated to :mod:`repro.aig.truth`),
algebraic division, kernel extraction and a factored-form representation
that can be costed (literal count) and instantiated into an AIG.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.aig import truth
from repro.aig.graph import AIG, Literal, lit_not


Cube = Tuple[int, int]
"""A product term: ``(positive_var_mask, negative_var_mask)``."""


# ----------------------------------------------------------------------
# Factored forms
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FactoredNode:
    """A node of a factored form tree.

    ``kind`` is one of ``"lit"``, ``"and"``, ``"or"``.  Literal leaves carry
    ``(var, complemented)``; internal nodes carry a tuple of children.
    """

    kind: str
    var: int = -1
    complemented: bool = False
    children: Tuple["FactoredNode", ...] = ()

    def literal_count(self) -> int:
        """Number of literal leaves in the tree (the classical FF cost)."""
        if self.kind == "lit":
            return 1
        return sum(child.literal_count() for child in self.children)

    def depth(self) -> int:
        if self.kind == "lit" or not self.children:
            return 0
        return 1 + max(child.depth() for child in self.children)


def literal_node(var: int, complemented: bool = False) -> FactoredNode:
    return FactoredNode(kind="lit", var=var, complemented=complemented)


def and_node(children: Sequence[FactoredNode]) -> FactoredNode:
    children = tuple(children)
    if len(children) == 1:
        return children[0]
    return FactoredNode(kind="and", children=children)


def or_node(children: Sequence[FactoredNode]) -> FactoredNode:
    children = tuple(children)
    if len(children) == 1:
        return children[0]
    return FactoredNode(kind="or", children=children)


CONST0_FF = FactoredNode(kind="or", children=())
CONST1_FF = FactoredNode(kind="and", children=())


# ----------------------------------------------------------------------
# Cube-cover algebra
# ----------------------------------------------------------------------
def cube_literals(cube: Cube) -> List[Tuple[int, bool]]:
    """List of ``(var, complemented)`` literal pairs of a cube."""
    pos, neg = cube
    lits: List[Tuple[int, bool]] = []
    var = 0
    mask = pos | neg
    while mask:
        if (pos >> var) & 1:
            lits.append((var, False))
        elif (neg >> var) & 1:
            lits.append((var, True))
        mask &= ~(1 << var)
        var += 1
    return lits


def cover_literal_count(cover: Sequence[Cube]) -> int:
    return sum(truth.cube_literal_count(cube) for cube in cover)


def cube_divide(cube: Cube, divisor: Cube) -> Optional[Cube]:
    """Algebraic division of one cube by another (``None`` if not divisible)."""
    cpos, cneg = cube
    dpos, dneg = divisor
    if (cpos & dpos) != dpos or (cneg & dneg) != dneg:
        return None
    return (cpos & ~dpos, cneg & ~dneg)


def cover_divide(cover: Sequence[Cube], divisor: Sequence[Cube]) -> Tuple[List[Cube], List[Cube]]:
    """Weak algebraic division of a cover by a divisor cover.

    Returns ``(quotient, remainder)`` such that
    ``cover = quotient * divisor + remainder`` algebraically.
    """
    divisor = list(divisor)
    if not divisor:
        return [], list(cover)
    quotients_per_cube: List[set] = []
    for div_cube in divisor:
        quotients = set()
        for cube in cover:
            q = cube_divide(cube, div_cube)
            if q is not None:
                quotients.add(q)
        quotients_per_cube.append(quotients)
    quotient = set.intersection(*quotients_per_cube) if quotients_per_cube else set()
    quotient_list = sorted(quotient)
    covered = set()
    for q in quotient_list:
        for div_cube in divisor:
            covered.add((q[0] | div_cube[0], q[1] | div_cube[1]))
    remainder = [cube for cube in cover if cube not in covered]
    return quotient_list, remainder


def _literal_occurrences(cover: Sequence[Cube]) -> Dict[Tuple[int, bool], int]:
    counts: Dict[Tuple[int, bool], int] = {}
    for cube in cover:
        for literal in cube_literals(cube):
            counts[literal] = counts.get(literal, 0) + 1
    return counts


def best_literal_divisor(cover: Sequence[Cube]) -> Optional[Tuple[int, bool]]:
    """Most frequent literal appearing in at least two cubes (quick-divisor)."""
    counts = _literal_occurrences(cover)
    best = None
    best_count = 1
    for literal, count in sorted(counts.items()):
        if count > best_count:
            best = literal
            best_count = count
    return best


def quick_factor(cover: Sequence[Cube]) -> FactoredNode:
    """Quick algebraic factoring (literal-divisor based, recursive).

    This mirrors the ``quick_factor`` procedure from classic multi-level
    synthesis: repeatedly divide by the most common literal, factor the
    quotient and remainder recursively, and fall back to a flat SOP when no
    divisor exists.
    """
    cover = [c for c in cover]
    if not cover:
        return CONST0_FF
    if any(cube == (0, 0) for cube in cover):
        return CONST1_FF
    if len(cover) == 1:
        lits = [literal_node(var, compl) for var, compl in cube_literals(cover[0])]
        return and_node(lits) if lits else CONST1_FF

    divisor_literal = best_literal_divisor(cover)
    if divisor_literal is None:
        # No common literal: express as a flat OR of cube ANDs.
        cubes = []
        for cube in cover:
            lits = [literal_node(var, compl) for var, compl in cube_literals(cube)]
            cubes.append(and_node(lits) if lits else CONST1_FF)
        return or_node(cubes)

    var, compl = divisor_literal
    div_cube: Cube = ((1 << var), 0) if not compl else (0, (1 << var))
    quotient, remainder = cover_divide(cover, [div_cube])
    if not quotient:
        cubes = []
        for cube in cover:
            lits = [literal_node(v, c) for v, c in cube_literals(cube)]
            cubes.append(and_node(lits) if lits else CONST1_FF)
        return or_node(cubes)
    factored_quotient = quick_factor(quotient)
    product = and_node([literal_node(var, compl), factored_quotient])
    if not remainder:
        return product
    factored_remainder = quick_factor(remainder)
    return or_node([product, factored_remainder])


@lru_cache(maxsize=4096)
def factor_truth_table(table: int, num_vars: int) -> FactoredNode:
    """Factored form of a completely specified function.

    Chooses the cheaper of factoring the on-set or the complemented
    function (off-set), matching how refactoring decides output phase.
    Memoised: the passes factor the same few cone functions over and
    over, and the frozen result is safe to share.
    """
    mask = truth.table_mask(num_vars)
    table &= mask
    if table == 0:
        return CONST0_FF
    if table == mask:
        return CONST1_FF
    on_cover = truth.isop(table, table, num_vars)
    off_table = truth.tt_not(table, num_vars)
    off_cover = truth.isop(off_table, off_table, num_vars)
    ff_on = quick_factor(on_cover)
    ff_off = quick_factor(off_cover)
    if ff_off.literal_count() + 1 < ff_on.literal_count():
        return FactoredNode(kind="not", children=(ff_off,))
    return ff_on


# ----------------------------------------------------------------------
# Instantiation into an AIG
# ----------------------------------------------------------------------
def build_factored_form(
    aig: AIG,
    node: FactoredNode,
    leaf_literals: Sequence[Literal],
    arrival: Optional[Dict[Literal, int]] = None,
) -> Literal:
    """Instantiate a factored form into ``aig`` over the given leaf literals.

    ``leaf_literals[i]`` provides the AIG literal implementing variable ``i``
    of the factored form.  When ``arrival`` maps literals to arrival times,
    the multi-input AND/OR gates are built as delay-aware (Huffman-style)
    trees; otherwise balanced trees are used.
    """
    if node.kind == "lit":
        literal = leaf_literals[node.var]
        return lit_not(literal) if node.complemented else literal
    if node.kind == "not":
        inner = build_factored_form(aig, node.children[0], leaf_literals, arrival)
        return lit_not(inner)
    child_lits = [
        build_factored_form(aig, child, leaf_literals, arrival) for child in node.children
    ]
    if node.kind == "and":
        if not child_lits:
            return 1  # constant true
        return _build_tree(aig, child_lits, arrival, is_and=True)
    if node.kind == "or":
        if not child_lits:
            return 0  # constant false
        return _build_tree(aig, child_lits, arrival, is_and=False)
    raise ValueError(f"unknown factored node kind {node.kind!r}")


def _build_tree(
    aig: AIG,
    literals: List[Literal],
    arrival: Optional[Dict[Literal, int]],
    is_and: bool,
) -> Literal:
    """Build a multi-input AND/OR as a tree, optionally delay-aware."""
    items = list(literals)
    if arrival is None:
        while len(items) > 1:
            nxt = []
            for i in range(0, len(items) - 1, 2):
                nxt.append(_gate(aig, items[i], items[i + 1], is_and))
            if len(items) % 2:
                nxt.append(items[-1])
            items = nxt
        return items[0]
    # Huffman-style: repeatedly combine the two earliest-arriving operands.
    def time(literal: Literal) -> int:
        return arrival.get(literal & ~1, 0)

    pending = sorted(items, key=time)
    while len(pending) > 1:
        a = pending.pop(0)
        b = pending.pop(0)
        combined = _gate(aig, a, b, is_and)
        arrival[combined & ~1] = max(time(a), time(b)) + 1
        # Insert keeping the list sorted by arrival.
        idx = 0
        while idx < len(pending) and time(pending[idx]) <= time(combined):
            idx += 1
        pending.insert(idx, combined)
    return pending[0]


def _gate(aig: AIG, a: Literal, b: Literal, is_and: bool) -> Literal:
    return aig.add_and(a, b) if is_and else aig.add_or(a, b)


def factored_form_table(node: FactoredNode, num_vars: int) -> int:
    """Truth table of a factored form (used by correctness tests)."""
    if node.kind == "lit":
        table = truth.var_table(node.var, num_vars)
        return truth.tt_not(table, num_vars) if node.complemented else table
    if node.kind == "not":
        return truth.tt_not(factored_form_table(node.children[0], num_vars), num_vars)
    if node.kind == "and":
        result = truth.table_mask(num_vars)
        for child in node.children:
            result &= factored_form_table(child, num_vars)
        return result
    if node.kind == "or":
        result = 0
        for child in node.children:
            result |= factored_form_table(child, num_vars)
        return result
    raise ValueError(f"unknown factored node kind {node.kind!r}")
