"""Shared machinery for cut-based resynthesis passes.

ABC's ``rewrite``, ``refactor``, ``resub`` and the balancing family all
follow the same template: walk the AIG, pick a cut per node, decide whether
re-expressing the node's function over that cut is profitable (in nodes
saved or in depth), and reconstruct the network with the chosen
replacements.  Because :class:`repro.aig.graph.AIG` is append-only, our
passes perform the replacement during a demand-driven rebuild from the
primary outputs: nodes whose cones become unreferenced are simply never
copied into the new graph, which is how the "freed MFFC" gain
materialises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.aig.cuts import Cut, cut_cone_vars
from repro.aig.graph import AIG, Literal, lit_not, lit_var, lit_is_compl


@dataclass
class Replacement:
    """A planned resynthesis of one node.

    Attributes
    ----------
    cut:
        The cut whose leaves the new logic is expressed over.
    builder:
        Callable ``(new_aig, leaf_literals, arrival) -> Literal`` that
        instantiates the replacement logic in the new graph and returns the
        literal implementing the (non-complemented) function of the node.
    gain:
        Estimated node-count gain (old MFFC size minus estimated new size).
        Only used for reporting.
    """

    cut: Cut
    builder: Callable[[AIG, Sequence[Literal], Dict[Literal, int]], Literal]
    gain: int = 0


def mffc_size(aig: AIG, root: int, cut: Cut, fanout_counts: Sequence[int]) -> int:
    """Size of the maximum fanout-free cone of ``root`` w.r.t. ``cut``.

    Counts the AND nodes in the cone between the cut leaves and the root
    that are referenced *only* from inside that cone (plus the root
    itself); these are exactly the nodes that die if the root is
    re-expressed over the cut leaves.

    A node joins the MFFC when every one of its fanout references comes
    from a node already in the MFFC.  The walk dereferences from the root
    down: each member releases one reference on each fanin, and a fanin
    whose references are all released joins.  It stops at cut leaves and
    non-AND nodes, so it visits only the MFFC and its fanins.
    """
    is_and, fanin0, fanin1 = aig.node_arrays()
    leaves = cut.leaves
    if not is_and[root] or root in leaves:
        return 0
    remaining: Dict[int, int] = {}
    count = 0
    stack = [root]
    while stack:
        var = stack.pop()
        count += 1
        for fv in (fanin0[var] >> 1, fanin1[var] >> 1):
            if not is_and[fv] or fv in leaves:
                continue
            refs = remaining.get(fv, fanout_counts[fv]) - 1
            remaining[fv] = refs
            if refs == 0:
                stack.append(fv)
    return count


def rebuild_with_replacements(
    aig: AIG,
    replacements: Dict[int, Replacement],
) -> AIG:
    """Rebuild the AIG applying the planned per-node replacements.

    The rebuild is demand-driven from the primary outputs, so any logic that
    is no longer referenced after the replacements disappears automatically.
    Structural hashing in the new graph provides incidental sharing between
    replacement cones.
    """
    new = AIG(name=aig.name)
    mapping: Dict[int, Literal] = {0: 0}
    for pi_var in aig.pis:
        mapping[pi_var] = new.add_pi(name=aig.node(pi_var).name)
    arrival: Dict[Literal, int] = {}
    building: set = set()

    def build(var: int) -> Literal:
        if var in mapping:
            return mapping[var]
        node = aig.node(var)
        if not node.is_and:
            raise ValueError(f"unmapped non-AND node {var}")
        replacement = replacements.get(var)
        if replacement is not None and var not in building:
            building.add(var)
            try:
                leaf_lits = [build_lit(2 * leaf) for leaf in replacement.cut.leaves]
                new_lit = replacement.builder(new, leaf_lits, arrival)
            finally:
                building.discard(var)
            mapping[var] = new_lit
            return new_lit
        assert node.fanin0 is not None and node.fanin1 is not None
        a = build_lit(node.fanin0)
        b = build_lit(node.fanin1)
        new_lit = new.add_and(a, b)
        arrival[new_lit & ~1] = 1 + max(arrival.get(a & ~1, 0), arrival.get(b & ~1, 0))
        mapping[var] = new_lit
        return new_lit

    def build_lit(old_lit: Literal) -> Literal:
        base = build(lit_var(old_lit))
        return base ^ (old_lit & 1)

    for po_lit, po_name in zip(aig.pos, aig.po_names):
        new.add_po(build_lit(po_lit), name=po_name)
    return new


def copy_cone_builder(aig: AIG, root: int, cut: Cut) -> Callable:
    """Builder that replays the original cone structure (identity rebuild)."""

    cone = cut_cone_vars(aig, root, cut)

    def builder(new: AIG, leaf_literals: Sequence[Literal], arrival: Dict[Literal, int]) -> Literal:
        local: Dict[int, Literal] = {leaf: leaf_literals[i] for i, leaf in enumerate(cut.leaves)}
        local[0] = 0
        for var in cone:
            node = aig.node(var)
            if not node.is_and:
                continue
            assert node.fanin0 is not None and node.fanin1 is not None
            a = local[lit_var(node.fanin0)] ^ (node.fanin0 & 1)
            b = local[lit_var(node.fanin1)] ^ (node.fanin1 & 1)
            local[var] = new.add_and(a, b)
        return local[root]

    return builder
