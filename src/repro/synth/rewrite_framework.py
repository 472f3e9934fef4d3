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
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.aig.cuts import Cut
from repro.aig.graph import AIG, Literal
from repro.aig.simulation import random_signatures
from repro.synth import sop

#: Seed of the 64-pattern simulation behind :func:`literal_twins`.  The
#: gain bound is exact for any patterns; the seed only decides how many
#: cuts it proves unwinnable.
_TWIN_SEED = 0xB01

_ONES = (1 << 64) - 1


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
    """
    is_and, fanin0, fanin1 = aig.node_arrays()
    if not is_and[root] or root in cut.leaves:
        return 0
    return cone_mffc(root, cut.leaves, is_and, fanin0, fanin1, fanout_counts)


def cone_mffc(
    root: int,
    leaves: Tuple[int, ...],
    is_and: Sequence[int],
    fanin0: Sequence[Literal],
    fanin1: Sequence[Literal],
    fanout_counts: Sequence[int],
) -> int:
    """:func:`mffc_size` on the graph's flat arrays, for an AND ``root``
    that is not one of ``leaves``.

    A node joins the MFFC when every one of its fanout references comes
    from a node already in the MFFC.  The walk dereferences from the root
    down: each member releases one reference on each fanin, and a fanin
    whose references are all released joins.  It stops at cut leaves and
    non-AND nodes, so it visits only the MFFC and its fanins.
    """
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


def largest_cut(cuts: Sequence[Cut]) -> Optional[Cut]:
    """The cut with the most leaves (then the largest leaf tuple) among
    ``cuts`` of two or more leaves, or ``None`` when there is none."""
    candidates = [cut for cut in cuts if len(cut.leaves) >= 2]
    if not candidates:
        return None
    return max(candidates, key=lambda cut: (len(cut.leaves), cut.leaves))


def literal_twins(aig: AIG) -> List[Optional[FrozenSet[int]]]:
    """Per variable, the variables whose literal a cut function of it may be.

    From one seeded 64-pattern simulation: ``None`` when the variable's
    signature is all-zeros or all-ones (its cut functions may be
    constants); otherwise the variables whose signature equals the
    variable's or its complement (itself included, which no cut of it
    contains).  A cut function equal to a leaf literal has that leaf
    among them.
    """
    sigs = random_signatures(aig, num_words=1, rng=np.random.default_rng(_TWIN_SEED))
    groups: Dict[int, List[int]] = {}
    for var, sig in enumerate(sigs):
        groups.setdefault(sig, []).append(var)
    no_twins: FrozenSet[int] = frozenset()
    twins: List[Optional[FrozenSet[int]]] = []
    for sig in sigs:
        if sig == 0 or sig == _ONES:
            twins.append(None)
            continue
        same = groups[sig]
        opposite = groups.get(sig ^ _ONES)
        if len(same) == 1 and opposite is None:
            twins.append(no_twins)
        else:
            twins.append(frozenset(same + opposite) if opposite else frozenset(same))
    return twins


def gain_may_exceed(
    bar: int, mffc: int, leaves: Tuple[int, ...], twins: Optional[FrozenSet[int]]
) -> bool:
    """False when no replacement of the cut can gain more than ``bar``.

    A replacement's gain is the cut's MFFC size minus the gates it adds.
    It is at most ``mffc``, and at most ``mffc - 1`` unless the cut
    function may be a constant or a leaf literal (``twins`` of the root,
    from :func:`literal_twins`): any other function of the leaves needs
    at least one AND.
    """
    if mffc <= bar:
        return False
    if mffc - 1 > bar:
        return True
    return twins is None or not twins.isdisjoint(leaves)


def factored_builder(ff: sop.FactoredNode, delay_aware: bool = False):
    """Builder instantiating ``ff`` over the cut leaves.

    With ``delay_aware`` the multi-input gates become arrival-ordered
    trees over the rebuild's ``arrival`` map; otherwise balanced trees.
    """

    def builder(new: AIG, leaf_literals: Sequence[Literal], arrival) -> Literal:
        return sop.build_factored_form(
            new, ff, leaf_literals, arrival=arrival if delay_aware else None
        )

    return builder


def rebuild_with_replacements(
    aig: AIG,
    replacements: Dict[int, Replacement],
) -> AIG:
    """Rebuild the AIG applying the planned per-node replacements.

    The rebuild is demand-driven from the primary outputs, so any logic that
    is no longer referenced after the replacements disappears automatically.
    Structural hashing in the new graph provides incidental sharing between
    replacement cones.

    The walk is an iterative depth-first post-order over the flat arrays:
    a node is built once its operands are — its two fanins in order, or
    the leaves of its replacement cut in order — which creates the new
    graph's nodes in the same order as a recursive build would.
    """
    is_and, fanin0, fanin1 = aig.node_arrays()
    new = AIG(name=aig.name)
    mapping: List[Optional[Literal]] = [None] * aig.num_vars
    mapping[0] = 0
    for pi_var in aig.pis:
        mapping[pi_var] = new.add_pi(name=aig.node(pi_var).name)
    arrival: Dict[Literal, int] = {}

    for po_lit, po_name in zip(aig.pos, aig.po_names):
        stack = [po_lit >> 1]
        while stack:
            var = stack[-1]
            if mapping[var] is not None:
                stack.pop()
                continue
            replacement = replacements.get(var)
            if replacement is not None:
                leaves = replacement.cut.leaves
                pending = [leaf for leaf in reversed(leaves) if mapping[leaf] is None]
                if pending:
                    stack.extend(pending)
                    continue
                stack.pop()
                mapping[var] = replacement.builder(
                    new, [mapping[leaf] for leaf in leaves], arrival
                )
                continue
            f0 = fanin0[var]
            f1 = fanin1[var]
            a = mapping[f0 >> 1]
            b = mapping[f1 >> 1]
            if a is None or b is None:
                if b is None:
                    stack.append(f1 >> 1)
                if a is None:
                    stack.append(f0 >> 1)
                continue
            stack.pop()
            a ^= f0 & 1
            b ^= f1 & 1
            new_lit = new.add_and(a, b)
            arrival[new_lit & ~1] = 1 + max(arrival.get(a & ~1, 0), arrival.get(b & ~1, 0))
            mapping[var] = new_lit
        new.add_po(mapping[po_lit >> 1] ^ (po_lit & 1), name=po_name)
    return new
