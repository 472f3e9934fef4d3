"""k-feasible cut enumeration over AIGs.

Cuts are the workhorse of both the technology mapper (``if -K 6``
equivalent) and the rewriting/refactoring passes.  A *cut* of a node is a
set of variables (leaves) such that every path from a PI to the node
passes through a leaf.  We use the classic bottom-up priority-cut
enumeration: the cut set of an AND node is the pairwise merge of the cut
sets of its fanins, pruned to cuts of at most ``k`` leaves and limited to
the ``max_cuts`` best cuts per node.

The enumeration represents a cut's leaf set as an integer bitmask, so the
inner loop runs on machine-word operations: merging two cuts is ``|``,
k-feasibility is ``popcount <= k`` and domination is ``a & b == a``.  A
64-bit OR-folded signature gives a constant-size domination pre-filter on
graphs wider than one word.  Leaf tuples are materialised only for the
few cuts that survive pruning, which is what makes this pass fast — the
enumeration is bit-identical to the reference implementation preserved in
:mod:`repro.aig._reference`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.aig.graph import AIG
from repro.aig import truth


_WORD_MASK = (1 << 64) - 1


def leaves_to_mask(leaves: Sequence[int]) -> int:
    """Bitmask with one bit set per leaf variable."""
    mask = 0
    for leaf in leaves:
        mask |= 1 << leaf
    return mask


def mask_to_leaves(mask: int) -> Tuple[int, ...]:
    """Sorted tuple of the variable indices set in ``mask``."""
    leaves = []
    while mask:
        low = mask & -mask
        leaves.append(low.bit_length() - 1)
        mask ^= low
    return tuple(leaves)


def mask_signature(mask: int) -> int:
    """OR-fold of a mask into one 64-bit word.

    Subset-preserving: ``a ⊆ b`` implies ``sig(a) & ~sig(b) == 0``, so a
    failed signature test proves non-domination without touching the full
    (potentially multi-word) masks.
    """
    sig = mask & _WORD_MASK
    mask >>= 64
    while mask:
        sig |= mask & _WORD_MASK
        mask >>= 64
    return sig


@dataclass(frozen=True)
class Cut:
    """A cut: an ordered tuple of leaf variable indices."""

    leaves: Tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.leaves)

    @property
    def mask(self) -> int:
        """Leaf set as an integer bitmask."""
        return leaves_to_mask(self.leaves)

    def dominates(self, other: "Cut") -> bool:
        """True when this cut's leaves are a subset of the other's."""
        mask = self.mask
        return mask & other.mask == mask

    def merge(self, other: "Cut", k: int) -> Optional["Cut"]:
        """Union of two cuts, or ``None`` when it exceeds ``k`` leaves."""
        union = self.mask | other.mask
        if union.bit_count() > k:
            return None
        return Cut(mask_to_leaves(union))


def enumerate_cuts(
    aig: AIG,
    k: int = 6,
    max_cuts: int = 8,
    include_trivial: bool = True,
    depths: Optional[Sequence[int]] = None,
) -> Dict[int, List[Cut]]:
    """Enumerate up to ``max_cuts`` k-feasible cuts for every variable.

    Parameters
    ----------
    aig:
        Graph to process.
    k:
        Maximum number of leaves per cut.
    max_cuts:
        Priority-cut limit per node (keeps enumeration polynomial).
    include_trivial:
        Whether the trivial cut ``{node}`` is included in each node's list
        (required for mapping; rewriting usually skips it).
    depths:
        Optional per-variable arrival times.  When given, cuts are
        prioritised by the depth they would give the node (then by size),
        which is what a delay-oriented mapper needs; without it cuts are
        prioritised by size (what the rewriting passes want).

    Returns
    -------
    Mapping from variable index to its list of cuts; the trivial cut, when
    present, is always first.
    """
    is_and, fanin0, fanin1 = aig.node_arrays()
    num_vars = aig.num_vars
    depth_mode = depths is not None
    # Signature pre-filtering only pays off once masks span many machine
    # words; below that, CPython's small-big-int ``&`` is cheaper than the
    # extra fold-and-test.
    wide = num_vars > 512

    cuts: Dict[int, List[Cut]] = {0: [Cut((0,))]}
    # One shared Cut per distinct leaf set: neighbouring nodes keep many
    # of the same cuts, so most leaf tuples would otherwise be rebuilt.
    cut_of: Dict[int, Cut] = {}
    for var in aig.pis:
        cuts[var] = [Cut((var,))]

    # ``base_masks`` always contains the trivial cut of every node so that
    # deep nodes keep at least their structural cut available for merging;
    # ``include_trivial`` only controls whether the trivial cut is returned.
    # ``base_depths`` carries max-leaf-depth per cut (union of leaf sets
    # means the merged value is just the max of the two operands').
    base_masks: List[Optional[List[int]]] = [None] * num_vars
    base_depths: List[Optional[List[int]]] = [None] * num_vars
    base_masks[0] = [1]
    if depth_mode:
        base_depths[0] = [depths[0]]
    for var in aig.pis:
        base_masks[var] = [1 << var]
        if depth_mode:
            base_depths[var] = [depths[var]]

    for var in range(1, num_vars):
        if not is_and[var]:
            continue
        v0 = fanin0[var] >> 1
        v1 = fanin1[var] >> 1
        masks0 = base_masks[v0]
        if masks0 is None:  # pragma: no cover - defensive, mirrors reference
            masks0 = [1 << v0]
        masks1 = base_masks[v1]
        if masks1 is None:  # pragma: no cover - defensive, mirrors reference
            masks1 = [1 << v1]

        # Pairwise merge with duplicate elimination; popcount (computed for
        # the feasibility check anyway) is carried along for the pruning
        # and priority steps below.  Without ``depths`` every depth is 0.
        seen = set()
        merged: List[Tuple[int, int, int]] = []  # (max leaf depth, popcount, mask)
        if depth_mode:
            d0 = base_depths[v0]
            d1 = base_depths[v1]
            for i, m0 in enumerate(masks0):
                di = d0[i]
                for j, m1 in enumerate(masks1):
                    union = m0 | m1
                    count = union.bit_count()
                    if count > k or union in seen:
                        continue
                    seen.add(union)
                    dj = d1[j]
                    merged.append((di if di >= dj else dj, count, union))
        else:
            for m0 in masks0:
                for m1 in masks1:
                    union = m0 | m1
                    count = union.bit_count()
                    if count > k or union in seen:
                        continue
                    seen.add(union)
                    merged.append((0, count, union))

        # Domination filter, scanned in (depth, size) class order.  A cut
        # dominated by another has a strictly larger size and no smaller
        # depth, so its dominators are scanned before it, and within one
        # class no cut dominates another (duplicates were removed above).
        # The same order is the priority order up to the tie-break on
        # leaves, so once the classes scanned hold ``max_cuts`` survivors
        # no later cut can make the budget and the scan stops.  On wide
        # graphs (past the signature threshold above) the OR-folded
        # signature rejects most non-subset pairs before the full
        # multi-word mask compare.
        merged.sort()
        kept: List[Tuple[int, int, int]] = []
        kept_masks: List[int] = []
        kept_sigs: List[int] = []
        scanned_class = None
        for entry in merged:
            if entry[:2] != scanned_class:
                if 0 < max_cuts <= len(kept):
                    break
                scanned_class = entry[:2]
            mask = entry[2]
            if wide:
                sig = mask_signature(mask)
                for km, ks in zip(kept_masks, kept_sigs):
                    if ks & ~sig == 0 and km & mask == km:
                        break
                else:
                    kept.append(entry)
                    kept_masks.append(mask)
                    kept_sigs.append(sig)
            else:
                for km in kept_masks:
                    if km & mask == km:
                        break
                else:
                    kept.append(entry)
                    kept_masks.append(mask)

        # Materialise leaves for the survivors only, sort by priority and
        # truncate to the per-node budget.
        entries = []
        for depth, count, mask in kept:
            cut = cut_of.get(mask)
            if cut is None:
                cut = cut_of[mask] = Cut(mask_to_leaves(mask))
            entries.append(((1 + depth, count, cut.leaves), mask, depth, cut))
        # Priority keys are unique (they embed the leaf tuple), so a plain
        # tuple sort never falls through to the trailing elements.
        entries.sort()
        del entries[max_cuts:]

        base_masks[var] = [1 << var] + [entry[1] for entry in entries]
        if depth_mode:
            base_depths[var] = [depths[var]] + [entry[2] for entry in entries]
        node_cuts = [Cut((var,))] if include_trivial else []
        node_cuts.extend(entry[3] for entry in entries)
        cuts[var] = node_cuts
    return cuts


def cut_cone_vars(aig: AIG, root: int, cut: Cut) -> List[int]:
    """Variables strictly inside the cone between ``root`` and the cut leaves.

    Returned in topological order (leaves excluded, root included).
    """
    is_and, fanin0, fanin1 = aig.node_arrays()
    leaves = set(cut.leaves)
    visited = set()
    order: List[int] = []
    # Iterative DFS post-order; (var, True) marks a fully-expanded node.
    stack: List[Tuple[int, bool]] = [(root, False)]
    while stack:
        var, expanded = stack.pop()
        if expanded:
            order.append(var)
            continue
        if var in visited or var in leaves:
            continue
        visited.add(var)
        stack.append((var, True))
        if is_and[var]:
            stack.append((fanin1[var] >> 1, False))
            stack.append((fanin0[var] >> 1, False))
    return order


def cut_truth_table(aig: AIG, root: int, cut: Cut) -> int:
    """Truth table of ``root`` expressed over the cut leaves.

    Leaf ``i`` of the cut corresponds to truth-table variable ``i``.  The
    result has ``2 ** cut.size`` bits.
    """
    is_and, fanin0, fanin1 = aig.node_arrays()
    return cone_table(root, cut.leaves, is_and, fanin0, fanin1,
                      truth.var_tables(cut.size))


def cone_table(
    root: int,
    leaves: Tuple[int, ...],
    is_and: Sequence[int],
    fanin0: Sequence[int],
    fanin1: Sequence[int],
    var_tables: Tuple[int, ...],
) -> int:
    """:func:`cut_truth_table` on the graph's flat arrays.

    ``var_tables`` is :func:`repro.aig.truth.var_tables` of
    ``len(leaves)``; the cut passes look it up once per cut size instead
    of once per cut.  The cone is evaluated in one depth-first walk: a
    node's table is computed as soon as both fanin tables are known.
    """
    full = (1 << (1 << len(leaves))) - 1
    tables: Dict[int, int] = {0: 0}  # constant node
    tables.update(zip(leaves, var_tables))
    stack = [root]
    while stack:
        var = stack[-1]
        if var in tables:
            stack.pop()
            continue
        if not is_and[var]:
            # A PI inside the cone that is not a leaf cannot happen for a
            # valid cut; guard defensively.
            raise ValueError(f"cut {leaves} does not cover node {root}")
        f0 = fanin0[var]
        f1 = fanin1[var]
        t0 = tables.get(f0 >> 1)
        t1 = tables.get(f1 >> 1)
        if t0 is None or t1 is None:
            if t1 is None:
                stack.append(f1 >> 1)
            if t0 is None:
                stack.append(f0 >> 1)
            continue
        stack.pop()
        tables[var] = (t0 ^ full if f0 & 1 else t0) & (t1 ^ full if f1 & 1 else t1)
    return tables[root]
