"""Cut-based AIG rewriting (ABC ``rewrite`` / ``rewrite -z`` analogue).

For every AND node we enumerate 4-feasible cuts, compute the cut function,
and synthesise a minimal replacement structure for its NPN class using a
memoised exhaustive/ISOP-based synthesiser.  A replacement is accepted when
the number of nodes it adds is smaller than the node's maximum fanout-free
cone (strictly smaller for ``rewrite``, allowing equality for the
zero-cost-replacement variant ``rewrite -z``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.aig import truth
from repro.aig.cuts import Cut, cut_cone_vars, cut_truth_table, enumerate_cuts
from repro.aig.graph import AIG, Literal, lit_not
from repro.synth import sop
from repro.synth.rewrite_framework import Replacement, mffc_size, rebuild_with_replacements


# ----------------------------------------------------------------------
# Small-function resynthesis library
# ----------------------------------------------------------------------
@lru_cache(maxsize=4096)
def _optimal_structure(table: int, num_vars: int) -> Tuple[sop.FactoredNode, int]:
    """Best known factored-form implementation of a small function.

    Uses ISOP-based quick factoring on both phases; the returned cost is
    an upper bound on the number of AND nodes needed (literal count minus
    one per gate level is a loose bound, so we cost by actually counting
    two-input gates required by the tree).
    """
    ff = sop.factor_truth_table(table, num_vars)
    return ff, _ff_and_count(ff)


def _ff_and_count(node: sop.FactoredNode) -> int:
    """Number of two-input AND gates needed to realise a factored form."""
    if node.kind == "lit":
        return 0
    child_cost = sum(_ff_and_count(child) for child in node.children)
    if node.kind == "not":
        return child_cost
    arity = len(node.children)
    return child_cost + max(0, arity - 1)


def _make_builder(table: int, num_vars: int):
    """Builder closure instantiating the optimal structure for ``table``."""
    ff, _ = _optimal_structure(table, num_vars)

    def builder(new: AIG, leaf_literals: Sequence[Literal], arrival) -> Literal:
        return sop.build_factored_form(new, ff, leaf_literals)

    return builder


# ----------------------------------------------------------------------
# The pass
# ----------------------------------------------------------------------
def rewrite(aig: AIG, zero_cost: bool = False, cut_size: int = 4, max_cuts: int = 8) -> AIG:
    """Rewrite the AIG using precomputed small-function structures.

    Parameters
    ----------
    zero_cost:
        When ``True`` (the ``rewrite -z`` behaviour) replacements with zero
        estimated gain are also applied; these do not reduce node count by
        themselves but perturb the structure so that later passes find new
        opportunities.
    cut_size:
        Number of cut leaves considered (4, as in ABC's rewriting).
    """
    if aig.num_ands == 0:
        return aig.copy()
    cuts = enumerate_cuts(aig, k=cut_size, max_cuts=max_cuts, include_trivial=False)
    fanouts = aig.fanout_array()
    replacements: Dict[int, Replacement] = {}
    # Nodes already claimed as interior of an accepted replacement cone; we
    # avoid planning overlapping replacements in a single pass, which keeps
    # gain estimates trustworthy.
    claimed: set = set()

    for node in aig.nodes():
        if not node.is_and or node.var in claimed:
            continue
        best: Optional[Tuple[int, Cut, int]] = None  # (gain, cut, table)
        for cut in cuts.get(node.var, []):
            if cut.size < 2 or cut.size > cut_size:
                continue
            table = cut_truth_table(aig, node.var, cut)
            num_vars = cut.size
            mask = truth.table_mask(num_vars)
            if table == 0 or table == mask:
                # Constant cone: replacing it is always maximal gain.
                gain = mffc_size(aig, node.var, cut, fanouts)
                candidate = (gain, cut, table)
                if best is None or candidate[0] > best[0]:
                    best = candidate
                continue
            _, new_cost = _optimal_structure(table, num_vars)
            old_cost = mffc_size(aig, node.var, cut, fanouts)
            gain = old_cost - new_cost
            if best is None or gain > best[0]:
                best = (gain, cut, table)
        if best is None:
            continue
        gain, cut, table = best
        if gain > 0 or (zero_cost and gain == 0):
            mask = truth.table_mask(cut.size)
            if table == 0:
                replacements[node.var] = Replacement(
                    cut=cut, builder=lambda new, leaves, arrival: 0, gain=gain
                )
            elif table == mask:
                replacements[node.var] = Replacement(
                    cut=cut, builder=lambda new, leaves, arrival: 1, gain=gain
                )
            else:
                replacements[node.var] = Replacement(
                    cut=cut, builder=_make_builder(table, cut.size), gain=gain
                )
            for interior in cut_cone_vars(aig, node.var, cut):
                claimed.add(interior)

    if not replacements:
        return aig.copy()
    result = rebuild_with_replacements(aig, replacements)
    # Rewriting must never increase size; fall back to the original if the
    # estimate was off (can happen because sharing estimates are local).
    if result.num_ands > aig.num_ands and not zero_cost:
        return aig.copy()
    return result


def rewrite_z(aig: AIG, cut_size: int = 4, max_cuts: int = 8) -> AIG:
    """Zero-cost-replacement rewriting (``rewrite -z``)."""
    return rewrite(aig, zero_cost=True, cut_size=cut_size, max_cuts=max_cuts)
