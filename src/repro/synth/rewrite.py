"""Cut-based AIG rewriting (ABC ``rewrite`` / ``rewrite -z`` analogue).

For every AND node we enumerate 4-feasible cuts, compute each cut's
function as a truth table and ISOP-factor it (the cheaper of the on-set
and off-set cover, memoised per table).  The cut with the largest gain —
MFFC size minus the factored form's two-input gate count — is applied
when the gain is positive (``rewrite``) or non-negative (the
zero-cost-replacement variant ``rewrite -z``).  Ties go to the earlier
cut in priority order.

**Gain bound.**  Most cuts cannot win, and for them the truth table and
the factoring are skipped.  A cut's MFFC is computed first; its gain is
at most ``MFFC − lb``, where ``lb`` is a lower bound on the cost of any
replacement: 0 when the cut function may be a constant or a leaf
literal, 1 otherwise (a function of two or more leaves needs an AND).
The function cannot be a constant or a literal when the root's 64-bit
random-simulation signature is neither all-zeros, all-ones, nor equal to
a leaf's signature or its complement.  A cut is skipped when
``MFFC − lb`` cannot exceed the running best gain, floored at the gain
the pass needs to accept anything (above 0 for ``rewrite``, above −1 for
``rewrite -z``).  The bound is exact: a skipped cut's gain is at most
that floor, so it can never be the first cut to reach an accepted
maximum.  The chosen cuts, and so the output graph, are the same as
without it.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.aig import truth
from repro.aig.cuts import Cut, cone_table, cut_cone_vars, enumerate_cuts
from repro.aig.graph import AIG
from repro.synth import sop
from repro.synth.rewrite_framework import (
    Replacement,
    cone_mffc,
    factored_builder,
    gain_may_exceed,
    literal_twins,
    rebuild_with_replacements,
)


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
    is_and, fanin0, fanin1 = aig.node_arrays()
    fanouts = aig.fanout_array()
    twins = literal_twins(aig)
    var_tables = [truth.var_tables(n) for n in range(cut_size + 1)]
    # A node's best cut must gain more than ``floor`` to be applied.
    floor = -1 if zero_cost else 0
    replacements: Dict[int, Replacement] = {}
    # Nodes already claimed as interior of an accepted replacement cone; we
    # avoid planning overlapping replacements in a single pass, which keeps
    # gain estimates trustworthy.
    claimed: set = set()

    for var in range(1, len(is_and)):
        if not is_and[var] or var in claimed:
            continue
        root_twins = twins[var]
        bar = floor
        best: Optional[Tuple[Cut, sop.FactoredNode]] = None
        for cut in cuts[var]:
            leaves = cut.leaves
            num_vars = len(leaves)
            if num_vars < 2:
                continue
            mffc = cone_mffc(var, leaves, is_and, fanin0, fanin1, fanouts)
            if not gain_may_exceed(bar, mffc, leaves, root_twins):
                continue
            table = cone_table(var, leaves, is_and, fanin0, fanin1, var_tables[num_vars])
            ff, new_cost = sop.factor_with_cost(table, num_vars)
            if mffc - new_cost > bar:
                bar = mffc - new_cost
                best = (cut, ff)
        if best is None:
            continue
        cut, ff = best
        replacements[var] = Replacement(cut=cut, builder=factored_builder(ff), gain=bar)
        claimed.update(cut_cone_vars(aig, var, cut))

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
