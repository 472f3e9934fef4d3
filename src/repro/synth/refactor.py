"""Large-cut refactoring (ABC ``refactor`` / ``refactor -z`` analogue).

Refactoring collapses a large cone (up to ``cut_size`` leaves, 10 by
default as in ABC) into a truth table / SOP cover, re-derives a factored
form algebraically and rebuilds the cone from that form.  Compared to
``rewrite`` it looks at much larger windows, so it can undo structural
decisions that 4-input rewriting cannot see across.
"""

from __future__ import annotations

from typing import Dict

from repro.aig import truth
from repro.aig.cuts import cone_table, cut_cone_vars, enumerate_cuts
from repro.aig.graph import AIG
from repro.synth import sop
from repro.synth.rewrite_framework import (
    Replacement,
    cone_mffc,
    factored_builder,
    gain_may_exceed,
    largest_cut,
    literal_twins,
    rebuild_with_replacements,
)


def refactor(
    aig: AIG,
    zero_cost: bool = False,
    cut_size: int = 10,
    max_cuts: int = 4,
    max_table_vars: int = 12,
) -> AIG:
    """Refactor the AIG by re-deriving factored forms of large cones.

    Each node's largest cut is refactored when the factored form costs
    fewer gates than the cut's MFFC frees (no more, for ``refactor -z``).
    The truth table and the factoring are skipped when the MFFC already
    rules that out, by the exact gain bound of :mod:`repro.synth.rewrite`.

    Parameters
    ----------
    zero_cost:
        ``refactor -z`` behaviour: accept replacements with zero gain.
    cut_size:
        Maximum cut size used for collapsing (ABC uses 10 by default).
    max_table_vars:
        Safety bound on truth-table width.
    """
    if aig.num_ands == 0:
        return aig.copy()
    cut_size = min(cut_size, max_table_vars)
    cuts = enumerate_cuts(aig, k=cut_size, max_cuts=max_cuts, include_trivial=False)
    is_and, fanin0, fanin1 = aig.node_arrays()
    fanouts = aig.fanout_array()
    twins = literal_twins(aig)
    var_tables = [truth.var_tables(n) for n in range(cut_size + 1)]
    floor = -1 if zero_cost else 0
    replacements: Dict[int, Replacement] = {}
    claimed: set = set()

    # Visit nodes from the outputs downwards so that large cones get
    # priority over their sub-cones.
    for var in range(len(is_and) - 1, 0, -1):
        if not is_and[var] or var in claimed:
            continue
        # Prefer the largest cut: that is the point of refactoring.
        cut = largest_cut(cuts[var])
        if cut is None:
            continue
        leaves = cut.leaves
        mffc = cone_mffc(var, leaves, is_and, fanin0, fanin1, fanouts)
        if not gain_may_exceed(floor, mffc, leaves, twins[var]):
            continue
        table = cone_table(var, leaves, is_and, fanin0, fanin1, var_tables[len(leaves)])
        ff, new_cost = sop.factor_with_cost(table, len(leaves))
        gain = mffc - new_cost
        if gain > floor:
            replacements[var] = Replacement(cut=cut, builder=factored_builder(ff), gain=gain)
            claimed.update(cut_cone_vars(aig, var, cut))

    if not replacements:
        return aig.copy()
    result = rebuild_with_replacements(aig, replacements)
    if result.num_ands > aig.num_ands and not zero_cost:
        return aig.copy()
    return result


def refactor_z(aig: AIG, cut_size: int = 10, max_cuts: int = 4) -> AIG:
    """Zero-cost refactoring (``refactor -z``)."""
    return refactor(aig, zero_cost=True, cut_size=cut_size, max_cuts=max_cuts)
