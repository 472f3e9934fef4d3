"""Delay-oriented restructuring passes: ``sopb``, ``blut`` and ``dsdb``.

In ABC these commands re-derive the network from a K-LUT mapping-like cut
cover and re-express each selected cone in a delay-friendly form:

* ``sopb`` — SOP balancing: each cone is collapsed to an ISOP cover and
  rebuilt as a delay-aware AND-OR tree (late-arriving leaves placed close
  to the cone output).
* ``blut`` — LUT balancing: cones are chosen under a 6-leaf bound (the
  mapper's K) and rebuilt from a factored form with delay-aware tree
  construction.
* ``dsdb`` — DSD balancing: cones are first decomposed by disjoint-support
  decomposition; each block is rebuilt separately, which preserves
  structure helpful to the downstream mapper.

All three share the cone-selection machinery and differ in the rebuild
strategy, mirroring how the original commands share ``if``-mapping
infrastructure.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.aig import truth
from repro.aig.cuts import Cut, cone_table, enumerate_cuts
from repro.aig.graph import AIG
from repro.synth import sop
from repro.synth.rewrite_framework import Replacement, factored_builder, rebuild_with_replacements


# ----------------------------------------------------------------------
# Shared: delay-aware cone rebuild pass
# ----------------------------------------------------------------------
def _delay_restructure(
    aig: AIG,
    cut_size: int,
    rebuild: Callable[[int, int], Optional[sop.FactoredNode]],
    max_cuts: int = 6,
) -> AIG:
    """Rebuild timing-critical cones using ``rebuild(table, num_vars)``.

    Only nodes on (or near) the critical path are touched: restructuring
    off-critical logic would add area for no delay benefit, which matches
    the behaviour of the delay-oriented ABC passes.
    """
    if aig.num_ands == 0:
        return aig.copy()
    levels = aig.levels_array()
    depth = aig.depth()
    if depth == 0:
        return aig.copy()
    cuts = enumerate_cuts(aig, k=cut_size, max_cuts=max_cuts, include_trivial=False)
    is_and, fanin0, fanin1 = aig.node_arrays()
    var_tables = [truth.var_tables(n) for n in range(cut_size + 1)]
    replacements: Dict[int, Replacement] = {}
    # Criticality threshold: nodes within one level of the critical depth
    # through any PO path.  We approximate with required times.
    required = _required_times(aig, depth)

    # Choose the cut with minimum leaf arrival spread (best balancing
    # potential) preferring larger cuts.
    def cut_score(cut: Cut) -> Tuple[int, int]:
        leaf_levels = [levels[leaf] for leaf in cut.leaves]
        return (-(max(leaf_levels) - min(leaf_levels)), len(cut.leaves))

    for var in range(1, len(is_and)):
        if not is_and[var] or required[var] > levels[var]:
            continue
        node_cuts = [c for c in cuts[var] if len(c.leaves) >= 2]
        if not node_cuts:
            continue
        cut = max(node_cuts, key=cut_score)
        leaves = cut.leaves
        table = cone_table(var, leaves, is_and, fanin0, fanin1, var_tables[len(leaves)])
        ff = rebuild(table, len(leaves))
        if ff is None:
            continue
        replacements[var] = Replacement(cut=cut, builder=factored_builder(ff, delay_aware=True))

    if not replacements:
        return aig.copy()
    result = rebuild_with_replacements(aig, replacements)
    # These passes target depth; reject results that made depth worse.
    if result.depth() > aig.depth():
        return aig.copy()
    return result


def _required_times(aig: AIG, depth: int) -> List[int]:
    """Latest allowed level per node assuming all POs are required at ``depth``."""
    required = [depth] * aig.num_vars
    is_and, fanin0, fanin1 = aig.node_arrays()
    for var in range(aig.num_vars - 1, 0, -1):
        if not is_and[var]:
            continue
        limit = required[var] - 1
        for fv in (fanin0[var] >> 1, fanin1[var] >> 1):
            if limit < required[fv]:
                required[fv] = limit
    return required


# ----------------------------------------------------------------------
# sopb: SOP balance
# ----------------------------------------------------------------------
def sopb(aig: AIG, cut_size: int = 8, max_cuts: int = 6) -> AIG:
    """SOP balancing of timing-critical cones."""

    def rebuild(table: int, num_vars: int) -> Optional[sop.FactoredNode]:
        cover = truth.isop(table, table, num_vars)
        if not cover:
            return sop.CONST0_FF
        cubes = []
        for cube in cover:
            lits = [sop.literal_node(v, c) for v, c in sop.cube_literals(cube)]
            cubes.append(sop.and_node(lits) if lits else sop.CONST1_FF)
        return sop.or_node(cubes)

    return _delay_restructure(aig, cut_size=cut_size, rebuild=rebuild, max_cuts=max_cuts)


# ----------------------------------------------------------------------
# blut: LUT balance
# ----------------------------------------------------------------------
def blut(aig: AIG, cut_size: int = 6, max_cuts: int = 6) -> AIG:
    """LUT balancing: factored-form rebuild under the mapper's K=6 bound."""

    def rebuild(table: int, num_vars: int) -> Optional[sop.FactoredNode]:
        return sop.factor_truth_table(table, num_vars)

    return _delay_restructure(aig, cut_size=cut_size, rebuild=rebuild, max_cuts=max_cuts)


# ----------------------------------------------------------------------
# dsdb: DSD balance
# ----------------------------------------------------------------------
def dsdb(aig: AIG, cut_size: int = 8, max_cuts: int = 6) -> AIG:
    """DSD balancing: disjoint-support decomposition guided rebuild."""

    def rebuild(table: int, num_vars: int) -> Optional[sop.FactoredNode]:
        return _dsd_decompose(table, num_vars, list(range(num_vars)))

    return _delay_restructure(aig, cut_size=cut_size, rebuild=rebuild, max_cuts=max_cuts)


def _dsd_decompose(table: int, num_vars: int, variables: List[int]) -> sop.FactoredNode:
    """Top-down disjoint-support decomposition into AND/OR/XOR-free blocks.

    Recursively peels variables that appear in a simple decomposition
    ``f = x op g`` or ``f = ~x op g`` (op in {AND, OR}); whatever cannot be
    decomposed further falls back to quick factoring.  This captures the
    useful part of DSD for balancing purposes — splitting the function into
    independent blocks that the tree builder can schedule by arrival time.
    """
    mask = truth.table_mask(num_vars)
    table &= mask
    if table == 0:
        return sop.CONST0_FF
    if table == mask:
        return sop.CONST1_FF
    supp = truth.support(table, num_vars)
    if len(supp) == 1:
        v = supp[0]
        cof1 = truth.cofactor(table, num_vars, v, 1)
        complemented = cof1 == 0
        return sop.literal_node(variables[v], complemented)

    for v in supp:
        cof0 = truth.cofactor(table, num_vars, v, 0)
        cof1 = truth.cofactor(table, num_vars, v, 1)
        # f = x & g  when cof0 == 0;   f = ~x & g when cof1 == 0
        if cof0 == 0:
            rest = _dsd_decompose(cof1, num_vars, variables)
            return sop.and_node([sop.literal_node(variables[v], False), rest])
        if cof1 == 0:
            rest = _dsd_decompose(cof0, num_vars, variables)
            return sop.and_node([sop.literal_node(variables[v], True), rest])
        # f = x | g  when cof1 == all-ones;   f = ~x | g when cof0 == all-ones
        if cof1 == mask:
            rest = _dsd_decompose(cof0, num_vars, variables)
            return sop.or_node([sop.literal_node(variables[v], False), rest])
        if cof0 == mask:
            rest = _dsd_decompose(cof1, num_vars, variables)
            return sop.or_node([sop.literal_node(variables[v], True), rest])
    # No simple disjoint decomposition: fall back to algebraic factoring.
    return sop.factor_truth_table(table, num_vars)
