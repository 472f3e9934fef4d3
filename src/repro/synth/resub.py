"""Simulation-guided resubstitution (ABC ``resub`` / ``resub -z`` analogue).

Resubstitution re-expresses a node's function in terms of *divisors*:
other nodes already present in the network.  We implement the classic 0-
and 1-resubstitution checks guided by bit-parallel simulation signatures
and verified exactly on cut truth tables:

* **0-resub** — the node is functionally identical (up to complement) to
  an existing divisor; replace it and free its MFFC.
* **1-resub** — the node equals ``d1 AND d2``, ``d1 OR d2`` (up to input /
  output complementation) for two divisors; replace the cone by a single
  new gate.

``resub -z`` additionally accepts replacements with zero net gain.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.aig import truth
from repro.aig.cuts import Cut, cut_cone_vars, cut_truth_table, enumerate_cuts
from repro.aig.graph import AIG, Literal, lit_not, lit_var
from repro.aig.simulation import random_simulation
from repro.synth.rewrite_framework import Replacement, mffc_size, rebuild_with_replacements


def resub(
    aig: AIG,
    zero_cost: bool = False,
    cut_size: int = 8,
    max_cuts: int = 4,
    max_divisors: int = 24,
    num_sim_words: int = 4,
    rng: Optional[np.random.Generator] = None,
) -> AIG:
    """Resubstitute nodes using divisors from their surrounding window.

    Parameters
    ----------
    zero_cost:
        ``resub -z`` behaviour (accept zero-gain moves).
    cut_size:
        Window cut size; divisors are nodes whose support lies inside the
        window (ABC default is 8 leaves).
    max_divisors:
        Cap on the number of divisors tried per node.
    """
    if aig.num_ands == 0:
        return aig.copy()
    rng = rng if rng is not None else np.random.default_rng(17)
    signatures = random_simulation(aig, num_words=num_sim_words, rng=rng)
    cuts = enumerate_cuts(aig, k=cut_size, max_cuts=max_cuts, include_trivial=False)
    fanouts = aig.fanout_array()
    levels = aig.levels_array()
    replacements: Dict[int, Replacement] = {}
    claimed: set = set()

    # Convert numpy signatures to Python ints once: integer AND/compare in
    # the divisor-pair loop is much faster than per-pair numpy calls.
    sig_mask = (1 << (64 * num_sim_words)) - 1
    sig_int: List[int] = [
        int.from_bytes(signatures[var].tobytes(), "little") for var in range(aig.num_vars)
    ]

    for node in aig.nodes():
        if not node.is_and or node.var in claimed:
            continue
        node_cuts = [c for c in cuts.get(node.var, []) if 2 <= c.size <= cut_size]
        if not node_cuts:
            continue
        cut = max(node_cuts, key=lambda c: (c.size, c.leaves))
        gain_bound = mffc_size(aig, node.var, cut, fanouts)
        if gain_bound <= 0:
            continue
        interior = cut_cone_vars(aig, node.var, cut)
        cone = set(interior)
        leaves = set(cut.leaves)
        # Divisors: nodes outside this node's MFFC whose level is below the
        # node's and which are not the node itself.  We take leaves plus
        # nearby nodes (bounded), preferring structurally close ones.
        divisor_vars: List[int] = list(cut.leaves)
        for candidate in range(1, aig.num_vars):
            if len(divisor_vars) >= max_divisors:
                break
            if candidate == node.var or candidate in cone or candidate in leaves:
                continue
            if levels[candidate] >= levels[node.var]:
                continue
            divisor_vars.append(candidate)

        match = _find_resub(
            aig, node.var, cut, divisor_vars, sig_int, sig_mask, gain_bound, zero_cost,
        )
        if match is None:
            continue
        replacements[node.var] = Replacement(
            cut=cut, builder=_resub_builder(aig, match), gain=match.gain
        )
        claimed.update(interior)

    if not replacements:
        return aig.copy()
    result = rebuild_with_replacements(aig, replacements)
    if result.num_ands > aig.num_ands and not zero_cost:
        return aig.copy()
    return result


class ResubMatch(NamedTuple):
    """A verified resubstitution of a root node.

    The root equals ``divisors[0]`` (0-resub) or the AND of both
    ``divisors`` (1-resub), each taken with its ``complements`` polarity,
    complemented once more at the output when ``out_compl`` is set.
    """

    divisors: Tuple[int, ...]
    complements: Tuple[bool, ...]
    out_compl: bool
    gain: int


def _find_resub(
    aig: AIG,
    root: int,
    cut: Cut,
    divisor_vars: List[int],
    sig_int: List[int],
    sig_mask: int,
    gain_bound: int,
    zero_cost: bool,
) -> Optional[ResubMatch]:
    """Search for a 0- or 1-resubstitution of ``root``.

    Candidates are tried in a fixed order and the first one that passes
    exact verification wins: 0-resub divisors in order, then 1-resub
    pairs ``(d1, d2, c1, c2)`` lexicographically by divisor position and
    polarity (``False`` before ``True``).
    """
    target = sig_int[root]
    target_neg = target ^ sig_mask

    # --- 0-resub: an existing node matches the target signature.
    for div in divisor_vars:
        if div == root:
            continue
        if sig_int[div] == target and _verify_equal(aig, root, div, cut):
            gain = gain_bound  # the whole MFFC dies; no new nodes are added
            if gain > 0 or zero_cost:
                return ResubMatch((div,), (False,), False, gain)
        if sig_int[div] == target_neg and _verify_equal(aig, root, div, cut, complemented=True):
            gain = gain_bound
            if gain > 0 or zero_cost:
                return ResubMatch((div,), (False,), True, gain)

    # --- 1-resub: target = f(d1, d2) for a simple two-input gate.
    gain = gain_bound - 1  # one new gate replaces the MFFC
    if gain < 0 or (gain == 0 and not zero_cost):
        return None
    # ``a & b == t`` needs both ``a`` and ``b`` to cover ``t``.  Tag each
    # divisor polarity with bit 1 if it covers the target and bit 2 if it
    # covers the complemented target; a pair can only match on a shared
    # bit, so polarities covering neither drop out before the pair loop.
    options: List[List[Tuple[bool, int, int]]] = []
    for div in divisor_vars:
        sig = sig_int[div]
        viable = []
        for compl in (False, True):
            value = sig ^ sig_mask if compl else sig
            covers = ((value & target == target)
                      | (value & target_neg == target_neg) << 1)
            if covers:
                viable.append((compl, value, covers))
        options.append(viable)
    for i, d1 in enumerate(divisor_vars):
        options1 = options[i]
        if not options1:
            continue
        for j in range(i + 1, len(divisor_vars)):
            options2 = options[j]
            if not options2:
                continue
            d2 = divisor_vars[j]
            for c1, a, covers1 in options1:
                for c2, b, covers2 in options2:
                    shared = covers1 & covers2
                    if not shared:
                        continue
                    combined = a & b
                    if shared & 1 and combined == target:
                        if _verify_and(aig, root, cut, d1, c1, d2, c2):
                            return ResubMatch((d1, d2), (c1, c2), False, gain)
                    elif shared & 2 and combined == target_neg:
                        if _verify_and(aig, root, cut, d1, c1, d2, c2, out_compl=True):
                            return ResubMatch((d1, d2), (c1, c2), True, gain)
    return None


# ----------------------------------------------------------------------
# Exact verification on a joint cut
# ----------------------------------------------------------------------
def _joint_table(aig: AIG, var: int, leaves: Tuple[int, ...]) -> Optional[int]:
    """Truth table of ``var`` over ``leaves`` when its support allows it."""
    try:
        return cut_truth_table(aig, var, Cut(leaves))
    except ValueError:
        return None


def _expanded_cut(aig: AIG, root: int, cut: Cut, extra: List[int]) -> Optional[Tuple[int, ...]]:
    """Leaves covering both the root cone and the divisors' cones (bounded)."""
    leaves = set(cut.leaves)
    for var in extra:
        support = _transitive_pis_or_bound(aig, var, bound=16)
        if support is None:
            return None
        leaves |= support
    if len(leaves) > 14:
        return None
    return tuple(sorted(leaves))


def _transitive_pis_or_bound(aig: AIG, var: int, bound: int) -> Optional[set]:
    """Transitive-fanin frontier of ``var`` down to PIs, or ``None`` if too wide."""
    is_and, fanin0, fanin1 = aig.node_arrays()
    seen = set()
    stack = [var]
    frontier = set()
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        if is_and[v]:
            stack.append(fanin0[v] >> 1)
            stack.append(fanin1[v] >> 1)
        else:
            frontier.add(v)
        if len(seen) > 4 * bound:
            return None
    if len(frontier) > bound:
        return None
    return frontier


def _verify_equal(aig: AIG, root: int, divisor: int, cut: Cut, complemented: bool = False) -> bool:
    leaves = _expanded_cut(aig, root, cut, [divisor])
    if leaves is None:
        return False
    t_root = _joint_table(aig, root, leaves)
    t_div = _joint_table(aig, divisor, leaves)
    if t_root is None or t_div is None:
        return False
    if complemented:
        t_div = truth.tt_not(t_div, len(leaves))
    return t_root == t_div


def _verify_and(
    aig: AIG, root: int, cut: Cut, d1: int, c1: bool, d2: int, c2: bool, out_compl: bool = False
) -> bool:
    leaves = _expanded_cut(aig, root, cut, [d1, d2])
    if leaves is None:
        return False
    n = len(leaves)
    t_root = _joint_table(aig, root, leaves)
    t1 = _joint_table(aig, d1, leaves)
    t2 = _joint_table(aig, d2, leaves)
    if t_root is None or t1 is None or t2 is None:
        return False
    if c1:
        t1 = truth.tt_not(t1, n)
    if c2:
        t2 = truth.tt_not(t2, n)
    combined = t1 & t2
    if out_compl:
        combined = truth.tt_not(combined, n)
    return t_root == combined


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def _resub_builder(aig: AIG, match: ResubMatch):
    """Builder that re-creates the divisors' cones and combines them.

    The divisors already exist somewhere in the new graph in most cases;
    rebuilding them from PIs and letting structural hashing find the
    existing copies keeps the builder self-contained.
    """

    def builder(new: AIG, leaf_literals: Sequence[Literal], arrival) -> Literal:
        lits = [_rebuild_cone_from_pis(aig, div, new) ^ compl
                for div, compl in zip(match.divisors, match.complements)]
        result = lits[0] if len(lits) == 1 else new.add_and(lits[0], lits[1])
        return lit_not(result) if match.out_compl else result

    return builder


def _rebuild_cone_from_pis(old: AIG, var: int, new: AIG) -> Literal:
    """Rebuild the cone of ``var`` in ``new`` assuming PI order matches."""
    pi_map = {old_pi: 2 * (i + 1) for i, old_pi in enumerate(old.pis)}
    cache: Dict[int, Literal] = {0: 0}

    def build(v: int) -> Literal:
        if v in cache:
            return cache[v]
        node = old.node(v)
        if node.is_pi:
            cache[v] = pi_map[v]
            return cache[v]
        assert node.fanin0 is not None and node.fanin1 is not None
        a = build(lit_var(node.fanin0)) ^ (node.fanin0 & 1)
        b = build(lit_var(node.fanin1)) ^ (node.fanin1 & 1)
        cache[v] = new.add_and(a, b)
        return cache[v]

    return build(var)


def resub_z(aig: AIG, **kwargs) -> AIG:
    """Zero-cost resubstitution (``resub -z``)."""
    return resub(aig, zero_cost=True, **kwargs)
