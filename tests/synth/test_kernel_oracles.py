"""The synthesis kernels against brute-force oracles on random AIGs.

Two kernels use shortcuts whose results must equal the plain definition:

* ``mffc_size`` dereferences from the root instead of sweeping the
  whole cut cone; the oracle below is the reverse-topological cone sweep.
* ``_find_resub`` skips 1-resub divisor pairs whose polarities cannot
  cover the target signature; the oracle below tries every pair.  Both
  return the first verified candidate in the same order, so the match
  (kind, divisors, polarities, gain) must be identical.

The random AIGs come from the fuzz families of :mod:`repro.circuits.fuzz`,
seeded from ``--fuzz-seed`` like the differential fuzz suite.
"""

from __future__ import annotations

from typing import Dict, List, Optional
from unittest import mock

import numpy as np
import pytest

from repro.aig.cuts import Cut, cut_cone_vars, enumerate_cuts
from repro.aig.graph import AIG
from repro.circuits.fuzz import FUZZ_KINDS, FuzzSpec
from repro.synth import resub as resub_module
from repro.synth.resub import ResubMatch, _verify_and, _verify_equal, resub, resub_z
from repro.synth.rewrite_framework import mffc_size

NUM_CASES = 24

#: ``(k, max_cuts)`` of the rewrite, resub and refactor cut enumerations.
MFFC_CUT_SETTINGS = [(4, 8), (8, 4), (10, 4)]


def _case(fuzz_seed: int, index: int):
    rng = np.random.default_rng(np.random.SeedSequence((fuzz_seed, index, 0x0AC)))
    spec = FuzzSpec(
        kind=FUZZ_KINDS[index % len(FUZZ_KINDS)],
        seed=int(rng.integers(0, 2 ** 31)),
        num_inputs=int(rng.integers(3, 11)),
        num_gates=int(rng.integers(10, 90)),
        num_outputs=int(rng.integers(1, 6)),
        fanin_window=int(rng.integers(4, 20)),
    )
    return spec.build(), f"case {index}: {spec!r} (--fuzz-seed={fuzz_seed})"


def mffc_size_cone_sweep(aig: AIG, root: int, cut: Cut, fanout_counts) -> int:
    """MFFC size by definition: sweep the cut cone in reverse topological
    order; a node joins once all its fanout references come from members."""
    is_and, fanin0, fanin1 = aig.node_arrays()
    cone = [v for v in cut_cone_vars(aig, root, cut) if is_and[v]]
    if not cone or cone[-1] != root:
        return 0
    member_refs: Dict[int, int] = {}
    members = {root}
    for var in reversed(cone):
        if var == root or (fanout_counts[var] > 0
                           and member_refs.get(var, 0) == fanout_counts[var]):
            members.add(var)
            for fanin in (fanin0[var] >> 1, fanin1[var] >> 1):
                member_refs[fanin] = member_refs.get(fanin, 0) + 1
    return len(members)


def find_resub_exhaustive(aig, root, cut, divisor_vars, sig_int, sig_mask,
                          gain_bound, zero_cost) -> Optional[ResubMatch]:
    """Every 0-resub divisor, then every 1-resub pair and polarity, in order."""
    target = sig_int[root]
    target_neg = target ^ sig_mask
    for div in divisor_vars:
        if div == root:
            continue
        if (sig_int[div] == target and _verify_equal(aig, root, div, cut)
                and (gain_bound > 0 or zero_cost)):
            return ResubMatch((div,), (False,), False, gain_bound)
        if (sig_int[div] == target_neg
                and _verify_equal(aig, root, div, cut, complemented=True)
                and (gain_bound > 0 or zero_cost)):
            return ResubMatch((div,), (False,), True, gain_bound)
    gain = gain_bound - 1
    if gain < 0 or (gain == 0 and not zero_cost):
        return None
    for i, d1 in enumerate(divisor_vars):
        for d2 in divisor_vars[i + 1:]:
            for c1 in (False, True):
                a = sig_int[d1] ^ sig_mask if c1 else sig_int[d1]
                for c2 in (False, True):
                    b = sig_int[d2] ^ sig_mask if c2 else sig_int[d2]
                    if (a & b == target
                            and _verify_and(aig, root, cut, d1, c1, d2, c2)):
                        return ResubMatch((d1, d2), (c1, c2), False, gain)
                    if (a & b == target_neg and _verify_and(
                            aig, root, cut, d1, c1, d2, c2, out_compl=True)):
                        return ResubMatch((d1, d2), (c1, c2), True, gain)
    return None


@pytest.mark.parametrize("index", range(NUM_CASES))
class TestKernelOracles:
    def test_mffc_size_matches_cone_sweep(self, fuzz_seed, index):
        aig, blame = _case(fuzz_seed, index)
        fanouts = aig.fanout_array()
        for k, max_cuts in MFFC_CUT_SETTINGS:
            cuts = enumerate_cuts(aig, k=k, max_cuts=max_cuts, include_trivial=True)
            for node in aig.and_nodes():
                for cut in cuts[node.var]:
                    assert mffc_size(aig, node.var, cut, fanouts) == \
                        mffc_size_cone_sweep(aig, node.var, cut, fanouts), \
                        (blame, node.var, cut)

    @pytest.mark.parametrize("pass_", [resub, resub_z])
    def test_find_resub_matches_exhaustive_scan(self, fuzz_seed, index, pass_):
        aig, blame = _case(fuzz_seed, index)
        real = resub_module._find_resub
        matches: List[Optional[ResubMatch]] = []

        def checked(*args):
            match = real(*args)
            assert match == find_resub_exhaustive(*args), (blame, args[1])
            matches.append(match)
            return match

        with mock.patch.object(resub_module, "_find_resub", side_effect=checked):
            pass_(aig)
        assert matches, blame  # the search ran at least once
