"""Regenerate ``substrate_golden.json`` from the substrate implementation.

Run from the repo root::

    PYTHONPATH=src python tests/golden/generate_golden.py

The golden file pins the *observable* outputs of the synthesis substrate
(cut enumeration, LUT mapping, QoR evaluation) on seeded circuits and
sequences, plus a structural digest of every synthesis operation's
output AIG and the cut sets at the ``(k, max_cuts)`` settings the passes
enumerate.  It was first generated from the pre-optimisation code
and must remain stable under performance reworks: the hot-path overhaul
keeps all of these values bit-identical.  Only integer outputs and
pure-Python float arithmetic land here, so the file is portable across
BLAS/numpy builds.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).parent / "substrate_golden.json"

CIRCUITS = [("adder", 4), ("adder", 8), ("multiplier", 4), ("sqrt", 4)]
SEQUENCES = [
    ["balance", "rewrite", "refactor", "balance", "rewrite", "rewrite -z",
     "balance", "refactor -z", "rewrite -z", "balance"],  # resyn2
    ["rewrite", "resub", "fraig", "dsdb"],
    ["refactor", "balance", "sopb", "rewrite -z"],
    ["blut", "resub -z", "rewrite", "balance"],
    ["fraig", "refactor -z", "dsdb", "resub"],
]

#: Circuits whose per-operation outputs and pass-setting cuts are pinned:
#: the golden circuits, the benchmark's ``multiplier``-6 and one seeded
#: random AIG per fuzz kind.
PASS_CIRCUITS = CIRCUITS + [("multiplier", 6)]
PASS_FUZZ_SPECS = [
    dict(kind="layered", seed=11, num_inputs=8, num_gates=64, num_outputs=4),
    dict(kind="windowed", seed=12, num_inputs=8, num_gates=64, num_outputs=3),
    dict(kind="arith", seed=14, num_inputs=10, num_gates=64, num_outputs=4),
]

#: ``(k, max_cuts)`` of the passes' cut enumerations (trivial cuts off):
#: resub, refactor, blut, sopb/dsdb.
PASS_CUT_SETTINGS = [(8, 4), (10, 4), (6, 6), (8, 6)]


def cuts_digest(aig, k: int, max_cuts: int, include_trivial: bool) -> str:
    from repro.aig.cuts import enumerate_cuts

    cuts = enumerate_cuts(aig, k=k, max_cuts=max_cuts, include_trivial=include_trivial)
    digest = hashlib.sha256()
    for var in sorted(cuts):
        digest.update(str(var).encode())
        for cut in cuts[var]:
            digest.update(repr(tuple(cut.leaves)).encode())
    return digest.hexdigest()


def _depth_cuts_digest(aig, k: int, max_cuts: int) -> str:
    from repro.aig.cuts import enumerate_cuts

    cuts = enumerate_cuts(aig, k=k, max_cuts=max_cuts, include_trivial=False,
                          depths=aig.levels())
    digest = hashlib.sha256()
    for var in sorted(cuts):
        digest.update(str(var).encode())
        for cut in cuts[var]:
            digest.update(repr(tuple(cut.leaves)).encode())
    return digest.hexdigest()


def aig_digest(aig) -> str:
    """SHA-256 of the flat ``is_and``/fanin arrays and the PO literals."""
    is_and, fanin0, fanin1 = aig.node_arrays()
    digest = hashlib.sha256()
    digest.update(repr((bytes(is_and), list(fanin0), list(fanin1),
                        list(aig.pos))).encode())
    return digest.hexdigest()


def pass_circuits():
    """``(key, aig)`` for every circuit in the per-operation goldens."""
    from repro.circuits import get_circuit
    from repro.circuits.fuzz import FuzzSpec

    for name, width in PASS_CIRCUITS:
        yield f"{name}-{width}", get_circuit(name, width=width)
    for params in PASS_FUZZ_SPECS:
        spec = FuzzSpec(**params)
        yield spec.name(), spec.build()


def pass_entry(aig):
    """Per-operation output digests and pass-setting cut digests."""
    from repro.synth.operations import list_operations

    return {
        "operations": {op.name: aig_digest(op(aig)) for op in list_operations()},
        "cuts": {f"k{k}_m{max_cuts}": cuts_digest(aig, k=k, max_cuts=max_cuts,
                                                  include_trivial=False)
                 for k, max_cuts in PASS_CUT_SETTINGS},
    }


def _mapping_entry(aig):
    from repro.mapping.lut_mapper import LutMapper

    result = LutMapper(lut_size=6).map(aig)
    digest = hashlib.sha256()
    for lut in result.luts:
        digest.update(repr((lut.root, tuple(lut.leaves))).encode())
    return {"area": result.area, "delay": result.delay, "luts": digest.hexdigest()}


def main() -> None:
    from repro.circuits import get_circuit
    from repro.qor import QoREvaluator

    golden = {"circuits": {}}
    for name, width in CIRCUITS:
        aig = get_circuit(name, width=width)
        key = f"{name}-{width}"
        evaluator = QoREvaluator(aig, lut_size=6)
        evaluations = []
        for sequence in SEQUENCES:
            record = evaluator.evaluate(sequence)
            evaluations.append(
                {
                    "sequence": list(record.sequence),
                    "area": record.area,
                    "delay": record.delay,
                    "qor": record.qor,
                    "qor_improvement": record.qor_improvement,
                }
            )
        golden["circuits"][key] = {
            "stats": aig.stats(),
            "cuts_k4": cuts_digest(aig, k=4, max_cuts=8, include_trivial=False),
            "cuts_k6_trivial": cuts_digest(aig, k=6, max_cuts=8, include_trivial=True),
            "cuts_k6_depth": _depth_cuts_digest(aig, k=6, max_cuts=8),
            "mapping": _mapping_entry(aig),
            "reference_area": evaluator.reference_area,
            "reference_delay": evaluator.reference_delay,
            "evaluations": evaluations,
        }

    golden["passes"] = {key: pass_entry(aig) for key, aig in pass_circuits()}

    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
