"""Golden equivalence suite for the hot-path overhaul.

Two layers of protection:

* **Stored goldens** (``substrate_golden.json``, generated from the
  pre-optimisation code by ``generate_golden.py``): cut-enumeration
  digests, LUT mappings, QoR evaluations and every synthesis operation's
  output AIG on seeded circuits must stay bit-identical across
  performance reworks.  Only integer outputs and pure-Python float
  arithmetic are pinned, so the file is portable.
* **Runtime reference comparisons**: the optimised implementations are
  run side by side with the frozen reference copies
  (:mod:`repro.aig._reference`, :mod:`repro.mapping._reference`,
  :mod:`repro.gp.kernels._reference`) in the same environment, which
  checks bit-identity of float paths without baking BLAS-specific bits
  into the repository.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.aig._reference import cut_cone_vars_reference, enumerate_cuts_reference
from repro.aig.cuts import Cut, cut_cone_vars, enumerate_cuts
from repro.bo.boils import BOiLS
from repro.bo.sbo import StandardBO
from repro.bo.space import SequenceSpace
from repro.circuits import get_circuit
from repro.gp.gp import GaussianProcess
from repro.gp.kernels._reference import (
    ReferenceSubsequenceStringKernel,
    ssk_diag_reference,
    ssk_gram_reference,
)
from repro.gp.kernels.ssk import SubsequenceStringKernel, ssk_diag, ssk_gram
from repro.mapping._reference import ReferenceLutMapper
from repro.mapping.lut_mapper import LutMapper
from repro.qor import QoREvaluator
from repro.synth.operations import apply_sequence, list_operations

from generate_golden import aig_digest, cuts_digest, pass_circuits

GOLDEN_PATH = Path(__file__).parent / "substrate_golden.json"

CIRCUITS = [("adder", 4), ("multiplier", 4), ("sqrt", 4)]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def _cuts_digest(aig, k, max_cuts, include_trivial, depths=None):
    cuts = enumerate_cuts(aig, k=k, max_cuts=max_cuts,
                          include_trivial=include_trivial, depths=depths)
    digest = hashlib.sha256()
    for var in sorted(cuts):
        digest.update(str(var).encode())
        for cut in cuts[var]:
            digest.update(repr(tuple(cut.leaves)).encode())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Stored goldens (pinned against the pre-optimisation seed code)
# ----------------------------------------------------------------------
class TestStoredGoldens:
    def test_cut_enumeration_digests(self, golden):
        for key, entry in golden["circuits"].items():
            name, width = key.rsplit("-", 1)
            aig = get_circuit(name, width=int(width))
            assert _cuts_digest(aig, 4, 8, False) == entry["cuts_k4"], key
            assert _cuts_digest(aig, 6, 8, True) == entry["cuts_k6_trivial"], key
            assert _cuts_digest(aig, 6, 8, False,
                                depths=aig.levels()) == entry["cuts_k6_depth"], key

    def test_mappings_and_qor_evaluations(self, golden):
        for key, entry in golden["circuits"].items():
            name, width = key.rsplit("-", 1)
            aig = get_circuit(name, width=int(width))
            result = LutMapper(lut_size=6).map(aig)
            digest = hashlib.sha256()
            for lut in result.luts:
                digest.update(repr((lut.root, tuple(lut.leaves))).encode())
            assert result.area == entry["mapping"]["area"], key
            assert result.delay == entry["mapping"]["delay"], key
            assert digest.hexdigest() == entry["mapping"]["luts"], key

            evaluator = QoREvaluator(aig, lut_size=6)
            assert evaluator.reference_area == entry["reference_area"], key
            assert evaluator.reference_delay == entry["reference_delay"], key
            for expected in entry["evaluations"]:
                record = evaluator.evaluate(expected["sequence"])
                assert record.area == expected["area"], (key, expected["sequence"])
                assert record.delay == expected["delay"], (key, expected["sequence"])
                assert record.qor == expected["qor"], (key, expected["sequence"])
                assert record.qor_improvement == expected["qor_improvement"]

    @pytest.mark.parametrize("key,aig", list(pass_circuits()),
                             ids=lambda value: value if isinstance(value, str) else "")
    def test_operation_outputs_and_pass_cuts(self, golden, key, aig):
        entry = golden["passes"][key]
        for op in list_operations():
            assert aig_digest(op(aig)) == entry["operations"][op.name], (key, op.name)
        for setting, expected in entry["cuts"].items():
            k, max_cuts = (int(part[1:]) for part in setting.split("_"))
            assert cuts_digest(aig, k, max_cuts, False) == expected, (key, setting)


# ----------------------------------------------------------------------
# Bitset cuts and array-backed traversals vs the frozen reference
# ----------------------------------------------------------------------
class TestCutEquivalence:
    @pytest.mark.parametrize("name,width", CIRCUITS)
    def test_enumeration_bit_identical(self, name, width):
        aig = get_circuit(name, width=width)
        for kwargs in (
            dict(k=4, max_cuts=8, include_trivial=False),
            dict(k=6, max_cuts=8, include_trivial=True),
            dict(k=6, max_cuts=3, include_trivial=False),
            dict(k=6, max_cuts=8, include_trivial=False, depths=aig.levels()),
            dict(k=10, max_cuts=4, include_trivial=False),
        ):
            assert enumerate_cuts(aig, **kwargs) == \
                enumerate_cuts_reference(aig, **kwargs), (name, width, kwargs)

    def test_enumeration_bit_identical_on_wide_graph(self):
        """Graphs beyond the signature threshold exercise the folded path."""
        aig = get_circuit("multiplier", width=8)
        assert aig.num_vars > 512
        kwargs = dict(k=6, max_cuts=4, include_trivial=False)
        assert enumerate_cuts(aig, **kwargs) == enumerate_cuts_reference(aig, **kwargs)

    @pytest.mark.parametrize("name,width", CIRCUITS)
    def test_cone_walks_bit_identical(self, name, width):
        aig = get_circuit(name, width=width)
        cuts = enumerate_cuts(aig, k=6, max_cuts=4, include_trivial=False)
        for node in aig.and_nodes():
            for cut in cuts[node.var]:
                assert cut_cone_vars(aig, node.var, cut) == \
                    cut_cone_vars_reference(aig, node.var, cut)

    def test_cut_object_mask_semantics(self):
        assert Cut((1, 2)).merge(Cut((2, 3)), 3) == Cut((1, 2, 3))
        assert Cut((1, 2)).merge(Cut((3, 4)), 3) is None
        assert Cut((1, 2)).dominates(Cut((1, 2, 3)))
        assert not Cut((1, 4)).dominates(Cut((1, 2, 3)))
        assert Cut((3, 70, 500)).mask == (1 << 3) | (1 << 70) | (1 << 500)


class TestMapperEquivalence:
    @pytest.mark.parametrize("name,width", CIRCUITS)
    def test_mapping_bit_identical(self, name, width):
        base = get_circuit(name, width=width)
        for sequence in ([], ["balance", "rewrite"],
                         ["rewrite", "resub", "fraig", "dsdb"]):
            aig = apply_sequence(base, sequence) if sequence else base
            for lut_size in (4, 6):
                ours = LutMapper(lut_size=lut_size).map(aig)
                reference = ReferenceLutMapper(lut_size=lut_size).map(aig)
                assert ours.area == reference.area
                assert ours.delay == reference.delay
                assert ours.luts == reference.luts


# ----------------------------------------------------------------------
# SSK match-tensor caching vs the frozen reference DP
# ----------------------------------------------------------------------
class TestSskEquivalence:
    def test_gram_and_diag_bit_identical(self, rng):
        for _ in range(6):
            n = int(rng.integers(2, 20))
            m = int(rng.integers(2, 20))
            length = int(rng.integers(3, 15))
            X = rng.integers(0, 11, size=(n, length))
            Y = rng.integers(0, 11, size=(m, length))
            theta_m = float(rng.uniform(0.1, 1.0))
            theta_g = float(rng.uniform(0.1, 1.0))
            for ell in (1, 2, 3):
                assert np.array_equal(
                    ssk_gram(X, Y, theta_m, theta_g, ell),
                    ssk_gram_reference(X, Y, theta_m, theta_g, ell))
                assert np.array_equal(
                    ssk_diag(X, theta_m, theta_g, ell),
                    ssk_diag_reference(X, theta_m, theta_g, ell))

    def test_symmetric_kernel_upper_triangle_bit_identical(self, rng):
        """The cached symmetric Gram equals the reference on the upper
        triangle and diagonal bitwise, and repairs the reference's
        ulp-level asymmetry on the mirrored lower triangle."""
        for _ in range(6):
            n = int(rng.integers(3, 18))
            length = int(rng.integers(4, 15))
            X = rng.integers(0, 11, size=(n, length))
            kernel = SubsequenceStringKernel(theta_match=0.7, theta_gap=0.6)
            reference = ReferenceSubsequenceStringKernel(theta_match=0.7, theta_gap=0.6)
            gram = kernel(X)
            expected = reference(X)
            upper = np.triu_indices(n)
            assert np.array_equal(gram[upper], expected[upper])
            assert np.array_equal(gram, gram.T)
            assert np.allclose(gram, expected, rtol=1e-12, atol=1e-15)
            # Cross (prediction-path) Grams are fully bit-identical.
            Y = rng.integers(0, 11, size=(5, length))
            assert np.array_equal(kernel(X, Y), reference(X, Y))

    def test_cached_evaluations_are_stable(self, rng):
        X = rng.integers(0, 11, size=(10, 8))
        kernel = SubsequenceStringKernel()
        first = kernel(X)
        for _ in range(3):  # cache hits must return the same matrix
            assert np.array_equal(kernel(X), first)
        kernel.set_params(theta_match=0.31)  # theta_match-only change: cached sums
        second = kernel(X)
        reference = ReferenceSubsequenceStringKernel(theta_match=0.31, theta_gap=0.8)
        assert np.array_equal(second[np.triu_indices(10)],
                              reference(X)[np.triu_indices(10)])


# ----------------------------------------------------------------------
# Incremental GP conditioning vs full refactorisation
# ----------------------------------------------------------------------
class TestIncrementalGp:
    def test_extension_matches_full_factorisation(self, rng):
        for _ in range(5):
            n0 = int(rng.integers(5, 20))
            k = int(rng.integers(1, 5))
            X = rng.integers(0, 11, size=(n0 + k, 8))
            y = rng.normal(size=n0 + k)
            incremental = GaussianProcess(SubsequenceStringKernel())
            incremental.fit(X[:n0], y[:n0])
            incremental.update_or_fit(X, y)
            full = GaussianProcess(SubsequenceStringKernel()).fit(X, y)
            assert np.allclose(incremental._chol, full._chol, rtol=1e-9, atol=1e-12)
            probe = rng.integers(0, 11, size=(4, 8))
            mean_a, std_a = incremental.predict(probe)
            mean_b, std_b = full.predict(probe)
            assert np.allclose(mean_a, mean_b)
            assert np.allclose(std_a, std_b)

    def test_same_inputs_reuse_factor_bit_identical(self, rng):
        X = rng.integers(0, 11, size=(12, 8))
        y = rng.normal(size=12)
        gp = GaussianProcess(SubsequenceStringKernel()).fit(X, y)
        chol = gp._chol.copy()
        y2 = rng.normal(size=12)
        gp.update_or_fit(X, y2)  # same X: factor reused, targets re-solved
        assert np.array_equal(gp._chol, chol)
        fresh = GaussianProcess(SubsequenceStringKernel()).fit(X, y2)
        assert np.array_equal(gp._chol, fresh._chol)
        assert np.array_equal(gp._alpha, fresh._alpha)

    def test_changed_hyperparameters_force_full_fit(self, rng):
        X = rng.integers(0, 11, size=(10, 8))
        y = rng.normal(size=10)
        gp = GaussianProcess(SubsequenceStringKernel()).fit(X, y)
        gp.kernel.set_params(theta_match=0.123)
        X2 = np.vstack([X, rng.integers(0, 11, size=(2, 8))])
        y2 = np.append(y, rng.normal(size=2))
        with mock.patch.object(GaussianProcess, "_extend",
                               side_effect=AssertionError("must not extend")):
            gp.update_or_fit(X2, y2)
        assert gp._fit_params[0]["theta_match"] == pytest.approx(0.123)


# ----------------------------------------------------------------------
# Optimiser trajectories: optimised stack vs reference stack
# ----------------------------------------------------------------------
class TestTrajectoryEquivalence:
    @pytest.fixture(scope="class")
    def adder(self):
        return get_circuit("adder", width=4)

    @pytest.mark.parametrize("seed,fit_every", [(0, 1), (0, 2), (1, 2)])
    def test_boils_trajectory_identical(self, adder, seed, fit_every):
        space = SequenceSpace(sequence_length=4)
        kwargs = dict(space=space, seed=seed, num_initial=3,
                      local_search_queries=40, adam_steps=2, fit_every=fit_every)

        evaluator = QoREvaluator(adder)
        BOiLS(**kwargs).optimise(evaluator, budget=10)
        optimised = [(r.sequence, r.qor) for r in evaluator.history]

        evaluator = QoREvaluator(adder)
        with mock.patch("repro.bo.boils.SubsequenceStringKernel",
                        ReferenceSubsequenceStringKernel), \
             mock.patch.object(GaussianProcess, "update_or_fit", GaussianProcess.fit):
            BOiLS(**kwargs).optimise(evaluator, budget=10)
        reference = [(r.sequence, r.qor) for r in evaluator.history]
        assert optimised == reference

    @pytest.mark.parametrize("seed", [0, 5])
    def test_sbo_trajectory_identical_to_full_refits(self, adder, seed):
        space = SequenceSpace(sequence_length=4)
        kwargs = dict(space=space, seed=seed, num_initial=3, adam_steps=1,
                      fit_every=2)

        evaluator = QoREvaluator(adder)
        StandardBO(**kwargs).optimise(evaluator, budget=8)
        optimised = [(r.sequence, r.qor) for r in evaluator.history]

        evaluator = QoREvaluator(adder)
        with mock.patch.object(GaussianProcess, "update_or_fit", GaussianProcess.fit):
            StandardBO(**kwargs).optimise(evaluator, budget=8)
        reference = [(r.sequence, r.qor) for r in evaluator.history]
        assert optimised == reference
