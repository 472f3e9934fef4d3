"""Substrate micro-benchmarks: synthesis passes, mapping and QoR evaluation.

Not a figure from the paper — these benchmarks track the cost of the
underlying black box (one sequence evaluation = K operation applications +
one LUT mapping), which is what determines how expensive each point of
Figures 1 and 3 is to produce.  Useful for spotting performance
regressions in the AIG engine.

``test_hot_path_speedups`` additionally measures the four optimised hot
paths against the frozen reference implementations and records the
ratios to ``benchmarks/artifacts/BENCH_substrate.json``; CI compares
that artifact against the committed baseline in
``benchmarks/baselines/BENCH_substrate_baseline.json`` and fails on a
>25 % regression (see ``benchmarks/check_perf_regression.py``).

``test_gp_scaling`` records the GP's cost curve at the paper's scale
(K = 20, order 3) and bounds how it grows with the training-set size.
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import ARTIFACT_DIR
from repro.aig._reference import enumerate_cuts_reference
from repro.aig.cuts import enumerate_cuts
from repro.circuits import get_circuit
from repro.gp.gp import GaussianProcess
from repro.gp.kernels._reference import ReferenceSubsequenceStringKernel
from repro.gp.kernels.ssk import SubsequenceStringKernel
from repro.mapping import LutMapper
from repro.mapping._reference import ReferenceLutMapper
from repro.qor import QoREvaluator
from repro.qor.backends.native import clear_synth_memo
from repro.synth.flows import resyn2
from repro.synth.operations import apply_sequence, get_operation

BENCH_JSON = ARTIFACT_DIR / "BENCH_substrate.json"


def _best_seconds(fn, repeats: int = 3) -> float:
    """Minimum wall time over ``repeats`` runs (robust to scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def record_bench_entry(name: str, payload: dict) -> None:
    """Merge one entry into the BENCH_substrate.json artifact."""
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    data = {}
    if BENCH_JSON.exists():
        data = json.loads(BENCH_JSON.read_text())
    data.setdefault("meta", {})["python"] = platform.python_version()
    data["meta"]["machine"] = platform.machine()
    data.setdefault("paths", {})[name] = payload
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def adder():
    return get_circuit("adder", width=8)


@pytest.fixture(scope="module")
def multiplier():
    return get_circuit("multiplier", width=6)


@pytest.mark.parametrize("operation", [
    "rewrite", "rewrite -z", "refactor", "refactor -z", "resub", "resub -z",
    "balance", "fraig", "sopb", "blut", "dsdb",
])
def test_single_operation_speed(benchmark, multiplier, operation):
    op = get_operation(operation)
    result = benchmark(op, multiplier)
    assert result.num_pos == multiplier.num_pos


def test_resyn2_flow_speed(benchmark, adder):
    result = benchmark(resyn2, adder)
    assert result.num_pos == adder.num_pos


def test_lut_mapping_speed(benchmark, multiplier):
    mapper = LutMapper(lut_size=6)
    result = benchmark(mapper.map, multiplier)
    assert result.area > 0


def test_full_sequence_evaluation_speed(benchmark, adder):
    evaluator = QoREvaluator(adder)
    sequence = ["balance", "rewrite", "refactor", "resub", "fraig", "dsdb"]
    # A cold synthesis memo per round: time the passes and the mapping,
    # not a replay of the previous round's states.  ``compute`` bypasses
    # the evaluator's memo, so every round measures the sequence.
    record = benchmark.pedantic(evaluator.compute, args=(sequence,),
                                setup=clear_synth_memo, rounds=5)
    assert record.area > 0


def test_circuit_generation_speed(benchmark):
    aig = benchmark(get_circuit, "multiplier", 8)
    assert aig.num_ands > 0


def test_gp_scaling():
    """Paper-scale GP curve: K = 20, order 3, n ∈ {50, 200, 500}.

    Times a 5-step hyperparameter fit and a 10-row predict at each
    training-set size and records them.  The kernel is a feature map, so
    its Gram costs grow as n·F for Φ plus the n² GEMM; the fit must
    grow by less than 50× from n = 50 to n = 500 (n² alone would be
    100×; the per-pair dynamic program it replaced grew ≈ 165×).
    """
    rng = np.random.default_rng(0)
    names = ["theta_match", "theta_gap"]
    fit_seconds, predict_seconds = {}, {}
    for n in (50, 200, 500):
        X = rng.integers(0, 11, size=(n, 20))
        y = rng.normal(size=n)
        probe = rng.integers(0, 11, size=(10, 20))

        def fit():
            gp = GaussianProcess(SubsequenceStringKernel(max_subsequence_length=3))
            gp.fit_hyperparameters(X, y, num_steps=5, param_names=names)
            return gp

        fit_seconds[n] = _best_seconds(fit, repeats=3 if n < 500 else 2)
        gp = fit()
        predict_seconds[n] = _best_seconds(lambda: gp.predict(probe), repeats=5)
    ratio = fit_seconds[500] / fit_seconds[50]
    record_bench_entry("gp_scaling", {
        "sequence_length": 20,
        "order": 3,
        "fit_steps": 5,
        "predict_rows": 10,
        "fit_seconds": {str(n): t for n, t in fit_seconds.items()},
        "predict_seconds": {str(n): t for n, t in predict_seconds.items()},
        "fit_ratio_500_vs_50": ratio,
    })
    assert ratio < 50


# ----------------------------------------------------------------------
# Hot-path speedups vs the frozen reference implementations
# ----------------------------------------------------------------------
class TestHotPathSpeedups:
    """Optimised-vs-reference ratios for the four overhauled hot paths.

    Each test records ``{reference_seconds, optimised_seconds, speedup}``
    into ``BENCH_substrate.json``.  The in-test assertions are loose
    sanity floors (shared CI machines are noisy); the regression gate
    against the committed baseline lives in ``check_perf_regression.py``.
    """

    @pytest.fixture(scope="class")
    def bench_circuit(self):
        return get_circuit("multiplier", width=6)

    def test_cut_enumeration_speedup(self, bench_circuit):
        depths = bench_circuit.levels()
        optimised = _best_seconds(lambda: enumerate_cuts(
            bench_circuit, k=6, max_cuts=8, include_trivial=False, depths=depths))
        reference = _best_seconds(lambda: enumerate_cuts_reference(
            bench_circuit, k=6, max_cuts=8, include_trivial=False, depths=depths))
        record_bench_entry("cut_enumeration", {
            "reference_seconds": reference,
            "optimised_seconds": optimised,
            "speedup": reference / optimised,
        })
        # De-flaked floor: only trips if the "optimised" path is outright
        # slower than the reference (true ratio ~4x); the real threshold
        # lives in check_perf_regression.py against the committed baseline.
        assert reference / optimised > 1.0

    def test_lut_mapping_speedup(self, bench_circuit):
        """Cut enumeration + LUT mapping — the per-evaluation substrate."""
        optimised = _best_seconds(lambda: LutMapper(lut_size=6).map(bench_circuit))
        reference = _best_seconds(lambda: ReferenceLutMapper(lut_size=6).map(bench_circuit))
        speedup = reference / optimised
        record_bench_entry("cut_enum_plus_lut_mapping", {
            "reference_seconds": reference,
            "optimised_seconds": optimised,
            "speedup": speedup,
        })
        assert speedup > 1.0

    def test_gp_hyperparameter_fit_speedup(self):
        rng = np.random.default_rng(0)
        X = rng.integers(0, 11, size=(30, 15))
        y = rng.normal(size=30)

        def fit(kernel_cls):
            kernel = kernel_cls(max_subsequence_length=3,
                                theta_match=0.62, theta_gap=0.71)
            gp = GaussianProcess(kernel)
            gp.fit_hyperparameters(X, y, num_steps=6,
                                   param_names=["theta_match", "theta_gap"])
            return gp

        optimised = _best_seconds(lambda: fit(SubsequenceStringKernel), repeats=2)
        reference = _best_seconds(lambda: fit(ReferenceSubsequenceStringKernel),
                                  repeats=2)
        speedup = reference / optimised
        record_bench_entry("gp_hyperparameter_fit", {
            "reference_seconds": reference,
            "optimised_seconds": optimised,
            "speedup": speedup,
        })
        assert speedup > 1.0

    def test_round_streaming_checkpoint_overhead(self, tmp_path_factory):
        """Round-granular streaming vs the same cell with it all off.

        Runs the same BOiLS cell through the campaign worker twice: once
        on a cell-granular payload (no store, no event sink, so no
        events, trajectory appends or checkpoints), and once with
        everything on: per-round event streaming, per-round trajectory
        JSONL appends and a ``checkpoint_every=1`` optimiser checkpoint
        (GP schedule, not its factor) every round.  The streaming machinery must
        cost <5 % wall-clock; the recorded ``speedup`` (cell-granular /
        streaming, ~1.0) feeds the committed-baseline regression gate
        like every other path.
        """
        from repro.api import Campaign, CampaignStore, Problem
        from repro.engine import worker
        from repro.engine.spec import EvaluatorSpec
        from repro.engine.worker import build_cell_payload

        spec = EvaluatorSpec.for_circuit("adder", width=8)
        overrides = {"num_initial": 4, "local_search_queries": 50,
                     "adam_steps": 2, "fit_every": 2}
        base_kwargs = dict(spec=spec, method_key="boils", seed=0, budget=12,
                           sequence_length=6, overrides=overrides)
        worker.init_campaign_worker()

        cell_granular_payload = build_cell_payload(index=0, **base_kwargs)

        def cell_granular():
            worker.run_campaign_cell(cell_granular_payload)

        # Store setup (tmp dir + fsync'd manifest write) happens up
        # front, outside the timed region — the measurement must cover
        # the per-round streaming machinery only, and a fresh store per
        # repetition is still required because a leftover checkpoint
        # would turn the next repetition into an (instant) resume.
        # The streaming machinery costs a few ms on a cell of about
        # 0.3 s, while single runs on a shared host swing by tens of
        # ms: sixteen pairs are needed to resolve the 5 % bar.
        repeats = 16
        prepared = []
        for attempt in range(repeats):
            root = tmp_path_factory.mktemp(f"ckpt-bench-{attempt}")
            CampaignStore(root).initialise(Campaign(
                problems=(Problem("adder", width=8, sequence_length=6),),
                methods=("boils",), seeds=(0,), budget=12,
                method_overrides={"boils": overrides}, name="ckpt-bench"))
            prepared.append(build_cell_payload(
                index=0, cell_id="bench-cell", store_root=str(root),
                checkpoint_every=1, **base_kwargs))

        def streaming():
            payload = prepared.pop(0)
            events = []
            worker.run_campaign_cell(
                payload, event_sink=lambda cid, event: events.append(event))

        def timed(arm):
            # Each run repeats the same seeded cell, so without this every
            # run after the first would replay its synthesis from the
            # process-wide memo of the native backend.  Clearing it first
            # keeps each run the cell a fresh worker runs.
            clear_synth_memo()
            return _best_seconds(arm, repeats=1)

        # Run the arms in adjacent pairs, swapping their order every
        # pair, and take the median of the per-pair ratios: both runs of
        # a pair see the host at the same speed, and the median ignores
        # the few pairs a burst of host load lands inside.
        baseline_runs, streaming_runs, ratios = [], [], []
        for pair in range(repeats):
            if pair % 2:
                streamed = timed(streaming)
                baseline = timed(cell_granular)
            else:
                baseline = timed(cell_granular)
                streamed = timed(streaming)
            baseline_runs.append(baseline)
            streaming_runs.append(streamed)
            ratios.append(streamed / baseline)
        overhead = statistics.median(ratios) - 1.0
        record_bench_entry("round_streaming_checkpoint", {
            "cell_granular_seconds": statistics.median(baseline_runs),
            "streaming_seconds": statistics.median(streaming_runs),
            "overhead_fraction": overhead,
            "speedup": 1.0 / (1.0 + overhead),
        })
        # The acceptance bar: full round-granular persistence costs
        # less than 5 % wall-clock on a representative BOiLS cell.
        assert overhead < 0.05

    def test_incremental_gp_conditioning_speedup(self):
        """Appending observations: rank-k extension vs full refactorise."""
        rng = np.random.default_rng(1)
        n, k = 56, 4
        X = rng.integers(0, 11, size=(n + k, 12))
        y = rng.normal(size=n + k)

        warm = GaussianProcess(SubsequenceStringKernel())
        warm.fit(X[:n], y[:n])
        chol, params = warm._chol, warm._fit_params

        def incremental():
            # Restore the pre-append state, then extend by the new rows.
            warm._X, warm._chol, warm._fit_params = X[:n], chol, params
            warm.update_or_fit(X, y)

        def full_refactorise():
            kernel = ReferenceSubsequenceStringKernel()
            GaussianProcess(kernel).fit(X, y)

        optimised = _best_seconds(incremental)
        reference = _best_seconds(full_refactorise)
        speedup = reference / optimised
        record_bench_entry("incremental_gp_conditioning", {
            "reference_seconds": reference,
            "optimised_seconds": optimised,
            "speedup": speedup,
        })
        assert speedup > 1.0
