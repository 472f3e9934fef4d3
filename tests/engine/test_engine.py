"""Tests for evaluator specs and the ``jobs`` normalisation."""

import dataclasses
import json

import pytest

from repro.engine import EvaluatorSpec, faults, resolve_jobs
from repro.engine.faults import (
    DeadlineExceeded,
    FaultEvent,
    FaultPlan,
    InjectedCrash,
)


@pytest.fixture(scope="module")
def spec():
    return EvaluatorSpec.for_circuit("adder", width=4)


class TestSpec:
    def test_width_is_resolved(self):
        spec = EvaluatorSpec.for_circuit("adder")
        assert spec.width > 0

    def test_alias_is_canonicalised(self):
        spec = EvaluatorSpec.for_circuit("square root", width=6)
        assert spec.circuit == "sqrt"

    def test_payload_roundtrip(self, spec):
        assert EvaluatorSpec.from_payload(spec.to_payload()) == spec

    def test_build_evaluator(self, spec):
        evaluator = spec.build_evaluator()
        assert evaluator.reference_area >= 1
        assert evaluator.lut_size == spec.lut_size

    def test_payload_names_every_field(self, spec):
        assert set(spec.to_payload()) == {
            field.name for field in dataclasses.fields(EvaluatorSpec)}

    def test_payload_roundtrip_with_every_option_set(self):
        plan = FaultPlan(events=(FaultEvent(kind="crash", cell="c"),))
        spec = dataclasses.replace(
            EvaluatorSpec.for_circuit(
                "sqrt", width=6, lut_size=4,
                reference_sequence=("balance", "rewrite"), objective="area"),
            eval_timeout=2.5, fault_plan=plan.to_json())
        assert EvaluatorSpec.from_payload(spec.to_payload()) == spec

    def test_payload_survives_json(self):
        spec = EvaluatorSpec.for_circuit(
            "adder", width=4, reference_sequence=("balance", "rewrite"))
        payload = json.loads(json.dumps(spec.to_payload()))
        assert EvaluatorSpec.from_payload(payload) == spec

    def test_minimal_payload_takes_the_defaults(self):
        assert (EvaluatorSpec.from_payload({"circuit": "adder", "width": 4})
                == EvaluatorSpec.for_circuit("adder", width=4))

    def test_independent_builds_measure_the_same(self, spec):
        first, second = spec.build_evaluator(), spec.build_evaluator()
        assert ((first.reference_area, first.reference_delay)
                == (second.reference_area, second.reference_delay))
        assert first.initial_result == second.initial_result
        assert (first.evaluate(["rewrite", "balance"])
                == second.evaluate(["rewrite", "balance"]))

    def test_fault_plan_reaches_the_built_evaluator(self, spec):
        plan = FaultPlan(events=(FaultEvent(kind="crash", cell="c", at=0),))
        guarded = dataclasses.replace(spec, fault_plan=plan.to_json())
        evaluator = guarded.build_evaluator()
        faults.activate("c", 0, hard_crash=False)
        try:
            with pytest.raises(InjectedCrash):
                evaluator.evaluate(["rewrite"])
        finally:
            faults.deactivate()

    def test_eval_timeout_reaches_the_built_evaluator(self, spec):
        plan = FaultPlan(events=(
            FaultEvent(kind="hang", cell="c", at=0, duration=30.0),))
        guarded = dataclasses.replace(spec, fault_plan=plan.to_json(),
                                      eval_timeout=0.05)
        evaluator = guarded.build_evaluator()
        faults.activate("c", 0, hard_crash=False)
        try:
            with pytest.raises(DeadlineExceeded) as excinfo:
                evaluator.evaluate(["rewrite"])
        finally:
            faults.deactivate()
        assert excinfo.value.sequence == ("rewrite",)


class TestResolveJobs:
    def test_explicit(self):
        assert resolve_jobs(3) == 3

    def test_zero_and_none_mean_all_cpus(self):
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)
