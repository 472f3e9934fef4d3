"""Tests for the declarative Problem/Campaign layer."""

import json
from dataclasses import replace

import pytest

from repro.api import Campaign, Problem
from repro.api.campaign import env_int
from repro.circuits.registry import resolve_width


class TestProblem:
    def test_defaults(self):
        problem = Problem("adder")
        assert problem.lut_size == 6
        assert problem.sequence_length == 20
        assert problem.objective == "eq1"

    def test_key_derivation(self):
        assert Problem("adder", width=4, sequence_length=3).key == "adder-w4-lut6-k3"
        assert Problem("adder", width=4, sequence_length=3,
                       objective="area").key == "adder-w4-lut6-k3-area"
        assert Problem("adder", name="mine").key == "mine"

    def test_parameterised_objective_keys_do_not_collide(self):
        a = Problem("adder", width=4,
                    objective={"objective": "weighted", "w_area": 2.0,
                               "w_delay": 1.0})
        b = Problem("adder", width=4,
                    objective={"objective": "weighted", "w_area": 1.0,
                               "w_delay": 2.0})
        assert a.key != b.key

    def test_resolved_pins_width_and_canonical_name(self):
        problem = Problem("Divisor").resolved()
        assert problem.circuit == "div"
        assert problem.width == resolve_width("div", None)

    def test_round_trip(self):
        problem = Problem("sqrt", width=5, lut_size=4, sequence_length=7,
                          objective={"objective": "weighted", "w_area": 2.0,
                                     "w_delay": 1.0},
                          reference_sequence=("balance", "rewrite"),
                          name="custom")
        rebuilt = Problem.from_dict(json.loads(json.dumps(problem.to_dict())))
        assert rebuilt == problem

    def test_objective_instance_serialises_as_spec(self, tmp_path):
        from repro.qor.objectives import WeightedObjective

        problem = Problem("adder", width=4,
                          objective=WeightedObjective(2.0, 1.0))
        payload = problem.to_dict()
        assert payload["objective"] == {"objective": "weighted",
                                        "w_area": 2.0, "w_delay": 1.0}
        campaign = Campaign(problems=(problem,), methods=("rs",))
        path = campaign.save(tmp_path / "campaign.json")  # must not raise
        rebuilt = Campaign.load(path)
        assert rebuilt.problems[0].objective == payload["objective"]

    def test_validate_rejects_unknowns(self):
        with pytest.raises(KeyError):
            Problem("cpu").validate()
        with pytest.raises(KeyError):
            Problem("adder", objective="nope").validate()
        with pytest.raises(ValueError):
            Problem("adder", sequence_length=0).validate()

    def test_unsafe_name_rejected(self):
        # Names become cell-record filenames; path separators must fail
        # at validation time, not after a cell's compute has finished.
        with pytest.raises(ValueError, match="filename"):
            Problem("adder", name="grp/adder").validate()
        Problem("adder", name="grp.adder-v2_x").validate()

    def test_build_evaluator(self):
        evaluator = Problem("adder", width=4, objective="area").build_evaluator()
        assert evaluator.lut_size == 6
        assert evaluator.reference_qor == 1.0


class TestCampaign:
    def _campaign(self):
        return Campaign(
            problems=(Problem("adder", width=4, sequence_length=3),
                      Problem("sqrt", width=4, sequence_length=3,
                              objective="area")),
            methods=("rs", "greedy"),
            seeds=(0, 2),
            budget=6,
            method_overrides={"rs": {"use_latin_hypercube": False}},
            name="demo",
        )

    def test_cells_problem_major_order(self):
        cells = self._campaign().cells()
        assert len(cells) == 8
        assert [cell.index for cell in cells] == list(range(8))
        assert cells[0].cell_id == "adder-w4-lut6-k3__rs__s0"
        assert cells[1].cell_id == "adder-w4-lut6-k3__rs__s2"
        assert cells[2].cell_id == "adder-w4-lut6-k3__greedy__s0"
        assert cells[4].problem.key.startswith("sqrt")

    def test_json_round_trip(self):
        campaign = self._campaign()
        rebuilt = Campaign.from_json(campaign.to_json())
        assert rebuilt == campaign
        assert rebuilt.to_dict() == campaign.to_dict()

    def test_save_load(self, tmp_path):
        campaign = self._campaign()
        path = campaign.save(tmp_path / "campaign.json")
        assert Campaign.load(path) == campaign

    def test_newer_format_version_rejected(self):
        payload = self._campaign().to_dict()
        payload["format_version"] = 999
        with pytest.raises(ValueError, match="format version"):
            Campaign.from_dict(payload)

    def test_validate(self):
        self._campaign().validate()
        with pytest.raises(KeyError):
            Campaign(problems=(Problem("adder"),), methods=("nope",)).validate()
        with pytest.raises(ValueError):
            Campaign(problems=()).validate()
        with pytest.raises(ValueError):
            Campaign(problems=(Problem("adder"),), budget=0).validate()
        with pytest.raises(ValueError, match="method_overrides"):
            Campaign(problems=(Problem("adder"),), methods=("rs",),
                     method_overrides={"ga": {}}).validate()

    def test_with_methods_narrows_the_overrides_too(self):
        campaign = Campaign(
            problems=(Problem("adder"),), methods=("boils", "sbo", "rs"),
            method_overrides={"boils": {"num_initial": 4},
                              "sbo": {"num_initial": 5}})
        narrowed = campaign.with_methods(("boils", "rs")).validate()
        assert narrowed.methods == ("boils", "rs")
        assert narrowed.method_overrides == {"boils": {"num_initial": 4}}
        assert campaign.with_methods(("rs",)).validate().method_overrides == {}

    def test_with_methods_keeps_every_other_field(self):
        campaign = replace(self._campaign(), wall_clock_budget=9.0,
                           early_stop_improvement=1.5, eval_timeout=4.0,
                           cell_timeout=30.0)
        narrowed = campaign.with_methods(["greedy"])
        assert narrowed.methods == ("greedy",)
        assert replace(narrowed, methods=campaign.methods,
                       method_overrides=campaign.method_overrides) == campaign

    def test_with_methods_copies_the_kept_overrides(self):
        campaign = self._campaign()
        narrowed = campaign.with_methods(("rs",))
        narrowed.method_overrides["rs"]["use_latin_hypercube"] = True
        assert campaign.method_overrides == {"rs": {"use_latin_hypercube": False}}

    def test_duplicate_problem_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate problem keys"):
            Campaign(problems=(Problem("adder", width=4),
                               Problem("adder", width=4))).validate()

    def test_string_problems_promoted(self):
        campaign = Campaign(problems=("adder", "sqrt"))
        assert all(isinstance(problem, Problem) for problem in campaign.problems)

    def test_paper_protocol(self):
        campaign = Campaign.paper_protocol()
        assert len(campaign.problems) == 10
        assert campaign.budget == 200
        assert len(campaign.cells()) == 10 * 8 * 5


class TestEnvOverrides:
    def test_env_layer_is_explicit(self, monkeypatch):
        monkeypatch.setenv("REPRO_BUDGET", "33")
        campaign = Campaign(problems=(Problem("adder"),), budget=5)
        # Nothing happens implicitly...
        assert campaign.budget == 5
        # ...until the override layer is applied.
        assert campaign.with_env_overrides().budget == 33

    def test_env_overrides_all_knobs(self):
        campaign = Campaign(
            problems=(Problem("adder"), Problem("sqrt")), budget=5, seeds=(0,))
        adjusted = campaign.with_env_overrides({
            "REPRO_BUDGET": "17", "REPRO_SEEDS": "3",
            "REPRO_SEQ_LENGTH": "4", "REPRO_CIRCUIT_WIDTH": "5",
        })
        assert adjusted.budget == 17
        assert adjusted.seeds == (0, 1, 2)
        assert all(problem.sequence_length == 4 for problem in adjusted.problems)
        assert all(problem.width == 5 for problem in adjusted.problems)

    def test_unset_env_leaves_campaign_untouched(self):
        campaign = Campaign(problems=(Problem("adder"),), budget=5,
                            seeds=(4, 5))
        assert campaign.with_env_overrides({}) == campaign


class TestEnvIntWarnsLoudly:
    def test_malformed_value_warns_and_falls_back(self):
        with pytest.warns(UserWarning, match="REPRO_BUDGET='abc'"):
            assert env_int("REPRO_BUDGET", 7, {"REPRO_BUDGET": "abc"}) == 7

    def test_valid_value_silent(self, recwarn):
        assert env_int("REPRO_BUDGET", 7, {"REPRO_BUDGET": "9"}) == 9
        assert env_int("REPRO_BUDGET", 7, {}) == 7
        assert not recwarn.list

    def test_campaign_env_layer_warns_on_malformed(self):
        campaign = Campaign(problems=(Problem("adder"),), budget=5)
        with pytest.warns(UserWarning, match="REPRO_SEEDS"):
            adjusted = campaign.with_env_overrides({"REPRO_SEEDS": "two"})
        assert adjusted.seeds == campaign.seeds

