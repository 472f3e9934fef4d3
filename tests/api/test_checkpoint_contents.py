"""What a mid-cell checkpoint holds, and when resume refuses to use it.

A checkpoint keeps one copy of each piece of run state: the optimiser's
state and the evaluator's counters.  The evaluator history comes from
the trajectory, BOiLS's evaluated set from its rows and the GP's factor
from replaying its factorisations, so a checkpoint grows linearly with
the budget.  A checkpoint that cannot be resumed from — an older format,
or a trajectory shorter than its round — restarts its cell, which then
reaches the uninterrupted run's record.
"""

import json

import pytest

from repro.api import (
    Campaign,
    CampaignStore,
    Problem,
    resume_campaign,
    run_campaign,
)

BOILS_OVERRIDES = {"num_initial": 2, "local_search_queries": 20,
                   "adam_steps": 1, "fit_every": 2}


def _boils_campaign(budget):
    return Campaign(
        problems=(Problem("adder", width=4, sequence_length=3),),
        methods=("boils",),
        seeds=(0,),
        budget=budget,
        method_overrides={"boils": BOILS_OVERRIDES},
        name=f"checkpoint-b{budget}",
    )


class _Kill(KeyboardInterrupt):
    """Simulated mid-cell kill (KeyboardInterrupt is never isolated)."""


def _killer_at(round_index):
    def on_event(cell_id, event):
        if (event["kind"] == "round_completed"
                and event["round_index"] == round_index):
            raise _Kill(f"killed {cell_id} after round {round_index}")
    return on_event


def _dicts(records):
    return [record.to_dict() for record in records]


def _final_checkpoint_bytes(budget, tmp_path):
    store = CampaignStore(tmp_path / f"b{budget}")
    sizes = []

    def watch(cell_id, event):
        if event["kind"] == "round_completed":
            sizes.append(store.checkpoint_path(cell_id).stat().st_size)

    run_campaign(_boils_campaign(budget), store, on_event=watch)
    return sizes[-1]


def test_checkpoint_size_has_no_quadratic_term(tmp_path):
    # Doubling the budget at most doubles the budget-proportional part
    # of a checkpoint; an n x n factor would quadruple it.
    n = 20
    ratio = (_final_checkpoint_bytes(2 * n, tmp_path)
             / _final_checkpoint_bytes(n, tmp_path))
    assert ratio <= 2.5


def test_checkpoint_holds_no_history_factor_or_evaluated_set(tmp_path):
    campaign = _boils_campaign(6)
    store = CampaignStore(tmp_path / "run")
    with pytest.raises(KeyboardInterrupt):
        run_campaign(campaign, store, on_event=_killer_at(3))
    checkpoint = store.read_checkpoint(campaign.cells()[0].cell_id)
    assert set(checkpoint["evaluator"]) == {"num_computed",
                                            "num_persistent_hits"}
    state = checkpoint["optimiser_state"]["state"]
    assert "evaluated" not in state
    assert not {"X", "y", "chol", "alpha"} & set(state["gp"])


@pytest.fixture()
def killed_boils(tmp_path):
    """An uninterrupted run's records and trajectory, and a store killed
    after round 3 of the same campaign."""
    campaign = _boils_campaign(6)
    full = CampaignStore(tmp_path / "full")
    uninterrupted = run_campaign(campaign, full)
    killed = CampaignStore(tmp_path / "killed")
    with pytest.raises(KeyboardInterrupt):
        run_campaign(campaign, killed, on_event=_killer_at(3))
    cell_id = campaign.cells()[0].cell_id
    return (uninterrupted, full.trajectory_path(cell_id).read_bytes(),
            killed, cell_id)


def _resume_from_round(store):
    """Resume ``store``; the first round index the resumed cell runs."""
    rounds = []

    def watch(cell_id, event):
        if event["kind"] == "round_completed":
            rounds.append(event["round_index"])

    records = resume_campaign(store, on_event=watch)
    return records, rounds[0]


def test_format_1_checkpoint_reruns_the_cell(killed_boils):
    uninterrupted, trajectory, store, cell_id = killed_boils
    # Rewrite the checkpoint in the format-1 layout: the evaluator
    # history inside it, the evaluated set beside the rows, and no GP
    # factorisation schedule.
    path = store.checkpoint_path(cell_id)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["format_version"] = 1
    payload["evaluator"]["history"] = [
        record for line in store.read_trajectory(cell_id)
        for record in line["records"]]
    state = payload["optimiser_state"]["state"]
    state["evaluated"] = sorted(state["X"]["data"])
    del state["gp"]["schedule"]
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert store.read_checkpoint(cell_id) is None

    resumed, first_round = _resume_from_round(store)
    assert first_round == 1
    assert _dicts(resumed) == _dicts(uninterrupted)
    assert store.trajectory_path(cell_id).read_bytes() == trajectory


def test_trajectory_shorter_than_checkpoint_restarts_the_cell(killed_boils):
    uninterrupted, trajectory, store, cell_id = killed_boils
    assert store.read_checkpoint(cell_id)["round"] == 3
    store.truncate_trajectory(cell_id, 2)

    resumed, first_round = _resume_from_round(store)
    assert first_round == 1
    assert _dicts(resumed) == _dicts(uninterrupted)
    assert store.trajectory_path(cell_id).read_bytes() == trajectory
