"""Tests for the resumable campaign store and run/resume drivers."""

import json
import os

import pytest

from repro.api import (
    Campaign,
    CampaignStore,
    Problem,
    RunRecord,
    StoreError,
    resume_campaign,
    run_campaign,
)


@pytest.fixture()
def campaign():
    return Campaign(
        problems=(Problem("adder", width=4, sequence_length=3),
                  Problem("sqrt", width=4, sequence_length=3,
                          objective="area")),
        methods=("rs", "ga"),
        seeds=(0, 1),
        budget=5,
        name="store-demo",
    )


def _dicts(records):
    return [record.to_dict() for record in records]


class TestCampaignStore:
    def test_initialise_and_reload(self, campaign, tmp_path):
        store = CampaignStore(tmp_path / "run")
        resolved = store.initialise(campaign)
        assert store.exists()
        assert store.load_campaign() == resolved
        # Widths are pinned in the manifest.
        assert all(problem.width is not None
                   for problem in store.load_campaign().problems)

    def test_reopen_same_campaign_ok(self, campaign, tmp_path):
        store = CampaignStore(tmp_path / "run")
        store.initialise(campaign)
        store.initialise(campaign)  # no error

    def test_reopen_different_campaign_rejected(self, campaign, tmp_path):
        store = CampaignStore(tmp_path / "run")
        store.initialise(campaign)
        other = Campaign(problems=(Problem("adder", width=4),), name="other")
        with pytest.raises(StoreError, match="different configuration"):
            store.initialise(other)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StoreError, match="no campaign manifest"):
            CampaignStore(tmp_path / "nope").load_campaign()

    def test_record_round_trip(self, campaign, tmp_path):
        store = CampaignStore(tmp_path / "run")
        store.initialise(campaign)
        records = run_campaign(campaign, store)
        for record in records:
            rebuilt = store.read_record(record.cell_id)
            assert rebuilt.to_dict() == record.to_dict()

    def test_torn_record_is_an_error(self, campaign, tmp_path):
        store = CampaignStore(tmp_path / "run")
        run_campaign(campaign, store)
        cell_id = sorted(store.completed_cell_ids())[0]
        store.cell_path(cell_id).write_text("{not json", encoding="utf-8")
        with pytest.raises(StoreError, match="cannot read cell record"):
            store.read_record(cell_id)

    def test_checkpoint_replacement_survives_kill_between_renames(self, tmp_path):
        store = CampaignStore(tmp_path / "run")
        store.write_checkpoint("cell", {"round": 1})
        store.write_checkpoint("cell", {"round": 2})
        # Each write replaces the last and leaves no temp or set-aside file.
        assert os.listdir(store.checkpoints_dir) == ["cell.json"]
        assert store.read_checkpoint("cell")["round"] == 2

        # A kill after the old checkpoint is set aside but before the new
        # one lands leaves only the set-aside copy: it is still read.
        os.replace(store.checkpoint_path("cell"),
                   store.checkpoints_dir / ".cell.json.prev")
        assert store.read_checkpoint("cell")["round"] == 2
        store.write_checkpoint("cell", {"round": 3})
        assert os.listdir(store.checkpoints_dir) == ["cell.json"]
        assert store.read_checkpoint("cell")["round"] == 3

        os.replace(store.checkpoint_path("cell"),
                   store.checkpoints_dir / ".cell.json.prev")
        store.clear_checkpoint("cell")
        assert store.read_checkpoint("cell") is None
        assert os.listdir(store.checkpoints_dir) == []


class TestRunAndResume:
    def test_store_records_all_cells(self, campaign, tmp_path):
        store = CampaignStore(tmp_path / "run")
        records = run_campaign(campaign, store)
        assert len(records) == len(campaign.cells())
        assert store.completed_cell_ids() == {
            cell.cell_id for cell in campaign.cells()}
        # Cell order matches campaign order.
        assert [record.cell_id for record in records] == [
            cell.cell_id for cell in campaign.cells()]

    def test_records_capture_metadata(self, campaign, tmp_path):
        records = run_campaign(campaign, tmp_path / "run")
        ga_records = [record for record in records if record.method == "ga"]
        assert ga_records
        for record in ga_records:
            assert "population_size" in record.metadata
            assert "num_generations" in record.metadata

    def test_resume_skips_completed_cells_bit_identically(self, campaign, tmp_path):
        """Kill + resume reproduces the uninterrupted grid bit-identically."""
        uninterrupted = run_campaign(campaign, tmp_path / "full")

        # Simulate a mid-run kill: drop half the finished cells.
        store = CampaignStore(tmp_path / "killed")
        run_campaign(campaign, store)
        for cell_id in sorted(store.completed_cell_ids())[::2]:
            os.unlink(store.cell_path(cell_id))
        assert len(store.completed_cell_ids()) == len(campaign.cells()) // 2

        resumed = resume_campaign(store)
        assert _dicts(resumed) == _dicts(uninterrupted)
        # Histories are compared exactly — float-for-float.
        for a, b in zip(resumed, uninterrupted):
            assert a.history == b.history
            assert a.best_trajectory == b.best_trajectory
            assert a.best_sequence == b.best_sequence

    def test_fully_complete_store_runs_nothing(self, campaign, tmp_path):
        store = CampaignStore(tmp_path / "run")
        first = run_campaign(campaign, store)
        progress = []
        second = resume_campaign(store, progress=progress.append)
        assert _dicts(first) == _dicts(second)
        assert all("[cached]" in message for message in progress)

    def test_parallel_resume_matches_serial(self, campaign, tmp_path):
        serial = run_campaign(campaign, tmp_path / "serial", jobs=1)
        store = CampaignStore(tmp_path / "parallel")
        run_campaign(campaign, store)
        for cell_id in sorted(store.completed_cell_ids())[1::2]:
            os.unlink(store.cell_path(cell_id))
        parallel = resume_campaign(store, jobs=2)
        assert _dicts(serial) == _dicts(parallel)

    def test_run_without_store(self, campaign):
        records = run_campaign(campaign)
        assert len(records) == len(campaign.cells())
        assert all(isinstance(record, RunRecord) for record in records)

    def test_persistent_cache_does_not_change_results(self, campaign, tmp_path):
        plain = run_campaign(campaign)
        cached = run_campaign(campaign, cache_dir=str(tmp_path / "qor-cache"))
        warm = run_campaign(campaign, cache_dir=str(tmp_path / "qor-cache"))
        assert _dicts(plain) == _dicts(cached) == _dicts(warm)

    def test_record_json_is_plain(self, campaign, tmp_path):
        """Stored records (including optimiser metadata) are valid JSON."""
        store = CampaignStore(tmp_path / "run")
        run_campaign(campaign, store)
        for cell_id in store.completed_cell_ids():
            payload = json.loads(
                store.cell_path(cell_id).read_text(encoding="utf-8"))
            assert payload["cell_id"] == cell_id
            assert isinstance(payload["history"], list)

    def test_records_convert_to_results_for_tables(self, campaign, tmp_path):
        from repro.experiments import build_qor_table

        records = run_campaign(campaign, tmp_path / "run")
        table = build_qor_table([record.to_result() for record in records])
        assert "RS" in table.methods and "GA" in table.methods

    def test_boils_resume_bit_identical(self, tmp_path):
        """The headline method round-trips through the store too."""
        campaign = Campaign(
            problems=(Problem("adder", width=4, sequence_length=3),),
            methods=("boils",),
            seeds=(0,),
            budget=6,
            method_overrides={"boils": {"num_initial": 2,
                                        "local_search_queries": 20,
                                        "adam_steps": 1, "fit_every": 2}},
            name="boils-resume",
        )
        uninterrupted = run_campaign(campaign, tmp_path / "full")
        store = CampaignStore(tmp_path / "killed")
        store.initialise(campaign)
        resumed = resume_campaign(store)
        assert _dicts(resumed) == _dicts(uninterrupted)
        assert "kernel_params" in resumed[0].metadata
