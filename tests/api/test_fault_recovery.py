"""End-to-end fault recovery for the campaign driver and CLI.

The headline guarantee under test: a campaign running under an injected
fault plan (worker crashes, hangs, transient cache errors) completes
with records *bit-identical* to a fault-free run, because every retry
resumes the cell from its last checkpoint.  Unrecoverable inputs are
quarantined — distinct from failed — and skipped on resume.

Backoff sleeps are injected as recorders and hangs are bounded by the
deadline machinery itself, so no assertion waits on wall-clock sleeps.
"""

import dataclasses
import json
import threading

import pytest

from repro import cli
from repro.api import (
    Campaign,
    CampaignStore,
    PoolUnrecoverableError,
    Problem,
    RunRecord,
    resume_campaign,
    run_campaign,
)
from repro.engine.faults import FaultEvent, FaultPlan, RetryPolicy


def _no_sleep(_seconds: float) -> None:
    pass


ZERO_BACKOFF = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)


def _campaign(methods=("rs",), seeds=(0,), budget=4, *, eval_timeout=None,
              cell_timeout=None):
    base = Campaign(
        problems=(Problem("adder", width=4, sequence_length=3),),
        methods=methods, seeds=seeds, budget=budget, name="ft")
    if eval_timeout is None and cell_timeout is None:
        return base
    return dataclasses.replace(base, eval_timeout=eval_timeout,
                               cell_timeout=cell_timeout)


def _cell_ids(campaign):
    return [cell.cell_id for cell in campaign.validate().resolved().cells()]


def _assert_bit_identical(records, clean, context=""):
    assert len(records) == len(clean)
    for got, want in zip(records, clean):
        assert got.status == want.status == "ok", context
        assert got.to_dict() == want.to_dict(), (
            f"recovered record for {got.cell_id} differs from the "
            f"fault-free run {context}")


class TestRecoveryBitIdentical:
    def test_crash_hang_cache_error_jobs2(self, tmp_path):
        """The acceptance scenario: all three fault kinds at jobs=2."""
        campaign = _campaign(methods=("rs", "ga"), seeds=(0, 1), budget=6,
                             eval_timeout=1.5)
        ids = _cell_ids(campaign)
        plan = FaultPlan(events=(
            FaultEvent(kind="crash", cell=ids[0], attempt=0, at=2),
            FaultEvent(kind="hang", cell=ids[1], attempt=0, at=1,
                       duration=60.0),
            FaultEvent(kind="cache_error", cell=ids[2], attempt=0, at=0),
        ), seed=7)
        messages = []
        records = run_campaign(
            campaign, tmp_path / "faulted", jobs=2, retry=ZERO_BACKOFF,
            fault_plan=plan, cache_dir=str(tmp_path / "cache-faulted"),
            sleep=_no_sleep, progress=messages.append)
        # The injected faults must actually have fired: at least the
        # crashed and hung cells went through the retry path.
        assert sum("retry" in message for message in messages) >= 2, messages
        clean = run_campaign(
            campaign, tmp_path / "clean", jobs=2,
            cache_dir=str(tmp_path / "cache-clean"))
        _assert_bit_identical(records, clean)

    def test_serial_crash_recovery(self, tmp_path):
        campaign = _campaign(budget=4)
        plan = FaultPlan(events=(
            FaultEvent(kind="crash", cell=_cell_ids(campaign)[0],
                       attempt=0, at=2),))
        records = run_campaign(campaign, tmp_path / "faulted", jobs=1,
                               retry=ZERO_BACKOFF, fault_plan=plan,
                               sleep=_no_sleep)
        clean = run_campaign(campaign, tmp_path / "clean", jobs=1)
        _assert_bit_identical(records, clean)

    def test_pool_crash_recovery_matches_serial(self, tmp_path):
        campaign = _campaign(seeds=(0, 1), budget=4)
        plan = FaultPlan(events=(
            FaultEvent(kind="crash", cell=_cell_ids(campaign)[1],
                       attempt=0, at=1),))
        records = run_campaign(campaign, tmp_path / "faulted", jobs=2,
                               retry=ZERO_BACKOFF, fault_plan=plan,
                               sleep=_no_sleep)
        clean = run_campaign(campaign, tmp_path / "clean", jobs=1)
        _assert_bit_identical(records, clean)

    def test_serial_eval_timeout_recovery(self, tmp_path):
        """A hung evaluation in an in-process cell (as ``run_problem`` runs)."""
        campaign = _campaign(budget=4, eval_timeout=0.5)
        plan = FaultPlan(events=(
            FaultEvent(kind="hang", cell=_cell_ids(campaign)[0],
                       attempt=0, at=1, duration=60.0),))
        messages = []
        records = run_campaign(campaign, tmp_path / "faulted", jobs=1,
                               retry=ZERO_BACKOFF, fault_plan=plan,
                               sleep=_no_sleep, progress=messages.append)
        assert any("retry" in message and "evaluation exceeded" in message
                   for message in messages), messages
        clean = run_campaign(campaign, tmp_path / "clean", jobs=1)
        _assert_bit_identical(records, clean)

    def test_serial_cell_timeout_recovery(self, tmp_path):
        campaign = _campaign(budget=4, cell_timeout=1.0)
        plan = FaultPlan(events=(
            FaultEvent(kind="hang", cell=_cell_ids(campaign)[0],
                       attempt=0, at=1, duration=60.0),))
        records = run_campaign(campaign, tmp_path / "faulted", jobs=1,
                               retry=ZERO_BACKOFF, fault_plan=plan,
                               sleep=_no_sleep)
        clean = run_campaign(campaign, tmp_path / "clean", jobs=1)
        _assert_bit_identical(records, clean)

    def test_seeded_random_plan_recovers(self, tmp_path, fault_seed):
        """CI rotates ``--fault-seed``; any failure names its seed."""
        campaign = _campaign(methods=("rs",), seeds=(0, 1), budget=6,
                             eval_timeout=1.0)
        plan = FaultPlan.random(fault_seed, _cell_ids(campaign),
                                hang_duration=60.0)
        policy = RetryPolicy(max_attempts=5, backoff_base=0.0, jitter=0.0,
                             max_pool_rebuilds=8)
        records = run_campaign(
            campaign, tmp_path / "faulted", jobs=2, retry=policy,
            fault_plan=plan, cache_dir=str(tmp_path / "cache"),
            sleep=_no_sleep)
        clean = run_campaign(campaign, tmp_path / "clean", jobs=2)
        _assert_bit_identical(
            records, clean,
            context=f"(reproduce with --fault-seed={fault_seed})")


class TestQuarantine:
    def _poison_plan(self, cell_id, attempts=4):
        # Crash on every attempt the retry budget allows: unrecoverable.
        return FaultPlan(events=tuple(
            FaultEvent(kind="crash", cell=cell_id, attempt=attempt,
                       at=0, count=10_000)
            for attempt in range(attempts)))

    def test_poison_cell_is_quarantined_with_metadata(self, tmp_path):
        campaign = _campaign(seeds=(0, 1), budget=4)
        ids = _cell_ids(campaign)
        store = tmp_path / "runs"
        records = run_campaign(campaign, store, jobs=1, retry=ZERO_BACKOFF,
                               fault_plan=self._poison_plan(ids[0]),
                               sleep=_no_sleep)
        assert [record.status for record in records] == ["quarantined", "ok"]
        bad = records[0]
        assert bad.quarantined and not bad.failed and not bad.ok
        assert bad.metadata["attempts"] == ZERO_BACKOFF.max_attempts
        assert "InjectedCrash" in bad.metadata["error"]
        quarantine = bad.metadata["quarantine"]
        assert quarantine["seed"] == 0
        assert set(quarantine) == {"circuit_hash", "sequence", "seed"}
        assert CampaignStore(store).quarantined_cell_ids() == {ids[0]}

    def test_evaluation_that_always_hangs_is_quarantined(self, tmp_path):
        campaign = _campaign(seeds=(0, 1), budget=4, eval_timeout=0.3)
        ids = _cell_ids(campaign)
        plan = FaultPlan(events=tuple(
            FaultEvent(kind="hang", cell=ids[0], attempt=attempt, at=0,
                       count=10_000, duration=60.0)
            for attempt in range(2)))
        policy = RetryPolicy(max_attempts=2, backoff_base=0.0, jitter=0.0)
        records = run_campaign(campaign, tmp_path / "runs", jobs=2,
                               retry=policy, fault_plan=plan,
                               sleep=_no_sleep)
        assert [record.status for record in records] == ["quarantined", "ok"]
        assert records[0].metadata["attempts"] == policy.max_attempts
        assert "DeadlineExceeded" in records[0].metadata["error"]

    def test_resume_skips_quarantined_until_opted_in(self, tmp_path):
        campaign = _campaign(seeds=(0, 1), budget=4)
        ids = _cell_ids(campaign)
        store = tmp_path / "runs"
        run_campaign(campaign, store, jobs=1, retry=ZERO_BACKOFF,
                     fault_plan=self._poison_plan(ids[0]), sleep=_no_sleep)

        messages = []
        records = resume_campaign(store, jobs=1, progress=messages.append,
                                  sleep=_no_sleep)
        assert records[0].quarantined  # untouched
        assert any("quarantined (skipped)" in message for message in messages)

        # Opting back in (fault plan gone) recovers the cell, and the
        # result matches a never-faulted campaign exactly.
        records = resume_campaign(store, jobs=1, retry_quarantined=True,
                                  sleep=_no_sleep)
        clean = run_campaign(campaign, tmp_path / "clean", jobs=1)
        _assert_bit_identical(records, clean)


class TestUnrecoverablePool:
    def test_pool_that_keeps_dying_raises(self, tmp_path):
        campaign = _campaign(methods=("rs",), seeds=(0, 1), budget=4)
        plan = FaultPlan(events=tuple(
            FaultEvent(kind="crash", attempt=attempt, at=0, count=10_000)
            for attempt in range(6)))
        policy = RetryPolicy(max_attempts=10, backoff_base=0.0, jitter=0.0,
                             max_pool_rebuilds=1)
        with pytest.raises(PoolUnrecoverableError):
            run_campaign(campaign, tmp_path / "runs", jobs=2, retry=policy,
                         fault_plan=plan, sleep=_no_sleep)


class TestCliExitCodes:
    BASE = ["run", "--circuits", "adder", "--width", "4", "--methods", "rs",
            "--budget", "2", "--sequence-length", "3", "--retry-backoff", "0",
            "--no-round-progress"]

    def test_success_exits_zero(self, capsys):
        assert cli.main([*self.BASE, "--seeds", "0"]) == 0
        capsys.readouterr()

    def test_quarantined_cell_exits_one(self, tmp_path, capsys):
        plan = FaultPlan(events=(
            FaultEvent(kind="crash", attempt=0, at=0, count=10_000),
            FaultEvent(kind="crash", attempt=1, at=0, count=10_000),
        ))
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(plan.to_json())
        code = cli.main([*self.BASE, "--seeds", "0", "--jobs", "1",
                         "--store", str(tmp_path / "runs"),
                         "--fault-plan", str(plan_file),
                         "--max-attempts", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert "quarantined" in err
        assert "--retry-quarantined" in err
        # `show` on the stored campaign surfaces the quarantined status.
        show = cli.main(["show", "--store", str(tmp_path / "runs")])
        assert show == 0
        assert "quarantined" in capsys.readouterr().out

    def test_infrastructure_failure_exits_two(self, tmp_path, capsys):
        plan = FaultPlan(events=tuple(
            FaultEvent(kind="crash", attempt=attempt, at=0, count=10_000)
            for attempt in range(6)))
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(plan.to_json())
        code = cli.main([*self.BASE, "--seeds", "0,1", "--jobs", "2",
                         "--fault-plan", str(plan_file),
                         "--max-attempts", "10", "--pool-rebuilds", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_fault_plan_env_var(self, tmp_path, capsys, monkeypatch):
        campaign = _campaign(budget=2)
        plan = FaultPlan(events=(
            FaultEvent(kind="crash", cell=_cell_ids(campaign)[0],
                       attempt=0, at=0),))
        monkeypatch.setenv("REPRO_FAULT_PLAN", plan.to_json())
        # The injected crash is recovered (attempt 1 is clean): exit 0.
        assert cli.main([*self.BASE, "--seeds", "0"]) == 0
        capsys.readouterr()


class TestTornRecords:
    def test_torn_record_reads_as_unfinished_and_reruns(self, tmp_path):
        campaign = _campaign(budget=3)
        store_path = tmp_path / "runs"
        records = run_campaign(campaign, store_path, jobs=1)
        cell_id = records[0].cell_id
        store = CampaignStore(store_path)
        assert store.record_status(cell_id) == "ok"

        pristine = store.cell_path(cell_id).read_bytes()
        store.cell_path(cell_id).write_bytes(pristine[:len(pristine) // 2])
        assert store.record_status(cell_id) is None
        assert store.cell_statuses() == {}

        resumed = resume_campaign(store_path, jobs=1)
        assert resumed[0].to_dict() == records[0].to_dict()
        assert store.cell_path(cell_id).read_bytes() == pristine

    def test_empty_and_missing_records_read_as_none(self, tmp_path):
        campaign = _campaign(budget=2)
        store = CampaignStore(tmp_path / "runs")
        store.initialise(campaign)
        cell_id = _cell_ids(campaign)[0]
        assert store.record_status(cell_id) is None
        store.cells_dir.mkdir(parents=True, exist_ok=True)
        store.cell_path(cell_id).write_text("")
        assert store.record_status(cell_id) is None
        store.cell_path(cell_id).write_text("{invalid json\n")
        assert store.record_status(cell_id) is None


class TestShowFollow:
    def _ok_record(self, cell, budget):
        return RunRecord(
            cell_id=cell.cell_id, problem_key=cell.problem.key,
            method=cell.method, method_display=cell.method,
            circuit=cell.problem.circuit, seed=cell.seed, budget=budget,
            objective="eq1", best_sequence=("rewrite",), best_qor=1.0,
            best_improvement=0.0, best_area=10, best_delay=3,
            num_evaluations=budget)

    def test_follow_mixed_statuses_returns_when_settled(self, tmp_path,
                                                        capsys):
        """``show --follow`` over failed + quarantined + partial cells.

        The partial cell is completed from the main thread while the
        follower polls in the background; the follower must return once
        every cell has a terminal status.  The join timeout bounds the
        wait — nothing sleeps to synchronise.
        """
        campaign = _campaign(seeds=(0, 1, 2), budget=2)
        store = CampaignStore(tmp_path / "runs")
        resolved = store.initialise(campaign)
        cells = resolved.cells()

        store.write_record(RunRecord.from_failure(
            cells[0], campaign.budget, ValueError("optimiser bug")))
        store.write_record(RunRecord.from_quarantine(
            cells[1], campaign.budget, RuntimeError("kept crashing"), 3))
        store.append_trajectory(cells[2].cell_id, {"round_index": 1})
        store.write_checkpoint(cells[2].cell_id, {"round": 1})
        assert store.cell_statuses()[cells[2].cell_id] == "partial"

        outcome = []
        follower = threading.Thread(
            target=lambda: outcome.append(cli.main(
                ["show", "--store", str(store.root), "--follow",
                 "--interval", "0.05"])),
            daemon=True)
        follower.start()
        store.write_record(self._ok_record(cells[2], campaign.budget))
        follower.join(timeout=30)
        assert not follower.is_alive(), "--follow never settled"
        assert outcome == [0]

        captured = capsys.readouterr()
        assert "[failed" in captured.out
        assert "[quarantined" in captured.out
        assert "[done" in captured.out

    def test_show_lists_quarantined_rounds(self, tmp_path, capsys):
        campaign = _campaign(seeds=(0,), budget=2)
        store = CampaignStore(tmp_path / "runs")
        resolved = store.initialise(campaign)
        cell = resolved.cells()[0]
        store.append_trajectory(cell.cell_id, {"round_index": 1})
        store.write_record(RunRecord.from_quarantine(
            cell, campaign.budget, RuntimeError("kept hanging"), 3))
        assert cli.main(["show", "--store", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "quarantined" in out
        assert "1 round(s) persisted" in out
