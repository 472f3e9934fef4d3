"""Each campaign cell opens its own persistent QoR cache and closes it.

The serial path runs cells in the calling process, so a connection left
open by a cell would outlive ``run_campaign`` and ``run_problem``.  The
cell's scheduled cache faults reach only its own connection, counted
from its first cache operation.
"""

import time

import pytest

from repro.api import Campaign, Problem, run_campaign, run_problem
from repro.baselines import RandomSearch
from repro.engine import faults
from repro.engine.cache import PersistentQoRCache
from repro.engine.faults import FaultEvent, FaultPlan


@pytest.fixture()
def caches(monkeypatch):
    """Every cache opened during the test, and every one closed."""
    opened, closed = [], []
    init, close = PersistentQoRCache.__init__, PersistentQoRCache.close

    def spy_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        opened.append(self)

    def spy_close(self):
        closed.append(self)
        close(self)

    monkeypatch.setattr(PersistentQoRCache, "__init__", spy_init)
    monkeypatch.setattr(PersistentQoRCache, "close", spy_close)
    return opened, closed


def _assert_all_closed(opened, closed, count):
    # Each run_campaign call checks the cache once up front; each cell then
    # opens its own connection.
    assert len(opened) == count
    assert {id(cache) for cache in opened} <= {id(cache) for cache in closed}
    assert all(cache._conn is None for cache in opened)


@pytest.fixture()
def failing_second_cell(monkeypatch):
    """Make the second RandomSearch run raise inside its drive loop."""
    observe = RandomSearch.observe
    calls = {"prepare": 0}
    prepare = RandomSearch.prepare

    def counting_prepare(self, evaluator, budget):
        calls["prepare"] += 1
        prepare(self, evaluator, budget)

    def failing_observe(self, rows, records):
        if calls["prepare"] == 2:
            raise RuntimeError("boom")
        observe(self, rows, records)

    monkeypatch.setattr(RandomSearch, "prepare", counting_prepare)
    monkeypatch.setattr(RandomSearch, "observe", failing_observe)


def _campaign(seeds):
    return Campaign(problems=(Problem("adder", width=4, sequence_length=3),),
                    methods=("rs",), seeds=seeds, budget=4, name="cell-cache")


class TestSerialCellsCloseTheirCache:
    def test_run_campaign(self, caches, tmp_path):
        records = run_campaign(_campaign((0, 1, 2)), jobs=1,
                               cache_dir=str(tmp_path / "cache"))
        assert all(record.ok for record in records)
        _assert_all_closed(*caches, count=1 + 3)

    def test_run_campaign_with_a_failing_cell(self, caches, tmp_path,
                                              failing_second_cell):
        records = run_campaign(_campaign((0, 1, 2)), jobs=1,
                               cache_dir=str(tmp_path / "cache"))
        assert [record.status for record in records] == ["ok", "failed", "ok"]
        _assert_all_closed(*caches, count=1 + 3)

    def test_run_problem(self, caches, tmp_path):
        run_problem(Problem("adder", width=4, sequence_length=3), "rs",
                    budget=4, cache_dir=str(tmp_path / "cache"))
        _assert_all_closed(*caches, count=1 + 1)

    def test_run_problem_with_a_failing_cell(self, caches, tmp_path,
                                             failing_second_cell):
        problem = Problem("adder", width=4, sequence_length=3)
        run_problem(problem, "rs", budget=4, cache_dir=str(tmp_path / "cache"))
        with pytest.raises(RuntimeError, match="boom"):
            run_problem(problem, "rs", budget=4,
                        cache_dir=str(tmp_path / "cache"))
        _assert_all_closed(*caches, count=2 * (1 + 1))


class TestCacheDirIsCheckedOnce:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_file_as_cache_dir_fails_the_campaign(self, tmp_path, jobs):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        with pytest.raises(ValueError, match="not a directory"):
            run_campaign(_campaign((0, 1)), tmp_path / "store", jobs=jobs,
                         cache_dir=str(blocker / "cache"))
        assert not list((tmp_path / "store").glob("records/*"))


def _cell_ids(campaign):
    return [cell.cell_id for cell in campaign.validate().resolved().cells()]


class TestCellCacheFaults:
    @pytest.fixture(autouse=True)
    def no_backoff(self, monkeypatch):
        # The cache's own retry backoff; results never depend on it.
        monkeypatch.setattr(time, "sleep", lambda _seconds: None)

    def test_first_cache_operation_has_fault_ordinal_zero(self, tmp_path,
                                                           monkeypatch):
        ops = []
        build = faults.build_cache_hook

        def recording_build(plan_json):
            hook = build(plan_json)

            def recording(op_name):
                ops.append(op_name)
                hook(op_name)

            return recording

        monkeypatch.setattr(faults, "build_cache_hook", recording_build)
        campaign = _campaign((0,))
        plan = FaultPlan(events=(FaultEvent(
            kind="cache_error", cell=_cell_ids(campaign)[0], at=0),))
        cache_dir = str(tmp_path / "cache")
        records = run_campaign(campaign, jobs=1, cache_dir=cache_dir,
                               fault_plan=plan)
        # The connection opened before the hook was attached; the error
        # scheduled at ordinal 0 hit the first lookup, which was retried.
        assert ops[:2] == ["get", "get"]
        clean = run_campaign(campaign, jobs=1)
        assert [r.to_dict() for r in records] == [r.to_dict() for r in clean]
        with PersistentQoRCache(cache_dir) as cache:
            assert len(cache) == 4

    def test_a_degraded_cache_ends_with_its_cell(self, tmp_path):
        campaign = _campaign((0, 1))
        plan = FaultPlan(events=(FaultEvent(
            kind="cache_error", cell=_cell_ids(campaign)[0], at=0,
            count=10_000),))
        cache_dir = str(tmp_path / "cache")
        with pytest.warns(RuntimeWarning, match="degraded to memory-only"):
            records = run_campaign(campaign, jobs=1, cache_dir=cache_dir,
                                   fault_plan=plan)
        assert all(record.ok for record in records)
        # Only the second cell's four rows reached the disk: its own
        # connection never saw the first cell's faults.
        with PersistentQoRCache(cache_dir) as cache:
            assert len(cache) == 4
