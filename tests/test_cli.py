"""Tests for the command-line interface."""

import pytest

from repro.cli import main, _parse_sequence


class TestParsing:
    def test_mnemonic_sequence(self):
        assert _parse_sequence("RwRfBl") == ["rewrite", "refactor", "balance"]

    def test_comma_separated_sequence(self):
        assert _parse_sequence("balance, rewrite") == ["balance", "rewrite"]

    def test_unknown_mnemonic_raises(self):
        with pytest.raises(ValueError):
            _parse_sequence("Zz")


class TestCommands:
    def test_list_circuits(self, capsys):
        assert main(["list-circuits"]) == 0
        out = capsys.readouterr().out
        assert "adder" in out and "multiplier" in out and "[large]" in out

    def test_list_methods(self, capsys):
        assert main(["list-methods"]) == 0
        out = capsys.readouterr().out
        assert "boils" in out and "rs" in out

    def test_stats(self, capsys):
        assert main(["stats", "--circuit", "adder", "--width", "4"]) == 0
        out = capsys.readouterr().out
        assert "AND nodes" in out and "LUT-6 area" in out

    def test_evaluate_with_mnemonics(self, capsys):
        assert main(["evaluate", "--circuit", "adder", "--width", "4",
                     "--sequence", "BlRw"]) == 0
        out = capsys.readouterr().out
        assert "QoR" in out and "improvement vs resyn2" in out

    def test_evaluate_with_names(self, capsys):
        assert main(["evaluate", "--circuit", "sqrt", "--width", "6",
                     "--sequence", "balance,rewrite"]) == 0
        assert "QoR" in capsys.readouterr().out

    def test_run_boils(self, capsys):
        assert main(["run", "--circuits", "adder", "--width", "4",
                     "--methods", "boils", "--budget", "4",
                     "--sequence-length", "3"]) == 0
        assert "BOiLS" in capsys.readouterr().out

    def test_run_random_search_stores_every_evaluation(self, capsys, tmp_path):
        from repro.api import CampaignStore

        store = tmp_path / "run"
        assert main(["run", "--circuits", "adder", "--width", "4",
                     "--methods", "rs", "--budget", "4",
                     "--sequence-length", "3", "--store", str(store)]) == 0
        assert "RS" in capsys.readouterr().out
        (record,) = CampaignStore(store).load_records()
        result = record.to_result()
        assert result.num_evaluations == 4 and len(result.best_sequence) == 3

    @pytest.mark.parametrize("command", ["optimise", "table"])
    def test_removed_commands_exit_with_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--circuit", "adder"])
        assert exit_info.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err

    def test_unknown_circuit_returns_error_code(self, capsys):
        assert main(["stats", "--circuit", "cpu"]) == 2
        assert "error:" in capsys.readouterr().err


class TestCampaignCommands:
    def test_run_inline_flags(self, capsys, tmp_path):
        assert main(["run", "--circuits", "adder", "--methods", "rs",
                     "--budget", "4", "--seeds", "1",
                     "--sequence-length", "3", "--width", "4",
                     "--store", str(tmp_path / "run")]) == 0
        captured = capsys.readouterr()
        assert "Figure 3 (top)" in captured.out
        assert "repro resume" in captured.err

    def test_run_resume_show_round_trip(self, capsys, tmp_path):
        store = str(tmp_path / "run")
        assert main(["run", "--circuits", "adder", "--methods", "rs,greedy",
                     "--budget", "4", "--seeds", "2",
                     "--sequence-length", "3", "--width", "4",
                     "--store", store]) == 0
        first = capsys.readouterr().out
        # Resume of a complete store recomputes nothing and reprints the grid.
        assert main(["resume", "--store", store]) == 0
        resumed = capsys.readouterr()
        assert "Figure 3 (top)" in resumed.out
        assert resumed.err.count("[cached]") == 4
        assert resumed.out == first
        # Show lists the cells and their status.
        assert main(["show", "--store", store]) == 0
        shown = capsys.readouterr().out
        assert "4/4 complete" in shown
        assert "adder-w4-lut6-k3__rs__s0" in shown

    def test_run_from_campaign_file(self, capsys, tmp_path):
        from repro.api import Campaign, Problem

        path = Campaign(
            problems=(Problem("adder", width=4, sequence_length=3),),
            methods=("rs",), seeds=(0,), budget=3, name="from-file",
        ).save(tmp_path / "campaign.json")
        assert main(["run", "--campaign", str(path)]) == 0
        assert "Figure 3 (top)" in capsys.readouterr().out

    def test_run_with_objective(self, capsys, tmp_path):
        assert main(["run", "--circuits", "adder", "--methods", "rs",
                     "--budget", "3", "--sequence-length", "3",
                     "--width", "4", "--objective", "weighted:2,1",
                     "--store", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        assert main(["show", "--store", str(tmp_path / "run")]) == 0
        assert "weighted-" in capsys.readouterr().out

    def test_resume_missing_store_errors(self, capsys, tmp_path):
        assert main(["resume", "--store", str(tmp_path / "missing")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_missing_campaign_file_errors(self, capsys, tmp_path):
        assert main(["run", "--campaign", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_unknown_method_errors(self, capsys):
        assert main(["run", "--circuits", "adder", "--methods", "annealing",
                     "--budget", "3"]) == 2
        err = capsys.readouterr().err
        assert "unknown method 'annealing'" in err

    def test_list_objectives(self, capsys):
        assert main(["list-objectives"]) == 0
        out = capsys.readouterr().out
        assert "eq1" in out and "weighted" in out


class TestRoundGranularCli:
    def test_run_streams_round_progress(self, capsys, tmp_path):
        assert main(["run", "--circuits", "adder", "--methods", "ga",
                     "--budget", "4", "--seeds", "1",
                     "--sequence-length", "3", "--width", "4",
                     "--store", str(tmp_path / "run")]) == 0
        err = capsys.readouterr().err
        assert "round 1" in err and "/4 evals" in err

    def test_table_is_identical_at_jobs_1_and_2(self, capsys, tmp_path):
        # One cache for both runs: jobs=1 fills it cold, jobs=2 reads it
        # warm, so the tables also show warm hits change nothing.
        tables = []
        for jobs in ("1", "2"):
            assert main(["run", "--circuits", "adder,sqrt",
                         "--methods", "rs,ga", "--budget", "4", "--seeds", "2",
                         "--sequence-length", "3", "--width", "4",
                         "--no-round-progress", "--jobs", jobs,
                         "--cache-dir", str(tmp_path / "cache"),
                         "--store", str(tmp_path / f"jobs{jobs}")]) == 0
            tables.append(capsys.readouterr().out)
        assert "Figure 3 (top)" in tables[0]
        assert tables[0] == tables[1]

    def test_no_round_progress_flag(self, capsys, tmp_path):
        assert main(["run", "--circuits", "adder", "--methods", "ga",
                     "--budget", "4", "--seeds", "1",
                     "--sequence-length", "3", "--width", "4",
                     "--no-round-progress",
                     "--store", str(tmp_path / "run")]) == 0
        assert "round 1" not in capsys.readouterr().err

    def test_show_follow_on_complete_store_exits(self, capsys, tmp_path):
        store = str(tmp_path / "run")
        assert main(["run", "--circuits", "adder", "--methods", "rs",
                     "--budget", "3", "--seeds", "1",
                     "--sequence-length", "3", "--width", "4",
                     "--store", store]) == 0
        capsys.readouterr()
        # All cells complete: --follow prints one status sweep and returns.
        assert main(["show", "--store", store, "--follow",
                     "--interval", "0.05"]) == 0
        captured = capsys.readouterr()
        assert "round(s) [done]" in captured.err
        assert "1/1 complete" in captured.out

    def test_early_stop_flag_threads_through(self, capsys, tmp_path):
        assert main(["run", "--circuits", "adder", "--methods", "ga",
                     "--budget", "50", "--seeds", "1",
                     "--sequence-length", "3", "--width", "4",
                     "--early-stop-improvement", "-1000",
                     "--store", str(tmp_path / "run")]) == 0
        err = capsys.readouterr().err
        assert "early stop (stop_condition)" in err

    def test_failed_cells_yield_nonzero_exit(self, capsys, tmp_path):
        from repro.api import Campaign, Problem

        path = Campaign(
            problems=(Problem("adder", width=4, sequence_length=3),),
            methods=("rs", "ga"), seeds=(0,), budget=3,
            method_overrides={"ga": {"no_such_argument": 1}},
            name="half-broken",
        ).save(tmp_path / "campaign.json")
        assert main(["run", "--campaign", str(path),
                     "--store", str(tmp_path / "run")]) == 1
        captured = capsys.readouterr()
        assert "1 cell(s) failed" in captured.err
        assert "Figure 3 (top)" in captured.out  # healthy cells still render

    def test_trajectories_written_by_cli_run(self, tmp_path):
        from repro.api import CampaignStore

        store_dir = str(tmp_path / "run")
        assert main(["run", "--circuits", "adder", "--methods", "rs",
                     "--budget", "3", "--seeds", "1",
                     "--sequence-length", "3", "--width", "4",
                     "--store", store_dir]) == 0
        store = CampaignStore(store_dir)
        cell_id = sorted(store.completed_cell_ids())[0]
        assert store.trajectory_round_count(cell_id) >= 1


class TestRunLutSize:
    def test_lut_size_reaches_the_grid(self, capsys, monkeypatch):
        from repro import cli as cli_module

        campaigns = []
        real_run_campaign = cli_module.run_campaign

        def spy(campaign, **kwargs):
            campaigns.append(campaign)
            return real_run_campaign(campaign, **kwargs)

        monkeypatch.setattr(cli_module, "run_campaign", spy)
        assert main(["run", "--circuits", "adder,sqrt", "--methods", "rs",
                     "--budget", "3", "--sequence-length", "3",
                     "--width", "4", "--lut-size", "4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3 (top)" in out and "Average" in out
        (campaign,) = campaigns
        assert [problem.lut_size for problem in campaign.problems] == [4, 4]


class TestCorpusCommands:
    def _build(self, tmp_path, capsys, count=3):
        dest = str(tmp_path / "corpus")
        assert main(["corpus", "build", "--dest", dest, "--count", str(count),
                     "--seed", "2", "--max-gates", "40"]) == 0
        capsys.readouterr()
        return dest

    def test_corpus_build_and_list(self, capsys, tmp_path):
        dest = self._build(tmp_path, capsys)
        assert main(["circuits", "list", "--corpus", dest]) == 0
        out = capsys.readouterr().out
        assert "layered-002-000" in out
        assert "ands" in out

    def test_circuits_list_without_corpus_lists_registry(self, capsys):
        assert main(["circuits", "list"]) == 0
        out = capsys.readouterr().out
        assert "adder" in out and "multiplier" in out

    def test_circuits_stats_named_circuit(self, capsys):
        assert main(["circuits", "stats", "--circuit", "adder",
                     "--width", "4"]) == 0
        out = capsys.readouterr().out
        assert "AND nodes" in out and "AIG levels" in out

    def test_circuits_stats_on_file(self, capsys, tmp_path):
        from repro.aig.aiger import write_aiger
        from repro.circuits import make_adder

        path = tmp_path / "c.aag"
        write_aiger(make_adder(4), path)
        assert main(["circuits", "stats", "--circuit", str(path)]) == 0
        assert "inputs       : 8" in capsys.readouterr().out

    def test_circuits_stats_corpus_table(self, capsys, tmp_path):
        dest = self._build(tmp_path, capsys)
        assert main(["circuits", "stats", "--corpus", dest]) == 0
        assert "total: 3 circuit(s)" in capsys.readouterr().out

    def test_circuits_stats_requires_one_target(self, capsys):
        assert main(["circuits", "stats"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_circuits_import(self, capsys, tmp_path):
        from repro.aig.bench import write_bench
        from repro.circuits import make_multiplier

        dest = self._build(tmp_path, capsys)
        source = tmp_path / "ext.bench"
        write_bench(make_multiplier(3), source)
        assert main(["circuits", "import", "--corpus", dest,
                     str(source)]) == 0
        assert "imported" in capsys.readouterr().out
        assert main(["circuits", "list", "--corpus", dest]) == 0
        assert "ext" in capsys.readouterr().out

    def test_run_over_corpus_and_show_stats(self, capsys, tmp_path):
        dest = self._build(tmp_path, capsys)
        store = str(tmp_path / "run")
        assert main(["run", "--corpus", dest, "--methods", "rs",
                     "--budget", "3", "--sequence-length", "3",
                     "--store", store, "--jobs", "2"]) == 0
        capsys.readouterr()
        assert main(["show", "--store", store]) == 0
        shown = capsys.readouterr().out
        assert "3/3 complete" in shown
        # Circuit stats are surfaced per problem in `repro show`.
        assert "circuits      :" in shown
        assert "pis" in shown and "levels" in shown

    def test_run_on_single_file_circuit(self, capsys, tmp_path):
        from repro.aig.aiger import write_aiger
        from repro.circuits import make_adder

        path = tmp_path / "mine.aag"
        write_aiger(make_adder(4), path)
        assert main(["run", "--circuits", f"file:{path}", "--methods", "rs",
                     "--budget", "3", "--sequence-length", "3"]) == 0
        assert "Figure 3 (top)" in capsys.readouterr().out

    def test_run_over_missing_corpus_errors(self, capsys, tmp_path):
        assert main(["run", "--corpus", str(tmp_path / "ghost"),
                     "--methods", "rs"]) == 2
        assert "not a corpus directory" in capsys.readouterr().err
