"""Command-line interface for the BOiLS reproduction.

The primary workflow is campaign-based (built on :mod:`repro.api`):

* ``run``    — run a declarative campaign (from a JSON file or inline
  flags) into a resumable run directory, with live round-level progress
  streamed from the workers,
* ``resume`` — continue a killed or partial run directory; completed
  cells are skipped bit-identically and partially finished cells
  continue from their mid-cell checkpoint,
* ``show``   — inspect a run directory: manifest, cell status, and the
  QoR table over the completed cells; ``--follow`` tails a directory
  that another process is still writing,
* ``list-circuits`` / ``list-methods`` / ``list-objectives`` — what the
  registries currently offer (including entry-point plugins),
* ``backends list`` — the registered synthesis backends and their
  availability on this host; ``run``/``evaluate`` select one with
  ``--backend`` (``native``, ``abc``, ``replay:TAPE``,
  ``record:TAPE`` or inline JSON).

Single-shot subcommands (``stats``, ``evaluate``) inspect one circuit
or one sequence.

Examples
--------
::

    python -m repro.cli run --circuits adder,sqrt --methods boils,rs \
        --budget 20 --seeds 3 --store runs/demo --jobs 4
    python -m repro.cli resume --store runs/demo --jobs 4
    python -m repro.cli show --store runs/demo

    python -m repro.cli run --campaign my_campaign.json --store runs/full
    python -m repro.cli run --circuits adder --objective weighted:2,1 ...

    python -m repro.cli stats --circuit multiplier --width 6
    python -m repro.cli evaluate --circuit adder --sequence RwRfBl
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.api import (
    Campaign,
    CampaignStore,
    Problem,
    StoreError,
    parse_objective_argument,
    resume_campaign,
    run_campaign,
)
from repro.circuits import get_circuit, list_circuits
from repro.config import env_fault_plan
from repro.qor.backends import BackendError, parse_backend_argument
from repro.engine import (
    EngineFaultError,
    FaultPlan,
    RetryPolicy,
    default_cache_dir,
)
from repro.experiments import available_methods, build_qor_table
from repro.experiments.figures import render_figure3_table
from repro.experiments.runner import method_display_names
from repro.mapping import map_aig
from repro.qor import QoREvaluator
from repro.registry import OBJECTIVES
from repro.synth.operations import sequence_to_string, string_to_sequence


def _add_fault_tolerance_arguments(command: argparse.ArgumentParser) -> None:
    """Deadline/retry/fault-injection flags shared by run and resume."""
    group = command.add_argument_group("fault tolerance")
    group.add_argument("--eval-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-evaluation deadline; a blown evaluation is "
                            "retried, then the cell quarantined")
    group.add_argument("--cell-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-cell-attempt deadline; a blown cell is "
                            "recycled and retried from its checkpoint")
    group.add_argument("--max-attempts", type=int, default=None, metavar="K",
                       help="attempts per cell before quarantine (default 3)")
    group.add_argument("--retry-backoff", type=float, default=None,
                       metavar="SECONDS",
                       help="base retry backoff delay (default 0.25, doubled "
                            "per attempt with deterministic jitter)")
    group.add_argument("--pool-rebuilds", type=int, default=None, metavar="N",
                       help="worker-pool rebuilds after crashes before the "
                            "run aborts as unrecoverable (default 2)")
    group.add_argument("--fault-plan", default=None, metavar="PLAN",
                       help="deterministic fault-injection schedule for "
                            "testing recovery: inline JSON or a file path "
                            "(default: the REPRO_FAULT_PLAN env var)")


def _retry_policy_from_args(args) -> Optional[RetryPolicy]:
    if (args.max_attempts is None and args.retry_backoff is None
            and args.pool_rebuilds is None):
        return None
    defaults = RetryPolicy()
    return RetryPolicy(
        max_attempts=(args.max_attempts if args.max_attempts is not None
                      else defaults.max_attempts),
        backoff_base=(args.retry_backoff if args.retry_backoff is not None
                      else defaults.backoff_base),
        max_pool_rebuilds=(args.pool_rebuilds if args.pool_rebuilds is not None
                           else defaults.max_pool_rebuilds),
    )


def _fault_plan_from_args(args) -> Optional[FaultPlan]:
    raw = args.fault_plan or env_fault_plan()
    return FaultPlan.from_argument(raw) if raw else None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="BOiLS reproduction command-line interface")
    sub = parser.add_subparsers(dest="command", required=True)

    # ------------------------------------------------------------------
    # Campaign workflow
    # ------------------------------------------------------------------
    run = sub.add_parser(
        "run", help="run a declarative campaign (resumable with --store)")
    run.add_argument("--campaign", default=None, metavar="FILE",
                     help="campaign JSON file; inline flags are ignored "
                          "when given")
    run.add_argument("--name", default="campaign", help="campaign name")
    run.add_argument("--circuits", default="adder,sqrt",
                     help="comma-separated circuit names (registered names "
                          "or file:<path> / *.aag / *.blif / *.bench files)")
    run.add_argument("--corpus", default=None, metavar="DIR",
                     help="run over every circuit of a corpus directory "
                          "(see `repro corpus build`); overrides --circuits")
    run.add_argument("--methods", default="boils,rs",
                     help="comma-separated method keys")
    run.add_argument("--budget", type=int, default=20,
                     help="black-box evaluations per cell")
    run.add_argument("--seeds", default="1",
                     help="seed count (N -> 0..N-1) or an explicit comma "
                          "list; use a trailing comma for one specific "
                          "seed (e.g. '5,' runs seed 5 only)")
    run.add_argument("--sequence-length", type=int, default=8)
    run.add_argument("--lut-size", type=int, default=6)
    run.add_argument("--width", type=int, default=None,
                     help="circuit bit-width override (default: registry)")
    run.add_argument("--objective", default="eq1",
                     help="QoR objective: a registered key (eq1, area, "
                          "delay), weighted:W_AREA,W_DELAY, or inline JSON")
    run.add_argument("--backend", default="native",
                     help="synthesis backend: a registered key (native, "
                          "abc), replay:TAPE / record:TAPE, or inline "
                          "JSON (see `repro backends list`)")
    run.add_argument("--store", default=None, metavar="DIR",
                     help="run directory for checkpoint/restart; omit for "
                          "an in-memory run")
    run.add_argument("--env-overrides", action="store_true",
                     help="apply the REPRO_BUDGET/REPRO_SEEDS/... "
                          "environment layer to the campaign")
    run.add_argument("--jobs", type=int, default=1,
                     help="worker processes for cells (1 = serial, 0 = all "
                          "CPUs)")
    run.add_argument("--cache-dir", default=None,
                     help="directory of the persistent QoR cache shared "
                          "across runs (default: REPRO_CACHE_DIR, else off)")
    run.add_argument("--checkpoint-every", type=int, default=1, metavar="N",
                     help="mid-cell checkpoint cadence in rounds (store "
                          "runs only; 0 disables checkpoints)")
    run.add_argument("--wall-clock-budget", type=float, default=None,
                     metavar="SECONDS",
                     help="per-cell wall-clock cap threaded into the drive "
                          "loop (non-deterministic across machines)")
    run.add_argument("--early-stop-improvement", type=float, default=None,
                     metavar="PCT",
                     help="end a cell once its best QoR improvement "
                          "reaches this percentage")
    run.add_argument("--no-round-progress", action="store_true",
                     help="suppress the live per-round progress stream")
    _add_fault_tolerance_arguments(run)

    resume = sub.add_parser(
        "resume", help="continue a partial run directory (completed cells "
                       "are skipped bit-identically; partially finished "
                       "cells continue from their checkpoint)")
    resume.add_argument("--store", required=True, metavar="DIR")
    resume.add_argument("--jobs", type=int, default=1)
    resume.add_argument("--cache-dir", default=None)
    resume.add_argument("--checkpoint-every", type=int, default=1, metavar="N")
    resume.add_argument("--no-round-progress", action="store_true",
                        help="suppress the live per-round progress stream")
    _add_fault_tolerance_arguments(resume)
    resume.add_argument("--retry-quarantined", action="store_true",
                        help="re-run quarantined cells (skipped by default) "
                             "from their last checkpoint")

    show = sub.add_parser("show", help="inspect a campaign run directory")
    show.add_argument("--store", required=True, metavar="DIR")
    show.add_argument("--follow", action="store_true",
                      help="keep polling the directory and print per-cell "
                          "round progress until every cell is complete")
    show.add_argument("--interval", type=float, default=2.0,
                      help="poll interval for --follow, in seconds")

    # ------------------------------------------------------------------
    # Circuit corpus workflow
    # ------------------------------------------------------------------
    corpus = sub.add_parser(
        "corpus", help="build and inspect circuit corpora (manifest-bearing "
                       "directories of benchmark files)")
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)
    corpus_build = corpus_sub.add_parser(
        "build", help="materialise seeded random circuits into a corpus "
                      "directory (deterministic for a given seed)")
    corpus_build.add_argument("--dest", required=True, metavar="DIR")
    corpus_build.add_argument("--count", type=int, default=12,
                              help="number of circuits to generate")
    corpus_build.add_argument("--seed", type=int, default=0,
                              help="corpus seed; per-circuit seeds derive "
                                   "from it deterministically")
    corpus_build.add_argument("--kinds", default="layered,windowed,arith",
                              help="comma-separated generator kinds")
    corpus_build.add_argument("--formats", default="aag,blif,bench",
                              help="comma-separated file formats to cycle "
                                   "through (aag, aig, blif, bench)")
    corpus_build.add_argument("--max-gates", type=int, default=96,
                              help="upper bound on generated AND counts")
    corpus_verify = corpus_sub.add_parser(
        "verify", help="re-check every corpus entry against its manifest "
                       "(file presence, content hash, circuit stats) "
                       "without expanding a campaign; exits non-zero on "
                       "any mismatch")
    corpus_verify.add_argument("--corpus", required=True, metavar="DIR")
    corpus_verify.add_argument("--names", default=None,
                               help="comma-separated subset of entry names "
                                    "(default: every entry)")

    circuits = sub.add_parser(
        "circuits", help="list, inspect and import circuits (registry and "
                         "corpus directories)")
    circuits_sub = circuits.add_subparsers(dest="circuits_command",
                                           required=True)
    circuits_list = circuits_sub.add_parser(
        "list", help="list registered circuits, or a corpus's entries")
    circuits_list.add_argument("--corpus", default=None, metavar="DIR")
    circuits_stats = circuits_sub.add_parser(
        "stats", help="I/O counts, AND nodes and levels of circuits")
    circuits_stats.add_argument("--circuit", default=None,
                                help="registered name or circuit file path")
    circuits_stats.add_argument("--width", type=int, default=None)
    circuits_stats.add_argument("--corpus", default=None, metavar="DIR",
                                help="print the stats table of a corpus")
    circuits_import = circuits_sub.add_parser(
        "import", help="copy external circuit files into a corpus "
                       "(validating that they parse)")
    circuits_import.add_argument("--corpus", required=True, metavar="DIR")
    circuits_import.add_argument("files", nargs="+", metavar="FILE")

    # ------------------------------------------------------------------
    # Static analysis
    # ------------------------------------------------------------------
    lint = sub.add_parser(
        "lint", help="run the AST invariant linter (determinism, "
                     "IPC-safety, cache-key purity; see README "
                     "'Static analysis')")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to lint (default: the "
                           "installed repro package source)")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="diagnostic output format (default: text)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the registered rule pack (including "
                           "entry-point plugins) and exit")

    # ------------------------------------------------------------------
    # Registry listings
    # ------------------------------------------------------------------
    sub.add_parser("list-circuits", help="list the registered benchmark circuits")
    sub.add_parser("list-methods", help="list the registered optimisation methods")
    sub.add_parser("list-objectives", help="list the registered QoR objectives")

    backends = sub.add_parser(
        "backends", help="synthesis backends (see `repro backends list`)")
    backends_sub = backends.add_subparsers(dest="backends_command",
                                           required=True)
    backends_sub.add_parser(
        "list", help="list the registered synthesis backends and their "
                     "availability on this host")

    # ------------------------------------------------------------------
    # Single-shot inspection
    # ------------------------------------------------------------------
    stats = sub.add_parser("stats", help="print AIG and mapping statistics of a circuit")
    stats.add_argument("--circuit", required=True)
    stats.add_argument("--width", type=int, default=None)
    stats.add_argument("--lut-size", type=int, default=6)

    evaluate = sub.add_parser("evaluate", help="evaluate one synthesis sequence")
    evaluate.add_argument("--circuit", required=True)
    evaluate.add_argument("--width", type=int, default=None)
    evaluate.add_argument("--lut-size", type=int, default=6)
    evaluate.add_argument("--objective", default="eq1")
    evaluate.add_argument("--backend", default="native",
                          help="synthesis backend key, replay:TAPE / "
                               "record:TAPE, or inline JSON")
    evaluate.add_argument(
        "--sequence", required=True,
        help="mnemonic string (RwRfBl...) or comma-separated operation names")
    return parser


def _parse_sequence(text: str) -> List[str]:
    """Accept either a mnemonic string or comma-separated operation names."""
    if "," in text:
        return [item.strip() for item in text.split(",") if item.strip()]
    return string_to_sequence(text)


def _parse_csv(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _parse_seeds(text: str) -> List[int]:
    """``"3"`` means seeds 0..2; ``"0,2,5"`` means exactly those."""
    parts = _parse_csv(text)
    if len(parts) == 1 and "," not in text:
        return list(range(max(1, int(parts[0]))))
    return [int(part) for part in parts]


def _resolve_cache_dir(cache_dir: Optional[str]) -> Optional[str]:
    """Persistent-cache directory from a flag or ``REPRO_CACHE_DIR``."""
    if cache_dir:
        return cache_dir
    env_default = default_cache_dir()
    return str(env_default) if env_default else None


def _print_records_table(records) -> None:
    """Render the QoR table over completed records; report the rest."""
    failed = [record for record in records if record.failed]
    quarantined = [record for record in records if record.quarantined]
    completed = [record for record in records
                 if not record.failed and not record.quarantined]
    if completed:
        print(render_figure3_table(
            build_qor_table([record.to_result() for record in completed])))
    if failed:
        print(f"warning: {len(failed)} cell(s) failed and were excluded "
              "from the table (`repro resume` retries them):", file=sys.stderr)
        for record in failed:
            print(f"  {record.cell_id}: {record.metadata.get('error')}",
                  file=sys.stderr)
    if quarantined:
        print(f"warning: {len(quarantined)} cell(s) quarantined after "
              "repeated faults (resume skips them; re-run with "
              "`repro resume --retry-quarantined`):", file=sys.stderr)
        for record in quarantined:
            print(f"  {record.cell_id}: {record.metadata.get('error')}",
                  file=sys.stderr)


def _records_exit_code(records) -> int:
    """0 = all ok; 1 = some cells failed/quarantined (campaign finished)."""
    return 1 if any(record.failed or record.quarantined
                    for record in records) else 0


def _render_round_event(cell_id: str, event: dict) -> None:
    """One stderr line per streamed round event (live progress)."""
    kind = event.get("kind")
    if kind == "round_completed":
        best = event.get("best") or {}
        improvement = best.get("qor_improvement")
        line = (f"    {cell_id}: round {event['round_index']}, "
                f"{event['num_evaluations']}/{event['budget']} evals")
        if improvement is not None:
            line += f", best {improvement:+.2f}%"
        print(line, file=sys.stderr)
    elif kind == "early_stopped":
        print(f"    {cell_id}: early stop ({event.get('reason')}) after "
              f"{event['num_evaluations']} evals", file=sys.stderr)


# ----------------------------------------------------------------------
# Campaign sub-commands
# ----------------------------------------------------------------------
def _campaign_from_args(args) -> Campaign:
    if args.campaign:
        campaign = Campaign.load(args.campaign)
    elif getattr(args, "corpus", None):
        campaign = Campaign.from_corpus(
            args.corpus,
            methods=tuple(_parse_csv(args.methods)),
            seeds=tuple(_parse_seeds(args.seeds)),
            budget=args.budget,
            lut_size=args.lut_size,
            sequence_length=args.sequence_length,
            objective=parse_objective_argument(args.objective),
            backend=parse_backend_argument(
                getattr(args, "backend", "native")),
            name=args.name if args.name != "campaign" else None,
        )
    else:
        objective = parse_objective_argument(args.objective)
        backend = parse_backend_argument(getattr(args, "backend", "native"))
        problems = tuple(
            Problem(
                circuit=circuit,
                width=args.width,
                lut_size=args.lut_size,
                sequence_length=args.sequence_length,
                objective=objective,
                backend=backend,
            )
            for circuit in _parse_csv(args.circuits)
        )
        campaign = Campaign(
            name=args.name,
            problems=problems,
            methods=tuple(_parse_csv(args.methods)),
            seeds=tuple(_parse_seeds(args.seeds)),
            budget=args.budget,
        )
    if args.env_overrides:
        campaign = campaign.with_env_overrides()
    return campaign


def _cmd_run(args) -> int:
    campaign = _campaign_from_args(args)
    if (args.wall_clock_budget is not None
            or args.early_stop_improvement is not None
            or args.eval_timeout is not None
            or args.cell_timeout is not None):
        from dataclasses import replace

        campaign = replace(
            campaign,
            wall_clock_budget=(args.wall_clock_budget
                               if args.wall_clock_budget is not None
                               else campaign.wall_clock_budget),
            early_stop_improvement=(args.early_stop_improvement
                                    if args.early_stop_improvement is not None
                                    else campaign.early_stop_improvement),
            eval_timeout=(args.eval_timeout
                          if args.eval_timeout is not None
                          else campaign.eval_timeout),
            cell_timeout=(args.cell_timeout
                          if args.cell_timeout is not None
                          else campaign.cell_timeout),
        )
    cells = campaign.cells()
    print(f"campaign {campaign.name!r}: {len(campaign.problems)} problem(s) "
          f"x {len(campaign.methods)} method(s) x {len(campaign.seeds)} "
          f"seed(s) = {len(cells)} cells, budget {campaign.budget}",
          file=sys.stderr)
    records = run_campaign(
        campaign,
        store=args.store,
        jobs=args.jobs,
        cache_dir=_resolve_cache_dir(args.cache_dir),
        progress=lambda msg: print(f"  [{msg}]", file=sys.stderr),
        on_event=None if args.no_round_progress else _render_round_event,
        checkpoint_every=args.checkpoint_every,
        retry=_retry_policy_from_args(args),
        fault_plan=_fault_plan_from_args(args),
    )
    _print_records_table(records)
    if args.store:
        print(f"run directory: {args.store} "
              f"(continue with `repro resume --store {args.store}`, "
              f"watch with `repro show --store {args.store} --follow`)",
              file=sys.stderr)
    # Failed/quarantined cells are isolated, not silenced: the campaign
    # ran to the end, but the exit code must still tell scripts
    # something broke (infrastructure failures exit 2 via main()).
    return _records_exit_code(records)


def _cmd_resume(args) -> int:
    records = resume_campaign(
        args.store,
        jobs=args.jobs,
        cache_dir=_resolve_cache_dir(args.cache_dir),
        progress=lambda msg: print(f"  [{msg}]", file=sys.stderr),
        on_event=None if args.no_round_progress else _render_round_event,
        checkpoint_every=args.checkpoint_every,
        retry=_retry_policy_from_args(args),
        fault_plan=_fault_plan_from_args(args),
        retry_quarantined=args.retry_quarantined,
    )
    _print_records_table(records)
    return _records_exit_code(records)


def _follow_store(store: CampaignStore, cells, interval: float) -> None:
    """Poll a (possibly still running) store, printing round progress.

    One stderr line per cell whose persisted round count changed since
    the previous tick; returns once every cell has a completed record.
    Ctrl-C simply stops following.
    """
    import time

    last_rounds: dict = {}
    while True:
        statuses = store.cell_statuses()  # one directory scan per tick
        for cell in cells:
            cell_id = cell.cell_id
            rounds = store.trajectory_round_count(cell_id)
            if rounds != last_rounds.get(cell_id):
                last_rounds[cell_id] = rounds
                status = {"ok": "done", "failed": "failed",
                          "quarantined": "quarantined"}.get(
                    statuses.get(cell_id), "running")
                print(f"    {cell_id}: {rounds} round(s) [{status}]",
                      file=sys.stderr)
        if all(statuses.get(cell.cell_id) in ("ok", "failed", "quarantined")
               for cell in cells):
            return
        time.sleep(interval)


def _circuit_stats_lines(store: CampaignStore, campaign: Campaign):
    """``(problem.key, stats line)`` pairs for ``repro show``.

    Rebuilding every circuit just to count its nodes would turn an
    instant inspection command into generator-scale compute, so stats
    are computed once and memoised in ``circuit_stats.json`` inside the
    run directory (keyed by problem key, which embeds the content hash
    for file circuits and circuit+width for generated ones).  Unbuildable
    circuits — relocated files, missing plugins — degrade to an
    "unavailable" note; inspection keeps working regardless.
    """
    import json

    cache_path = store.root / "circuit_stats.json"
    try:
        cached = json.loads(cache_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        cached = {}
    dirty = False
    for problem in campaign.problems:
        key = problem.key
        stats = cached.get(key)
        if not (isinstance(stats, dict)
                and all(isinstance(stats.get(field), int)
                        for field in ("pis", "pos", "ands", "levels"))):
            try:
                if problem.circuit_hash is not None:
                    # The run was over the *pinned* file content; stats
                    # of a since-edited file would silently lie (and the
                    # cache key embeds the pinned hash, so they would
                    # stick).  Mirror the resume-time check instead.
                    from repro.circuits.registry import get_circuit_spec

                    current = getattr(get_circuit_spec(problem.circuit),
                                      "content_hash", None)
                    if current is not None and current != problem.circuit_hash:
                        raise ValueError(
                            "circuit file changed on disk since this run "
                            "(content hash mismatch)")
                stats = get_circuit(problem.circuit, width=problem.width).stats()
                cached[key] = stats
                dirty = True
            except (KeyError, ValueError, OSError) as error:
                # KeyError covers registry misses (e.g. a plugin circuit
                # not installed here); ValueError covers missing/changed
                # circuit files.  Not cached: the circuit may be back on
                # the next inspection.
                yield key, f"unavailable ({error})"
                continue
        yield key, (f"pis {stats['pis']:>4d}  pos {stats['pos']:>4d}  "
                    f"ands {stats['ands']:>6d}  levels {stats['levels']:>4d}")
    if dirty:
        try:
            cache_path.write_text(json.dumps(cached, indent=2, allow_nan=False) + "\n",
                                  encoding="utf-8")
        except OSError:
            pass  # read-only store: stats simply recompute next time


def _cmd_show(args) -> int:
    store = CampaignStore(args.store)
    campaign = store.load_campaign()
    cells = campaign.cells()
    if args.follow:
        try:
            _follow_store(store, cells, interval=max(0.05, args.interval))
        except KeyboardInterrupt:  # pragma: no cover - interactive escape
            pass
    statuses = store.cell_statuses()
    completed = {cell_id for cell_id, status in statuses.items()
                 if status == "ok"}
    print(f"campaign      : {campaign.name}")
    print(f"problems      : {', '.join(p.key for p in campaign.problems)}")
    print("circuits      :")
    for key, detail in _circuit_stats_lines(store, campaign):
        print(f"  {key:32s} {detail}")
    print(f"methods       : {', '.join(campaign.methods)}")
    print(f"seeds         : {', '.join(str(s) for s in campaign.seeds)}")
    print(f"budget        : {campaign.budget}")
    done = sum(1 for cell in cells if cell.cell_id in completed)
    print(f"cells         : {done}/{len(cells)} complete")
    for cell in cells:
        status = {"ok": "done", "failed": "failed",
                  "quarantined": "quarantined",
                  "partial": "partial"}.get(statuses.get(cell.cell_id),
                                            "pending")
        line = f"  [{status:11s}] {cell.cell_id}"
        if status in ("partial", "failed", "quarantined"):
            rounds = store.trajectory_round_count(cell.cell_id)
            if rounds:
                line += f" ({rounds} round(s) persisted)"
        print(line)
    finished = [cell for cell in cells if cell.cell_id in completed]
    if finished:
        records = [store.read_record(cell.cell_id) for cell in finished]
        print()
        _print_records_table(records)
    return 0


# ----------------------------------------------------------------------
# Circuit corpus workflow
# ----------------------------------------------------------------------
def _cmd_corpus(args) -> int:
    from repro.circuits.corpus import FORMAT_SUFFIXES, build_corpus

    if args.corpus_command == "build":
        # Accept both spellings: the file suffix ("aag") and the
        # internal format key ("aiger-ascii"), derived from one table.
        aliases = {suffix.lstrip("."): key
                   for key, suffix in FORMAT_SUFFIXES.items()}
        formats = [aliases.get(fmt.lower(), fmt.lower())
                   for fmt in _parse_csv(args.formats)]
        max_gates = max(1, args.max_gates)
        manifest = build_corpus(
            args.dest,
            count=args.count,
            seed=args.seed,
            kinds=tuple(_parse_csv(args.kinds)),
            formats=tuple(formats),
            num_gates=(max(1, min(24, max_gates // 2)), max_gates),
        )
        print(f"corpus {manifest.root}: {len(manifest.entries)} circuit(s)")
        _print_corpus_table(manifest)
        print(f"run a campaign over it with `repro run --corpus {args.dest}`")
        return 0
    if args.corpus_command == "verify":
        from repro.circuits.corpus import verify_corpus

        names = _parse_csv(args.names) if args.names else None
        results = verify_corpus(args.corpus, names=names)
        bad = 0
        for entry, problem in results:
            if problem is None:
                print(f"  ok   {entry.name}")
            else:
                bad += 1
                print(f"  FAIL {entry.name}: {problem}")
        verdict = (f"{len(results) - bad}/{len(results)} entries verified"
                   + (f", {bad} mismatched" if bad else ""))
        print(f"corpus {args.corpus}: {verdict}")
        return 1 if bad else 0
    raise ValueError(f"unknown corpus command {args.corpus_command!r}")


def _print_corpus_table(manifest) -> None:
    print(f"{'name':24s}{'format':14s}{'pis':>5s}{'pos':>5s}"
          f"{'ands':>7s}{'levels':>7s}  source")
    for entry in manifest.entries:
        stats = entry.stats
        source = str(entry.source.get("kind", "?"))
        print(f"{entry.name:24s}{entry.format:14s}"
              f"{stats.get('pis', 0):>5d}{stats.get('pos', 0):>5d}"
              f"{stats.get('ands', 0):>7d}{stats.get('levels', 0):>7d}"
              f"  {source}")


def _cmd_circuits(args) -> int:
    from repro.circuits.corpus import CorpusManifest, import_circuit

    if args.circuits_command == "list":
        if args.corpus:
            _print_corpus_table(CorpusManifest.load(args.corpus))
            return 0
        return _cmd_list_circuits(args)
    if args.circuits_command == "stats":
        if bool(args.circuit) == bool(args.corpus):
            raise ValueError(
                "circuits stats needs exactly one of --circuit or --corpus")
        if args.corpus:
            manifest = CorpusManifest.load(args.corpus)
            _print_corpus_table(manifest)
            total = sum(entry.stats.get("ands", 0) for entry in manifest.entries)
            print(f"total: {len(manifest.entries)} circuit(s), {total} AND node(s)")
            return 0
        aig = get_circuit(args.circuit, width=args.width)
        stats = aig.stats()
        print(f"circuit      : {aig.name}")
        print(f"inputs       : {stats['pis']}")
        print(f"outputs      : {stats['pos']}")
        print(f"AND nodes    : {stats['ands']}")
        print(f"AIG levels   : {stats['levels']}")
        return 0
    if args.circuits_command == "import":
        for source in args.files:
            entry = import_circuit(args.corpus, source)
            stats = entry.stats
            print(f"imported {source} as {entry.name!r} "
                  f"(pis {stats.get('pis')}, pos {stats.get('pos')}, "
                  f"ands {stats.get('ands')}, levels {stats.get('levels')})")
        return 0
    raise ValueError(f"unknown circuits command {args.circuits_command!r}")


# ----------------------------------------------------------------------
# Static analysis
# ----------------------------------------------------------------------
def _cmd_lint(args) -> int:
    from repro.lint import (
        default_rules,
        format_diagnostics_json,
        format_diagnostics_text,
        lint_paths,
    )

    rules = default_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.code}  {rule.name:26s} {rule.rationale}")
        return 0
    if args.paths:
        paths = list(args.paths)
    else:
        # Lint the installed package source by default, so `repro lint`
        # works from any checkout layout.
        from pathlib import Path

        import repro

        paths = [str(Path(repro.__file__).parent)]
    diagnostics = lint_paths(paths, rules=rules)
    formatter = (format_diagnostics_json if args.format == "json"
                 else format_diagnostics_text)
    print(formatter(diagnostics))
    return 1 if diagnostics else 0


# ----------------------------------------------------------------------
# Registry listings
# ----------------------------------------------------------------------
def _cmd_list_circuits(_args) -> int:
    print(f"{'name':12s}{'display name':18s}{'default width':>14s}{'paper width':>12s}")
    for spec in list_circuits():
        print(f"{spec.name:12s}{spec.display_name:18s}"
              f"{spec.default_width:>14d}{spec.paper_width:>12d}"
              + ("   [large]" if spec.large else ""))
    return 0


def _cmd_list_methods(_args) -> int:
    display = method_display_names()
    for key in available_methods():
        print(f"{key:12s}{display.get(key, key)}")
    return 0


def _cmd_list_objectives(_args) -> int:
    for key in OBJECTIVES.keys():
        print(key)
    return 0


def _cmd_backends(args) -> int:
    # Only `backends list` exists today; argparse enforces the subcommand.
    assert args.backends_command == "list"
    from repro.registry import BACKENDS
    from repro.qor.backends import SynthesisBackend

    for key in sorted(BACKENDS.keys()):
        factory = BACKENDS.get(key)
        try:
            backend = factory()
        except TypeError:
            # Parameterised backends (e.g. replay needs a tape path)
            # cannot be probed without configuration.
            print(f"{key:12s}requires parameters "
                  f"(pass inline JSON or a KEY:ARG shorthand)")
            continue
        if not isinstance(backend, SynthesisBackend):
            print(f"{key:12s}invalid factory ({backend!r})")
            continue
        if backend.available():
            status = "available"
        else:
            note = backend.availability_note()
            status = f"unavailable ({note})" if note else "unavailable"
        namespace = backend.cache_namespace or "(native, unsuffixed)"
        print(f"{key:12s}{status}; cache namespace {namespace}")
    return 0


# ----------------------------------------------------------------------
# Single-shot inspection
# ----------------------------------------------------------------------
def _cmd_stats(args) -> int:
    aig = get_circuit(args.circuit, width=args.width)
    mapping = map_aig(aig, lut_size=args.lut_size)
    stats = aig.stats()
    print(f"circuit      : {aig.name}")
    print(f"inputs       : {stats['pis']}")
    print(f"outputs      : {stats['pos']}")
    print(f"AND nodes    : {stats['ands']}")
    print(f"AIG levels   : {stats['levels']}")
    print(f"LUT-{args.lut_size} area   : {mapping.area}")
    print(f"LUT-{args.lut_size} levels : {mapping.delay}")
    return 0


def _cmd_evaluate(args) -> int:
    sequence = _parse_sequence(args.sequence)
    aig = get_circuit(args.circuit, width=args.width)
    evaluator = QoREvaluator(aig, lut_size=args.lut_size,
                             objective=parse_objective_argument(args.objective),
                             backend=parse_backend_argument(args.backend))
    record = evaluator.evaluate(sequence)
    print(f"sequence          : {sequence_to_string(record.sequence)} "
          f"({', '.join(record.sequence)})")
    print(f"area (LUTs)       : {record.area}")
    print(f"delay (levels)    : {record.delay}")
    print(f"QoR               : {record.qor:.4f}")
    print(f"improvement vs resyn2 : {record.qor_improvement:.2f}%")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "resume": _cmd_resume,
    "show": _cmd_show,
    "corpus": _cmd_corpus,
    "circuits": _cmd_circuits,
    "lint": _cmd_lint,
    "list-circuits": _cmd_list_circuits,
    "list-methods": _cmd_list_methods,
    "list-objectives": _cmd_list_objectives,
    "backends": _cmd_backends,
    "stats": _cmd_stats,
    "evaluate": _cmd_evaluate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (KeyError, ValueError, StoreError, OSError,
            EngineFaultError, BackendError) as error:
        # EngineFaultError covers infrastructure failures the driver
        # could not recover from (e.g. the worker pool dying past its
        # rebuild budget); BackendError covers synthesis-backend
        # failures (missing tape entries, absent abc binary) — exit 2,
        # distinct from failed/quarantined cells (exit 1) and success
        # (exit 0).
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    raise SystemExit(main())
