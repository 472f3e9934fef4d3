"""Tests for the pluggable synthesis-backend layer (:mod:`repro.qor.backends`).

Covers the protocol itself (spec canonicalisation, slugs, resolution,
CLI argument parsing), the three built-in implementations, and the two
integration surfaces that must stay bit-identical for native problems:
evaluator cache keys and :class:`Problem` / :class:`EvaluatorSpec`
identities.
"""

import json

import pytest

from repro.api import Problem
from repro.engine.spec import EvaluatorSpec
from repro.qor import QoREvaluator
from repro.qor.backends import (
    DEFAULT_BACKEND_KEY,
    BackendError,
    ExternalABCBackend,
    NativeBackend,
    ReplayBackend,
    SynthesisBackend,
    TapeMismatch,
    aig_fingerprint,
    backend_slug,
    canonical_backend_spec,
    parse_backend_argument,
    resolve_backend,
)
from repro.registry import BACKENDS
from repro.synth.flows import RESYN2_SEQUENCE


# ---------------------------------------------------------------------------
# Spec canonicalisation, slugs, resolution
# ---------------------------------------------------------------------------
class TestSpecPlumbing:
    def test_builtin_keys_registered(self):
        assert {"native", "replay", "abc"} <= set(BACKENDS.keys())

    def test_none_resolves_to_native(self):
        backend = resolve_backend(None)
        assert isinstance(backend, NativeBackend)
        assert backend.backend_spec == DEFAULT_BACKEND_KEY

    def test_instance_passthrough(self):
        backend = NativeBackend()
        assert resolve_backend(backend) is backend

    def test_dict_spec_resolution(self, tmp_path):
        backend = resolve_backend(
            {"backend": "replay", "tape": str(tmp_path / "t.json")})
        assert isinstance(backend, ReplayBackend)

    def test_json_string_spec_resolution(self, tmp_path):
        spec = json.dumps({"backend": "replay", "tape": str(tmp_path / "t.json")})
        assert isinstance(resolve_backend(spec), ReplayBackend)

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError):
            resolve_backend("no-such-backend")

    def test_canonical_spec_is_sorted_and_stable(self, tmp_path):
        tape = str(tmp_path / "t.json")
        a = canonical_backend_spec({"tape": tape, "backend": "replay"})
        b = canonical_backend_spec({"backend": "replay", "tape": tape})
        assert a == b
        assert json.loads(a) == {"backend": "replay", "tape": tape}

    def test_canonical_bare_key_passthrough(self):
        assert canonical_backend_spec("native") == "native"
        assert canonical_backend_spec(None) == DEFAULT_BACKEND_KEY

    def test_backend_spec_round_trips_through_resolve(self, tmp_path):
        original = ReplayBackend(tape=str(tmp_path / "t.json"))
        clone = resolve_backend(original.backend_spec)
        assert clone.backend_spec == original.backend_spec
        assert clone == original
        assert hash(clone) == hash(original)

    def test_backend_slug(self, tmp_path):
        assert backend_slug("native") == "native"
        assert backend_slug("abc") == "abc"
        slug = backend_slug({"backend": "replay", "tape": str(tmp_path / "t")})
        assert slug.startswith("replay-")
        assert len(slug) == len("replay-") + 6

    def test_slug_distinguishes_parameterisations(self, tmp_path):
        a = backend_slug({"backend": "replay", "tape": str(tmp_path / "a")})
        b = backend_slug({"backend": "replay", "tape": str(tmp_path / "b")})
        assert a != b


class TestParseBackendArgument:
    def test_bare_key(self):
        assert parse_backend_argument("native") == "native"
        assert parse_backend_argument("abc") == "abc"

    def test_replay_shorthand(self, tmp_path):
        tape = str(tmp_path / "t.json")
        assert parse_backend_argument(f"replay:{tape}") == {
            "backend": "replay", "tape": tape}

    def test_record_shorthand(self, tmp_path):
        tape = str(tmp_path / "t.json")
        assert parse_backend_argument(f"record:{tape}") == {
            "backend": "replay", "tape": tape, "mode": "record"}

    def test_inline_json(self, tmp_path):
        tape = str(tmp_path / "t.json")
        text = json.dumps({"backend": "replay", "tape": tape})
        assert parse_backend_argument(text) == {
            "backend": "replay", "tape": tape}


# ---------------------------------------------------------------------------
# Native backend: the bit-identity contract
# ---------------------------------------------------------------------------
class TestNativeBackend:
    def test_measure_matches_evaluator(self, small_adder):
        evaluator = QoREvaluator(small_adder)
        backend = NativeBackend()
        record = evaluator.evaluate(["rewrite", "balance"])
        area, delay = backend.measure(
            small_adder, ("rewrite", "balance"), lut_size=6)
        assert (area, delay) == (record.area, record.delay)

    def test_empty_sequence_is_initial_result(self, small_adder):
        evaluator = QoREvaluator(small_adder)
        area, delay = NativeBackend().measure(small_adder, (), lut_size=6)
        assert (area, delay) == (evaluator.initial_result.area,
                                 evaluator.initial_result.delay)

    def test_namespace_is_empty(self):
        # The empty namespace is the bit-identity guarantee: native
        # evaluators keep their historical unsuffixed cache keys.
        assert NativeBackend().cache_namespace == ""

    def test_default_evaluator_uses_native(self, small_adder):
        evaluator = QoREvaluator(small_adder)
        assert isinstance(evaluator.backend, NativeBackend)
        assert evaluator.backend_spec == "native"

    def test_native_cache_key_unsuffixed(self, small_adder):
        evaluator = QoREvaluator(small_adder)
        assert evaluator.cache_key == (
            f"{aig_fingerprint(small_adder)}:lut{evaluator.lut_size}")

    def test_available(self):
        backend = NativeBackend()
        assert backend.available()
        assert backend.availability_note() == ""


# ---------------------------------------------------------------------------
# Cache namespaces
# ---------------------------------------------------------------------------
class TestCacheNamespaces:
    def test_replay_namespace_suffixes_cache_key(self, small_adder, tmp_path):
        tape = tmp_path / "tape.json"
        native = QoREvaluator(small_adder)
        recorder = QoREvaluator(
            small_adder,
            backend={"backend": "replay", "tape": str(tape), "mode": "record"})
        assert recorder.cache_key == f"{native.cache_key}:replay"

    def test_namespace_ignores_tape_path(self, small_adder, tmp_path):
        # Two tapes, one namespace: the tape path is transport, not
        # measurement semantics, so rows stay shareable across tapes.
        a = ReplayBackend(tape=str(tmp_path / "a.json"), mode="record")
        b = ReplayBackend(tape=str(tmp_path / "b.json"), mode="record")
        assert a.cache_namespace == b.cache_namespace == "replay"

    def test_abc_namespace(self):
        assert ExternalABCBackend().cache_namespace == "abc"

    def test_namespaced_rows_do_not_collide(self, small_adder, tmp_path):
        from repro.engine.cache import PersistentQoRCache

        tape = tmp_path / "tape.json"
        with PersistentQoRCache(tmp_path / "cache") as cache:
            native = QoREvaluator(small_adder, persistent_cache=cache)
            native.evaluate(["balance"])
            replay = QoREvaluator(
                small_adder, persistent_cache=cache,
                backend={"backend": "replay", "tape": str(tape),
                         "mode": "record"})
            replay.evaluate(["balance"])
            # Distinct namespaces: the replay evaluator computed its own
            # row instead of inheriting the native one.
            assert replay.num_persistent_hits == 0
            assert replay.num_computed == 1


# ---------------------------------------------------------------------------
# Replay backend
# ---------------------------------------------------------------------------
class TestReplayBackend:
    def test_record_then_replay_round_trip(self, small_adder, tmp_path):
        tape = tmp_path / "tape.json"
        sequences = [(), ("rewrite",), ("balance", "refactor")]
        recorder = ReplayBackend(tape=str(tape), mode="record")
        recorded = [recorder.measure(small_adder, seq, 6) for seq in sequences]
        assert tape.is_file()

        replayer = ReplayBackend(tape=str(tape))
        replayed = [replayer.measure(small_adder, seq, 6) for seq in sequences]
        assert replayed == recorded

    def test_recorded_values_match_native(self, small_adder, tmp_path):
        tape = tmp_path / "tape.json"
        recorder = ReplayBackend(tape=str(tape), mode="record")
        assert recorder.measure(small_adder, ("rewrite",), 6) == (
            NativeBackend().measure(small_adder, ("rewrite",), 6))

    def test_tape_is_versioned_json(self, small_adder, tmp_path):
        tape = tmp_path / "tape.json"
        ReplayBackend(tape=str(tape), mode="record").measure(
            small_adder, ("balance",), 6)
        payload = json.loads(tape.read_text())
        assert payload["format"] == "repro-measurement-tape-v1"

    def test_missing_tape_fails_loudly(self, small_adder, tmp_path):
        backend = ReplayBackend(tape=str(tmp_path / "absent.json"))
        with pytest.raises(BackendError, match="tape"):
            backend.measure(small_adder, ("rewrite",), 6)

    def test_unrecorded_sequence_aborts(self, small_adder, tmp_path):
        tape = tmp_path / "tape.json"
        ReplayBackend(tape=str(tape), mode="record").measure(
            small_adder, ("rewrite",), 6)
        replayer = ReplayBackend(tape=str(tape))
        with pytest.raises(TapeMismatch, match="re-record"):
            replayer.measure(small_adder, ("balance",), 6)

    def test_wrong_circuit_aborts(self, small_adder, small_multiplier,
                                  tmp_path):
        """A tape recorded on circuit A must refuse to answer for B."""
        tape = tmp_path / "tape.json"
        ReplayBackend(tape=str(tape), mode="record").measure(
            small_adder, ("rewrite",), 6)
        replayer = ReplayBackend(tape=str(tape))
        with pytest.raises(TapeMismatch):
            replayer.measure(small_multiplier, ("rewrite",), 6)

    def test_wrong_lut_size_aborts(self, small_adder, tmp_path):
        tape = tmp_path / "tape.json"
        ReplayBackend(tape=str(tape), mode="record").measure(
            small_adder, ("rewrite",), 6)
        replayer = ReplayBackend(tape=str(tape))
        with pytest.raises(TapeMismatch):
            replayer.measure(small_adder, ("rewrite",), 4)

    def test_invalid_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="mode"):
            ReplayBackend(tape=str(tmp_path / "t.json"), mode="improvise")

    def test_evaluator_on_replay_matches_native(self, small_adder, tmp_path):
        tape = tmp_path / "tape.json"
        native = QoREvaluator(small_adder)
        record_native = native.evaluate(["rewrite", "balance"])

        recorder = QoREvaluator(
            small_adder,
            backend={"backend": "replay", "tape": str(tape), "mode": "record"})
        recorder.evaluate(["rewrite", "balance"])

        replayer = QoREvaluator(
            small_adder, backend={"backend": "replay", "tape": str(tape)})
        record_replay = replayer.evaluate(["rewrite", "balance"])
        assert record_replay.area == record_native.area
        assert record_replay.delay == record_native.delay
        assert record_replay.qor == pytest.approx(record_native.qor)
        assert replayer.reference_area == native.reference_area
        assert replayer.reference_delay == native.reference_delay


# ---------------------------------------------------------------------------
# External-ABC backend (binary-independent parts only)
# ---------------------------------------------------------------------------
class TestExternalABCBackend:
    def test_script_shape(self):
        backend = ExternalABCBackend()
        script = backend._script("/tmp/c.blif", ("rewrite", "balance"), 6)
        assert "read_blif /tmp/c.blif" in script
        assert "strash" in script
        assert "rewrite; balance" in script
        assert "if -K 6" in script
        assert script.rstrip().endswith("print_stats")

    def test_stats_parsing_takes_last_match(self):
        backend = ExternalABCBackend()
        out = ("ABC command line: ...\n"
               "top: i/o = 8/5  nd = 31  lev = 9\n"
               "top: i/o = 8/5  nd = 17  lev = 5\n")
        assert backend._parse_stats(out, script="rewrite") == (17, 5)

    def test_unparseable_stats_raise(self):
        with pytest.raises(BackendError, match="stats"):
            ExternalABCBackend()._parse_stats("no stats here", script="rewrite")

    def test_unavailable_without_binary(self, monkeypatch):
        monkeypatch.setenv("PATH", "")
        backend = ExternalABCBackend(binary="abc")
        assert not backend.available()
        assert "abc" in backend.availability_note()

    def test_params_round_trip(self):
        backend = ExternalABCBackend(binary="/opt/abc/abc", timeout=10.0,
                                     attempts=3)
        clone = resolve_backend(backend.spec())
        assert clone == backend
        assert clone.timeout == 10.0
        assert clone.attempts == 3

    def test_default_spec_is_bare_key(self):
        assert ExternalABCBackend().backend_spec == "abc"


# ---------------------------------------------------------------------------
# Problem / EvaluatorSpec integration
# ---------------------------------------------------------------------------
class TestProblemIntegration:
    def test_native_problem_key_unchanged(self):
        # Historical stores must keep resolving: the default backend
        # never appears in the key.
        assert Problem("adder", width=4).key == "adder-w4-lut6-k20"

    def test_non_native_backend_in_key(self):
        assert Problem("adder", width=4, backend="abc").key == (
            "adder-w4-lut6-k20-abc")

    def test_problem_dict_round_trip(self, tmp_path):
        problem = Problem(
            "adder", width=4, sequence_length=3,
            backend={"backend": "replay", "tape": str(tmp_path / "t.json")})
        clone = Problem.from_dict(
            json.loads(json.dumps(problem.to_dict())))
        assert clone == problem
        assert clone.key == problem.key

    def test_problem_validate_rejects_unknown_backend(self):
        with pytest.raises(KeyError):
            Problem("adder", width=4, backend="no-such-backend").validate()

    def test_spec_identity_includes_backend(self):
        native = EvaluatorSpec.for_circuit("adder", width=4)
        abc = EvaluatorSpec.for_circuit("adder", width=4, backend="abc")
        assert native != abc
        assert native.backend == DEFAULT_BACKEND_KEY
        assert abc.backend == "abc"

    def test_spec_payload_round_trip(self, tmp_path):
        spec = EvaluatorSpec.for_circuit(
            "adder", width=4,
            backend={"backend": "replay", "tape": str(tmp_path / "t.json")})
        assert EvaluatorSpec.from_payload(spec.to_payload()) == spec

    def test_legacy_payload_defaults_to_native(self):
        spec = EvaluatorSpec.for_circuit("adder", width=4)
        payload = spec.to_payload()
        del payload["backend"]  # payload written before the backend field
        assert EvaluatorSpec.from_payload(payload).backend == (
            DEFAULT_BACKEND_KEY)

    def test_spec_builds_evaluator_with_backend(self, tmp_path):
        tape = tmp_path / "tape.json"
        spec = EvaluatorSpec.for_circuit(
            "adder", width=4,
            backend={"backend": "replay", "tape": str(tape),
                     "mode": "record"})
        evaluator = spec.build_evaluator()
        assert isinstance(evaluator.backend, ReplayBackend)
        assert evaluator.cache_key.endswith(":replay")


# ---------------------------------------------------------------------------
# Hermetic campaigns on replay (satellite: kill+resume without synthesis)
# ---------------------------------------------------------------------------
class TestReplayCampaign:
    def _problem(self, tape, **backend_extra):
        return Problem(
            "adder", width=4, sequence_length=3,
            backend={"backend": "replay", "tape": str(tape), **backend_extra})

    def _campaign(self, problem, name):
        from repro.api import Campaign

        return Campaign(problems=(problem,), methods=("rs",), seeds=(0,),
                        budget=6, name=name)

    def test_kill_and_resume_entirely_on_replay(self, tmp_path):
        """Mid-cell kill+resume of a campaign that never synthesises.

        Phase 1 records a tape with an identical campaign in record
        mode; phases 2–3 run exclusively from the tape — an interrupted
        replay run must resume to a result bit-identical to the
        uninterrupted replay run, proving the hermetic substrate covers
        the whole round-granular execution core.
        """
        from repro.api import CampaignStore, resume_campaign, run_campaign

        tape = tmp_path / "tape.json"
        recorded = run_campaign(
            self._campaign(self._problem(tape, mode="record"), "replay-rec"),
            tmp_path / "record-store")
        assert recorded[0].status == "ok"

        replay_campaign = self._campaign(self._problem(tape), "replay-run")
        full_store = CampaignStore(tmp_path / "full")
        uninterrupted = run_campaign(replay_campaign, full_store)
        assert uninterrupted[0].status == "ok"
        # Replay reproduces the recorded run exactly (same optimiser seed).
        assert uninterrupted[0].history == recorded[0].history

        class _Kill(KeyboardInterrupt):
            pass

        def killer(cell_id, event):
            if (event["kind"] == "round_completed"
                    and event["round_index"] == 1):
                raise _Kill()

        killed = CampaignStore(tmp_path / "killed")
        with pytest.raises(KeyboardInterrupt):
            run_campaign(replay_campaign, killed, on_event=killer)
        assert killed.completed_cell_ids() == set()

        resumed = resume_campaign(killed)
        assert [r.to_dict() for r in resumed] == [
            r.to_dict() for r in uninterrupted]
        assert resumed[0].history == uninterrupted[0].history
        cell_id = replay_campaign.cells()[0].cell_id
        assert (killed.trajectory_path(cell_id).read_bytes()
                == full_store.trajectory_path(cell_id).read_bytes())

    def test_replay_campaign_fails_loudly_without_tape(self, tmp_path):
        from repro.api import run_campaign

        campaign = self._campaign(
            self._problem(tmp_path / "absent.json"), "replay-missing")
        records = run_campaign(campaign, tmp_path / "store")
        assert records[0].status == "failed"
        assert "tape" in str(records[0].metadata["error"])


# ---------------------------------------------------------------------------
# Custom backends through the registry
# ---------------------------------------------------------------------------
class TestCustomBackend:
    def test_register_resolve_and_run(self, small_adder):
        from repro.registry import register_backend

        class ConstantBackend(SynthesisBackend):
            key = "test-constant"

            def measure(self, aig, sequence, lut_size):
                return 10, 2

        register_backend("test-constant", ConstantBackend)
        try:
            evaluator = QoREvaluator(small_adder, backend="test-constant")
            record = evaluator.evaluate(["rewrite"])
            assert (record.area, record.delay) == (10, 2)
            assert evaluator.reference_area == 10
            # Custom backends get an automatic namespace from their slug.
            assert evaluator.cache_key.endswith(":test-constant")
        finally:
            BACKENDS.unregister("test-constant")
