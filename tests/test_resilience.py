"""Chaos and recovery suite for :mod:`repro.resilience`.

Every failure mode the resilience layer claims to handle is injected
deterministically here and asserted to either *recover bit-identically*
or fail with a *typed* :class:`~repro.resilience.ResilienceError`:

* retry/backoff policies (deterministic seeded jitter, no wall clock),
* worker kills / hangs / transient exceptions in ``map_chunked`` across
  the process -> thread -> serial degradation ladder,
* prompt Ctrl-C shutdown with pending chunks cancelled,
* atomic schema-pinned checkpoints, and the central determinism proof:
  an interrupted-then-resumed campaign equals an uninterrupted one,
* cache corruption recovering as a miss,
* the CLI exit-code contract and the R6xx checkpoint lint rules.
"""

import dataclasses
import json
import os
import time

import numpy as np
import pytest

from repro import obs
from repro.circuits.benchmarks import load_benchmark
from repro.core.cache import DictionaryStore
from repro.core.evaluation import EvaluationConfig, evaluate_circuit
from repro.core.parallel import ParallelConfig, map_chunked
from repro.experiments.table1 import run_table1_circuit
from repro.resilience import (
    ChaosError,
    CheckpointCorruptError,
    CheckpointMismatchError,
    ChunkTimeoutError,
    DEGRADATION_LADDER,
    ResilienceError,
    RetryExhaustedError,
    RetryPolicy,
    TransientChaosError,
    TransientError,
    WorkerPoolBrokenError,
    build_checkpoint,
    checkpoint_checksum,
    corrupt_file,
    deterministic_jitter,
    load_checkpoint,
    resolve_retry,
    validate_checkpoint,
    without_sleep,
    write_checkpoint,
)
from repro.resilience.chaos import ChaosEvent, ChaosPlan, chaos_active
from repro.timing.instance import CircuitTiming
from repro.timing.randvars import SampleSpace


def _double(payload, indices):
    """Module-level chunk body (picklable for the process backends)."""
    return [payload[i] * 2 for i in indices]


def _slow_chunk(payload, indices):
    time.sleep(0.01)
    return [payload[i] for i in indices]


PAYLOAD = list(range(20))
EXPECT = [x * 2 for x in PAYLOAD]


def fast_policy(**kwargs):
    """A retry policy that never actually sleeps (test default)."""
    return without_sleep(RetryPolicy(**kwargs))


def science(record):
    """A trial record minus its wall-clock field (bit-identity basis)."""
    payload = dataclasses.asdict(record)
    payload.pop("seconds")
    return payload


def make_timing(n_samples=60, seed=0):
    circuit = load_benchmark("s27", seed=seed)
    return CircuitTiming(circuit, SampleSpace(n_samples=n_samples, seed=seed))


# ======================================================================
# retry policy
# ======================================================================
class TestRetryPolicy:
    def test_jitter_is_deterministic_and_unit(self):
        draws = [deterministic_jitter(0, c, a) for c in range(8) for a in range(3)]
        again = [deterministic_jitter(0, c, a) for c in range(8) for a in range(3)]
        assert draws == again
        assert all(0.0 <= u < 1.0 for u in draws)
        assert len(set(draws)) == len(draws), "distinct (chunk, attempt) pairs"
        assert deterministic_jitter(1, 0, 1) != deterministic_jitter(0, 0, 1)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_max=0.5, jitter=0.0
        )
        delays = [policy.backoff_delay(0, a) for a in (1, 2, 3, 4, 5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_stays_inside_band(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_max=1.0, jitter=0.1)
        for chunk in range(16):
            delay = policy.backoff_delay(chunk, 1)
            assert 0.9 <= delay <= 1.1
        # and is a pure function of (seed, chunk, attempt)
        assert policy.backoff_delay(3, 1) == policy.backoff_delay(3, 1)

    def test_ladders(self):
        assert DEGRADATION_LADDER["process"] == ("process", "thread", "serial")
        assert RetryPolicy().ladder("process")[-1] == "serial"
        assert RetryPolicy(degrade=False).ladder("process") == ("process",)
        assert RetryPolicy().ladder("serial") == ("serial",)

    def test_resolve_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_MAX", "5")
        monkeypatch.setenv("REPRO_RETRY_TIMEOUT", "2.5")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
        monkeypatch.setenv("REPRO_RETRY_NO_DEGRADE", "1")
        policy = resolve_retry(None)
        assert policy.max_retries == 5
        assert policy.chunk_timeout == 2.5
        assert policy.backoff_base == 0.01
        assert policy.degrade is False

    def test_resolve_passthrough_and_shorthand(self):
        policy = RetryPolicy(max_retries=7)
        assert resolve_retry(policy) is policy
        assert resolve_retry(3).max_retries == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            RetryPolicy(chunk_timeout=0.0)

    def test_wait_uses_injected_sleep(self):
        slept = []
        policy = dataclasses.replace(
            RetryPolicy(backoff_base=0.25, jitter=0.0), sleep=slept.append
        )
        policy.wait(0, 1)
        policy.wait(0, 2)
        assert slept == [0.25, 0.5]


# ======================================================================
# chaos harness
# ======================================================================
class TestChaosHarness:
    def test_parse_spec(self):
        plan = ChaosPlan.parse(
            "evaluate.trial:transient:index=2;"
            "parallel.chunk:kill:attempts=0/1:times=0;"
            "cache.load:slow:param=0.5"
        )
        first, second, third = plan.events
        assert (first.point, first.action, first.index) == (
            "evaluate.trial", "transient", 2,
        )
        assert second.attempts == (0, 1) and second.times is None
        assert third.param == 0.5

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            ChaosPlan.parse("just-a-point")
        with pytest.raises(ValueError):
            ChaosPlan.parse("parallel.chunk:explode")
        with pytest.raises(ValueError):
            ChaosPlan.parse("parallel.chunk:raise:frequency=2")

    def test_event_cannot_fire_zero_times(self):
        with pytest.raises(ValueError):
            ChaosEvent("parallel.chunk", "transient", times=0)

    def test_gating_and_disarm(self):
        event = ChaosEvent("parallel.chunk", "raise", index=3, attempts=(0,))
        assert event.matches("parallel.chunk", 3, 0)
        assert not event.matches("parallel.chunk", 3, 1)
        assert not event.matches("parallel.chunk", 4, 0)
        assert not event.matches("cache.load", 3, 0)
        plan = ChaosPlan([ChaosEvent("cache.load", "raise", times=2)])
        fired = [bool(list(plan.select("cache.load", None, 0))) for _ in range(4)]
        assert fired == [True, True, False, False]

    def test_plan_pickles_with_fresh_counts(self):
        import pickle

        plan = ChaosPlan([ChaosEvent("cache.load", "raise")])
        assert list(plan.select("cache.load", None, 0))  # consume the shot
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.events == plan.events
        assert clone.fired == {}  # each process is its own blast radius

    def test_env_plan(self, monkeypatch):
        from repro.resilience import chaos as chaos_mod

        monkeypatch.setenv("REPRO_CHAOS", "cache.load:transient")
        plan = chaos_mod.get_plan()
        assert plan is not None and plan.events[0].point == "cache.load"
        with pytest.raises(TransientChaosError):
            chaos_mod.trip("cache.load")

    def test_kill_refuses_outside_worker_process(self):
        from repro.resilience import chaos as chaos_mod

        with chaos_active(ChaosPlan([ChaosEvent("cache.load", "kill")])):
            with pytest.raises(ChaosError, match="refused"):
                chaos_mod.trip("cache.load")

    def test_corrupt_file_modes(self, tmp_path):
        path = str(tmp_path / "victim.bin")
        with open(path, "wb") as handle:
            handle.write(b"x" * 100)
        corrupt_file(path, "truncate")
        assert os.path.getsize(path) == 50
        corrupt_file(path, "garbage")
        with open(path, "rb") as handle:
            assert handle.read(4) == b"\xde\xad\xbe\xef"
        corrupt_file(path, "delete")
        assert not os.path.exists(path)
        with open(path, "wb") as handle:
            handle.write(b"x")
        with pytest.raises(ValueError):
            corrupt_file(path, "shred")


# ======================================================================
# retry / recovery in map_chunked
# ======================================================================
class TestRetryRecovery:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_transient_first_attempt_recovers(self, backend):
        plan = ChaosPlan(
            [ChaosEvent("parallel.chunk", "transient", index=8, attempts=(0,))]
        )
        with chaos_active(plan):
            out = map_chunked(
                _double, PAYLOAD, len(PAYLOAD),
                config=ParallelConfig(backend=backend, n_workers=2, chunk_size=4),
                policy=fast_policy(max_retries=2),
            )
        assert out == EXPECT

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_retries_exhaust_with_typed_error(self, backend):
        plan = ChaosPlan(
            [ChaosEvent("parallel.chunk", "transient", index=8, times=None)]
        )
        with chaos_active(plan):
            with pytest.raises(RetryExhaustedError) as info:
                map_chunked(
                    _double, PAYLOAD, len(PAYLOAD),
                    config=ParallelConfig(
                        backend=backend, n_workers=2, chunk_size=4
                    ),
                    policy=fast_policy(max_retries=2),
                )
        assert isinstance(info.value, ResilienceError)
        assert info.value.attempts == 3  # first try + two retries

    def test_non_retryable_error_propagates_immediately(self):
        plan = ChaosPlan([ChaosEvent("parallel.chunk", "raise", index=8)])
        with chaos_active(plan):
            with pytest.raises(ChaosError):
                map_chunked(
                    _double, PAYLOAD, len(PAYLOAD),
                    config=ParallelConfig(backend="serial", chunk_size=4),
                    policy=fast_policy(max_retries=5),
                )
        # the single armed shot was spent on the one and only attempt

    def test_backoff_schedule_is_the_policy_schedule(self):
        slept = []
        policy = dataclasses.replace(
            RetryPolicy(max_retries=2, backoff_base=0.25, jitter=0.1),
            sleep=slept.append,
        )
        plan = ChaosPlan(
            [ChaosEvent("parallel.chunk", "transient", index=8, times=None)]
        )
        with chaos_active(plan):
            with pytest.raises(RetryExhaustedError):
                map_chunked(
                    _double, PAYLOAD, len(PAYLOAD),
                    config=ParallelConfig(backend="serial", chunk_size=4),
                    policy=policy,
                )
        assert slept == [
            policy.backoff_delay(2, 1),  # chunk index 2 starts at item 8
            policy.backoff_delay(2, 2),
        ]


# ======================================================================
# degradation ladder
# ======================================================================
class TestDegradation:
    def test_worker_kill_degrades_and_recovers_bit_identically(self):
        serial = map_chunked(
            _double, PAYLOAD, len(PAYLOAD),
            config=ParallelConfig(backend="serial", chunk_size=4),
        )
        plan = ChaosPlan(
            [ChaosEvent("parallel.chunk", "kill", index=8, attempts=(0,))]
        )
        recorder = obs.Recorder()
        with obs.use_recorder(recorder):
            with chaos_active(plan):
                recovered = map_chunked(
                    _double, PAYLOAD, len(PAYLOAD),
                    config=ParallelConfig(
                        backend="process", n_workers=2, chunk_size=4
                    ),
                    policy=fast_policy(max_retries=2),
                )
        assert recovered == serial == EXPECT
        assert recorder.counter_value("resilience.broken_pools") >= 1
        assert recorder.counter_value("resilience.fallbacks") >= 1

    def test_worker_kill_without_degradation_is_typed(self):
        plan = ChaosPlan(
            [ChaosEvent("parallel.chunk", "kill", index=8, attempts=(0,))]
        )
        with chaos_active(plan):
            with pytest.raises(WorkerPoolBrokenError):
                map_chunked(
                    _double, PAYLOAD, len(PAYLOAD),
                    config=ParallelConfig(
                        backend="process", n_workers=2, chunk_size=4
                    ),
                    policy=fast_policy(max_retries=0, degrade=False),
                )

    def test_hung_chunk_times_out_and_recovers(self):
        plan = ChaosPlan(
            [
                ChaosEvent(
                    "parallel.chunk", "hang", index=4, attempts=(0,), param=5.0
                )
            ]
        )
        recorder = obs.Recorder()
        with obs.use_recorder(recorder):
            with chaos_active(plan):
                out = map_chunked(
                    _double, PAYLOAD[:8], 8,
                    config=ParallelConfig(
                        backend="thread", n_workers=2, chunk_size=4
                    ),
                    policy=fast_policy(max_retries=1, chunk_timeout=0.5),
                )
        assert out == EXPECT[:8]
        assert recorder.counter_value("resilience.timeouts") >= 1

    def test_hung_chunk_without_degradation_is_typed(self):
        plan = ChaosPlan(
            [ChaosEvent("parallel.chunk", "hang", index=4, times=None, param=5.0)]
        )
        with chaos_active(plan):
            with pytest.raises(ChunkTimeoutError):
                map_chunked(
                    _double, PAYLOAD[:8], 8,
                    config=ParallelConfig(
                        backend="thread", n_workers=2, chunk_size=4
                    ),
                    policy=fast_policy(
                        max_retries=0, chunk_timeout=0.5, degrade=False
                    ),
                )


# ======================================================================
# Ctrl-C: prompt shutdown, pending work cancelled
# ======================================================================
class TestKeyboardInterrupt:
    def test_serial_interrupt_propagates(self):
        def interrupting(payload, indices):
            if indices[0] == 2:
                raise KeyboardInterrupt
            return [payload[i] for i in indices]

        with pytest.raises(KeyboardInterrupt):
            map_chunked(
                interrupting, PAYLOAD, len(PAYLOAD),
                config=ParallelConfig(backend="serial", chunk_size=1),
            )

    def test_pool_interrupt_cancels_pending_chunks(self):
        executed = []

        def interrupting(payload, indices):
            executed.append(indices[0])
            time.sleep(0.01)
            if indices[0] == 2:
                raise KeyboardInterrupt
            return [payload[i] for i in indices]

        items = list(range(40))
        with pytest.raises(KeyboardInterrupt):
            map_chunked(
                interrupting, items, len(items),
                config=ParallelConfig(backend="thread", n_workers=2, chunk_size=1),
            )
        # chunks queued behind the interrupt were cancelled, not drained
        assert len(executed) < len(items)


# ======================================================================
# checkpoint files
# ======================================================================
class TestCheckpointFiles:
    def _payload(self, completed=1, total=5):
        return build_checkpoint(
            "evaluation",
            {"circuit": "s27", "seed": 0},
            {"records": [{"trial": 0}] * completed, "rng_state": {"s": 1}},
            completed=completed,
            total=total,
        )

    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "ck.json")
        payload = self._payload()
        assert validate_checkpoint(payload) == []
        write_checkpoint(path, payload)
        back = load_checkpoint(
            path, kind="evaluation", identity={"circuit": "s27", "seed": 0}
        )
        assert back == payload
        # atomic writer leaves no temp files behind
        assert all(
            not name.startswith(".tmp_ckpt_") for name in os.listdir(tmp_path)
        )

    def test_validate_catches_each_violation(self):
        assert validate_checkpoint("nope") == ["top level is not an object"]
        payload = self._payload()
        broken = dict(payload, version=99)
        assert any("version" in p for p in validate_checkpoint(broken))
        broken = dict(payload, kind="mystery")
        assert any("kind" in p for p in validate_checkpoint(broken))
        broken = dict(payload)
        broken["progress"] = {"completed": 9, "total": 5}
        assert any("exceeds" in p for p in validate_checkpoint(broken))
        tampered = dict(payload)
        tampered["state"] = {"records": [], "rng_state": {"s": 2}}
        assert any("checksum" in p for p in validate_checkpoint(tampered))

    def test_write_refuses_invalid_payload(self, tmp_path):
        payload = self._payload()
        payload["version"] = 99
        with pytest.raises(ValueError):
            write_checkpoint(str(tmp_path / "ck.json"), payload)

    def test_corrupt_and_mismatch_are_typed(self, tmp_path):
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, self._payload())
        with pytest.raises(CheckpointMismatchError, match="different run"):
            load_checkpoint(path, identity={"circuit": "s27", "seed": 99})
        with pytest.raises(CheckpointMismatchError, match="table1"):
            load_checkpoint(path, kind="table1")
        corrupt_file(path, "truncate")
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)
        assert issubclass(CheckpointCorruptError, ResilienceError)
        assert issubclass(CheckpointMismatchError, ResilienceError)


# ======================================================================
# evaluation checkpoint/resume: the determinism proof
# ======================================================================
class TestEvaluationResume:
    N_TRIALS = 3

    def _run(self, checkpoint=None, resume=False, parallel=None):
        return evaluate_circuit(
            make_timing(),
            EvaluationConfig(
                n_trials=self.N_TRIALS,
                checkpoint=checkpoint,
                resume=resume,
                parallel=parallel,
            ),
        )

    def _interrupt_then_resume(self, tmp_path, parallel=None):
        path = str(tmp_path / "ck.json")
        plan = ChaosPlan([ChaosEvent("evaluate.trial", "transient", index=1)])
        with chaos_active(plan):
            with pytest.raises(TransientChaosError):
                self._run(checkpoint=path, parallel=parallel)
        assert load_checkpoint(path)["progress"]["completed"] == 1
        return self._run(checkpoint=path, resume=True, parallel=parallel)

    def test_resumed_equals_uninterrupted_serial(self, tmp_path):
        base = self._run()
        resumed = self._interrupt_then_resume(tmp_path)
        assert [science(r) for r in resumed.records] == [
            science(r) for r in base.records
        ]
        assert resumed.table() == base.table()

    def test_resumed_equals_uninterrupted_process_backend(self, tmp_path):
        base = self._run()
        parallel = ParallelConfig(backend="process", n_workers=2, chunk_size=1)
        resumed = self._interrupt_then_resume(tmp_path, parallel=parallel)
        assert [science(r) for r in resumed.records] == [
            science(r) for r in base.records
        ]

    def test_complete_checkpoint_resumes_without_resimulating(self, tmp_path):
        path = str(tmp_path / "ck.json")
        base = self._run(checkpoint=path)
        recorder = obs.Recorder()
        with obs.use_recorder(recorder):
            again = self._run(checkpoint=path, resume=True)
        assert [science(r) for r in again.records] == [
            science(r) for r in base.records
        ]
        assert recorder.counter_value("checkpoint.resumed_trials") == self.N_TRIALS
        assert recorder.counter_value("evaluate.trials") == 0

    def test_resume_under_different_identity_is_refused(self, tmp_path):
        path = str(tmp_path / "ck.json")
        self._run(checkpoint=path)
        with pytest.raises(CheckpointMismatchError):
            evaluate_circuit(
                make_timing(seed=1),
                EvaluationConfig(
                    n_trials=self.N_TRIALS, seed=1, checkpoint=path, resume=True
                ),
            )

    def test_without_resume_existing_checkpoint_is_restarted(self, tmp_path):
        path = str(tmp_path / "ck.json")
        self._run(checkpoint=path)
        result = self._run(checkpoint=path, resume=False)
        assert len(result.records) == self.N_TRIALS
        assert load_checkpoint(path)["progress"]["completed"] == self.N_TRIALS


# ======================================================================
# table1 integration
# ======================================================================
class TestTable1Resume:
    def test_circuit_campaign_resumes_bit_identically(self, tmp_path):
        kwargs = dict(
            n_trials=3, n_samples=60, seed=0, n_paths=4, k_values=(1, 3)
        )
        base = run_table1_circuit("s27", **kwargs)
        path = str(tmp_path / "s27.evaluation.json")
        plan = ChaosPlan([ChaosEvent("evaluate.trial", "transient", index=2)])
        with chaos_active(plan):
            with pytest.raises(TransientChaosError):
                run_table1_circuit("s27", checkpoint=path, **kwargs)
        resumed = run_table1_circuit(
            "s27", checkpoint=path, resume=True, **kwargs
        )
        assert [science(r) for r in resumed.evaluation.records] == [
            science(r) for r in base.evaluation.records
        ]


# ======================================================================
# cache chaos
# ======================================================================
class TestCacheChaos:
    def _seed_entry(self, cache):
        cache.store("k" * 8, np.ones((2, 2)), [np.ones((2, 2))])
        return cache.manifest_path_for("k" * 8)

    def test_corrupted_entry_recovers_as_miss(self, tmp_path):
        cache = DictionaryStore(tmp_path)
        path = self._seed_entry(cache)
        corrupt_file(path, "garbage")
        assert cache.load("k" * 8) is None
        assert cache.stats.rejected == 1
        assert not os.path.exists(path), "damaged entry evicted for rebuild"

    def test_injected_load_failure_recovers_as_miss(self, tmp_path):
        cache = DictionaryStore(tmp_path)
        self._seed_entry(cache)
        with chaos_active(ChaosPlan([ChaosEvent("cache.load", "transient")])):
            assert cache.load("k" * 8) is None
        assert cache.stats.rejected == 1

    def test_injected_store_failure_does_not_crash(self, tmp_path):
        cache = DictionaryStore(tmp_path)
        with chaos_active(ChaosPlan([ChaosEvent("cache.store", "transient")])):
            assert cache.store("k" * 8, np.ones((2, 2)), [np.ones((2, 2))]) is None
        assert cache.stats.store_failures == 1
        assert cache.stats.stores == 0
        # no temp debris from the failed writer
        assert not any(
            name.startswith(".tmp_store_") for name in os.listdir(tmp_path)
        )


# ======================================================================
# CLI exit codes and the chaos-driven CLI round
# ======================================================================
class TestCLIExitCodes:
    def _dispatch_raising(self, error):
        from types import SimpleNamespace

        from repro.__main__ import _dispatch

        def func(_args):
            raise error

        return _dispatch(SimpleNamespace(func=func))

    def test_error_taxonomy_maps_to_documented_codes(self, capsys):
        from repro.__main__ import (
            EXIT_INTERNAL,
            EXIT_INTERRUPTED,
            EXIT_OK,
            EXIT_TRANSIENT,
            EXIT_USAGE,
        )

        assert self._dispatch_raising(BrokenPipeError()) == EXIT_OK
        assert self._dispatch_raising(KeyboardInterrupt()) == EXIT_INTERRUPTED
        assert (
            self._dispatch_raising(CheckpointMismatchError("other run"))
            == EXIT_USAGE
        )
        assert (
            self._dispatch_raising(WorkerPoolBrokenError("pool died"))
            == EXIT_TRANSIENT
        )
        assert self._dispatch_raising(RuntimeError("bug")) == EXIT_INTERNAL
        capsys.readouterr()

    def test_resume_without_checkpoint_is_usage_error(self, capsys):
        from repro.__main__ import EXIT_USAGE, main

        assert main(["table1", "s27", "--resume"]) == EXIT_USAGE
        assert "--checkpoint" in capsys.readouterr().err

    def test_interrupted_cli_run_resumes_cleanly(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.__main__ import EXIT_OK, EXIT_TRANSIENT, main

        ckpt = str(tmp_path / "ckpt")
        argv = [
            "table1", "s1196", "--trials", "2", "--samples", "60",
            "--checkpoint", ckpt,
        ]
        monkeypatch.setenv("REPRO_CHAOS", "evaluate.trial:transient:index=1")
        assert main(argv + ["--metrics", str(tmp_path / "first.json")]) \
            == EXIT_TRANSIENT
        monkeypatch.delenv("REPRO_CHAOS")
        assert main(argv + ["--resume"]) == EXIT_OK
        capsys.readouterr()
        manifest = json.load(open(tmp_path / "first.json"))
        assert manifest["run"]["status"] == "error"
        assert manifest["metrics"]["counters"]["chaos.transient"] == 1
        # the checkpoint the failed run left behind passes the R6xx gate
        from repro.lint import lint_checkpoints

        assert lint_checkpoints([ckpt]).ok


# ======================================================================
# resilience counters land in a schema-valid manifest
# ======================================================================
class TestResilienceObservability:
    def test_recovery_counters_validate_in_manifest(self):
        plan = ChaosPlan(
            [ChaosEvent("parallel.chunk", "kill", index=8, attempts=(0,))]
        )
        recorder = obs.Recorder()
        with obs.use_recorder(recorder):
            with chaos_active(plan):
                out = map_chunked(
                    _double, PAYLOAD, len(PAYLOAD),
                    config=ParallelConfig(
                        backend="process", n_workers=2, chunk_size=4
                    ),
                    policy=fast_policy(max_retries=2),
                )
        assert out == EXPECT
        manifest = obs.build_manifest(
            command="test", workload="unit", seed=0, config={},
            metrics=recorder.snapshot(), status="ok",
        )
        assert obs.validate_manifest(manifest) == []
        counters = manifest["metrics"]["counters"]
        assert counters["resilience.broken_pools"] >= 1
        assert counters["resilience.fallbacks"] >= 1
        assert counters["resilience.fallback.thread"] >= 1


# ======================================================================
# R6xx lint rules
# ======================================================================
class TestCheckpointLint:
    def _write(self, tmp_path, name="ck.json", mutate=None):
        payload = build_checkpoint(
            "evaluation",
            {"circuit": "s27", "seed": 0},
            {"records": [{"trial": 0}], "rng_state": {"s": 1}},
            completed=1,
            total=3,
        )
        if mutate:
            mutate(payload)
        path = str(tmp_path / name)
        with open(path, "w") as handle:
            json.dump(payload, handle)
        return path

    def test_rules_are_registered(self):
        from repro.lint import RULES, render_rule_catalog

        for rule_id in ("R601", "R602", "R603", "R604"):
            assert rule_id in RULES
        assert "R601" in render_rule_catalog()

    def test_clean_checkpoint_has_no_findings(self, tmp_path):
        from repro.lint import check_checkpoint

        assert check_checkpoint(self._write(tmp_path)) == []

    def test_unreadable_is_R601(self, tmp_path):
        from repro.lint import check_checkpoint

        path = self._write(tmp_path)
        corrupt_file(path, "truncate")
        findings = check_checkpoint(path)
        assert [f.rule for f in findings] == ["R601"]
        assert check_checkpoint(str(tmp_path / "absent.json"))[0].rule == "R601"

    def test_schema_violation_is_R602(self, tmp_path):
        from repro.lint import check_checkpoint

        def tamper(payload):
            payload["state"]["rng_state"] = {"s": 999}  # breaks the checksum

        findings = check_checkpoint(self._write(tmp_path, mutate=tamper))
        assert findings and all(f.rule == "R602" for f in findings)

    def test_state_inconsistency_is_R603(self, tmp_path):
        from repro.lint import check_checkpoint

        def drop_record(payload):
            payload["state"]["records"] = []
            payload["checksum"] = checkpoint_checksum(payload)  # re-seal

        findings = check_checkpoint(self._write(tmp_path, mutate=drop_record))
        assert [f.rule for f in findings] == ["R603"]

    def test_missing_rng_state_is_R603(self, tmp_path):
        from repro.lint import check_checkpoint

        def strip_rng(payload):
            del payload["state"]["rng_state"]
            payload["checksum"] = checkpoint_checksum(payload)

        findings = check_checkpoint(self._write(tmp_path, mutate=strip_rng))
        assert [f.rule for f in findings] == ["R603"]

    def test_directory_audit_flags_stale_temp_as_R604(self, tmp_path):
        from repro.lint import lint_checkpoints

        self._write(tmp_path)
        (tmp_path / ".tmp_ckpt_dead.json").write_text("{}")
        report = lint_checkpoints([str(tmp_path)])
        assert report.ok  # warnings never fail the gate
        assert [d.rule for d in report.diagnostics] == ["R604"]

    def test_report_payload_with_R6xx_validates(self, tmp_path):
        from repro.lint import lint_checkpoints, validate_report_payload

        path = self._write(tmp_path)
        corrupt_file(path, "truncate")
        report = lint_checkpoints([str(tmp_path)])
        assert not report.ok
        validate_report_payload(report.to_payload())
