"""Tests of :mod:`repro.resilience`: retry, breaker, fault injection,
error budgets, dead letters and crash-safe checkpoint/resume."""

import json
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    CheckpointError,
    CircuitOpenError,
    InjectedFaultError,
    ResilienceError,
    RetryExhaustedError,
)
from repro.resilience import (
    CircuitBreaker,
    DeadLetterLog,
    ErrorBudget,
    FaultConfig,
    FaultInjector,
    HealthState,
    RetryPolicy,
    atomic_write_bytes,
    checkpoint_path,
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
)


class FakeClock:
    """Deterministic monotonic clock; ``sleep`` advances it."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now
        self.sleeps = []

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds

    def advance(self, seconds: float) -> None:
        self.now += seconds


class Flaky:
    """Callable that fails ``failures`` times, then returns ``value``."""

    def __init__(self, failures: int, value="ok", error=ValueError):
        self.failures = failures
        self.value = value
        self.error = error
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error(f"injected failure #{self.calls}")
        return self.value


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_succeeds_after_transient_failures(self):
        clock = FakeClock()
        fn = Flaky(failures=2)
        seen = []
        result = RetryPolicy(max_attempts=3).call(
            fn, retry_on=(ValueError,), sleep=clock.sleep, clock=clock,
            on_retry=lambda attempt, error: seen.append(attempt),
        )
        assert result == "ok"
        assert fn.calls == 3
        assert seen == [0, 1]
        assert len(clock.sleeps) == 2

    def test_exhaustion_chains_last_error(self):
        clock = FakeClock()
        with pytest.raises(RetryExhaustedError) as excinfo:
            RetryPolicy(max_attempts=2).call(
                Flaky(failures=10), retry_on=(ValueError,),
                sleep=clock.sleep, clock=clock,
            )
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert "#2" in str(excinfo.value.__cause__)

    def test_unlisted_exceptions_propagate_immediately(self):
        fn = Flaky(failures=5, error=KeyError)
        with pytest.raises(KeyError):
            RetryPolicy(max_attempts=5).call(fn, retry_on=(ValueError,))
        assert fn.calls == 1

    def test_backoff_schedule_grows_and_caps(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay_s=0.1, max_delay_s=0.5,
            multiplier=2.0, jitter=0.0,
        )
        assert list(policy.delays()) == pytest.approx(
            [0.1, 0.2, 0.4, 0.5, 0.5]
        )

    def test_jitter_is_seeded_and_bounded(self):
        policy = RetryPolicy(
            max_attempts=4, base_delay_s=0.1, max_delay_s=1.0,
            multiplier=2.0, jitter=0.5,
        )
        first = list(policy.delays(np.random.default_rng(3)))
        again = list(policy.delays(np.random.default_rng(3)))
        assert first == again  # same seed, same schedule
        for retry_index, delay in enumerate(first):
            nominal = min(0.1 * 2.0 ** retry_index, 1.0)
            assert 0.5 * nominal <= delay <= 1.5 * nominal

    def test_deadline_truncates_sleep_and_stops(self):
        clock = FakeClock()
        policy = RetryPolicy(
            max_attempts=10, base_delay_s=1.0, max_delay_s=1.0,
            jitter=0.0, deadline_s=2.5,
        )
        with pytest.raises(RetryExhaustedError) as excinfo:
            policy.call(
                Flaky(failures=100), retry_on=(ValueError,),
                sleep=clock.sleep, clock=clock,
            )
        assert clock.now <= 2.5 + 1e-12
        assert "deadline" in str(excinfo.value)

    def test_validation(self):
        with pytest.raises(ResilienceError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ResilienceError):
            RetryPolicy(base_delay_s=0.5, max_delay_s=0.1)
        with pytest.raises(ResilienceError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ResilienceError):
            RetryPolicy(deadline_s=0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        max_attempts=st.integers(min_value=1, max_value=8),
        base_delay_s=st.floats(min_value=0.0, max_value=0.5),
        extra_delay_s=st.floats(min_value=0.0, max_value=1.0),
        multiplier=st.floats(min_value=1.0, max_value=4.0),
        jitter=st.floats(min_value=0.0, max_value=1.0),
        deadline_s=st.floats(min_value=1e-3, max_value=2.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_property_never_exceeds_deadline(
        self, max_attempts, base_delay_s, extra_delay_s, multiplier,
        jitter, deadline_s, seed,
    ):
        """Whatever the policy, the total time spent inside ``call`` on
        an always-failing function never crosses the deadline."""
        policy = RetryPolicy(
            max_attempts=max_attempts,
            base_delay_s=base_delay_s,
            max_delay_s=base_delay_s + extra_delay_s,
            multiplier=multiplier,
            jitter=jitter,
            deadline_s=deadline_s,
        )
        clock = FakeClock()
        with pytest.raises(RetryExhaustedError):
            policy.call(
                Flaky(failures=10**9), retry_on=(ValueError,),
                rng=np.random.default_rng(seed),
                sleep=clock.sleep, clock=clock,
            )
        assert clock.now <= deadline_s + 1e-9
        assert len(clock.sleeps) <= max_attempts - 1


# ---------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------
class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = FakeClock()
        kwargs.setdefault("failure_threshold", 3)
        kwargs.setdefault("reset_timeout_s", 10.0)
        return CircuitBreaker(clock=clock, **kwargs), clock

    def test_trips_open_after_threshold(self):
        breaker, _ = self.make()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.stats()["opened_total"] == 1

    def test_success_resets_failure_streak(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_success_closes(self):
        breaker, clock = self.make(failure_threshold=1)
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(10.0)
        assert breaker.state == "half-open"
        assert breaker.allow()  # the probe
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        breaker, clock = self.make(failure_threshold=1)
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        # ...and the timeout restarted from the probe failure.
        clock.advance(10.0)
        assert breaker.state == "half-open"

    def test_half_open_admits_exactly_one_probe_under_concurrency(self):
        breaker, clock = self.make(failure_threshold=1)
        breaker.record_failure()
        clock.advance(10.0)
        workers = 16
        barrier = threading.Barrier(workers)
        admitted = []

        def contend():
            barrier.wait()
            if breaker.allow():
                admitted.append(threading.get_ident())

        threads = [
            threading.Thread(target=contend) for _ in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(admitted) == 1
        # The losers were refused, not queued.
        assert breaker.stats()["refused_total"] >= workers - 1
        assert breaker.stats()["probes_total"] == 1

    def test_call_wraps_allow_and_outcome(self):
        breaker, clock = self.make(failure_threshold=1)
        with pytest.raises(ValueError):
            breaker.call(Flaky(failures=1))
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: "never runs")
        clock.advance(10.0)
        assert breaker.call(lambda: "ok") == "ok"
        assert breaker.state == "closed"

    def test_publishes_state_gauge_and_open_counter(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        breaker = CircuitBreaker(
            failure_threshold=1, name="test.breaker",
            metrics=registry, clock=FakeClock(),
        )
        breaker.record_failure()
        assert registry.gauge("test.breaker.state").value == 2
        assert registry.counter("test.breaker.opened").value == 1
        assert any(
            event["kind"] == "breaker_open"
            for event in registry.events.tail()
        )


# ---------------------------------------------------------------------------
# FaultInjector
# ---------------------------------------------------------------------------
class TestFaultInjector:
    def test_config_validation(self):
        with pytest.raises(ResilienceError):
            FaultConfig(frame_corrupt_rate=1.5)
        with pytest.raises(ResilienceError):
            FaultConfig(frame_modes=("meteor-strike",))
        with pytest.raises(ResilienceError):
            FaultInjector(FaultConfig(), frame_corrupt_rate=0.5)

    def test_deterministic_replay(self, fault_injector):
        frames = np.random.default_rng(0).normal(size=(40, 4, 8, 16))
        first = fault_injector(frame_corrupt_rate=0.3, seed=9)
        second = fault_injector(frame_corrupt_rate=0.3, seed=9)
        kinds_a = [first.corrupt_frame(f)[1] for f in frames]
        kinds_b = [second.corrupt_frame(f)[1] for f in frames]
        assert kinds_a == kinds_b
        assert any(kind is not None for kind in kinds_a)
        first.reset()
        assert [first.corrupt_frame(f)[1] for f in frames] == kinds_a

    def test_corruption_modes(self, fault_injector):
        frame = np.ones((4, 8, 16))
        for mode in ("nan", "inf"):
            injector = fault_injector(
                frame_corrupt_rate=1.0, frame_modes=(mode,)
            )
            corrupted, kind = injector.corrupt_frame(frame)
            assert kind == mode
            assert corrupted.shape == frame.shape
            assert not np.all(np.isfinite(corrupted))
            assert np.all(np.isfinite(frame))  # input untouched
        corrupted, kind = fault_injector(
            frame_corrupt_rate=1.0, frame_modes=("wrong-shape",)
        ).corrupt_frame(frame)
        assert kind == "wrong-shape" and corrupted.ndim == 1
        dropped, kind = fault_injector(
            frame_corrupt_rate=1.0, frame_modes=("drop",)
        ).corrupt_frame(frame)
        assert dropped is None and kind == "drop"

    def test_complex_frames_keep_their_dtype(self, fault_injector):
        frame = (
            np.ones((2, 4, 8)) + 1j * np.ones((2, 4, 8))
        )
        corrupted, kind = fault_injector(
            frame_corrupt_rate=1.0, frame_modes=("nan",)
        ).corrupt_frame(frame)
        assert kind == "nan"
        assert np.iscomplexobj(corrupted)
        assert not np.all(np.isfinite(corrupted))

    def test_forward_and_batch_faults_count(self, fault_injector):
        injector = fault_injector(
            forward_fail_rate=1.0, batch_kill_rate=1.0,
            forward_delay_rate=1.0, forward_delay_s=0.25,
        )
        slept = []
        assert injector.maybe_delay_forward(sleep=slept.append) == 0.25
        with pytest.raises(InjectedFaultError):
            injector.maybe_fail_forward()
        with pytest.raises(InjectedFaultError):
            injector.maybe_kill_batch()
        assert slept == [0.25]
        stats = injector.stats()
        assert stats["forward.delay"] == 1
        assert stats["forward.fail"] == 1
        assert stats["batch.kill"] == 1

    def test_compile_fail_is_deterministic(self, fault_injector):
        from repro.errors import InferenceCompileError

        injector = fault_injector(compile_fail=True)
        for _ in range(3):
            with pytest.raises(InferenceCompileError):
                injector.maybe_fail_compile()
        fault_injector().maybe_fail_compile()  # off by default


# ---------------------------------------------------------------------------
# ErrorBudget / HealthState
# ---------------------------------------------------------------------------
class TestErrorBudget:
    def test_health_ladder(self):
        budget = ErrorBudget(
            window=10, degraded_ratio=0.2, unhealthy_ratio=0.5,
            min_events=2,
        )
        assert budget.health() is HealthState.HEALTHY
        for _ in range(8):
            budget.record_success()
        budget.record_failure()
        assert budget.health() is HealthState.HEALTHY  # 1/9 < 0.2
        budget.record_failure()
        assert budget.health() is HealthState.DEGRADED  # 2/10
        for _ in range(4):
            budget.record_failure()
        assert budget.health() is HealthState.UNHEALTHY

    def test_window_forgets_old_failures(self):
        budget = ErrorBudget(
            window=4, degraded_ratio=0.25, unhealthy_ratio=0.5,
            min_events=1,
        )
        for _ in range(4):
            budget.record_failure()
        assert budget.health() is HealthState.UNHEALTHY
        for _ in range(4):
            budget.record_success()
        assert budget.health() is HealthState.HEALTHY
        assert budget.failures_total == 4  # lifetime totals survive

    def test_min_events_suppresses_early_flapping(self):
        budget = ErrorBudget(min_events=4)
        budget.record_failure()
        assert budget.health() is HealthState.HEALTHY
        assert budget.ratio() == 1.0

    def test_worst_ordering(self):
        assert HealthState.worst() is HealthState.HEALTHY
        assert HealthState.worst(
            HealthState.HEALTHY, HealthState.DEGRADED
        ) is HealthState.DEGRADED
        assert HealthState.worst(
            HealthState.DEGRADED, HealthState.UNHEALTHY,
            HealthState.HEALTHY,
        ) is HealthState.UNHEALTHY
        assert HealthState.UNHEALTHY.code == 2


# ---------------------------------------------------------------------------
# DeadLetterLog
# ---------------------------------------------------------------------------
class TestDeadLetterLog:
    def test_ring_buffer_and_totals(self):
        log = DeadLetterLog(capacity=3)
        for index in range(5):
            log.record(
                session_id="s", frame_index=index, stage="ingest",
                reason=f"bad frame {index}",
            )
        assert len(log) == 3
        assert log.total == 5
        assert [r["frame_index"] for r in log.tail()] == [2, 3, 4]
        assert [r["frame_index"] for r in log.tail(2)] == [3, 4]
        stats = log.stats()
        assert stats == {"count": 3, "total": 5, "capacity": 3}

    def test_jsonl_export(self, tmp_path):
        log = DeadLetterLog()
        log.record(
            session_id="s-1", frame_index=7, stage="forward",
            reason="retries exhausted", corr_id="s-1#7",
        )
        path = tmp_path / "dead_letters.jsonl"
        log.export_jsonl(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["session_id"] == "s-1"
        assert record["corr_id"] == "s-1#7"
        assert record["stage"] == "forward"

    def test_payload_truncated_to_cap(self):
        log = DeadLetterLog(payload_cap=4)
        letter = log.record(
            session_id="conn1@peer", frame_index=0,
            stage="netfront-protocol", reason="bad magic",
            payload=b"\xde\xad\xbe\xef-and-a-lot-more-garbage",
        )
        # Only the first ``payload_cap`` bytes are retained...
        assert letter.payload_hex == "deadbeef"
        # ...but the original size is preserved for forensics.
        assert letter.payload_len == 27

    def test_payload_cap_zero_keeps_length_only(self):
        log = DeadLetterLog(payload_cap=0)
        letter = log.record(
            session_id="s", frame_index=0, stage="x", reason="y",
            payload=b"abcdef",
        )
        assert letter.payload_hex == ""
        assert letter.payload_len == 6

    def test_export_jsonl_snapshots_under_concurrent_writes(
        self, tmp_path
    ):
        """export_jsonl must snapshot the ring under the lock: a writer
        hammering the log concurrently must never corrupt the export
        (the classic failure is ``deque mutated during iteration``)."""
        import threading

        log = DeadLetterLog(capacity=64, payload_cap=8)
        stop = threading.Event()

        def writer():
            index = 0
            while not stop.is_set():
                log.record(
                    session_id="w", frame_index=index, stage="chaos",
                    reason="spin", payload=b"0123456789abcdef",
                )
                index += 1

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        try:
            for round_index in range(20):
                path = tmp_path / f"letters-{round_index}.jsonl"
                log.export_jsonl(path)
                for line in path.read_text().splitlines():
                    record = json.loads(line)  # every line is valid
                    assert record["payload_len"] == 16
                    assert len(record["payload_hex"]) == 16  # 8 bytes
        finally:
            stop.set()
            thread.join(timeout=10.0)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------
class TestCheckpoint:
    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "sub" / "blob.bin"
        atomic_write_bytes(path, b"payload")
        assert path.read_bytes() == b"payload"
        assert [p.name for p in path.parent.iterdir()] == ["blob.bin"]

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        model = {
            "conv.weight": rng.normal(size=(3, 3)),
            "buffer:bn.running_mean": rng.normal(size=4),
        }
        optimizer = {
            "type": "Adam",
            "lr": 1e-3,
            "t": 17,
            "m": [rng.normal(size=(3, 3)), rng.normal(size=4)],
            "v": [rng.normal(size=(3, 3)), rng.normal(size=4)],
        }
        extra = {"epoch": 2, "rng_state": {"state": [1, 2, 3]}}
        path = checkpoint_path(tmp_path, 2)
        save_checkpoint(path, model, optimizer, extra)
        payload = load_checkpoint(path)
        for key, value in model.items():
            assert np.array_equal(payload["model"][key], value)
        restored = payload["optimizer"]
        assert restored["type"] == "Adam"
        assert restored["t"] == 17
        for slot in ("m", "v"):
            assert len(restored[slot]) == 2
            for got, want in zip(restored[slot], optimizer[slot]):
                assert np.array_equal(got, want)
        assert payload["extra"] == extra

    def test_latest_ignores_tmp_and_orders_by_epoch(self, tmp_path):
        assert latest_checkpoint(tmp_path) is None
        for epoch in (1, 3, 2):
            save_checkpoint(checkpoint_path(tmp_path, epoch), {})
        # A stale tmp file from a crashed write must never win.
        (tmp_path / "ckpt-epoch0009.npz.abc.tmp").write_bytes(b"junk")
        assert latest_checkpoint(tmp_path) == checkpoint_path(tmp_path, 3)

    def test_load_rejects_garbage(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "missing.npz")
        junk = tmp_path / "junk.npz"
        junk.write_bytes(b"this is not an archive")
        with pytest.raises(CheckpointError):
            load_checkpoint(junk)
        stray = tmp_path / "stray.npz"
        np.savez(stray, some_array=np.zeros(3))
        with pytest.raises(CheckpointError):
            load_checkpoint(stray)

    def test_meta_must_be_json_serialisable(self, tmp_path):
        with pytest.raises(CheckpointError):
            save_checkpoint(
                tmp_path / "bad.npz", {}, extra={"fn": lambda: None}
            )


# ---------------------------------------------------------------------------
# Optimizer state round-trip
# ---------------------------------------------------------------------------
class TestOptimizerState:
    def _params(self, seed):
        from repro.nn.tensor import Tensor

        rng = np.random.default_rng(seed)
        return [
            Tensor(rng.normal(size=(4, 3)), requires_grad=True),
            Tensor(rng.normal(size=3), requires_grad=True),
        ]

    def _step(self, optimizer, params, rng):
        for param in params:
            param.grad = rng.normal(size=param.data.shape)
        optimizer.step()
        optimizer.zero_grad()

    @pytest.mark.parametrize("name", ["Adam", "SGD", "RMSProp"])
    def test_resumed_optimizer_matches_uninterrupted(self, name):
        from repro.nn import optim

        def make(params):
            if name == "Adam":
                return optim.Adam(params, lr=1e-2)
            if name == "SGD":
                return optim.SGD(params, lr=1e-2, momentum=0.9)
            return optim.RMSProp(params, lr=1e-2, momentum=0.9)

        # Uninterrupted: 6 steps straight.
        params_a = self._params(seed=1)
        opt_a = make(params_a)
        rng = np.random.default_rng(5)
        for _ in range(6):
            self._step(opt_a, params_a, rng)

        # Interrupted: 3 steps, state round-trip, 3 more steps.
        params_b = self._params(seed=1)
        opt_b = make(params_b)
        rng = np.random.default_rng(5)
        for _ in range(3):
            self._step(opt_b, params_b, rng)
        state = opt_b.state_dict()
        opt_c = make(params_b)
        opt_c.load_state_dict(state)
        for _ in range(3):
            self._step(opt_c, params_b, rng)

        for tensor_a, tensor_b in zip(params_a, params_b):
            assert np.array_equal(tensor_a.data, tensor_b.data)

    def test_load_rejects_wrong_type(self):
        from repro.nn import optim

        params = self._params(seed=0)
        state = optim.SGD(params, lr=0.1).state_dict()
        with pytest.raises(Exception):
            optim.Adam(params, lr=0.1).load_state_dict(state)
