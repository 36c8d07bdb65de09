"""Accounting contracts of the serving tier: the metrics registry has
one import path, and ``RequestQueue`` loss counters must exactly match
observed losses under concurrent multi-producer load."""

import importlib
import importlib.util
import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import QueueFullError
from repro.obs.metrics import MetricsRegistry
from repro.serving import RequestQueue, SegmentRequest


def test_serving_package_import_does_not_warn(recwarn):
    """The registry lives only in ``repro.obs.metrics``; importing the
    serving stack raises no deprecation warning."""
    assert importlib.util.find_spec("repro.serving.metrics") is None
    for module in ("repro.serving", "repro.gateway", "repro.cli"):
        sys.modules.pop(module, None)
        importlib.import_module(module)
    assert not [
        w for w in recwarn.list
        if issubclass(w.category, DeprecationWarning)
        and "repro." in str(w.message)
    ]


# ----------------------------------------------------------------------
# RequestQueue loss accounting under concurrency
# ----------------------------------------------------------------------


def _request(session_id, frame_index):
    return SegmentRequest(
        session_id=session_id,
        frame_index=frame_index,
        segment=np.zeros((2, 2, 2, 2)),
    )


def _hammer(queue, session_id, count, losses, lock):
    """Producer thread: push ``count`` requests, tallying the
    rejections it observes (blocking puts that timed out)."""
    rejected = 0
    for index in range(count):
        try:
            queue.put(_request(session_id, index))
        except QueueFullError:
            rejected += 1
    with lock:
        losses["rejected"] += rejected


# The queue's one way to lose a request is to reject a put whose
# blocking wait timed out; each loss kind is checked against its counter.
@pytest.mark.parametrize("loss,counter", [
    ("reject", "serving.queue.rejected"),
])
def test_queue_loss_counters_match_observed_losses(loss, counter):
    """N producers race a tiny blocking queue that a slow consumer
    drains: the metrics counter, the queue's own tally, and the sum of
    per-producer observations must agree exactly -- no loss is double-
    or under-counted."""
    registry = MetricsRegistry()
    queue = RequestQueue(
        capacity=8, block_timeout_s=0.002, metrics=registry
    )
    losses = {"rejected": 0}
    lock = threading.Lock()
    consumed = []
    done = threading.Event()

    def consume():
        while not done.is_set():
            consumed.extend(queue.pop_batch(2))
            time.sleep(0.005)

    consumer = threading.Thread(target=consume)
    producers = [
        threading.Thread(
            target=_hammer,
            args=(queue, f"client-{i}", 100, losses, lock),
        )
        for i in range(6)
    ]
    consumer.start()
    for thread in producers:
        thread.start()
    for thread in producers:
        thread.join()
    done.set()
    consumer.join()

    observed = losses["rejected"]
    assert observed > 0  # the race actually overflowed the queue
    assert getattr(queue, f"{loss}ed") == observed
    assert registry.counter(counter).value == observed
    # Conservation: everything pushed is still queued, was consumed,
    # or was rejected -- exactly once.
    assert len(queue) + len(consumed) + observed == 6 * 100
    # The loss event log carries one entry per loss (at most 600
    # stays within the log's 1024-entry window).
    events = [
        e for e in registry.events.tail()
        if e["kind"] == f"{loss}ed_request"
    ]
    assert len(events) == observed


def test_queue_loss_counters_stay_zero_without_overflow():
    registry = MetricsRegistry()
    queue = RequestQueue(capacity=64, metrics=registry)
    for index in range(32):
        queue.put(_request("calm", index))
    assert queue.rejected == 0
    snapshot = registry.snapshot()
    assert "serving.queue.rejected" not in snapshot["counters"]
