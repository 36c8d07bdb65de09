"""Accounting contracts of the serving tier: the metrics registry has
one import path, and ``RequestQueue`` loss counters must exactly match
observed losses under concurrent multi-producer load."""

import importlib
import importlib.util
import sys
import threading

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
    """Producer thread: push ``count`` requests, tallying its own
    observed losses (evictions returned / rejections raised)."""
    local = {"dropped": 0, "rejected": 0}
    for index in range(count):
        try:
            evicted = queue.put(_request(session_id, index))
        except QueueFullError:
            local["rejected"] += 1
        else:
            if evicted is not None:
                local["dropped"] += 1
    with lock:
        losses["dropped"] += local["dropped"]
        losses["rejected"] += local["rejected"]


@pytest.mark.parametrize("policy,counter", [
    ("drop-oldest", "serving.queue.dropped"),
    ("reject", "serving.queue.rejected"),
])
def test_queue_loss_counters_match_observed_losses(policy, counter):
    """N producers racing a tiny queue: the metrics counter, the
    queue's own tally, and the sum of per-producer observations must
    agree exactly -- no loss is double- or under-counted."""
    registry = MetricsRegistry()
    queue = RequestQueue(capacity=8, policy=policy, metrics=registry)
    losses = {"dropped": 0, "rejected": 0}
    lock = threading.Lock()
    producers = [
        threading.Thread(
            target=_hammer,
            args=(queue, f"client-{i}", 100, losses, lock),
        )
        for i in range(6)
    ]
    for thread in producers:
        thread.start()
    for thread in producers:
        thread.join()

    total_put = 6 * 100
    kind = "dropped" if policy == "drop-oldest" else "rejected"
    observed = losses[kind]
    assert observed > 0  # the race actually overflowed the queue
    assert getattr(queue, kind) == observed
    assert registry.counter(counter).value == observed
    # Conservation: everything pushed is still queued, or was lost --
    # exactly once (nothing consumes the queue in this test).
    if policy == "drop-oldest":
        assert len(queue) == total_put - observed
    else:
        assert len(queue) + observed == total_put
    # The loss event log carries one entry per loss (600 puts stay
    # within the log's 1024-entry window).
    events = [
        e for e in registry.events.tail()
        if e["kind"] == f"{kind}_request"
    ]
    assert len(events) == observed


def test_queue_loss_counters_stay_zero_without_overflow():
    registry = MetricsRegistry()
    queue = RequestQueue(capacity=64, policy="reject", metrics=registry)
    for index in range(32):
        queue.put(_request("calm", index))
    assert queue.rejected == queue.dropped == 0
    snapshot = registry.snapshot()
    assert "serving.queue.rejected" not in snapshot["counters"]
    assert "serving.queue.dropped" not in snapshot["counters"]
