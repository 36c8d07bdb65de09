"""Shared fixtures: small configurations that keep tests fast while
exercising the same code paths as the full-size system."""

from __future__ import annotations

import contextlib
import os
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.config import (
    CampaignConfig,
    DspConfig,
    ModelConfig,
    RadarConfig,
    TrainConfig,
)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def small_radar():
    return RadarConfig(samples_per_chirp=32, chirp_loops=8)


@pytest.fixture
def small_dsp():
    return DspConfig(
        range_bins=16,
        doppler_bins=4,
        azimuth_bins=8,
        elevation_bins=8,
        segment_frames=2,
    )


@pytest.fixture
def small_model():
    return ModelConfig(
        base_channels=4,
        hourglass_depth=1,
        num_blocks=1,
        feature_dim=16,
        lstm_hidden=16,
    )


@pytest.fixture
def small_train():
    return TrainConfig(epochs=1, batch_size=4, log_every=1000)


@pytest.fixture
def small_campaign():
    return CampaignConfig(num_users=2, segments_per_user=4)


@pytest.fixture
def fault_injector():
    """Factory for seeded :class:`~repro.resilience.FaultInjector`\\ s.

    Usage: ``injector = fault_injector(frame_corrupt_rate=0.1, seed=3)``.
    Every injector is deterministic; re-running a test replays the same
    fault schedule.
    """
    from repro.resilience import FaultInjector

    def make(**overrides):
        overrides.setdefault("seed", 0)
        return FaultInjector(**overrides)

    return make


def numeric_gradient(fn, array: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of scalar ``fn`` w.r.t. ``array``
    (mutated in place and restored)."""
    grad = np.zeros_like(array)
    for index in np.ndindex(*array.shape):
        original = array[index]
        array[index] = original + eps
        f_plus = fn()
        array[index] = original - eps
        f_minus = fn()
        array[index] = original
        grad[index] = (f_plus - f_minus) / (2.0 * eps)
    return grad


@contextlib.contextmanager
def serve_listen(*flags: str, timeout_s: float = 120.0):
    """Run ``mmhand serve --listen 127.0.0.1:0 FLAGS`` in a subprocess.

    Yields ``(proc, port, output)`` once the server reports its port;
    ``output`` holds the stdout lines read so far. A server the test
    did not stop (see :func:`stop_serve`) is killed on exit.
    """
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + ([os.environ["PYTHONPATH"]]
               if os.environ.get("PYTHONPATH") else [])
        ),
        PYTHONUNBUFFERED="1",
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--listen", "127.0.0.1:0", *flags],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env,
    )
    try:
        port = None
        output = []
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                break
            output.append(line)
            match = re.search(
                r"netfront listening on 127\.0\.0\.1:(\d+)", line
            )
            if match:
                port = int(match.group(1))
                break
        assert port, "server never reported its port:\n" + "".join(output)
        yield proc, port, output
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30.0)


def stop_serve(
    proc, output, sigterm: bool = True, timeout_s: float = 120.0
) -> int:
    """SIGTERM a :func:`serve_listen` server (``sigterm=False`` when the
    test already sent it: a second one would kill the drain), wait for
    it and collect the rest of its output; returns its exit code."""
    if sigterm:
        proc.send_signal(signal.SIGTERM)
    returncode = proc.wait(timeout=timeout_s)
    output.append(proc.stdout.read())
    return returncode
