"""Seeded inputs and their in-run references.

Everything a workload sends is derived from its ``--seed``: simulated
hand captures (gesture animation -> scatterers -> raw IF frames through
the radar simulator), the session layout and the send schedule. The
reference pose of every window is computed here, in the benchmark
process, by an eager ``predict`` of a freshly constructed regressor
with the server's seed -- never by the code path under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.config import DspConfig, ModelConfig, RadarConfig
from repro.core.regressor import HandJointRegressor
from repro.dsp.radar_cube import CubeBuilder
from repro.hand.animation import sample_gesture_sequence
from repro.hand.gestures import list_gestures
from repro.hand.kinematics import forward_kinematics
from repro.hand.subjects import make_subjects
from repro.radar.radar import RadarSimulator
from repro.radar.scatterers import hand_scatterers
from repro.radar.scene import Scene

SERVER_SEED = 0  # `mmhand serve` default --seed
FRAME_PERIOD_S = RadarConfig().frame_period_s
WINDOW = DspConfig().segment_frames
CAPTURE_FRAMES = 20  # one simulated capture: 1 s of one subject's gestures
# The live workloads carry one frame-bearing session at a time: with
# two, both gateway workers run multi-threaded BLAS at once and
# oversubscribe a 2-CPU host (see README.md, "Load size").


@dataclass
class Stream:
    """One client session: its frames, schedule and expected poses.

    ``times[i]`` is frame ``i``'s scheduled send time relative to the
    start of the load; ``refs[i]`` is the eager reference pose of the
    window ending at frame ``i`` (NaN for the window-fill frames, which
    must produce no pose); ``truth[i]`` is the simulated hand's true
    joints at frame ``i``.
    """

    kind: str  # "raw" or "cube"
    frames: np.ndarray
    times: np.ndarray
    first_id: int
    truth: np.ndarray
    conn: int
    open_time: float
    refs: np.ndarray = field(default=None)
    cubes: np.ndarray = field(default=None)  # what the model windows

    @property
    def n(self) -> int:
        return len(self.frames)


def simulate_captures(
    seed: int, captures: int, frames_each: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Raw IF frames ``(captures, frames, V, L, N)`` and true joints
    ``(captures, frames, 21, 3)`` of seeded gesture captures, one
    simulated subject each."""
    radar = RadarConfig()
    rng = np.random.default_rng([seed, 1])
    subjects = make_subjects(captures, seed=int(rng.integers(2**31)))
    raws, joints = [], []
    for subject in subjects:
        distance = float(rng.uniform(0.2, 0.4))
        base = np.array([distance, 0.0, float(rng.uniform(-0.03, 0.03))])
        sequence = sample_gesture_sequence(
            rng, list_gestures(), num_keyframes=max(2, frames_each // 6),
            base_position=base,
        )
        poses = sequence.sample(radar.frame_period_s, frames_each)
        shape = subject.hand_shape()
        scatter_rng = np.random.default_rng(int(rng.integers(2**31)))
        scenes = [
            Scene(hand=hand_scatterers(
                shape, pose, prev_pose=poses[i - 1] if i else None,
                frame_period_s=radar.frame_period_s,
                reflectivity=subject.skin_reflectivity, rng=scatter_rng,
            ))
            for i, pose in enumerate(poses)
        ]
        sim = RadarSimulator(radar, seed=int(rng.integers(2**31)))
        raws.append(sim.sequence(scenes))
        joints.append(np.stack([forward_kinematics(shape, p) for p in poses]))
    return np.stack(raws), np.stack(joints).astype(np.float32)


def cubes_per_frame(builder: CubeBuilder, raw: np.ndarray) -> np.ndarray:
    """One ``CubeBuilder.build`` per frame, exactly as ``Session.feed``."""
    return np.stack([builder.build(frame[None]).values[0] for frame in raw])


def reference_regressor() -> HandJointRegressor:
    return HandJointRegressor(DspConfig(), ModelConfig(), seed=SERVER_SEED)


def attach_references(
    streams: List[Stream], regressor: HandJointRegressor
) -> None:
    """Eager reference pose for every window of every stream."""
    builder = CubeBuilder(RadarConfig(), DspConfig())
    windows, slots = [], []
    for s, stream in enumerate(streams):
        cubes = (
            cubes_per_frame(builder, stream.frames)
            if stream.kind == "raw" and stream.n else stream.frames
        )
        stream.cubes = cubes
        stream.refs = np.full((stream.n, 21, 3), np.nan, dtype=np.float32)
        for i in range(WINDOW - 1, stream.n):
            windows.append(cubes[i - WINDOW + 1 : i + 1])
            slots.append((s, i))
    for start in range(0, len(windows), 16):
        batch = np.stack(windows[start : start + 16])
        joints = regressor.predict(batch, use_compiled=False)
        for (s, i), pose in zip(slots[start : start + 16], joints):
            streams[s].refs[i] = pose


def live_raw_stream(seed: int, duration_s: float) -> Stream:
    """One long-lived raw-frame session at 20 Hz with a seeded phase.
    It plays back-to-back captures of ``CAPTURE_FRAMES`` frames, a new
    simulated subject and hand distance each."""
    n = int(np.ceil(duration_s / FRAME_PERIOD_S)) + WINDOW
    raw, joints = simulate_captures(seed, -(-n // CAPTURE_FRAMES), CAPTURE_FRAMES)
    phase = float(np.random.default_rng([seed, 2]).uniform(0.0, FRAME_PERIOD_S))
    return Stream(
        kind="raw", frames=raw.reshape(-1, *raw.shape[2:])[:n],
        times=phase + FRAME_PERIOD_S * np.arange(n), first_id=1000,
        truth=joints.reshape(-1, 21, 3)[:n], conn=0, open_time=0.0,
    )


def cube_pool(seed: int, captures: int, frames_each: int):
    """Pre-processed cube frames of simulated captures (float32) and
    their true joints, flattened to ``(frames, V, D, A)``."""
    raw, joints = simulate_captures(seed, captures, frames_each)
    builder = CubeBuilder(RadarConfig(), DspConfig())
    cubes = np.concatenate([
        builder.build(capture).values for capture in raw
    ]).astype(np.float32)
    return cubes, joints.reshape(-1, 21, 3), raw.reshape(-1, *raw.shape[2:])


def live_cube_streams(
    seed: int, duration_s: float
) -> Tuple[List[Stream], np.ndarray]:
    """Churning cube sessions, one at a time, each living a seeded
    1-3 s; the next opens 0.1 s after the last frame of the previous.

    A session replays a contiguous stretch of the simulated cube pool
    from a seeded offset under its own seeded gain, so no window is
    byte-identical to another and the segment cache cannot skip work.
    Returns the streams and the raw frames behind the pool.
    """
    pool, truth, raw = cube_pool(seed, captures=16, frames_each=16)
    rng = np.random.default_rng([seed, 3])
    streams: List[Stream] = []
    t = float(rng.uniform(0.0, 0.5))
    while t < duration_s:
        n = max(WINDOW + 1, int(round(rng.uniform(1.0, 3.0) / FRAME_PERIOD_S)))
        offset = int(rng.integers(0, len(pool) - n))
        gain = np.float32(rng.uniform(0.8, 1.2))
        first = t + FRAME_PERIOD_S
        streams.append(Stream(
            kind="cube", frames=pool[offset : offset + n] * gain,
            times=first + FRAME_PERIOD_S * np.arange(n),
            first_id=1000 * (len(streams) + 1), truth=truth[offset : offset + n],
            conn=0, open_time=t,
        ))
        t = first + FRAME_PERIOD_S * (n - 1) + 0.1
    return streams, raw
