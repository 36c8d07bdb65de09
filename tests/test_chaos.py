"""Chaos tests: the serving stack and the trainer under injected faults.

The serving smoke test is the acceptance drill from DESIGN.md
"Resilience": with frames corrupted, forward passes failing and the
compiled plan forced broken, every *clean* request must still complete
with the same pose it would get on a fault-free server, the service
must report degraded health, and the breaker must have tripped the
compiled path down to the eager forward. The serve drill runs the same
faults through ``mmhand serve --listen`` and its gateway worker. The
trainer test kills a fit mid-epoch and proves the checkpoint/resume
path is bit-identical.
"""

import json
import signal

import numpy as np
import pytest

from conftest import serve_listen, stop_serve

from repro.config import (
    CampaignConfig,
    DspConfig,
    ModelConfig,
    RadarConfig,
    TrainConfig,
)
from repro.core.regressor import HandJointRegressor
from repro.core.training import Trainer
from repro.data.collection import CampaignGenerator
from repro.dsp.radar_cube import CubeBuilder
from repro.errors import InjectedFaultError
from repro.gateway.loadgen import make_frame_pool
from repro.hand.subjects import make_subjects
from repro.netfront import NetFrontClient
from repro.resilience import FaultInjector, HealthState, latest_checkpoint
from repro.serving import InferenceServer, ServingConfig


@pytest.fixture(scope="module")
def stack():
    radar = RadarConfig(samples_per_chirp=32, chirp_loops=8)
    dsp = DspConfig(
        range_bins=16, doppler_bins=4, azimuth_bins=8, elevation_bins=8,
        segment_frames=2,
    )
    model = ModelConfig(
        base_channels=4, hourglass_depth=1, num_blocks=1, feature_dim=16,
        lstm_hidden=16,
    )
    builder = CubeBuilder(radar, dsp)
    regressor = HandJointRegressor(dsp, model, seed=7)
    regressor.eval()
    return builder, regressor


def _client_frames(builder, clients, count, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(
        size=(
            clients,
            count,
            builder.array.num_virtual,
            builder.radar.chirp_loops,
            builder.radar.samples_per_chirp,
        )
    )


def _run(server, session_ids, frames, corrupt=None):
    """Feed ``frames[client, tick]`` through ``server``; returns
    ``{(session_id, frame_index): joints}``. ``corrupt`` maps
    ``(client, tick)`` to a replacement frame (``None`` drops it)."""
    results = {}
    clients, ticks = frames.shape[:2]
    for tick in range(ticks):
        for client in range(clients):
            frame = frames[client, tick]
            if corrupt is not None:
                if (client, tick) in corrupt:
                    frame = corrupt[(client, tick)]
                    if frame is None:
                        continue
            server.submit(session_ids[client], frame)
        for result in server.step():
            results[(result.session_id, result.frame_index)] = result
    for result in server.drain():
        results[(result.session_id, result.frame_index)] = result
    return results


class TestChaosServing:
    CLIENTS = 3
    TICKS = 12

    def test_clean_requests_survive_injected_faults(self, stack):
        """10% corrupted frames + 5% forward faults + a broken compiled
        plan: the dirty frames are quarantined, everything else is
        served bit-for-bit like a fault-free run (within compiled/eager
        tolerance), and the degradation is visible in health/stats."""
        builder, regressor = stack
        frames = _client_frames(builder, self.CLIENTS, self.TICKS, seed=3)

        # One injector corrupts frames at the feed (driven by the test,
        # like a gateway worker's ingest under `mmhand serve --chaos`);
        # a second one, inside the
        # server, fails forwards and breaks the compiled plan. Separate
        # streams keep the corruption schedule replayable below.
        frame_faults = FaultInjector(frame_corrupt_rate=0.1, seed=21)
        corrupt = {}
        for tick in range(self.TICKS):
            for client in range(self.CLIENTS):
                mutated, kind = frame_faults.corrupt_frame(
                    frames[client, tick]
                )
                if kind is not None:
                    corrupt[(client, tick)] = mutated
        assert corrupt, "seed must corrupt at least one frame"
        assert any(f is not None for f in corrupt.values())

        chaos = InferenceServer(
            builder, regressor,
            ServingConfig(policy="block"),
            fault_injector=FaultInjector(
                forward_fail_rate=0.05, compile_fail=True, seed=22
            ),
        )
        ids = [
            chaos.open_session(f"client-{i}") for i in range(self.CLIENTS)
        ]
        served = _run(chaos, ids, frames, corrupt=corrupt)

        # Fault-free baseline over the *clean* frames only (a corrupted
        # frame never reaches the window, so the admitted stream -- and
        # every emitted window -- is identical in both runs).
        baseline = InferenceServer(
            builder, regressor, ServingConfig(policy="block")
        )
        base_ids = [
            baseline.open_session(f"client-{i}")
            for i in range(self.CLIENTS)
        ]
        dropped = {key: None for key in corrupt}
        expected = _run(baseline, base_ids, frames, corrupt=dropped)

        # Every clean request completed, with the right shape and the
        # fault-free pose (compiled vs eager may differ in the last ulp).
        assert set(served) == set(expected)
        assert len(served) > 0
        joints = regressor.model_config.num_joints
        for key, result in served.items():
            assert result.joints.shape == (joints, 3)
            assert np.all(np.isfinite(result.joints))
            np.testing.assert_allclose(
                result.joints, expected[key].joints, atol=1e-5
            )

        # The damage is visible: quarantined frames in the dead-letter
        # log, a tripped breaker, degraded health.
        assert len(chaos.dead_letters) > 0
        assert chaos.health() in (
            HealthState.DEGRADED, HealthState.UNHEALTHY
        )
        stats = chaos.stats()
        assert stats["health"] != "healthy"
        assert stats["counters"]["frames_quarantined"] > 0
        assert stats["breaker"]["state"] == "open"
        assert stats["counters"]["compiled_fallbacks"] >= 3
        assert stats["counters"]["eager_batches"] >= 1
        assert stats["dead_letters"]["total"] == len(
            [f for f in corrupt.values() if f is not None]
        )

        # The baseline stayed pristine.
        assert baseline.health() is HealthState.HEALTHY
        assert len(baseline.dead_letters) == 0
        assert baseline.breaker.state == "closed"


def test_serve_chaos_drill_over_the_socket(tmp_path):
    """The CI chaos drill: `serve --listen` with 10% frame corruption,
    5% forward faults and a broken compiled plan drains cleanly on
    SIGTERM. No clean frame is lost, the corrupted ones are quarantined
    and dead-lettered, and the breaker fell back to the eager path."""
    letters = tmp_path / "dead_letters.jsonl"
    report_path = tmp_path / "serve_chaos_stats.json"
    with serve_listen(
        "--workers", "1", "--chaos", "--chaos-frame-rate", "0.1",
        "--chaos-forward-rate", "0.05", "--chaos-compile-fail",
        "--chaos-seed", "7", "--dead-letter-log", str(letters),
        "--json", str(report_path),
    ) as (proc, port, output):
        pool = make_frame_pool(DspConfig(), 16, seed=0)
        with NetFrontClient.connect(
            "127.0.0.1", port, timeout_s=30.0
        ) as client:
            sessions = [client.open_session() for _ in range(3)]
            for fid, cube in enumerate(pool):
                for sid in sessions:
                    client.send_cube(sid, cube, frame_id=fid)
            client.ping(timeout_s=60.0)
            proc.send_signal(signal.SIGTERM)
            client.drain_messages(duration_s=10.0)
            assert client.goodbye["lost_clean_frames"] == 0
        returncode = stop_serve(proc, output, sigterm=False)
    assert returncode == 0, "".join(output)

    report = json.loads(report_path.read_text())
    assert report["frames_submitted"] == 3 * 16
    assert report["lost_clean_frames"] == 0
    counters = report["gateway"]["counters"]
    quarantined = counters["gateway.frames_quarantined"]
    assert quarantined > 0
    assert report["frames_acked"] + report["dead_letters"] == 3 * 16
    worker = report["gateway"]["workers"]["0"]["serving"]["counters"]
    assert worker["compiled_fallbacks"] >= 1
    records = [
        json.loads(line) for line in letters.read_text().splitlines()
    ]
    ingest = [r for r in records if r["stage"] == "ingest"]
    # Every quarantined ack has its dead letter, with the reason.
    assert len(ingest) == quarantined
    assert all(r["reason"] for r in ingest)


class KillAt:
    """Fault injector stand-in that raises on the N-th training batch."""

    def __init__(self, batch_index):
        self.batch_index = batch_index
        self.calls = 0

    def maybe_kill_batch(self):
        if self.calls == self.batch_index:
            raise InjectedFaultError(
                f"injected crash at batch {self.calls}"
            )
        self.calls += 1


@pytest.fixture(scope="module")
def train_setup():
    radar = RadarConfig(samples_per_chirp=32, chirp_loops=8)
    dsp = DspConfig(
        range_bins=16, doppler_bins=4, azimuth_bins=8, elevation_bins=8,
        segment_frames=2,
    )
    model = ModelConfig(
        base_channels=4, hourglass_depth=1, num_blocks=1, feature_dim=16,
        lstm_hidden=16,
    )
    campaign = CampaignConfig(num_users=2, segments_per_user=10)
    dataset = CampaignGenerator(radar, dsp, campaign).generate(
        subjects=make_subjects(2), seed=5
    )
    return dsp, model, dataset


class TestCheckpointResume:
    CONFIG = dict(epochs=4, batch_size=4, seed=0, log_every=1000)

    def test_kill_mid_epoch_resume_is_bit_identical(
        self, train_setup, tmp_path
    ):
        """Crash during epoch 3, resume from the epoch-2 checkpoint,
        and land on exactly the run an uninterrupted fit produces."""
        dsp, model, dataset = train_setup

        # Reference: one uninterrupted fit.
        reference = HandJointRegressor(dsp, model, seed=3)
        result_ref = Trainer(reference, TrainConfig(**self.CONFIG)).fit(
            dataset
        )

        # Crash: same config, checkpoint every epoch, die mid-epoch 3
        # (20 segments / batch 4 = 5 batches per epoch; batch 13 is the
        # 4th batch of the 3rd epoch).
        crashed = HandJointRegressor(dsp, model, seed=3)
        with pytest.raises(InjectedFaultError):
            Trainer(crashed, TrainConfig(**self.CONFIG)).fit(
                dataset,
                checkpoint_dir=str(tmp_path),
                fault_injector=KillAt(13),
            )
        resume_path = latest_checkpoint(tmp_path)
        assert resume_path is not None
        assert resume_path.endswith("ckpt-epoch0002.npz")

        # Resume into a *fresh* process-equivalent: new model object,
        # new trainer, same config.
        resumed = HandJointRegressor(dsp, model, seed=3)
        result_res = Trainer(resumed, TrainConfig(**self.CONFIG)).fit(
            dataset,
            checkpoint_dir=str(tmp_path),
            resume_from=resume_path,
        )

        assert result_res.epochs == result_ref.epochs
        assert result_res.total_loss == result_ref.total_loss
        assert result_res.l3d == result_ref.l3d
        assert result_res.lkine == result_ref.lkine
        assert result_res.final_loss == result_ref.final_loss
        assert len(result_res.epoch_stats) == len(result_ref.epoch_stats)
        for stats_res, stats_ref in zip(
            result_res.epoch_stats, result_ref.epoch_stats
        ):
            # Timings differ between runs; the arithmetic must not.
            for key in ("epoch", "loss", "grad_norm"):
                assert stats_res[key] == stats_ref[key], key
        state_res = resumed.state_dict()
        state_ref = reference.state_dict()
        assert set(state_res) == set(state_ref)
        for key in state_ref:
            assert np.array_equal(state_res[key], state_ref[key]), key

    def test_resume_rejects_mismatched_seed(self, train_setup, tmp_path):
        dsp, model, dataset = train_setup
        trainer = Trainer(
            HandJointRegressor(dsp, model, seed=3),
            TrainConfig(epochs=1, batch_size=4, seed=0, log_every=1000),
        )
        trainer.fit(dataset, checkpoint_dir=str(tmp_path))
        other = Trainer(
            HandJointRegressor(dsp, model, seed=3),
            TrainConfig(epochs=1, batch_size=4, seed=9, log_every=1000),
        )
        from repro.errors import CheckpointError

        with pytest.raises(CheckpointError):
            other.fit(
                dataset, resume_from=latest_checkpoint(tmp_path)
            )


@pytest.fixture(scope="module")
def campaign_setup(tmp_path_factory):
    """A tiny sharded campaign for the data-parallel chaos drills."""
    from repro.campaign import generate_campaign

    radar = RadarConfig(samples_per_chirp=32, chirp_loops=8)
    dsp = DspConfig(
        range_bins=16, doppler_bins=4, azimuth_bins=8, elevation_bins=8,
        segment_frames=2,
    )
    model = ModelConfig(
        base_channels=4, hourglass_depth=1, num_blocks=1, feature_dim=16,
        lstm_hidden=16,
    )
    directory = tmp_path_factory.mktemp("chaos-campaign")
    generate_campaign(
        str(directory), num_shards=2, segments_per_shard=6,
        radar=radar, dsp=dsp,
        campaign=CampaignConfig(num_users=2, segments_per_user=6),
        seed=17, workers=1,
    )
    return dsp, model, str(directory)


class TestCampaignCheckpointResume:
    """Kill a data-parallel campaign fit mid-flight; resume must land
    bit-identically on the uninterrupted run -- including when the
    resumed run switches between sequential and forked execution."""

    CONFIG = dict(epochs=3, batch_size=2, seed=0, log_every=1000)

    def _fit(self, setup, processes, **kwargs):
        from repro.campaign import (
            DataParallelConfig,
            ShardedDataset,
            fit_data_parallel,
        )

        dsp, model, directory = setup
        regressor = HandJointRegressor(dsp, model, seed=3)
        result = fit_data_parallel(
            regressor,
            ShardedDataset(directory),
            TrainConfig(**self.CONFIG),
            DataParallelConfig(world_size=2, processes=processes),
            **kwargs,
        )
        return regressor, result

    @pytest.mark.parametrize("resume_processes", [1, 2])
    def test_kill_and_resume_is_bit_identical(
        self, campaign_setup, tmp_path, resume_processes
    ):
        from repro.resilience import latest_checkpoint

        reference_reg, reference = self._fit(campaign_setup, processes=1)

        # 2 shards x 6 segments -> 3 segments/rank-epoch at batch 2 is
        # 3 steps/epoch after the min() floor; kill in epoch 3.
        ckpt_dir = tmp_path / f"ckpt-{resume_processes}"
        with pytest.raises(InjectedFaultError):
            self._fit(
                campaign_setup, processes=1,
                checkpoint_dir=str(ckpt_dir),
                fault_injector=KillAt(7),
            )
        resume_path = latest_checkpoint(str(ckpt_dir))
        assert resume_path is not None
        assert resume_path.endswith("ckpt-epoch0002.npz")

        resumed_reg, resumed = self._fit(
            campaign_setup, processes=resume_processes,
            checkpoint_dir=str(ckpt_dir),
            resume_from=resume_path,
        )

        assert resumed.epochs == reference.epochs
        assert resumed.total_loss == reference.total_loss
        assert resumed.l3d == reference.l3d
        assert resumed.lkine == reference.lkine
        state_res = resumed_reg.state_dict()
        state_ref = reference_reg.state_dict()
        assert set(state_res) == set(state_ref)
        for key in state_ref:
            if resume_processes != 1 and "running_" in key:
                # Forked ranks only forward their own micro-batch
                # stream, so batch-norm running buffers (not trained
                # parameters) differ from the sequential reference.
                continue
            assert np.array_equal(state_res[key], state_ref[key]), key

    def test_resume_rejects_world_size_change(
        self, campaign_setup, tmp_path
    ):
        from repro.campaign import (
            DataParallelConfig,
            ShardedDataset,
            fit_data_parallel,
        )
        from repro.errors import CheckpointError
        from repro.resilience import latest_checkpoint

        dsp, model, directory = campaign_setup
        self._fit(
            campaign_setup, processes=1, checkpoint_dir=str(tmp_path)
        )
        with pytest.raises(CheckpointError, match="world_size"):
            fit_data_parallel(
                HandJointRegressor(dsp, model, seed=3),
                ShardedDataset(directory),
                TrainConfig(**self.CONFIG),
                DataParallelConfig(world_size=1, processes=1),
                resume_from=latest_checkpoint(str(tmp_path)),
            )

    def test_plain_trainer_checkpoint_is_rejected(
        self, campaign_setup, train_setup, tmp_path
    ):
        from repro.errors import CheckpointError
        from repro.resilience import latest_checkpoint

        dsp, model, dataset = train_setup
        Trainer(
            HandJointRegressor(dsp, model, seed=3),
            TrainConfig(epochs=1, batch_size=4, seed=0, log_every=1000),
        ).fit(dataset, checkpoint_dir=str(tmp_path))
        with pytest.raises(CheckpointError, match="campaign"):
            self._fit(
                campaign_setup, processes=1,
                resume_from=latest_checkpoint(str(tmp_path)),
            )
