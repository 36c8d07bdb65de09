"""Campaign-scale data engine: sharded generation, streaming dataset,
shared-memory allreduce, and data-parallel training.

The suite pins the three determinism contracts the engine is built on:

* generation is **worker-invariant** -- shard bytes depend only on the
  seed tree, never on the process count or scheduling;
* normalization statistics merged from the manifest moments are
  **exact** -- equal to computing them over the concatenated arrays;
* ``fit_data_parallel`` at ``processes=W`` is **bit-identical** to the
  ``processes=1`` sequential reference (losses AND parameters).
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.campaign import (
    DataParallelConfig,
    DomainRandomization,
    GradBus,
    ShardedDataset,
    average_vectors,
    fit_data_parallel,
    generate_campaign,
    plan_shards,
    read_manifest,
    shard_filename,
)
from repro.config import (
    CampaignConfig,
    DspConfig,
    ModelConfig,
    RadarConfig,
    TrainConfig,
)
from repro.core.regressor import HandJointRegressor
from repro.core.training import Trainer
from repro.errors import CampaignError

RADAR = RadarConfig(samples_per_chirp=32, chirp_loops=8)
DSP = DspConfig(
    range_bins=16, doppler_bins=4, azimuth_bins=8, elevation_bins=8,
    segment_frames=2,
)
MODEL = ModelConfig(
    base_channels=4, hourglass_depth=1, num_blocks=1, feature_dim=16,
    lstm_hidden=16,
)
CAMPAIGN = CampaignConfig(num_users=2, segments_per_user=8)

NUM_SHARDS = 3
SEGMENTS_PER_SHARD = 4
SEED = 13


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _generate(directory, workers=1, seed=SEED):
    return generate_campaign(
        str(directory), NUM_SHARDS, SEGMENTS_PER_SHARD,
        radar=RADAR, dsp=DSP, campaign=CAMPAIGN,
        seed=seed, workers=workers,
    )


@pytest.fixture(scope="module")
def campaign_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("campaign")
    _generate(directory)
    return directory


class TestSharding:
    def test_plan_is_deterministic_and_recorded(self):
        a = plan_shards(5, 4, 7)
        b = plan_shards(5, 4, 7)
        assert len(a) == 4
        for spec_a, spec_b in zip(a, b):
            assert spec_a.entropy == spec_b.entropy
            assert spec_a.spawn_key == spec_b.spawn_key
            assert spec_a.num_segments == 7
            # The recorded (entropy, spawn_key) must rebuild the exact
            # child stream.
            rng_a = np.random.default_rng(spec_a.seed_sequence())
            rng_b = np.random.default_rng(spec_b.seed_sequence())
            assert rng_a.integers(1 << 30) == rng_b.integers(1 << 30)
        # Different seeds, different children.
        other = plan_shards(6, 4, 7)
        assert a[0].entropy != other[0].entropy

    def test_manifest_round_trip(self, campaign_dir):
        manifest = read_manifest(str(campaign_dir))
        assert manifest["seed"] == SEED
        assert manifest["total_segments"] == NUM_SHARDS * SEGMENTS_PER_SHARD
        assert len(manifest["shards"]) == NUM_SHARDS
        for index, record in enumerate(manifest["shards"]):
            assert record["index"] == index
            assert record["file"] == shard_filename(index)
            assert os.path.exists(
                os.path.join(str(campaign_dir), record["file"])
            )
            assert record["num_segments"] == SEGMENTS_PER_SHARD
        # The config block is hashed; the hash matches the block.
        blob = json.dumps(
            manifest["config"], sort_keys=True, separators=(",", ":")
        ).encode()
        assert (
            manifest["config_sha256"] == hashlib.sha256(blob).hexdigest()
        )

    def test_read_manifest_rejects_missing_shard(self, tmp_path):
        _generate(tmp_path / "broken")
        os.remove(tmp_path / "broken" / shard_filename(1))
        with pytest.raises(CampaignError):
            read_manifest(str(tmp_path / "broken"))

    def test_randomization_validation(self):
        with pytest.raises(CampaignError):
            DomainRandomization(noise_std_range=(0.0, 0.1))
        with pytest.raises(CampaignError):
            DomainRandomization(glove_rate=1.5)
        with pytest.raises(CampaignError):
            DomainRandomization(environments=())


class TestGeneration:
    def test_worker_count_never_changes_bytes(self, campaign_dir, tmp_path):
        """The headline invariance: 2-process generation produces the
        same shard bytes as the serial run."""
        _generate(tmp_path / "parallel", workers=2)
        for index in range(NUM_SHARDS):
            assert _digest(
                tmp_path / "parallel" / shard_filename(index)
            ) == _digest(
                os.path.join(str(campaign_dir), shard_filename(index))
            ), f"shard {index} diverged between worker counts"

    def test_single_shard_regenerates_identically(
        self, campaign_dir, tmp_path
    ):
        """Any one shard can be rebuilt alone from its manifest seeds."""
        from repro.campaign.generate import _generate_shard
        from repro.campaign.sharding import ShardSpec

        manifest = read_manifest(str(campaign_dir))
        record = manifest["shards"][2]
        spec = ShardSpec(
            index=record["index"],
            entropy=record["entropy"],
            spawn_key=tuple(record["spawn_key"]),
            num_segments=record["num_segments"],
        )
        _generate_shard((
            str(tmp_path), spec, RADAR, DSP, CAMPAIGN,
            DomainRandomization(),
        ))
        assert _digest(tmp_path / shard_filename(2)) == _digest(
            os.path.join(str(campaign_dir), shard_filename(2))
        )

    def test_merged_stats_are_exact(self, campaign_dir):
        """Manifest-moment normalization equals whole-array statistics."""
        dataset = ShardedDataset(str(campaign_dir))
        full = dataset.materialize()
        segments = np.asarray(full.segments, dtype=np.float64)
        labels = np.asarray(full.labels, dtype=np.float64)
        mean, std = dataset.input_stats()
        assert mean == pytest.approx(float(segments.mean()), rel=1e-12)
        # The streaming sumsq - mean^2 formula loses a few digits to
        # cancellation; it is deterministic, just not two-pass-exact.
        assert std == pytest.approx(float(segments.std()), rel=1e-6)
        label_mean, label_std = dataset.label_stats()
        np.testing.assert_allclose(
            label_mean, labels.mean(axis=0), rtol=1e-12
        )
        np.testing.assert_allclose(
            label_std, labels.std(axis=0), rtol=1e-6, atol=1e-12
        )


class TestShardedDataset:
    def test_shapes_and_lazy_mmap(self, campaign_dir):
        dataset = ShardedDataset(str(campaign_dir))
        assert len(dataset) == NUM_SHARDS * SEGMENTS_PER_SHARD
        assert dataset.num_shards == NUM_SHARDS
        assert dataset.shard_lengths == [SEGMENTS_PER_SHARD] * NUM_SHARDS
        shard = dataset.shard(0)
        assert isinstance(shard.segments, np.memmap)
        assert isinstance(shard.labels, np.memmap)
        with pytest.raises(CampaignError):
            dataset.shard(NUM_SHARDS)

    def test_shard_slice_partitions_round_robin(self, campaign_dir):
        dataset = ShardedDataset(str(campaign_dir))
        assert dataset.shard_slice(0, 2) == [0, 2]
        assert dataset.shard_slice(1, 2) == [1]
        covered = sorted(
            i for r in range(2) for i in dataset.shard_slice(r, 2)
        )
        assert covered == list(range(NUM_SHARDS))
        with pytest.raises(CampaignError):
            dataset.shard_slice(2, 2)

    def test_materialize_matches_shard_order(self, campaign_dir):
        dataset = ShardedDataset(str(campaign_dir))
        full = dataset.materialize()
        assert len(full) == len(dataset)
        offset = 0
        for index in range(dataset.num_shards):
            shard = dataset.shard(index)
            np.testing.assert_array_equal(
                full.segments[offset:offset + len(shard)],
                np.asarray(shard.segments),
            )
            offset += len(shard)

    def test_prefetch_publishes_metrics(self, campaign_dir):
        from repro.obs import metrics as obs_metrics

        hits = obs_metrics.counter("campaign.prefetch.hits")
        waits = obs_metrics.counter("campaign.prefetch.waits")
        loads = obs_metrics.histogram("campaign.prefetch.load_s")
        before = (hits.value, waits.value, loads.count)
        dataset = ShardedDataset(str(campaign_dir), prefetch_depth=2)
        seen = [index for index, _ in dataset.iter_shards()]
        assert seen == list(range(NUM_SHARDS))
        assert loads.count == before[2] + NUM_SHARDS
        # Every shard request resolved as either a hit or a wait.
        consumed = (
            (hits.value - before[0]) + (waits.value - before[1])
        )
        assert consumed >= NUM_SHARDS

    def test_prefetch_surfaces_loader_errors(self, campaign_dir):
        from repro.campaign.dataset import ShardPrefetcher

        def exploding(index):
            raise ValueError(f"boom {index}")

        with pytest.raises(CampaignError, match="boom"):
            list(ShardPrefetcher(exploding, [0, 1]))
        with pytest.raises(CampaignError):
            ShardPrefetcher(exploding, [0], depth=0)

    def test_dsp_config_round_trip(self, campaign_dir):
        dataset = ShardedDataset(str(campaign_dir))
        assert dataset.dsp_config() == DSP


class TestGradBus:
    def test_publish_gather_matches_reference_reduction(self):
        rng = np.random.default_rng(0)
        vectors = [
            rng.normal(size=11).astype(np.float32) for _ in range(3)
        ]
        with GradBus(3, 11) as bus:
            for rank, vector in enumerate(vectors):
                bus.publish(rank, 7, (1.0 + rank, 0.5, 0.25), vector)
            averaged, losses = bus.gather(7)
            np.testing.assert_array_equal(
                averaged, average_vectors(vectors)
            )
            assert losses[2][0] == 3.0
            assert losses[0][1] == 0.5

    def test_gather_detects_lost_lockstep(self):
        with GradBus(2, 4) as bus:
            bus.publish(0, 3, (0.0, 0.0, 0.0), np.zeros(4, np.float32))
            bus.publish(1, 2, (0.0, 0.0, 0.0), np.zeros(4, np.float32))
            with pytest.raises(CampaignError, match="lockstep"):
                bus.gather(3)

    def test_attach_validates_geometry(self):
        with GradBus(2, 8) as bus:
            attached = GradBus(2, 8, name=bus.name, create=False)
            attached.publish(
                1, 1, (0.0, 0.0, 0.0), np.ones(8, np.float32)
            )
            assert not bus.stopped()
            bus.signal_stop()
            assert attached.stopped()
            attached.close()
            with pytest.raises(CampaignError, match="geometry"):
                GradBus(2, 9, name=bus.name, create=False)

    def test_average_vectors_fixed_order(self):
        with pytest.raises(CampaignError):
            average_vectors([])
        ones = np.ones(3, np.float32)
        np.testing.assert_array_equal(
            average_vectors([ones, 3 * ones]), 2 * ones
        )


class TestDataParallelConfig:
    def test_validation(self):
        with pytest.raises(CampaignError):
            DataParallelConfig(world_size=0)
        with pytest.raises(CampaignError):
            DataParallelConfig(world_size=4, processes=2)
        with pytest.raises(CampaignError):
            DataParallelConfig(barrier_timeout_s=0)
        assert DataParallelConfig(world_size=3, processes=3).processes == 3


class TestDataParallelTraining:
    CONFIG = dict(epochs=2, batch_size=2, seed=4, log_every=1000)

    def _fit(self, campaign_dir, processes, **kwargs):
        regressor = HandJointRegressor(DSP, MODEL, seed=1)
        result = fit_data_parallel(
            regressor,
            ShardedDataset(str(campaign_dir)),
            TrainConfig(**self.CONFIG),
            DataParallelConfig(world_size=2, processes=processes),
            **kwargs,
        )
        return regressor, result

    def test_two_workers_match_sequential_bit_identically(
        self, campaign_dir
    ):
        """The acceptance criterion: W=2 with real forked workers lands
        on exactly the sequential reference's loss trajectory and
        parameters."""
        seq_reg, seq = self._fit(campaign_dir, processes=1)
        par_reg, par = self._fit(campaign_dir, processes=2)
        assert par.total_loss == seq.total_loss
        assert par.l3d == seq.l3d
        assert par.lkine == seq.lkine
        assert par.final_loss == seq.final_loss
        state_seq = seq_reg.state_dict()
        state_par = par_reg.state_dict()
        assert set(state_seq) == set(state_par)
        for key in state_seq:
            # Batch-norm running buffers legitimately differ (rank 0
            # only forwards its own stream in parallel mode); trained
            # parameters must not.
            if "running_" in key:
                continue
            assert np.array_equal(state_seq[key], state_par[key]), key

    def test_world_size_one_matches_shapes(self, campaign_dir):
        regressor = HandJointRegressor(DSP, MODEL, seed=1)
        result = fit_data_parallel(
            regressor,
            ShardedDataset(str(campaign_dir)),
            TrainConfig(**self.CONFIG),
            DataParallelConfig(world_size=1, processes=1),
        )
        assert result.epochs == self.CONFIG["epochs"]
        assert len(result.epoch_stats) == self.CONFIG["epochs"]
        for stats in result.epoch_stats:
            assert stats["segments_per_s"] > 0

    def test_trainer_delegates(self, campaign_dir):
        regressor = HandJointRegressor(DSP, MODEL, seed=1)
        trainer = Trainer(regressor, TrainConfig(**self.CONFIG))
        result = trainer.fit_data_parallel(
            ShardedDataset(str(campaign_dir)),
            DataParallelConfig(world_size=2, processes=1),
        )
        _, reference = self._fit(campaign_dir, processes=1)
        assert result.total_loss == reference.total_loss

    def test_too_few_shards_for_world_size(self, campaign_dir):
        regressor = HandJointRegressor(DSP, MODEL, seed=1)
        with pytest.raises(CampaignError, match="shards"):
            fit_data_parallel(
                regressor,
                ShardedDataset(str(campaign_dir)),
                TrainConfig(**self.CONFIG),
                DataParallelConfig(world_size=8, processes=1),
            )

    def test_in_memory_dataset_path(self, campaign_dir):
        """fit_data_parallel accepts a plain HandPoseDataset too, and
        keeps the parallel/sequential bit-identity."""
        full = ShardedDataset(str(campaign_dir)).materialize()

        def fit(processes):
            regressor = HandJointRegressor(DSP, MODEL, seed=1)
            return fit_data_parallel(
                regressor, full, TrainConfig(**self.CONFIG),
                DataParallelConfig(world_size=2, processes=processes),
            )

        assert fit(1).total_loss == fit(2).total_loss
