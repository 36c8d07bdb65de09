"""Streaming view over a sharded campaign directory.

``ShardedDataset`` reads only ``manifest.json`` eagerly; shard arrays
stay on disk until asked for. Two access paths exist:

* :meth:`shard` memory-maps one shard lazily (``HandPoseDataset.load``
  with ``mmap_mode="r"``) -- open cost and RSS stay O(metadata);
* :meth:`iter_shards` streams shards *eagerly* (materialised into RAM)
  through a double-buffered background prefetch thread: while the
  consumer chews on shard *i*, the loader thread is already reading
  shard *i+1*, so disk time overlaps compute time. Hit/wait counts and
  wait/load second histograms are published as ``campaign.prefetch.*``
  metrics; the overlap ratio reported by the training bench is
  ``1 - wait_s / load_s``.

Normalization statistics come straight from the manifest's per-shard
streaming moments (:func:`merged_input_stats` /
:func:`merged_label_stats`): exact, deterministic, and available
without touching a single shard byte -- which is what lets every
data-parallel rank agree on normalization without a synchronisation
pass over the data.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.data.dataset import HandPoseDataset
from repro.errors import CampaignError
from repro.obs import metrics as obs_metrics
from repro.campaign.sharding import (
    merged_input_stats,
    merged_label_stats,
    read_manifest,
)

_SENTINEL = object()


class ShardPrefetcher:
    """Double-buffered background shard loader.

    One daemon thread walks ``indices`` in order, loads each shard via
    ``loader`` and parks it in a bounded queue (``depth`` shards deep,
    default 1 = classic double buffering: one shard in the consumer's
    hands, one being read ahead). Iterating yields ``(index, shard)``
    pairs in order. Loader exceptions are re-raised in the consumer.
    """

    def __init__(
        self,
        loader,
        indices: Iterable[int],
        depth: int = 1,
    ) -> None:
        if depth < 1:
            raise CampaignError("prefetch depth must be >= 1")
        self._indices = list(indices)
        self._queue: "queue.Queue" = queue.Queue(maxsize=depth)
        self._loader = loader
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="shard-prefetch", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        for index in self._indices:
            if self._stop.is_set():
                return
            started = time.perf_counter()
            try:
                shard = self._loader(index)
            except BaseException as exc:  # re-raised consumer-side
                self._put((index, exc, 0.0))
                return
            load_s = time.perf_counter() - started
            obs_metrics.histogram("campaign.prefetch.load_s").observe(
                load_s
            )
            self._put((index, shard, load_s))
        self._put(_SENTINEL)

    def _put(self, item) -> None:
        while not self._stop.is_set():
            try:
                self._queue.put(item, timeout=0.1)
                return
            except queue.Full:
                continue

    def __iter__(self) -> Iterator[Tuple[int, HandPoseDataset]]:
        try:
            while True:
                if self._queue.empty():
                    # The consumer outran the loader: the wait below is
                    # time NOT overlapped with compute.
                    obs_metrics.counter("campaign.prefetch.waits").increment()
                    started = time.perf_counter()
                    item = self._queue.get()
                    obs_metrics.histogram(
                        "campaign.prefetch.wait_s"
                    ).observe(time.perf_counter() - started)
                else:
                    obs_metrics.counter("campaign.prefetch.hits").increment()
                    item = self._queue.get()
                if item is _SENTINEL:
                    return
                index, shard, _ = item
                if isinstance(shard, BaseException):
                    raise CampaignError(
                        f"prefetching shard {index} failed: {shard}"
                    ) from shard
                yield index, shard
        finally:
            self.close()

    def close(self) -> None:
        self._stop.set()
        try:
            while True:
                self._queue.get_nowait()
        except queue.Empty:
            pass
        self._thread.join(timeout=5.0)


class ShardedDataset:
    """Lazy, manifest-indexed view over a campaign directory.

    Presents enough of the :class:`HandPoseDataset` surface
    (``__len__``, batch iteration, ``materialize`` for code that needs
    plain arrays) that the trainer consumes a campaign without knowing
    about shards.
    """

    def __init__(self, directory: str, prefetch_depth: int = 1) -> None:
        self.directory = os.fspath(directory)
        self.manifest = read_manifest(self.directory)
        self.prefetch_depth = prefetch_depth
        self._shard_records: List[Dict] = self.manifest["shards"]

    # -- shape -----------------------------------------------------------
    def __len__(self) -> int:
        return int(self.manifest["total_segments"])

    @property
    def num_shards(self) -> int:
        return len(self._shard_records)

    @property
    def shard_lengths(self) -> List[int]:
        return [int(r["num_segments"]) for r in self._shard_records]

    def shard_path(self, index: int) -> str:
        return os.path.join(
            self.directory, self._shard_records[index]["file"]
        )

    def shard_slice(self, rank: int, world_size: int) -> List[int]:
        """Round-robin shard indices owned by ``rank`` of
        ``world_size`` -- a function of the logical world size only,
        never of how many physical processes happen to run."""
        if not 0 <= rank < world_size:
            raise CampaignError(
                f"rank {rank} outside world of {world_size}"
            )
        return list(range(rank, self.num_shards, world_size))

    # -- access ----------------------------------------------------------
    def shard(self, index: int) -> HandPoseDataset:
        """One shard, lazily memory-mapped (no data read on open)."""
        if not 0 <= index < self.num_shards:
            raise CampaignError(f"no shard {index} (have {self.num_shards})")
        return HandPoseDataset.load(self.shard_path(index), mmap_mode="r")

    def _load_eager(self, index: int) -> HandPoseDataset:
        """One shard fully materialised into RAM (prefetch loader)."""
        lazy = self.shard(index)
        return HandPoseDataset(
            segments=np.array(lazy.segments),
            labels=np.array(lazy.labels),
            true_joints=np.array(lazy.true_joints),
            meta=lazy.meta,
        )

    def iter_shards(
        self, indices: Optional[Iterable[int]] = None
    ) -> Iterator[Tuple[int, HandPoseDataset]]:
        """Stream (index, in-RAM shard) pairs with background prefetch."""
        if indices is None:
            indices = range(self.num_shards)
        prefetcher = ShardPrefetcher(
            self._load_eager, indices, depth=self.prefetch_depth
        )
        return iter(prefetcher)

    def materialize(
        self, indices: Optional[Iterable[int]] = None
    ) -> HandPoseDataset:
        """Concatenate shards (all, or ``indices``) into one in-memory
        dataset, loading through the prefetcher so disk reads overlap
        the concatenation work."""
        shards = [shard for _, shard in self.iter_shards(indices)]
        if not shards:
            raise CampaignError("materialize() selected zero shards")
        if len(shards) == 1:
            return shards[0]
        return HandPoseDataset.concatenate(shards)

    def iter_batches(
        self, batch_size: int
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Sequential (segments, labels) batches across all shards (no
        shuffling; evaluation order)."""
        if batch_size < 1:
            raise CampaignError("batch_size must be >= 1")
        for _, shard in self.iter_shards():
            for start in range(0, len(shard), batch_size):
                stop = start + batch_size
                yield shard.segments[start:stop], shard.labels[start:stop]

    # -- statistics ------------------------------------------------------
    def input_stats(self) -> Tuple[float, float]:
        """Exact global (mean, std) of the input cubes, from the
        manifest moments only."""
        return merged_input_stats(self._shard_records)

    def label_stats(self) -> Tuple[np.ndarray, np.ndarray]:
        """Exact global per-joint-coordinate label (mean, std)."""
        return merged_label_stats(self._shard_records)

    def config_sha256(self) -> str:
        return str(self.manifest["config_sha256"])

    def dsp_config(self):
        """The :class:`~repro.config.DspConfig` the shards were built
        with (JSON lists restored to tuples) -- what a regressor must
        use to consume this campaign."""
        from repro.config import DspConfig

        fields = dict(self.manifest["config"]["dsp"])
        fields["hand_band_m"] = tuple(fields["hand_band_m"])
        return DspConfig(**fields)
