"""Quarantine for requests the pipeline refused to serve.

Instead of failing a whole micro-batch (or silently discarding the
offender), invalid frames and requests that exhausted their retries are
recorded here: a bounded, thread-safe ring of structured records that
operators can tail from ``InferenceServer.stats()`` or export as JSONL
(``mmhand serve --dead-letter-log``; the chaos CI job uploads that file
as an artifact).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Deque, Dict, List, Optional, Union

from repro.errors import ResilienceError


@dataclass
class DeadLetter:
    """One quarantined request: who, where in the pipeline, and why.

    ``payload_hex`` optionally preserves (a truncated prefix of) the
    offending raw bytes -- the network front end records the undecoded
    tail of a poisoned connection here so operators can replay it.
    ``payload_len`` is the *original* byte count before truncation.
    """

    session_id: str
    frame_index: int
    stage: str
    reason: str
    corr_id: str = ""
    ts: float = field(default_factory=time.time)
    payload_hex: str = ""
    payload_len: int = 0


class DeadLetterLog:
    """Bounded ring buffer of :class:`DeadLetter` records.

    ``payload_cap`` bounds how many payload bytes one record may retain;
    a single giant malformed network frame must not be able to bloat
    the ring (or the exported JSONL artifact) by megabytes.
    """

    def __init__(
        self, capacity: int = 1024, payload_cap: int = 256
    ) -> None:
        if capacity < 1:
            raise ResilienceError("dead-letter capacity must be >= 1")
        if payload_cap < 0:
            raise ResilienceError("payload_cap must be >= 0")
        self.capacity = capacity
        self.payload_cap = payload_cap
        self._records: Deque[DeadLetter] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.total = 0

    def record(
        self,
        session_id: str,
        frame_index: int,
        stage: str,
        reason: str,
        corr_id: str = "",
        payload: Optional[bytes] = None,
    ) -> DeadLetter:
        payload_hex = ""
        payload_len = 0
        if payload:
            payload_len = len(payload)
            payload_hex = bytes(payload[: self.payload_cap]).hex()
        letter = DeadLetter(
            session_id=session_id,
            frame_index=frame_index,
            stage=stage,
            reason=reason,
            corr_id=corr_id,
            payload_hex=payload_hex,
            payload_len=payload_len,
        )
        with self._lock:
            self._records.append(letter)
            self.total += 1
        return letter

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def tail(self, count: Optional[int] = None) -> List[Dict[str, Any]]:
        with self._lock:
            records = list(self._records)
        if count is not None:
            records = records[-count:]
        return [asdict(r) for r in records]

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "count": len(self._records),
                "total": self.total,
                "capacity": self.capacity,
            }

    def export_jsonl(self, path: Union[str, os.PathLike]) -> str:
        """Write every retained record as one JSON object per line.

        The entries are snapshotted under the lock *before* any
        serialization happens, so concurrent :meth:`record` calls from
        server threads can neither mutate the deque mid-iteration nor
        tear a half-written record into the artifact. Payload bytes
        were already truncated to ``payload_cap`` at record time, so
        the file size is bounded by ``capacity`` regardless of what
        arrived on the wire.
        """
        with self._lock:
            records = [asdict(r) for r in self._records]
        with open(path, "w") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
        return str(path)
