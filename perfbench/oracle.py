"""Output oracle: every pose against its in-run eager reference.

A pose-bearing frame (the newest frame of a full window) must get
exactly one pose, under its own client frame id, within
``ORACLE_TOL`` of the eager reference; a window-fill frame must get
none. Missing, duplicate, stray and wrong poses are failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from perfbench.common import ORACLE_TOL
from perfbench.inputs import WINDOW


@dataclass
class Verdict:
    attempted: int = 0
    missing: int = 0
    wrong: int = 0
    duplicates: int = 0
    stray: int = 0
    max_error: float = 0.0

    @property
    def failed(self) -> int:
        return self.missing + self.wrong + self.duplicates + self.stray


def correct_mask(refs: np.ndarray, arrived: np.ndarray, poses: np.ndarray) -> np.ndarray:
    """Per frame: its pose arrived and matches the reference."""
    err = np.max(np.abs(poses - refs), axis=(1, 2))
    return ~np.isnan(arrived) & (err <= ORACLE_TOL)


def judge(refs, arrived, poses, duplicates: int = 0) -> Verdict:
    """Verdict for one stream's frames."""
    verdict = Verdict(duplicates=duplicates)
    got = ~np.isnan(arrived)
    fill = np.arange(len(refs)) < WINDOW - 1
    verdict.stray = int(np.sum(got & fill))
    bearing = ~fill
    verdict.attempted = int(np.sum(bearing))
    verdict.missing = int(np.sum(bearing & ~got))
    both = bearing & got
    if np.any(both):
        err = np.max(np.abs(poses[both] - refs[both]), axis=(1, 2))
        err = np.where(np.isfinite(err), err, np.inf)
        verdict.wrong = int(np.sum(err > ORACLE_TOL))
        verdict.max_error = float(np.max(err))
    return verdict


def combine(verdicts: List[Verdict]) -> Verdict:
    total = Verdict()
    for v in verdicts:
        total.attempted += v.attempted
        total.missing += v.missing
        total.wrong += v.wrong
        total.duplicates += v.duplicates
        total.stray += v.stray
        total.max_error = max(total.max_error, v.max_error)
    return total


def self_check(streams) -> bool:
    """The oracle must flag one perturbed and one dropped pose.

    ``streams`` holds ``(refs, arrived, poses)`` per stream. One pose
    that passed is perturbed by ten times the tolerance, another is
    dropped; each must add exactly one failure to its stream's verdict.
    """
    passed = [
        (k, i)
        for k, (refs, arrived, poses) in enumerate(streams)
        for i in np.flatnonzero(correct_mask(refs, arrived, poses))
    ]
    if len(passed) < 2:
        return False
    (k1, i1), (k2, i2) = passed[0], passed[-1]
    refs, arrived, poses = streams[k1]
    perturbed = poses.copy()
    perturbed[i1, 0, 0] += 10 * ORACLE_TOL
    caught_wrong = judge(refs, arrived, perturbed).failed - judge(refs, arrived, poses).failed
    refs, arrived, poses = streams[k2]
    dropped = arrived.copy()
    dropped[i2] = np.nan
    caught_missing = judge(refs, dropped, poses).failed - judge(refs, arrived, poses).failed
    return caught_wrong == 1 and caught_missing == 1


def pose_failures(poses: np.ndarray, refs: np.ndarray) -> int:
    """Poses missing (NaN) or off their reference by more than the
    tolerance; for workloads where every pose has a reference."""
    err = np.max(np.abs(poses - refs), axis=(1, 2))
    return int(np.sum(~(err <= ORACLE_TOL)))


def self_check_poses(poses: np.ndarray, refs: np.ndarray) -> bool:
    """:func:`self_check` for :func:`pose_failures`."""
    base = pose_failures(poses, refs)
    perturbed = poses.copy()
    perturbed[0, 0, 0] += 10 * ORACLE_TOL
    dropped = poses.copy()
    dropped[-1] = np.nan
    return (
        pose_failures(perturbed, refs) == base + 1
        and pose_failures(dropped, refs) == base + 1
    )
