"""Radar Cube construction and segmentation (paper Secs. III-IV).

After pre-processing, the paper assembles a four-dimensional matrix
``RC in R^{F x V x D x A}`` -- frames x velocity bins x distance bins x
angle bins -- and feeds the network segments of ``st`` consecutive frames.
Azimuth and elevation spectra share the angle axis by concatenation
(``A = A_az + A_el``), as documented in DESIGN.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import DspConfig, RadarConfig
from repro.dsp.fft import AngleProcessor, doppler_fft, range_fft
from repro.dsp.filters import hand_bandpass
from repro.errors import SignalProcessingError
from repro.obs import metrics as obs_metrics
from repro.obs import trace
from repro.radar.antenna import VirtualArray, iwr1443_array


@dataclass
class RadarCube:
    """The pre-processed radar cube plus its physical axes.

    ``values`` has shape ``(F, V, D, A)`` and holds log-compressed
    magnitudes; ``range_axis_m`` / ``velocity_axis_mps`` /
    ``azimuth_axis_rad`` / ``elevation_axis_rad`` give the physical
    coordinate of every bin.
    """

    values: np.ndarray
    range_axis_m: np.ndarray
    velocity_axis_mps: np.ndarray
    azimuth_axis_rad: np.ndarray
    elevation_axis_rad: np.ndarray

    def __post_init__(self) -> None:
        if self.values.ndim != 4:
            raise SignalProcessingError(
                f"radar cube must be 4-D (F, V, D, A), got "
                f"{self.values.shape}"
            )
        f, v, d, a = self.values.shape
        if len(self.velocity_axis_mps) != v:
            raise SignalProcessingError("velocity axis length mismatch")
        if len(self.range_axis_m) != d:
            raise SignalProcessingError("range axis length mismatch")
        if len(self.azimuth_axis_rad) + len(self.elevation_axis_rad) != a:
            raise SignalProcessingError("angle axis length mismatch")

    @property
    def num_frames(self) -> int:
        return self.values.shape[0]


class CubeBuilder:
    """Runs the full pre-processing chain on raw IF frames.

    filter -> range-FFT -> Doppler-FFT -> angle spectra -> log magnitude.

    The angle stage processes all frames in one batched beamforming
    tensordot (antennas first, every frame in the tail axes) instead of
    a per-frame Python loop; :meth:`build_reference` keeps the original
    frame-by-frame path for equivalence tests and benchmarking.
    """

    def __init__(
        self,
        radar: Optional[RadarConfig] = None,
        dsp: Optional[DspConfig] = None,
        array: Optional[VirtualArray] = None,
    ) -> None:
        self.radar = radar if radar is not None else RadarConfig()
        self.dsp = dsp if dsp is not None else DspConfig()
        self.array = array if array is not None else iwr1443_array(self.radar)
        self._angle = AngleProcessor(self.array, self.dsp)

    def build(self, raw_frames: np.ndarray) -> RadarCube:
        """Pre-process raw IF frames ``(F, V_ant, L, N)`` into a cube.

        Accepts a single frame ``(V_ant, L, N)`` as well.
        """
        cube, _ = self.build_timed(raw_frames)
        return cube

    def build_timed(
        self, raw_frames: np.ndarray
    ) -> Tuple[RadarCube, Dict[str, float]]:
        """Like :meth:`build`, also returning per-stage wall-clock times.

        The timing dict maps ``bandpass`` / ``range_fft`` /
        ``doppler_fft`` / ``angle`` to seconds; the serving layer feeds
        these into its ``preprocess_*`` histograms. Each stage is also
        traced as a ``dsp.<stage>`` span and observed in the global
        ``dsp.cube.<stage>_s`` histograms.
        """
        raw = self._validate_raw(raw_frames)
        timings: Dict[str, float] = {}
        with trace.span("dsp.cube.build", frames=raw.shape[0]):
            tic = time.perf_counter()
            with trace.span("dsp.bandpass"):
                filtered = hand_bandpass(raw, self.radar, self.dsp)
            timings["bandpass"] = time.perf_counter() - tic
            tic = time.perf_counter()
            with trace.span("dsp.range_fft"):
                # -> (F, V_ant, L, D)
                ranged = range_fft(filtered, self.radar, self.dsp)
            timings["range_fft"] = time.perf_counter() - tic
            tic = time.perf_counter()
            with trace.span("dsp.doppler_fft"):
                doppler = doppler_fft(ranged, self.radar, self.dsp, axis=2)
            timings["doppler_fft"] = time.perf_counter() - tic
            # -> (F, V_ant, Vdopp, D); angle processing wants antennas
            # first, and handles all frames at once through its tail axes.
            tic = time.perf_counter()
            with trace.span("dsp.angle"):
                azimuth, elevation = self._angle.spectra(
                    np.moveaxis(doppler, 1, 0)
                )
                # (A_az, F, Vd, D) and (A_el, F, Vd, D) -> (F, Vd, D, A)
                combined = np.concatenate([azimuth, elevation], axis=0)
                values = np.log1p(np.moveaxis(combined, 0, -1))
            timings["angle"] = time.perf_counter() - tic
        for stage, seconds in timings.items():
            obs_metrics.histogram(f"dsp.cube.{stage}_s").observe(seconds)
        return self._assemble(values), timings

    def build_reference(self, raw_frames: np.ndarray) -> RadarCube:
        """Frame-by-frame reference implementation of :meth:`build`.

        This is the pre-batching code path: the sample-by-sample
        ``sosfiltfilt`` and one angle-spectra call per frame. Kept for
        equivalence tests (`build` must match it to <= 1e-9) and as the
        benchmark baseline.
        """
        raw = self._validate_raw(raw_frames)
        filtered = hand_bandpass(
            raw, self.radar, self.dsp, method="sosfiltfilt"
        )
        ranged = range_fft(filtered, self.radar, self.dsp)
        doppler = doppler_fft(ranged, self.radar, self.dsp, axis=2)
        frames = []
        for f in range(doppler.shape[0]):
            azimuth, elevation = self._angle.spectra(doppler[f])
            combined = np.concatenate([azimuth, elevation], axis=0)
            frames.append(np.moveaxis(combined, 0, -1))
        values = np.log1p(np.stack(frames))
        return self._assemble(values)

    def _validate_raw(self, raw_frames: np.ndarray) -> np.ndarray:
        raw = np.asarray(raw_frames)
        if raw.ndim == 3:
            raw = raw[None]
        if raw.ndim != 4:
            raise SignalProcessingError(
                "raw frames must have shape (F, antennas, loops, samples)"
            )
        if raw.shape[1] != self.array.num_virtual:
            raise SignalProcessingError(
                f"expected {self.array.num_virtual} virtual antennas, "
                f"got {raw.shape[1]}"
            )
        return raw

    def _assemble(self, values: np.ndarray) -> RadarCube:
        return RadarCube(
            values=values,
            range_axis_m=self.range_axis_m(),
            velocity_axis_mps=self.velocity_axis_mps(),
            azimuth_axis_rad=self._angle.azimuth_axis,
            elevation_axis_rad=self._angle.elevation_axis,
        )

    def range_axis_m(self) -> np.ndarray:
        """Physical range of every distance bin."""
        return np.arange(self.dsp.range_bins) * self.radar.range_resolution_m

    def velocity_axis_mps(self) -> np.ndarray:
        """Physical radial velocity of every Doppler bin."""
        loops = self.radar.chirp_loops
        centre = loops // 2
        lo = centre - self.dsp.doppler_bins // 2
        bins = np.arange(lo, lo + self.dsp.doppler_bins) - centre
        return bins * self.radar.velocity_resolution_mps


def segment_cube(
    values: np.ndarray, segment_frames: int, stride: Optional[int] = None
) -> List[np.ndarray]:
    """Split cube values ``(F, V, D, A)`` into ``(st, V, D, A)`` segments.

    ``stride`` defaults to ``segment_frames`` (non-overlapping). Trailing
    frames that do not fill a segment are dropped, mirroring the paper's
    fixed-length network input.
    """
    values = np.asarray(values)
    if values.ndim != 4:
        raise SignalProcessingError("expected a 4-D cube (F, V, D, A)")
    if segment_frames < 1:
        raise SignalProcessingError("segment_frames must be >= 1")
    if stride is None:
        stride = segment_frames
    if stride < 1:
        raise SignalProcessingError("stride must be >= 1")
    segments = []
    start = 0
    while start + segment_frames <= values.shape[0]:
        segments.append(values[start : start + segment_frames])
        start += stride
    return segments
