"""Hand-band isolation filter (paper Sec. III).

The hand is always the closest reflector during gesture interaction, so
it occupies the lowest dominant band of IF frequencies. The paper removes
environmental interference (body, furniture) by passing the raw IF signal
through an 8th-order Butterworth bandpass that keeps only the hand's
range band before any FFT.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.config import SPEED_OF_LIGHT, DspConfig, RadarConfig
from repro.dsp.plans import (
    butterworth_bandpass_sos,
    filtfilt_operator,
    sosfiltfilt,
)
from repro.errors import SignalProcessingError

_OPERATOR_MAX_SAMPLES = 256
"""Fast-time lengths up to this run the bandpass as one cached dense
operator (cost per sample grows with length); longer signals run
the sample-by-sample :func:`repro.dsp.plans.sosfiltfilt`."""


def band_to_if_hz(
    radar: RadarConfig, band_m: Tuple[float, float]
) -> Tuple[float, float]:
    """Convert a range band (metres) into IF beat frequencies (Hz).

    From ``r = c f Tc / (2B)`` the IF frequency of range ``r`` is
    ``f = 2 B r / (c Tc)``.
    """
    lo_m, hi_m = band_m
    if not 0 <= lo_m < hi_m:
        raise SignalProcessingError("range band must satisfy 0 <= lo < hi")
    scale = 2.0 * radar.bandwidth_hz / (SPEED_OF_LIGHT * radar.chirp_duration_s)
    return lo_m * scale, hi_m * scale


def hand_bandpass(
    data: np.ndarray,
    radar: RadarConfig,
    dsp: DspConfig,
    method: str = "auto",
) -> np.ndarray:
    """Apply the 8th-order Butterworth bandpass along fast time.

    ``data`` is a complex IF cube whose *last* axis is fast-time samples;
    any leading axes (antennas, chirps, frames) are filtered independently.
    Zero-phase filtering (forward-backward) avoids group-delay range bias.

    ``method`` selects the implementation: ``"auto"`` (default) applies
    the cached dense filtfilt operator for short fast-time axes and
    falls back to the sample-by-sample cascade for long ones,
    ``"operator"`` / ``"sosfiltfilt"`` force one path. All paths
    implement the same filter; the operator matches ``sosfiltfilt`` to
    ~1e-14 relative.
    """
    data = np.asarray(data)
    if data.shape[-1] != radar.samples_per_chirp:
        raise SignalProcessingError(
            "last axis must be fast-time samples "
            f"({radar.samples_per_chirp}), got {data.shape[-1]}"
        )
    if method not in ("auto", "operator", "sosfiltfilt"):
        raise SignalProcessingError(
            f"unknown bandpass method {method!r}"
        )
    lo_hz, hi_hz = band_to_if_hz(radar, dsp.hand_band_m)
    nyquist = radar.sample_rate_hz / 2.0
    lo = max(lo_hz / nyquist, 1e-4)
    hi = min(hi_hz / nyquist, 1.0 - 1e-4)
    if lo >= hi:
        raise SignalProcessingError(
            "hand band maps to an empty normalised frequency interval"
        )
    # N is the prototype order; a bandpass doubles it, so N=4 yields
    # the paper's 8th-order filter. The SOS only depends on config
    # values, so it comes from the shared plan cache.
    order = max(dsp.butterworth_order // 2, 1)
    n = data.shape[-1]
    padlen = min(n - 1, 3 * (2 * order + 1))
    fast = dsp.precision == "fast"
    if method == "operator" or (
        method == "auto" and n <= _OPERATOR_MAX_SAMPLES
    ):
        if np.iscomplexobj(data):
            op_dtype = np.complex64 if fast else np.complex128
        else:
            op_dtype = np.float32 if fast else np.float64
        operator = filtfilt_operator(
            order, lo, hi, n, padlen, dtype=op_dtype
        )
        if fast:
            target = np.complex64 if np.iscomplexobj(data) else np.float32
            data = data.astype(target, copy=False)
        return data @ operator
    out = sosfiltfilt(butterworth_bandpass_sos(order, lo, hi), data, padlen)
    if fast:
        # sosfiltfilt always computes in double; downcast once here so
        # every later stage runs in single precision.
        target = np.complex64 if np.iscomplexobj(out) else np.float32
        out = out.astype(target, copy=False)
    return out
