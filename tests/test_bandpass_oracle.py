"""The numpy Butterworth design and zero-phase filter against scipy.

scipy is a test oracle here, not a runtime dependency: the whole module
is skipped where it is not installed.
"""

import numpy as np
import pytest

signal = pytest.importorskip("scipy.signal")

from repro.config import DspConfig, RadarConfig
from repro.dsp import filters
from repro.dsp.filters import band_to_if_hz, hand_bandpass
from repro.dsp.plans import (
    butterworth_bandpass_sos,
    filtfilt_operator,
    sosfiltfilt,
)
from repro.dsp.radar_cube import CubeBuilder
from repro.errors import SignalProcessingError


def _corners(radar):
    """Normalised corners of the default hand band, clamped as
    :func:`repro.dsp.filters.hand_bandpass` clamps them."""
    lo_hz, hi_hz = band_to_if_hz(radar, DspConfig().hand_band_m)
    nyquist = radar.sample_rate_hz / 2.0
    return max(lo_hz / nyquist, 1e-4), min(hi_hz / nyquist, 1.0 - 1e-4)


DEFAULT = _corners(RadarConfig())
# The 32-sample test radar clamps the upper corner just below Nyquist.
CLAMPED_HIGH = _corners(RadarConfig(samples_per_chirp=32, chirp_loops=8))
# The clamped lower corner: two poles within ~1e-4 of z = 1.
CLAMPED_LOW = (1e-4, DEFAULT[1])


def _relative_error(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def _scipy_operator(order, low, high, n, padlen):
    sos = signal.butter(order, [low, high], btype="bandpass", output="sos")
    return signal.sosfiltfilt(sos, np.eye(n), axis=-1, padlen=padlen)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "corners",
    [DEFAULT, (0.0667, 0.517), CLAMPED_HIGH, CLAMPED_LOW, (0.45, 0.55)],
)
def test_sos_matches_scipy_butter(order, corners):
    low, high = corners
    ours = butterworth_bandpass_sos(order, low, high)
    want = signal.butter(order, [low, high], btype="bandpass", output="sos")
    assert ours.shape == want.shape == (order, 6)
    np.testing.assert_allclose(ours, want, rtol=1e-12, atol=1e-15)


def test_sos_rejects_corners_outside_the_band():
    for low, high in [(0.0, 0.5), (0.5, 0.4), (0.2, 1.0)]:
        with pytest.raises(SignalProcessingError):
            butterworth_bandpass_sos(2, low, high)


@pytest.mark.parametrize("n", [32, 64, 300])
@pytest.mark.parametrize("complex_input", [False, True])
def test_sosfiltfilt_matches_scipy(n, complex_input, rng):
    sos = signal.butter(4, list(DEFAULT), btype="bandpass", output="sos")
    x = rng.normal(size=(3, 2, n))
    if complex_input:
        x = x + 1j * rng.normal(size=x.shape)
    for padlen in (0, 9, 27, n - 1):
        want = signal.sosfiltfilt(sos, x, axis=-1, padlen=padlen)
        got = sosfiltfilt(sos, x, padlen)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert _relative_error(got, want) <= 1e-12, padlen


def test_long_signal_bandpass_matches_scipy(rng):
    # 300 samples is past the dense operator's limit: the sample-by-sample
    # cascade runs.
    radar = RadarConfig(samples_per_chirp=300, chirp_loops=4)
    x = rng.normal(size=(2, 300)) + 1j * rng.normal(size=(2, 300))
    sos = signal.butter(4, list(_corners(radar)), btype="bandpass",
                        output="sos")
    want = signal.sosfiltfilt(sos, x, axis=-1, padlen=27)
    got = hand_bandpass(x, radar, DspConfig())
    assert _relative_error(got, want) <= 1e-12


def test_sosfiltfilt_rejects_padlen_past_the_signal():
    sos = butterworth_bandpass_sos(2, 0.1, 0.4)
    for padlen in (-1, 16):
        with pytest.raises(SignalProcessingError):
            sosfiltfilt(sos, np.zeros((2, 16)), padlen)


@pytest.mark.parametrize("n,padlen", [(32, 27), (64, 27)])
def test_operator_matches_scipy_built(n, padlen):
    ours = filtfilt_operator(4, *DEFAULT, n, padlen)
    want = _scipy_operator(4, *DEFAULT, n, padlen)
    assert _relative_error(ours, want) <= 1e-12


def test_operator_at_clamped_lower_corner():
    # Ill-conditioned: a one-ulp change of the SOS moves R by up to
    # ~1e-11 relative here, so the declared bound (DESIGN.md §6) is
    # 1e-9 rather than the 1e-12 that holds at the default corners.
    ours = filtfilt_operator(4, *CLAMPED_LOW, 64, 27)
    want = _scipy_operator(4, *CLAMPED_LOW, 64, 27)
    assert _relative_error(ours, want) <= 1e-9


def test_default_cube_matches_scipy_built_operator(monkeypatch, rng):
    builder = CubeBuilder()
    shape = (
        2,
        builder.array.num_virtual,
        builder.radar.chirp_loops,
        builder.radar.samples_per_chirp,
    )
    raw = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    ours = builder.build(raw).values

    def scipy_operator(order, low, high, n, padlen, dtype=np.float64):
        return _scipy_operator(order, low, high, n, padlen).astype(dtype)

    monkeypatch.setattr(filters, "filtfilt_operator", scipy_operator)
    want = builder.build(raw).values
    assert _relative_error(ours, want) <= 1e-12
