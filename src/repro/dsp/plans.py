"""Plan cache for config-derived DSP artifacts.

The pre-processing hot path (bandpass -> range-FFT -> Doppler-FFT ->
zoom-FFT angle spectra) repeatedly derives small artifacts from frozen
configuration values: the Butterworth SOS coefficients, FFT window
tapers, the zoom-FFT DFT kernel and the angle-grid steering matrices.
None of them depend on the signal, yet before this module they were
rebuilt on every call -- per frame, per session, for every client of the
serving stack.

:class:`PlanCache` memoizes such artifacts under ``(kind, key)`` pairs
with per-kind hit/miss counters so the savings are observable
(``PLAN_CACHE.stats()``; the benchmark harness records them in
``BENCH_pipeline.json``). Cached arrays are frozen read-only via
:func:`freeze` so a careless caller cannot corrupt a plan shared across
sessions and threads.

``PLAN_CACHE.disabled()`` turns the cache into a pass-through; the
benchmark harness uses it to measure the pre-cache baseline honestly in
the same run as the cached path.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Hashable, Iterator, Tuple

import numpy as np

from repro.errors import SignalProcessingError
from repro.obs import metrics as obs_metrics


def freeze(array: np.ndarray) -> np.ndarray:
    """Mark ``array`` read-only (in place) and return it.

    Every array stored in the plan cache is frozen so shared plans
    cannot be mutated by callers; take an explicit ``.copy()`` when a
    writable array is needed.
    """
    array.setflags(write=False)
    return array


class PlanCache:
    """Thread-safe LRU cache of config-derived DSP plans.

    Entries are keyed on ``(kind, key)`` where ``kind`` names the
    artifact family (``"window"``, ``"bandpass_sos"``, ``"zoom_kernel"``,
    ``"steering"``) and ``key`` encodes the config values the artifact
    was derived from. Hits and misses are counted per kind.
    """

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise SignalProcessingError("plan cache maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Tuple[str, Hashable], Any]" = (
            OrderedDict()
        )
        self._hits: Dict[str, int] = {}
        self._misses: Dict[str, int] = {}
        self._lock = threading.RLock()
        self._disabled = 0

    def get(
        self, kind: str, key: Hashable, build: Callable[[], Any]
    ) -> Any:
        """Return the plan for ``(kind, key)``, building it on a miss."""
        with self._lock:
            if self._disabled:
                return build()
            full_key = (kind, key)
            if full_key in self._entries:
                self._hits[kind] = self._hits.get(kind, 0) + 1
                self._entries.move_to_end(full_key)
                return self._entries[full_key]
            self._misses[kind] = self._misses.get(kind, 0) + 1
            value = build()
            self._entries[full_key] = value
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
            return value

    @property
    def hits(self) -> int:
        with self._lock:
            return sum(self._hits.values())

    @property
    def misses(self) -> int:
        with self._lock:
            return sum(self._misses.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, Any]:
        """Hit/miss counters, total and per plan kind."""
        with self._lock:
            kinds = sorted(set(self._hits) | set(self._misses))
            entries_by_kind: Dict[str, int] = {}
            for kind, _ in self._entries:
                entries_by_kind[kind] = entries_by_kind.get(kind, 0) + 1
            return {
                "hits": sum(self._hits.values()),
                "misses": sum(self._misses.values()),
                "entries": len(self._entries),
                "by_kind": {
                    kind: {
                        "hits": self._hits.get(kind, 0),
                        "misses": self._misses.get(kind, 0),
                        "entries": entries_by_kind.get(kind, 0),
                    }
                    for kind in kinds
                },
            }

    def clear(self, reset_counters: bool = False) -> None:
        with self._lock:
            self._entries.clear()
            if reset_counters:
                self._hits.clear()
                self._misses.clear()

    @contextmanager
    def disabled(self) -> Iterator[None]:
        """Pass-through mode: every ``get`` rebuilds its plan.

        Used by the benchmark harness to time the uncached baseline;
        nesting is supported, existing entries are kept.
        """
        with self._lock:
            self._disabled += 1
        try:
            yield
        finally:
            with self._lock:
                self._disabled -= 1


PLAN_CACHE = PlanCache()
"""The process-wide plan cache used by the whole DSP chain."""


def publish_plan_cache_metrics(registry) -> None:
    """Collector publishing :data:`PLAN_CACHE` counters to ``registry``.

    Designed for :meth:`repro.obs.metrics.MetricsRegistry.register_collector`:
    hit/miss totals become first-class monotonic counters
    (``dsp.plan_cache.hits`` / ``dsp.plan_cache.misses``, advanced by
    delta so repeated collection never double-counts) and the entry
    count a gauge, making the cache visible in ``snapshot()`` and the
    Prometheus exposition of any registry that registers this.
    """
    stats = PLAN_CACHE.stats()
    for key in ("hits", "misses"):
        instrument = registry.counter(f"dsp.plan_cache.{key}")
        delta = stats[key] - instrument.value
        if delta > 0:
            instrument.increment(delta)
    registry.gauge("dsp.plan_cache.entries").set(stats["entries"])


# The global registry always sees the plan cache; private registries
# (e.g. one per InferenceServer) opt in with the same collector.
obs_metrics.get_registry().register_collector(publish_plan_cache_metrics)


def _cplxreal(z: np.ndarray) -> np.ndarray:
    """One root of each conjugate pair (positive imaginary part, real
    parts ascending), then the real roots ascending.

    A root whose imaginary part is within ``100 eps`` of its magnitude
    counts as real; each pair's representative is the mean of the pair.
    """
    tol = 100 * np.finfo(np.float64).eps
    z = z[np.lexsort((np.abs(z.imag), z.real))]
    real = np.abs(z.imag) <= tol * np.abs(z)
    zp = z[~real & (z.imag > 0)]
    zn = z[~real & (z.imag < 0)]
    return np.concatenate(((zp + zn.conj()) / 2, z[real].real))


def _butterworth_bandpass_design(
    order: int, low: float, high: float
) -> np.ndarray:
    """Second-order sections of a digital Butterworth bandpass.

    The analog prototype's ``order`` poles go through the lowpass-to-
    bandpass transform and the bilinear transform (corners pre-warped,
    sample rate 2), giving ``order`` zeros at +1, ``order`` at -1 and
    ``2 order`` poles. Sections are built from the pole closest to the
    unit circle (placed last) outwards, each with the two zeros nearest
    to its pole; the gain scales section 0. That pairing and order keep
    the cascade's rounding, and so the filtfilt operator, the same as
    the textbook ``zpk2sos(pairing="nearest")`` design.
    """
    if not 0.0 < low < high < 1.0:
        raise SignalProcessingError(
            "bandpass corners must satisfy 0 < low < high < 1"
        )
    # Analog lowpass prototype: poles on the left unit half-circle.
    m = np.arange(-order + 1, order, 2, dtype=np.float64)
    proto = -np.exp(1j * np.pi * m / (2 * order))
    # Pre-warped corners (sample rate 2, so Nyquist is 1).
    warped = 4.0 * np.tan(np.pi * np.array([low, high]) / 2.0)
    bw = warped[1] - warped[0]
    wo = np.sqrt(warped[0] * warped[1])
    # Lowpass to bandpass: each prototype pole splits in two around wo;
    # the order zeros land at s = 0 and the gain scales by bw**order.
    p_lp = proto * bw / 2
    shift = np.sqrt(p_lp**2 - wo**2)
    poles_s = np.concatenate((p_lp + shift, p_lp - shift))
    zeros_s = np.zeros(order, dtype=np.complex128)
    # Bilinear transform: s = 0 maps to z = +1, the zeros at infinity
    # to z = -1.
    fs2 = 4.0
    poles = _cplxreal((fs2 + poles_s) / (fs2 - poles_s))
    zeros = np.concatenate((np.full(order, -1.0), np.ones(order)))
    gain = bw**order * np.real(
        np.prod(fs2 - zeros_s) / np.prod(fs2 - poles_s)
    )

    sos = np.zeros((order, 6))
    for section in range(order - 1, -1, -1):
        worst = np.argmin(np.abs(1 - np.abs(poles)))
        p1 = poles[worst]
        poles = np.delete(poles, worst)
        if np.isreal(p1):
            reals = np.flatnonzero(np.isreal(poles))
            other = reals[np.argmin(np.abs(1 - np.abs(poles[reals])))]
            p2 = poles[other]
            poles = np.delete(poles, other)
        else:
            p2 = p1.conj()
        pair = []
        for _ in range(2):
            nearest = np.argsort(np.abs(zeros - p1))[0]
            pair.append(zeros[nearest])
            zeros = np.delete(zeros, nearest)
        sos[section, :3] = np.poly(pair)
        sos[section, 3:] = np.real(np.poly([p1, p2]))
    sos[0, :3] *= gain
    return sos


def butterworth_bandpass_sos(
    order: int, low: float, high: float
) -> np.ndarray:
    """Cached second-order sections of a Butterworth bandpass.

    ``order`` is the prototype order N (a bandpass doubles it, giving N
    sections); ``low`` and ``high`` are normalised (Nyquist = 1) corner
    frequencies. The returned ``(N, 6)`` array, rows
    ``[b0, b1, b2, 1, a1, a2]``, is read-only.
    """
    return PLAN_CACHE.get(
        "bandpass_sos",
        (int(order), float(low), float(high)),
        lambda: freeze(_butterworth_bandpass_design(order, low, high)),
    )


def _sosfilt(sections: list, x: np.ndarray, zi: np.ndarray) -> np.ndarray:
    """One pass of a biquad cascade down the first (time) axis of ``x``.

    Transposed direct form II, each section's state starting at
    ``zi[section] * x[0]``; the trailing axes are independent signals.
    """
    z0 = [c * x[0] for c in zi[:, 0]]
    z1 = [c * x[0] for c in zi[:, 1]]
    y = np.empty_like(x)
    for t in range(len(x)):
        cur = x[t]
        for s, (b0, b1, b2, _, a1, a2) in enumerate(sections):
            new = b0 * cur + z0[s]
            z0[s] = b1 * cur - a1 * new + z1[s]
            z1[s] = b2 * cur - a2 * new
            cur = new
        y[t] = cur
    return y


def sosfiltfilt(sos: np.ndarray, x: np.ndarray, padlen: int) -> np.ndarray:
    """Zero-phase forward-backward filtering along the last axis.

    ``sos`` holds second-order sections with ``a0 == 1``. ``x`` is
    extended by ``padlen`` samples of odd reflection at each end; each
    pass starts every section in its steady state for the first sample
    (the step response's initial conditions, scaled by the DC gain of
    the sections before it), so a constant input passes without a
    transient. Leading axes are filtered independently; the result is
    float64 or complex128.
    """
    sos = np.asarray(sos, dtype=np.float64)
    x = np.asarray(x)
    n = x.shape[-1]
    if not 0 <= padlen < n:
        raise SignalProcessingError(
            f"padlen must satisfy 0 <= padlen < {n}, got {padlen}"
        )
    if padlen:
        x = np.concatenate(
            (
                2 * x[..., :1] - x[..., padlen:0:-1],
                x,
                2 * x[..., -1:] - x[..., -2:-(padlen + 2):-1],
            ),
            axis=-1,
        )
    # Steady state of each section: (I - companion(a)^T) zi = b[1:] -
    # a[1:] b[0], scaled by the DC gain of the sections before it.
    zi = np.empty((len(sos), 2))
    scale = 1.0
    for section, (b, a) in enumerate(zip(sos[:, :3], sos[:, 3:])):
        i_minus_a = np.array([[1.0 + a[1], -1.0], [a[2], 1.0]])
        zi[section] = scale * np.linalg.solve(
            i_minus_a, b[1:] - a[1:] * b[0]
        )
        scale *= b.sum() / a.sum()
    # Time-major copy so every sample step reads one contiguous row.
    dtype = np.result_type(x.dtype, np.float64)
    lead = x.shape[:-1]
    signals = np.ascontiguousarray(x.reshape(-1, x.shape[-1]).T, dtype)
    sections = sos.tolist()
    y = _sosfilt(sections, signals, zi)
    y = _sosfilt(sections, y[::-1], zi)[::-1]
    if padlen:
        y = y[padlen:-padlen]
    return np.ascontiguousarray(y.T).reshape(lead + (n,))


def filtfilt_operator(
    order: int,
    low: float,
    high: float,
    n: int,
    padlen: int,
    dtype: np.dtype = np.float64,
) -> np.ndarray:
    """Cached dense operator equivalent of the zero-phase bandpass.

    For a fixed signal length ``n``, :func:`sosfiltfilt` -- odd-extension
    padding, forward/backward biquad cascades and their initial
    conditions included -- is a linear map from the ``n`` input samples
    to the ``n`` output samples. Filtering the identity matrix through
    it materialises that map as an ``(n, n)`` matrix ``R`` with
    ``filtfilt(x) == x @ R`` along the last axis (verified to ~1e-14
    relative), which turns the per-sample biquad loop into one BLAS
    matmul -- an order of magnitude faster at radar fast-time lengths.
    Only worthwhile for small ``n`` (cost grows as ``n`` per sample);
    :func:`repro.dsp.filters.hand_bandpass` falls back to
    :func:`sosfiltfilt` above a length threshold.

    ``dtype`` selects the stored operator precision: pass complex64 so
    single-precision inputs are not upcast by the matmul.
    """

    def build() -> np.ndarray:
        sos = butterworth_bandpass_sos(order, low, high)
        # Rows hold filtfilt(e_j), so x @ response applies the filter.
        response = sosfiltfilt(sos, np.eye(n), padlen)
        return freeze(response.astype(dtype, copy=False))

    dtype = np.dtype(dtype)
    return PLAN_CACHE.get(
        "filtfilt_op",
        (int(order), float(low), float(high), int(n), int(padlen),
         dtype.str),
        build,
    )


def zoom_kernel(lo: float, hi: float, bins: int, n: int) -> np.ndarray:
    """Cached zoom-FFT DFT kernel ``(bins, n)`` for the frequency span
    ``[lo, hi]`` over ``n`` input samples. Read-only."""

    def build() -> np.ndarray:
        freqs = np.linspace(lo, hi, bins)
        return freeze(
            np.exp(-2j * np.pi * freqs[:, None] * np.arange(n)[None, :])
        )

    return PLAN_CACHE.get(
        "zoom_kernel", (float(lo), float(hi), int(bins), int(n)), build
    )
