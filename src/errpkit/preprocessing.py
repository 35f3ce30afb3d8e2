"""Continuous-recording preprocessing and epoching.

Zero-phase bandpass/notch filtering, average re-referencing, epoch
extraction around feedback events, baseline subtraction and integer-factor
downsampling.  All filters are Butterworth/IIR designs applied
forward-backward (``sosfiltfilt``) with reflect padding, so they are
zero-phase and linear.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    EmptyInput,
    InsufficientChannels,
    InvalidFilterSpec,
    InvalidResampleFactor,
    InvalidWindow,
)
from .labels import FAILURE, SUCCESS

logger = logging.getLogger(__name__)

NOTCH_Q = 35.0


def sample_index(t: float, t0: float, fs: float) -> int:
    """Half-up rounding of (t - t0) * fs; the package-wide time-to-index rule."""
    return int(np.floor((t - t0) * fs + 0.5))


@dataclass
class ContinuousRecording:
    """A multi-channel continuous recording with event markers.

    data is (n_channels, n_samples) in microvolts; events are
    (sample_index, event_code) pairs.
    """

    fs_hz: float
    channels: list[str]
    data: np.ndarray
    events: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.fs_hz <= 0:
            raise ValueError("fs_hz must be positive")
        if self.data.ndim != 2:
            raise ValueError("data must be (n_channels, n_samples)")
        if len(self.channels) != self.data.shape[0]:
            raise ValueError("channel name count does not match data rows")
        n = self.data.shape[1]
        for s, _code in self.events:
            if not 0 <= s < n:
                raise ValueError(f"event sample {s} outside recording of {n} samples")

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


@dataclass
class EpochSet:
    """A stack of equally-shaped labelled epochs sharing fs and channel names."""

    data: np.ndarray  # (n_trials, n_channels, n_samples)
    labels: np.ndarray  # (n_trials,)
    fs_hz: float
    t0_offset_s: float
    channels: list[str]

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.data.ndim != 3:
            raise ValueError("data must be (n_trials, n_channels, n_samples)")
        if self.labels.shape != (self.data.shape[0],):
            raise ValueError("labels length does not match trial count")
        if self.labels.size and not np.isin(self.labels, (SUCCESS, FAILURE)).all():
            raise ValueError("labels must be success/failure codes")
        if len(self.channels) != self.data.shape[1]:
            raise ValueError("channel name count does not match data")

    def __len__(self) -> int:
        return self.data.shape[0]

    @property
    def n_channels(self) -> int:
        return self.data.shape[1]

    @property
    def n_samples(self) -> int:
        return self.data.shape[2]

    def subset(self, indices) -> "EpochSet":
        idx = np.asarray(indices)
        return EpochSet(self.data[idx], self.labels[idx], self.fs_hz,
                        self.t0_offset_s, list(self.channels))

    def class_counts(self) -> dict[int, int]:
        return {int(c): int(n) for c, n in zip(*np.unique(self.labels, return_counts=True))}


def _padlen(order: int, lo_hz: float, fs: float, n_samples: int) -> int:
    # reflect padding of 3*order/lo_hz seconds, capped by the signal length
    return int(min(n_samples - 1, round(3.0 * order * fs / lo_hz)))


def _filtfilt(sos: np.ndarray, data: np.ndarray, padlen: int) -> np.ndarray:
    from scipy import signal  # imported on use: it is the slowest import in the package

    return signal.sosfiltfilt(sos, data, axis=-1, padtype="even", padlen=padlen)


def bandpass(rec: ContinuousRecording, lo_hz: float, hi_hz: float) -> ContinuousRecording:
    """Zero-phase 4th-order Butterworth bandpass (8th-order after filtfilt)."""
    if not (0.0 < lo_hz < hi_hz < rec.fs_hz / 2.0):
        raise InvalidFilterSpec(
            f"need 0 < lo < hi < fs/2, got lo={lo_hz}, hi={hi_hz}, fs={rec.fs_hz}"
        )
    from scipy import signal

    sos = signal.butter(2,[lo_hz, hi_hz], btype="bandpass", fs=rec.fs_hz, output="sos")
    out = _filtfilt(sos, rec.data, _padlen(4, lo_hz, rec.fs_hz, rec.n_samples))
    return replace(rec, data=out)


def notch(rec: ContinuousRecording, freq_hz: float) -> ContinuousRecording:
    """Zero-phase second-order IIR notch (quality factor 35)."""
    if not (0.0 < freq_hz < rec.fs_hz / 2.0):
        raise InvalidFilterSpec(f"notch frequency {freq_hz} outside (0, fs/2) for fs={rec.fs_hz}")
    from scipy import signal

    b, a = signal.iirnotch(freq_hz, NOTCH_Q, fs=rec.fs_hz)
    sos = signal.tf2sos(b, a)
    out = _filtfilt(sos, rec.data, _padlen(2, freq_hz, rec.fs_hz, rec.n_samples))
    return replace(rec, data=out)


def average_reference(rec: ContinuousRecording) -> ContinuousRecording:
    """Re-reference to the instantaneous mean across channels."""
    if rec.n_channels < 2:
        raise InsufficientChannels("average reference needs at least 2 channels")
    out = rec.data - rec.data.mean(axis=0, keepdims=True)
    return replace(rec, data=out)


def epoch_extract(
    rec: ContinuousRecording,
    event_code: int,
    pre_s: float,
    post_s: float,
    labels,
) -> tuple[EpochSet, list[int]]:
    """Cut one epoch per matching event; sample 0 sits at t = -pre_s.

    ``labels`` has one success/failure code per matching event.  Events too
    close to the recording edges are skipped; their positions (indices into
    the matching-event list) are returned alongside the epochs.
    """
    if pre_s < 0 or post_s < 0:
        raise InvalidWindow("pre_s and post_s must be nonnegative")
    matches = [s for s, code in rec.events if code == event_code]
    if not matches:
        raise EmptyInput(f"no events with code {event_code}")
    labels = list(labels)
    if len(labels) != len(matches):
        raise ValueError(f"{len(matches)} matching events but {len(labels)} labels")

    n_pre = sample_index(pre_s, 0.0, rec.fs_hz)
    n_post = sample_index(post_s, 0.0, rec.fs_hz)
    kept, kept_labels, skipped = [], [], []
    for i, s in enumerate(matches):
        start, stop = s - n_pre, s + n_post
        if start < 0 or stop > rec.n_samples:
            skipped.append(i)
            continue
        kept.append(rec.data[:, start:stop])
        kept_labels.append(labels[i])
    if skipped:
        logger.info("epoch_extract skipped %d edge-clipped events: %s", len(skipped), skipped)
    if not kept:
        raise EmptyInput("all matching events were too close to the recording edges")
    es = EpochSet(np.stack(kept), np.asarray(kept_labels), rec.fs_hz, -pre_s,
                  list(rec.channels))
    return es, skipped


def _window_slice(fs: float, t0: float, n_samples: int, t_a: float, t_b: float) -> slice:
    start = sample_index(t_a, t0, fs)
    stop = sample_index(t_b, t0, fs)
    if start < 0 or stop > n_samples or stop <= start:
        raise InvalidWindow(
            f"window [{t_a}, {t_b}] s maps to samples [{start}, {stop}) "
            f"outside epoch of {n_samples} samples"
        )
    return slice(start, stop)


def baseline_subtract_set(es: EpochSet, window: tuple[float, float] = (-0.5, 0.0)) -> EpochSet:
    """Subtract each channel's mean over ``window`` (seconds, feedback-relative)."""
    sl = _window_slice(es.fs_hz, es.t0_offset_s, es.n_samples, window[0], window[1])
    return replace(es, data=es.data - es.data[..., sl].mean(axis=-1, keepdims=True))


def downsample_set(es: EpochSet, target_fs_hz: float) -> EpochSet:
    """Anti-alias lowpass (0.4 * target rate) then keep every factor-th sample."""
    if target_fs_hz <= 0:
        raise InvalidResampleFactor("target rate must be positive")
    fs = es.fs_hz
    factor = fs / target_fs_hz
    if abs(factor - round(factor)) > 1e-9 or round(factor) < 1:
        raise InvalidResampleFactor(
            f"fs {fs} / target {target_fs_hz} = {factor} is not a positive integer"
        )
    factor = int(round(factor))
    cutoff = 0.4 * target_fs_hz
    from scipy import signal

    sos = signal.butter(8, cutoff, btype="lowpass", fs=fs, output="sos")
    filtered = _filtfilt(sos, es.data, _padlen(8, cutoff, fs, es.n_samples))
    n_out = es.n_samples // factor
    return EpochSet(filtered[..., : n_out * factor : factor], es.labels, target_fs_hz,
                    es.t0_offset_s, list(es.channels))


def preprocess_recording(
    rec: ContinuousRecording,
    labels,
    event_code: int = 1,
    bandpass_hz: tuple[float, float] = (1.0, 100.0),
    notch_hz=(50.0, 100.0),
    epoch_window_s: tuple[float, float] = (0.5, 2.0),
    baseline_window_s: tuple[float, float] = (-0.5, 0.0),
    target_fs_hz: float = 256.0,
    baseline_before_downsample: bool = True,
) -> tuple[EpochSet, list[int]]:
    """Full pipeline: bandpass, notches, average reference, epoching,
    baseline subtraction, downsampling."""
    rec = bandpass(rec, *bandpass_hz)
    for f0 in notch_hz:
        rec = notch(rec, f0)
    rec = average_reference(rec)
    es, skipped = epoch_extract(rec, event_code, epoch_window_s[0], epoch_window_s[1], labels)
    if baseline_before_downsample:
        es = baseline_subtract_set(es, baseline_window_s)
        es = downsample_set(es, target_fs_hz)
    else:
        es = downsample_set(es, target_fs_hz)
        es = baseline_subtract_set(es, baseline_window_s)
    return es, skipped
