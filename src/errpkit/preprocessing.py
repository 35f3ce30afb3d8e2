"""Continuous-recording preprocessing and epoching.

One pipeline, :func:`preprocess_recording`: zero-phase bandpass/notch
filtering, epoch extraction around feedback events, baseline subtraction,
integer-factor downsampling and average re-referencing.
:func:`bandpass` and :func:`notch` apply one filter stage to a whole
recording.  All filters are Butterworth/IIR designs applied
forward-backward (``sosfiltfilt``) with reflect padding, so they are
zero-phase and linear.  The pipeline runs its bandpass and notches as one
forward-backward pass of their cascaded second-order sections
(:func:`_cascade`), padded by the longest stage padding, the bandpass's
``3 * 4 / bandpass_lo_hz`` s: in exact arithmetic that is the zero-phase
response of one pass per stage, and ``sosfilt`` costs about as much per
sample at 4 sections as at 1, so it takes about half the time of the
three passes.  The two orders differ only by rounding away from the
recording's edges, and within the bandpass's start-up transient near them,
where the padding and initial states differ.

Memory: one storage rule, :func:`_stored`, holds the samples of a
recording and of an epoch set: float32, as both container kinds store
them, is kept as given, and any other dtype becomes float64.  float32 is
storage only; arithmetic upcasts where it starts.  Every filter upcasts a
block of rows (one block of :func:`parallel.blocks`, about 512 KiB of
float64) at a time, so all arithmetic is float64.  :func:`bandpass` and
:func:`notch` write each block into one preallocated float64 output.
:func:`preprocess_recording` runs one job per block of rows: it filters
each row whole, then cuts, baselines, lowpasses and downsamples that
row's epochs a block of events at a time into the float64 epochs, and no
filtered row outlives its job.  The average reference is linear and the
same for every channel, so it commutes with every step after the notches
and is subtracted from the downsampled epochs; the peak is about the
epochs plus a few filtered rows per process, and the epochs are
bit-identical to whole-array filtering in that order, because each row is
filtered on its own.  A recording read from a container maps its
``data.bin`` read-only (:mod:`io`), and the process that filters a block
of its rows drops their pages once they are upcast
(:func:`parallel.drop_pages`), so no process keeps the input resident: the
pages stay in the page cache.  Where the jobs run in forked workers, this
process reads no input and filters nothing.

Parallelism: the row blocks are the blocks of :func:`parallel.map_blocks`.
At one worker (the library default), or for a recording whose float64
samples are below its 16 MiB bound, they run in this process.  Otherwise
forked workers inherit the recording and write their channels' epochs
into the shared map of :func:`parallel.empty`; only block indexes cross
the pipe, and the bytes do not depend on the worker count.  Each worker
drops the epoch pages it has written once its job ends, and this process
re-references the epochs a block of events at a time and drops each block
once it is done with it (:func:`parallel.drop_pages`).  The shared map,
not a process, holds the values, so they survive, and no process keeps
the float64 epochs resident: the writer (:mod:`io`) maps each block back
only to write it.  At one worker the epochs are an ordinary array, which
stays resident.
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import parallel
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
    """Half-up rounding of (t - t0) * fs; the package-wide time-to-index rule.
    A product that is not finite raises :class:`InvalidWindow`."""
    x = (t - t0) * fs
    if not math.isfinite(x):
        raise InvalidWindow(f"time {t} s from {t0} s at {fs} Hz gives no finite sample index")
    return int(np.floor(x + 0.5))


def format_count(n: int) -> str:
    """``n`` in full up to 2**53 in size, past which a count made from float
    settings has no more exact digits; beyond, its first 6 digits, as
    ``2.5e+300``."""
    if abs(n) <= 2 ** 53:
        return str(n)
    digits = str(abs(n))
    tail = digits[1:6].rstrip("0")
    return f"{'-' if n < 0 else ''}{digits[0]}{'.' + tail if tail else ''}e+{len(digits) - 1}"


def _stored(data) -> np.ndarray:
    """``data`` as samples are held: a float32 array as given, any other
    array-like as float64 (without a copy where it already is)."""
    data = np.asarray(data)
    return data if data.dtype == np.float32 else data.astype(np.float64, copy=False)


@dataclass
class ContinuousRecording:
    """A multi-channel continuous recording with event markers.

    data is (n_channels, n_samples) in microvolts, held by :func:`_stored`;
    events are (sample_index, event_code) pairs.
    """

    fs_hz: float
    channels: list[str]
    data: np.ndarray
    events: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        self.data = _stored(self.data)
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
    """A stack of equally-shaped labelled epochs sharing fs and channel names.

    data is held by :func:`_stored`: float32 from a container or from
    :mod:`synth`, float64 from :func:`preprocess_recording`.
    """

    data: np.ndarray  # (n_trials, n_channels, n_samples)
    labels: np.ndarray  # (n_trials,)
    fs_hz: float
    t0_offset_s: float
    channels: list[str]

    def __post_init__(self):
        self.data = _stored(self.data)
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


def _stage(design, edge_hz: float, order: int, fs: float, n_samples: int, what: str):
    """The zero-phase stage ``(sos, padlen)`` of the filter that ``design``
    makes from :mod:`scipy.signal`, for rows of ``n_samples`` at ``fs``: a
    reflect padding of ``3 * order / edge_hz`` seconds, capped by the row
    length.  A padding that is not finite raises :class:`InvalidFilterSpec`
    before the filter is designed, and so does a filter whose initial-state
    solve, which ``sosfiltfilt`` makes, is singular; that line names ``what``."""
    from scipy import signal

    pad = 3.0 * order * fs / edge_hz
    if not math.isfinite(pad):
        raise InvalidFilterSpec(f"filter edge {edge_hz} Hz is too low for fs={fs}")
    sos = design(signal)
    try:
        signal.sosfilt_zi(sos)
    except np.linalg.LinAlgError:
        raise InvalidFilterSpec(f"{what} gives a filter whose initial state is singular") from None
    return sos, int(min(n_samples - 1, round(pad)))


def _cascade(stages):
    """The zero-phase ``stages``, ``(sos, padlen)`` pairs, as one stage: their
    second-order sections in order, padded by the longest of their paddings.
    One forward-backward pass of the cascade makes the same zero-phase
    response as one pass per stage; only the edges, where the padding and
    initial states differ, and the last bits move."""
    return np.concatenate([sos for sos, _ in stages]), max(padlen for _, padlen in stages)


def _filter_rows(rows: np.ndarray, stage) -> np.ndarray:
    """``rows`` upcast to float64 and run forward-backward through the
    zero-phase ``stage``, a ``(sos, padlen)`` pair, along the last axis.

    Once the rows are upcast, :func:`parallel.drop_pages` drops their input
    pages from this process, so a process keeps no mapped input resident.
    Every row is filtered on its own, so a row's result does not depend on
    the rows filtered with it.
    """
    from scipy import signal  # imported on use: it is the slowest import in the package

    block = np.asarray(rows, dtype=np.float64)
    parallel.drop_pages(rows)
    sos, padlen = stage
    return signal.sosfiltfilt(sos, block, axis=-1, padtype="even", padlen=padlen)


def _filtered(rec: ContinuousRecording, stage) -> ContinuousRecording:
    """``rec`` with ``stage`` run over its rows a :func:`parallel.blocks`
    block at a time into one preallocated float64 array, so the temporaries
    of ``sosfiltfilt`` stay block-sized; the samples equal whole-array
    filtering bit for bit."""
    def filter_block(sl: slice, out: np.ndarray) -> None:
        out[...] = _filter_rows(rec.data[sl], stage)

    return replace(rec, data=parallel.map_blocks(filter_block, rec.n_channels, 8 * rec.n_samples,
                                                 rec.data.shape, name="filter"))


def _bandpass_stage(rec: ContinuousRecording, lo_hz: float, hi_hz: float):
    if not (0.0 < lo_hz < hi_hz < rec.fs_hz / 2.0):
        raise InvalidFilterSpec(
            f"need 0 < lo < hi < fs/2, got lo={lo_hz}, hi={hi_hz}, fs={rec.fs_hz}"
        )
    return _stage(
        lambda signal: signal.butter(2, [lo_hz, hi_hz], btype="bandpass", fs=rec.fs_hz,
                                     output="sos"),
        lo_hz, 4, rec.fs_hz, rec.n_samples, f"bandpass [{lo_hz}, {hi_hz}] Hz at fs={rec.fs_hz}")


def _notch_stage(rec: ContinuousRecording, freq_hz: float):
    if not (0.0 < freq_hz < rec.fs_hz / 2.0):
        raise InvalidFilterSpec(f"notch frequency {freq_hz} outside (0, fs/2) for fs={rec.fs_hz}")
    return _stage(lambda signal: signal.tf2sos(*signal.iirnotch(freq_hz, NOTCH_Q, fs=rec.fs_hz)),
                  freq_hz, 2, rec.fs_hz, rec.n_samples, f"notch {freq_hz} Hz at fs={rec.fs_hz}")


def bandpass(rec: ContinuousRecording, lo_hz: float, hi_hz: float) -> ContinuousRecording:
    """Zero-phase 4th-order Butterworth bandpass (8th-order after filtfilt)."""
    return _filtered(rec, _bandpass_stage(rec, lo_hz, hi_hz))


def notch(rec: ContinuousRecording, freq_hz: float) -> ContinuousRecording:
    """Zero-phase second-order IIR notch (quality factor 35)."""
    return _filtered(rec, _notch_stage(rec, freq_hz))


def _check_reference(n_channels: int) -> None:
    if n_channels < 2:
        raise InsufficientChannels("average reference needs at least 2 channels")


def _rereference(data: np.ndarray) -> None:
    """Subtract the instantaneous mean across channels, axis -2, from float64
    ``data`` in place: epochs of shape ``(events, channels, samples)``."""
    _check_reference(data.shape[-2])
    data -= data.mean(axis=-2, keepdims=True)


def _event_windows(rec: ContinuousRecording, event_code: int, pre_s: float, post_s: float,
                   labels) -> tuple[list[int], int, np.ndarray, list[int]]:
    """Start samples, common length and labels of the epochs that fit in the
    recording, and the positions of the skipped events among the matching ones."""
    matches = [s for s, code in rec.events if code == event_code]
    if not matches:
        raise EmptyInput(f"no events with code {event_code}")
    labels = list(labels)
    if len(labels) != len(matches):
        raise ValueError(f"{len(matches)} matching events but {len(labels)} labels")

    n_pre = sample_index(pre_s, 0.0, rec.fs_hz)
    n_post = sample_index(post_s, 0.0, rec.fs_hz)
    starts, kept_labels, skipped = [], [], []
    for i, s in enumerate(matches):
        if s - n_pre < 0 or s + n_post > rec.n_samples:
            skipped.append(i)
            continue
        starts.append(s - n_pre)
        kept_labels.append(labels[i])
    if skipped:
        logger.info("skipped %d edge-clipped events: %s", len(skipped), skipped)
    if not starts:
        raise EmptyInput("all matching events were too close to the recording edges")
    return starts, n_pre + n_post, np.asarray(kept_labels), skipped


def check_window(name: str, window) -> None:
    """Raise :class:`InvalidWindow` unless ``window``, the setting ``name``, is a
    (start, stop) pair of numbers with start < stop."""
    if not (len(window) == 2 and all(isinstance(t, (int, float)) for t in window)
            and window[0] < window[1]):
        raise InvalidWindow(
            f"{name} must be a (start, stop) pair with start < stop, got {list(window)}")


def _window_slice(fs: float, t0: float, n_samples: int, window, what: str,
                  settings: str) -> slice:
    """The samples of ``window``, a (start, stop) pair in seconds, in an
    epoch of ``n_samples`` at ``fs`` whose sample 0 sits at ``t0``.  A
    window outside the epoch raises :class:`InvalidWindow`: the line calls
    the window ``what`` and ends with ``settings``, the settings that place
    the window and the epoch."""
    t_a, t_b = window
    start = sample_index(t_a, t0, fs)
    stop = sample_index(t_b, t0, fs)
    if start < 0 or stop > n_samples or stop <= start:
        raise InvalidWindow(
            f"{what} [{t_a}, {t_b}] s maps to samples [{format_count(start)}, "
            f"{format_count(stop)}) outside the epoch of {n_samples} samples ({settings})")
    return slice(start, stop)


def _downsample_stage(fs: float, target_fs_hz: float, n_samples: int):
    """The anti-alias lowpass stage ``(sos, padlen)`` (8th-order Butterworth at
    0.4 * target rate) for rows of ``n_samples`` at ``fs``, and the samples
    ``keep`` of each filtered row: every factor-th, and at least one."""
    factor = fs / target_fs_hz
    if not math.isfinite(factor) or abs(factor - round(factor)) > 1e-9 or round(factor) < 1:
        raise InvalidResampleFactor(
            f"fs {fs} / target {target_fs_hz} = {factor} is not a positive integer"
        )
    factor = int(round(factor))
    cutoff = 0.4 * target_fs_hz
    stage = _stage(lambda signal: signal.butter(8, cutoff, btype="lowpass", fs=fs, output="sos"),
                   cutoff, 8, fs, n_samples, f"anti-alias lowpass at {cutoff} Hz for fs={fs}")
    if n_samples // factor == 0:
        raise InvalidResampleFactor(
            f"fs {fs} / target {target_fs_hz} = {factor} leaves no sample of an epoch "
            f"of {n_samples} samples"
        )
    keep = slice(None, n_samples // factor * factor, factor)
    return stage, keep


@dataclass(frozen=True)
class PreprocessSpec:
    """Settings of :func:`preprocess_recording`.

    Field names are config keys: ``config.DEFAULTS`` takes its entries for
    them from these defaults.  A bad window, a negative epoch bound, a
    target rate at or below 0, a bandpass lower edge at or below 0 or at or
    above its upper edge, and a notch at or below 0 raise here, naming their
    key; the checks that need a recording's sampling rate are made where its
    filters are designed.
    """

    bandpass_lo_hz: float = 1.0
    bandpass_hi_hz: float = 100.0
    notch_hz: tuple[float, ...] = (50.0, 100.0)
    epoch_pre_s: float = 0.5
    epoch_post_s: float = 2.0
    baseline_window_s: tuple[float, float] = (-0.5, 0.0)
    target_fs_hz: float = 256.0
    event_code: int = 1
    baseline_before_downsample: bool = True

    def __post_init__(self):
        check_window("baseline_window_s", self.baseline_window_s)
        for key in ("epoch_pre_s", "epoch_post_s"):
            if getattr(self, key) < 0:
                raise InvalidWindow(f"{key} must be nonnegative, got {getattr(self, key)}")
        if self.target_fs_hz <= 0:
            raise InvalidResampleFactor(f"target_fs_hz must be positive, got {self.target_fs_hz}")
        if self.bandpass_lo_hz <= 0:
            raise InvalidFilterSpec(f"bandpass_lo_hz must be positive, got {self.bandpass_lo_hz}")
        if self.bandpass_lo_hz >= self.bandpass_hi_hz:
            raise InvalidFilterSpec(f"bandpass_lo_hz must be below bandpass_hi_hz, got "
                                    f"{self.bandpass_lo_hz} and {self.bandpass_hi_hz}")
        if any(f0 <= 0 for f0 in self.notch_hz):
            raise InvalidFilterSpec(f"notch_hz must hold positive frequencies only, "
                                    f"got {list(self.notch_hz)}")


def preprocess_recording(rec: ContinuousRecording, labels,
                         spec: PreprocessSpec = PreprocessSpec(),
                         n_workers: int = 1) -> tuple[EpochSet, list[int]]:
    """Full pipeline: bandpass and notches, epoching, baseline subtraction,
    downsampling, average reference.

    The bandpass and the notches run as one zero-phase pass of their
    cascaded sections (:func:`_cascade`); each stage is still designed and
    checked on its own, so a bad stage raises the line that names it.

    Sample 0 of each epoch sits at t = -``epoch_pre_s``.  Events too close
    to the recording edges are skipped; their positions among the matching
    events are returned alongside the epochs.

    Bounded memory: one job per :func:`parallel.blocks` block of rows
    filters its rows whole, then cuts each kept window from a filtered row
    a block of events at a time, subtracts the full-rate baseline, runs
    the anti-alias lowpass and keeps every factor-th sample, writing into
    the one ``(events, channels, samples)`` float64 result.  No filtered
    row outlives its job.  The average reference is linear and the same
    for every channel, so it commutes with the epoching, the baseline and
    the lowpass; it is subtracted from the downsampled epochs in place, a
    :func:`parallel.blocks` block of events at a time, followed, where
    ``baseline_before_downsample`` is false, by the baseline, and each
    block is then dropped from this process (:func:`parallel.drop_pages`).
    A recording of fewer than 2 channels raises
    :class:`InsufficientChannels` before any filter runs.
    The jobs run by :func:`parallel.map_blocks` on up to ``n_workers``
    processes; the result is bit-identical at any count.  One INFO line
    gives the seconds of the jobs, with their worker count, and of the
    re-reference.
    """
    chain = _cascade([_bandpass_stage(rec, spec.bandpass_lo_hz, spec.bandpass_hi_hz),
                      *(_notch_stage(rec, f0) for f0 in spec.notch_hz)])
    starts, length, kept_labels, skipped = _event_windows(
        rec, spec.event_code, spec.epoch_pre_s, spec.epoch_post_s, labels)
    lowpass, keep = _downsample_stage(rec.fs_hz, spec.target_fs_hz, length)
    n_out = len(range(length)[keep])
    t0 = -spec.epoch_pre_s
    fs_base, n_base = ((rec.fs_hz, length) if spec.baseline_before_downsample
                       else (spec.target_fs_hz, n_out))
    base = _window_slice(fs_base, t0, n_base, spec.baseline_window_s, "baseline_window_s",
                         f"epoch_pre_s {spec.epoch_pre_s}, epoch_post_s {spec.epoch_post_s}")
    _check_reference(rec.n_channels)
    starts = np.asarray(starts)
    event_blocks = parallel.blocks(len(starts), 8 * length)

    def row_block(sl: slice, out: np.ndarray) -> None:
        for i, row in enumerate(_filter_rows(rec.data[sl], chain)):
            windows_of = np.lib.stride_tricks.sliding_window_view(row, length)
            for events in event_blocks:
                windows = windows_of[starts[events]]
                if spec.baseline_before_downsample:
                    windows -= windows[:, base].mean(axis=-1, keepdims=True)
                out[events, i] = _filter_rows(windows, lowpass)[:, keep]

    row_bytes = 8 * rec.n_samples
    begin = time.perf_counter()
    out = parallel.map_blocks(row_block, rec.n_channels, row_bytes,
                              (len(starts), rec.n_channels, n_out), n_workers, "filter", axis=1)
    filtered = time.perf_counter()
    for sl in parallel.blocks(len(starts), 8 * rec.n_channels * n_out):
        epochs = out[sl]
        _rereference(epochs)
        if not spec.baseline_before_downsample:
            epochs -= epochs[..., base].mean(axis=-1, keepdims=True)
        parallel.drop_pages(epochs)
    logger.info("filtered and epoched %d channels in %.3f s on %d worker(s), "
                "re-referenced in %.3f s", rec.n_channels, filtered - begin,
                parallel.block_workers(rec.n_channels, row_bytes, n_workers),
                time.perf_counter() - filtered)
    return EpochSet(out, kept_labels, spec.target_fs_hz, t0, list(rec.channels)), skipped
