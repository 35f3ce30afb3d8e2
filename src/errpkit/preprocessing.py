"""Continuous-recording preprocessing and epoching.

One pipeline, :func:`preprocess_recording`: zero-phase bandpass/notch
filtering, average re-referencing, epoch extraction around feedback
events, baseline subtraction and integer-factor downsampling.
:func:`bandpass` and :func:`notch` apply one filter stage to a whole
recording.  All filters are Butterworth/IIR designs applied
forward-backward (``sosfiltfilt``) with reflect padding, so they are
zero-phase and linear.

Memory: one storage rule, :func:`_stored`, holds the samples of a
recording and of an epoch set: float32, as both container kinds store
them, is kept as given, and any other dtype becomes float64.  float32 is
storage only; arithmetic upcasts where it starts.  Every filter upcasts a
block of rows (one block of :func:`parallel.blocks`, about 512 KiB of
float64) at a time, so all arithmetic is float64, and writes each block
into one preallocated float64 output.  :func:`preprocess_recording`
filters each row whole but stores only its samples inside the epoch
windows, merged where they overlap or touch, and cuts, re-references,
baselines and downsamples the epochs a block of events at a time.  Its
peak is about that float64 store, at most the size of the filtered
recording; the epochs are bit-identical to whole-array filtering, because
each row is filtered on its own and each epoch's re-reference sums the
same channels in the same order.  A recording read from a container maps
its ``data.bin`` read-only (:mod:`io`), and the process that filters a
block of its rows drops their pages once they are upcast
(:func:`_drop_mapped_pages`), so no process keeps the input resident: the
pages stay in the page cache.  Where the filters and the epochs run in
forked workers, this process reads neither the input nor the store.

Parallelism: the row blocks, then the event blocks, are the blocks of
:func:`parallel.map_blocks`.  At one worker (the library default), or for
a phase whose float64 input is below its 16 MiB bound, they run in this
process.  Otherwise forked workers inherit the recording and write their
blocks into anonymous shared memory, which then holds the filtered
windows and the epochs; only block indexes cross the pipe, and the bytes
do not depend on the worker count.
"""
from __future__ import annotations

import logging
import math
import mmap
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


def _drop_mapped_pages(rows: np.ndarray) -> None:
    """Drop from this process the pages of the C-contiguous ``rows`` where they
    view a read-only file mapping, as :mod:`io` maps a continuous
    container's ``data.bin``; leave any other array as it is.  The pages stay
    in the page cache, and a later read faults them in again from the file
    that the mapping holds open, so no value of the array changes."""
    owner = rows
    while isinstance(owner, np.ndarray):
        owner = owner.base
    if not (isinstance(owner, mmap.mmap) and rows.flags.c_contiguous
            and hasattr(mmap, "MADV_DONTNEED")):
        return
    mapping = np.frombuffer(owner, np.uint8)
    if mapping.flags.writeable:  # its pages may hold writes that only this process has
        return
    start = rows.ctypes.data - mapping.ctypes.data
    first = start - start % mmap.PAGESIZE
    owner.madvise(mmap.MADV_DONTNEED, first, start + rows.nbytes - first)


def _filter_rows(data: np.ndarray, stages, keep=(slice(None),),
                 n_workers: int = 1) -> np.ndarray:
    """Run the zero-phase ``stages``, ``(sos, padlen)`` pairs in order, along the
    last axis of ``data`` and keep the samples of each filtered row that the
    slices ``keep`` select, end to end in their order.

    Rows are upcast to float64 and filtered a block at a time into one
    preallocated float64 array by :func:`parallel.map_blocks`, on up to
    ``n_workers`` processes, so the temporaries of ``sosfiltfilt`` stay
    block-sized.  Once a block is upcast, :func:`_drop_mapped_pages` drops
    its input pages from the process, so a process keeps no mapped input
    resident.  Every row is filtered on its own, so the result equals
    whole-array filtering bit for bit at any worker count.
    """
    from scipy import signal  # imported on use: it is the slowest import in the package

    n = data.shape[-1]
    rows = data.reshape(-1, n)
    kept = sum(len(range(n)[k]) for k in keep)

    def filter_block(sl: slice, out: np.ndarray) -> None:
        block = np.asarray(rows[sl], dtype=np.float64)
        _drop_mapped_pages(rows[sl])
        for sos, padlen in stages:
            block = signal.sosfiltfilt(sos, block, axis=-1, padtype="even", padlen=padlen)
        at = 0
        for k in keep:
            piece = block[:, k]
            out[:, at:at + piece.shape[-1]] = piece
            at += piece.shape[-1]

    out = parallel.map_blocks(filter_block, rows.shape[0], 8 * n, (rows.shape[0], kept),
                              n_workers, "filter")
    return out.reshape(data.shape[:-1] + (kept,))


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
    return replace(rec, data=_filter_rows(rec.data, [_bandpass_stage(rec, lo_hz, hi_hz)]))


def notch(rec: ContinuousRecording, freq_hz: float) -> ContinuousRecording:
    """Zero-phase second-order IIR notch (quality factor 35)."""
    return replace(rec, data=_filter_rows(rec.data, [_notch_stage(rec, freq_hz)]))


def _check_reference(n_channels: int) -> None:
    if n_channels < 2:
        raise InsufficientChannels("average reference needs at least 2 channels")


def _rereference(data: np.ndarray) -> None:
    """Subtract the instantaneous mean across channels, axis -2, from float64
    ``data`` in place: a recording's rows or a block of epochs."""
    _check_reference(data.shape[-2])
    data -= data.mean(axis=-2, keepdims=True)


def _merged_windows(starts: list[int], length: int) -> tuple[list[slice], list[int]]:
    """The union of the windows ``[s, s + length)``, as slices in sample order
    of which no two overlap or touch, and the offset of each window of
    ``starts`` in those slices kept end to end: its start less the samples
    outside the union before it.  Starts may be unsorted or repeated, and
    windows may overlap."""
    segments: list[list[int]] = []
    offset_of, outside = {}, 0
    for s in sorted(set(starts)):
        if segments and s <= segments[-1][1]:
            segments[-1][1] = s + length
        else:
            outside += s - (segments[-1][1] if segments else 0)
            segments.append([s, s + length])
        offset_of[s] = s - outside
    return [slice(a, b) for a, b in segments], [offset_of[s] for s in starts]


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


def _window_slice(fs: float, t0: float, n_samples: int, t_a: float, t_b: float) -> slice:
    start = sample_index(t_a, t0, fs)
    stop = sample_index(t_b, t0, fs)
    if start < 0 or stop > n_samples or stop <= start:
        raise InvalidWindow(
            f"window [{t_a}, {t_b}] s maps to samples [{start}, {stop}) "
            f"outside epoch of {n_samples} samples"
        )
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
    """Full pipeline: bandpass, notches, average reference, epoching,
    baseline subtraction, downsampling.

    Sample 0 of each epoch sits at t = -``epoch_pre_s``.  Events too close
    to the recording edges are skipped; their positions among the matching
    events are returned alongside the epochs.

    Bounded memory: the filter chain runs block by block into one float64
    array that holds only the merged epoch windows, and the epochs are cut
    from it, re-referenced, baselined and downsampled a block of events at
    a time into the result.  A recording of fewer than 2 channels raises
    :class:`InsufficientChannels` before any filter runs.
    The lowpass is designed once per call; downsampling first, the baseline
    is subtracted once from the whole result.  The row blocks, then the
    event blocks, run by :func:`parallel.map_blocks` on up to ``n_workers``
    processes; the result is bit-identical at any count.
    """
    stages = [_bandpass_stage(rec, spec.bandpass_lo_hz, spec.bandpass_hi_hz),
              *(_notch_stage(rec, f0) for f0 in spec.notch_hz)]
    starts, length, kept_labels, skipped = _event_windows(
        rec, spec.event_code, spec.epoch_pre_s, spec.epoch_post_s, labels)
    lowpass, keep = _downsample_stage(rec.fs_hz, spec.target_fs_hz, length)
    n_out = len(range(length)[keep])
    t0 = -spec.epoch_pre_s
    if spec.baseline_before_downsample:
        base = _window_slice(rec.fs_hz, t0, length, *spec.baseline_window_s)
    else:
        base = _window_slice(spec.target_fs_hz, t0, n_out, *spec.baseline_window_s)
    _check_reference(rec.n_channels)
    segments, offsets = _merged_windows(starts, length)
    store = _filter_rows(rec.data, stages, segments, n_workers)

    def epoch_block(sl: slice, out: np.ndarray) -> None:
        block = np.stack([store[:, o:o + length] for o in offsets[sl]])
        _rereference(block)
        if spec.baseline_before_downsample:
            block -= block[..., base].mean(axis=-1, keepdims=True)
        out[...] = _filter_rows(block, [lowpass], [keep])

    out = parallel.map_blocks(epoch_block, len(starts), 8 * rec.n_channels * length,
                              (len(starts), rec.n_channels, n_out), n_workers, "epoch")
    if not spec.baseline_before_downsample:
        out -= out[..., base].mean(axis=-1, keepdims=True)
    return EpochSet(out, kept_labels, spec.target_fs_hz, t0, list(rec.channels)), skipped
