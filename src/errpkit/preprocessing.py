"""Continuous-recording preprocessing and epoching.

One pipeline, :func:`preprocess_recording`: zero-phase bandpass/notch
filtering, epoch extraction around feedback events, baseline subtraction,
integer-factor downsampling and average re-referencing.  All filters are
Butterworth/IIR designs applied forward-backward with even padding, so
they are zero-phase and linear.  They are designed and run with numpy
alone: :func:`_butter` and :func:`_notch` build the second-order sections
as ``scipy.signal``'s ``butter`` and ``iirnotch`` do, and
:func:`_zero_phase` makes the response of ``scipy.signal.sosfiltfilt``
with matrix products over blocks of :data:`_BLOCK` samples
(:class:`_ZeroPhase`), so importing this module loads no scipy.  The
pipeline runs its bandpass and notches as one forward-backward pass of
their cascaded second-order sections (:func:`_cascade`), padded by the
longest stage padding, the bandpass's ``3 * 4 / bandpass_lo_hz`` s: in
exact arithmetic that is the zero-phase response of one pass per stage, at
the cost of one.  The two orders differ only by rounding away from the
recording's edges, and within the bandpass's start-up transient near them,
where the padding and initial states differ.

Memory: one storage rule, :func:`_stored`, holds the samples of a
recording and of an epoch set: float32, as both container kinds store
them, is kept as given, and any other dtype becomes float64.  float32 is
storage only; arithmetic upcasts where it starts.  Every filter upcasts a
block of rows (one block of :func:`parallel.blocks`, about 512 KiB of
float64) at a time, so all arithmetic is float64.
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
On one CPU (:func:`parallel.n_cpus`), or for a recording whose float64
samples are below its 16 MiB bound, they run in this process.  Otherwise
one forked worker per CPU inherits the recording, and the workers write
their channels' epochs into the shared map of :func:`parallel.empty`; only
block indexes cross the pipe, and the bytes do not depend on the worker
count.  Each worker drops the epoch pages it has written once its job ends,
and this process re-references the epochs a block of events at a time and
drops each block once it is done with it (:func:`parallel.drop_pages`).
The shared map, not a process, holds the values, so they survive, and no
process keeps the float64 epochs resident: the writer (:mod:`io`) maps
each block back only to write it.  In this process the epochs are an
ordinary array, which stays resident.
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

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


def _butter(order: int, edges_hz, fs: float) -> np.ndarray:
    """The second-order sections of the digital Butterworth filter of
    ``order`` with edges ``edges_hz`` at ``fs``: a lowpass for one edge, a
    bandpass (of twice the order) for two.  As ``scipy.signal.butter`` builds
    it: the analog prototype's poles, the edges prewarped, the lowpass-to-
    lowpass or lowpass-to-bandpass transform, the bilinear transform, then
    the poles paired into sections by :func:`_sections`."""
    warped = 4.0 * np.tan(np.pi * (np.asarray(edges_hz, dtype=np.float64) / (fs / 2)) / 2.0)
    m = np.arange(-order + 1, order, 2, dtype=np.float64)
    p = -np.exp(1j * np.pi * m / (2 * order))
    if warped.size == 1:
        wo = float(warped)
        z, p, k = np.zeros(0), wo * p, wo ** order
    else:
        bw, wo = float(warped[1] - warped[0]), float(np.sqrt(warped[0] * warped[1]))
        p = p * bw / 2
        shift = np.sqrt(p ** 2 - wo ** 2)
        z, p, k = np.zeros(order), np.concatenate((p + shift, p - shift)), bw ** order
    # bilinear transform at the normalized rate 2: zeros at infinity go to z = -1
    z_z = np.concatenate(((4.0 + z) / (4.0 - z), -np.ones(len(p) - len(z))))
    return _sections(z_z, (4.0 + p) / (4.0 - p),
                     k * np.real(np.prod(4.0 - z) / np.prod(4.0 - p)))


def _sections(z: np.ndarray, p: np.ndarray, k: float) -> np.ndarray:
    """The second-order sections of the digital filter with real zeros
    ``z``, poles ``p`` in conjugate pairs or in pairs of reals, and gain
    ``k``, paired as ``scipy.signal.zpk2sos`` pairs them: the pole pair
    nearest the unit circle goes last, each pair takes the two remaining
    zeros nearest its pole, and the first section carries the gain."""
    tol = 100 * np.finfo(np.float64).eps
    p = p[np.lexsort((np.abs(p.imag), p.real))]
    real = np.abs(p.imag) <= tol * np.abs(p)
    p = np.concatenate((p[~real & (p.imag > 0)], p[real].real))
    z = np.sort(z)
    sos = np.empty((len(z) // 2, 6))
    for i in reversed(range(len(sos))):
        worst = np.argmin(np.abs(1 - np.abs(p)))
        p1, p = p[worst], np.delete(p, worst)
        if p1.imag == 0:
            reals = np.flatnonzero(p.imag == 0)
            other = reals[np.argmin(np.abs(1 - np.abs(p[reals])))]
            pair, p = [p1, p[other]], np.delete(p, other)
        else:
            pair = [p1, p1.conj()]
        nearest = np.argsort(np.abs(z - p1))[:2]
        sos[i, :3], sos[i, 3:] = np.poly(z[nearest]), np.poly(pair).real
        z = np.delete(z, nearest)
    sos[0, :3] *= k
    return sos


def _notch(freq_hz: float, fs: float) -> np.ndarray:
    """The one second-order section of the IIR notch at ``freq_hz`` with
    quality factor :data:`NOTCH_Q` at ``fs``, in the closed form of
    ``scipy.signal.iirnotch``: zeros on the unit circle at ``freq_hz`` and a
    -3 dB bandwidth of ``freq_hz / NOTCH_Q``."""
    w0 = 2 * float(freq_hz) / fs
    bw = w0 / NOTCH_Q * np.pi
    w0 = w0 * np.pi
    gain = 1.0 / (1.0 + math.tan(bw / 2.0))
    return np.array([[gain, gain * (-2.0 * math.cos(w0)), gain,
                      1.0, -2.0 * gain * math.cos(w0), 2.0 * gain - 1.0]])


def _steady_state(sos: np.ndarray) -> np.ndarray:
    """Each section's transposed-direct-form state at rest under a unit
    step, as ``scipy.signal.sosfilt_zi`` makes it: per section, the solve of
    ``zi = A zi + B`` on I - companion(a), as ``lfilter_zi`` does, scaled by
    the DC gain of the sections before it.  A singular solve raises
    ``np.linalg.LinAlgError``."""
    zi = np.empty((len(sos), 2))
    scale = 1.0
    for i, (b, a) in enumerate(zip(sos[:, :3], sos[:, 3:])):
        zi[i] = scale * np.linalg.solve([[1.0 + a[1], -1.0], [a[2], 1.0]], b[1:] - a[1:] * b[0])
        scale *= b.sum() / a.sum()
    return zi


_BLOCK = 64  # samples per block of a pass of _zero_phase


class _ZeroPhase:
    """A zero-phase filter: the cascade of the second-order sections
    ``sos`` run forward, then backward, over rows extended at each end by
    ``padlen`` mirrored samples, each pass starting at the cascade's steady
    state for the first sample it reads (``scipy.signal.sosfiltfilt`` with
    ``padtype="even"``).  Made by :func:`_stage` and :func:`_cascade`, run by
    :func:`_zero_phase`.

    A pass runs the cascade as one linear system of two states per section
    over blocks of :data:`_BLOCK` samples: a block's outputs are its samples
    and its start state times :attr:`out` (the lower-triangular Toeplitz
    matrix of the impulse response over the state's response), its samples
    times :attr:`to_state` are their part of the next block's start state,
    and :attr:`step` carries a state one block on.  A section with a pole
    pair sigma +/- i omega keeps its states in the coupled form, whose state
    matrix [[sigma, omega], [-omega, sigma]] has powers no larger than the
    poles' radius: in the transposed direct form of ``sosfilt`` the powers of
    a pole pair near z = 1 grow about a hundredfold before they decay, and
    the block products would carry that growth into the rounding.  A section
    with real poles keeps the transposed direct form.  Building one raises
    ``np.linalg.LinAlgError`` where :func:`_steady_state` does."""

    def __init__(self, sos: np.ndarray, padlen: int):
        self.sos, self.padlen = sos, padlen
        zi = _steady_state(sos)
        n = 2 * len(sos)
        a, b, c, d = np.zeros((n, n)), np.zeros(n), np.zeros(n), 1.0
        self.zi = np.empty(n)  # the steady state for a unit step, in these states
        for i, (b0, b1, b2, _, a1, a2) in enumerate(sos):
            s = slice(2 * i, 2 * i + 2)
            direct = np.array([b1 - a1 * b0, b2 - a2 * b0])  # the direct form's input column
            sigma = -a1 / 2.0
            omega2 = a2 - sigma * sigma
            if omega2 > 0:
                omega = math.sqrt(omega2)
                # direct-form state = [[1, 0], [-sigma, omega]] @ coupled state
                a_i = np.array([[sigma, omega], [-omega, sigma]])
                b_i = np.array([direct[0], (sigma * direct[0] + direct[1]) / omega])
                self.zi[s] = zi[i, 0], (sigma * zi[i, 0] + zi[i, 1]) / omega
            else:
                a_i, b_i, self.zi[s] = np.array([[-a1, 1.0], [-a2, 0.0]]), direct, zi[i]
            # the section's input is c @ state + d * x, and its output its first
            # state plus b0 times that input
            a[s] = np.outer(b_i, c)
            a[s, s] += a_i
            b[s] = b_i * d
            c, d = b0 * c, b0 * d
            c[2 * i] += 1.0
        response, to_state = np.empty((_BLOCK, n)), np.empty((_BLOCK, n))
        row, col = c, b
        for j in range(_BLOCK):
            response[j], to_state[_BLOCK - 1 - j] = row, col
            row, col = row @ a, a @ col
        impulse = np.concatenate(([d], response[:-1] @ b))
        lag = np.arange(_BLOCK)
        toeplitz = np.tril(impulse[np.abs(lag[:, None] - lag)])
        self.out = np.vstack((toeplitz.T, response.T))
        self.to_state = to_state
        self.step = np.linalg.matrix_power(a, _BLOCK).T


def _put(blocks: np.ndarray, at: int, seq: np.ndarray) -> None:
    """Write the samples ``seq``, ``(rows, k)``, at flat sample ``at`` of
    ``blocks``, ``(rows, n_blocks, _BLOCK + states)``, whose first
    :data:`_BLOCK` columns hold each block's samples."""
    end = at + seq.shape[1]
    while at < end:
        block, offset = divmod(at, _BLOCK)
        if offset or end - at < _BLOCK:  # a part of one block
            k = min(_BLOCK - offset, end - at)
            blocks[:, block, offset:offset + k] = seq[:, :k]
        else:  # whole blocks
            k = (end - at) // _BLOCK * _BLOCK
            blocks[:, block:block + k // _BLOCK, :_BLOCK] = seq[:, :k].reshape(
                len(seq), -1, _BLOCK)
        seq, at = seq[:, k:], at + k


def _pass(filt: _ZeroPhase, blocks: np.ndarray, start: np.ndarray, out: np.ndarray) -> None:
    """One causal pass of ``filt``'s cascade over the samples of ``blocks``
    (see :func:`_put`) from the states ``start``, ``(rows, states)``, into
    ``out``, ``(rows, n_blocks, _BLOCK)``.  The block start states come from a
    doubling scan: after the step of span ``d`` each block's state holds the
    input of the ``2 d`` blocks before it, carried on by ``step ** d``.
    Every product runs row by row (numpy's stacked matmul), so a row's
    result does not depend on the rows filtered with it."""
    states = np.empty(blocks.shape[:2] + (filt.zi.size,))
    states[:, 0] = start
    np.matmul(blocks[:, :-1, :_BLOCK], filt.to_state, out=states[:, 1:])
    step, d = filt.step, 1
    while d < states.shape[1]:
        states[:, d:] += states[:, :-d] @ step
        step, d = step @ step, 2 * d
    blocks[..., _BLOCK:] = states
    np.matmul(blocks, filt.out, out=out)


def _zero_phase(x: np.ndarray, filt: _ZeroPhase) -> np.ndarray:
    """float64 ``x`` run through the zero-phase ``filt`` along its last
    axis: extended by ``filt.padlen`` mirrored samples at each end, a
    forward pass, a backward pass, and the extension cut off again."""
    rows = x.reshape(-1, x.shape[-1])
    n, p = rows.shape[1], filt.padlen
    m = n + 2 * p
    blocks = np.zeros((len(rows), -(-m // _BLOCK), _BLOCK + filt.zi.size))
    _put(blocks, 0, rows[:, p:0:-1])
    _put(blocks, p, rows)
    _put(blocks, p + n, rows[:, -2:-(p + 2):-1])
    out = np.empty(blocks.shape[:2] + (_BLOCK,))
    _pass(filt, blocks, filt.zi * rows[:, p:p + 1], out)
    y = out.reshape(len(rows), -1)
    _put(blocks, 0, y[:, m - 1::-1])
    _pass(filt, blocks, filt.zi * y[:, m - 1:m], out)
    return y[:, p:p + n][:, ::-1].reshape(x.shape)


def _stage(design, edge_hz: float, order: int, fs: float, n_samples: int,
           what: str) -> _ZeroPhase:
    """The zero-phase stage of the filter whose sections ``design()`` makes,
    for rows of ``n_samples`` at ``fs``: a padding of ``3 * order / edge_hz``
    seconds, capped by the row length.  A padding that is not finite raises
    :class:`InvalidFilterSpec` before the filter is designed, and so does a
    filter whose initial-state solve (:func:`_steady_state`) is singular;
    that line names ``what``."""
    pad = 3.0 * order * fs / edge_hz
    if not math.isfinite(pad):
        raise InvalidFilterSpec(f"filter edge {edge_hz} Hz is too low for fs={fs}")
    try:
        return _ZeroPhase(design(), int(min(n_samples - 1, round(pad))))
    except np.linalg.LinAlgError:
        raise InvalidFilterSpec(f"{what} gives a filter whose initial state is singular") from None


def _cascade(stages) -> _ZeroPhase:
    """The zero-phase ``stages`` as one: their second-order sections in
    order, padded by the longest of their paddings.  One forward-backward
    pass of the cascade makes the same zero-phase response as one pass per
    stage; only the edges, where the padding and initial states differ, and
    the last bits move."""
    return _ZeroPhase(np.concatenate([s.sos for s in stages]), max(s.padlen for s in stages))


def _filter_rows(rows: np.ndarray, stage: _ZeroPhase) -> np.ndarray:
    """``rows`` upcast to float64 and run through the zero-phase ``stage``
    along the last axis (:func:`_zero_phase`).

    Once the rows are upcast, :func:`parallel.drop_pages` drops their input
    pages from this process, so a process keeps no mapped input resident.
    Every row is filtered on its own, so a row's result does not depend on
    the rows filtered with it.
    """
    block = np.asarray(rows, dtype=np.float64)
    parallel.drop_pages(rows)
    return _zero_phase(block, stage)


def _bandpass_stage(rec: ContinuousRecording, lo_hz: float, hi_hz: float):
    """Zero-phase 4th-order Butterworth bandpass (8th-order after filtfilt)."""
    if not (0.0 < lo_hz < hi_hz < rec.fs_hz / 2.0):
        raise InvalidFilterSpec(
            f"need 0 < lo < hi < fs/2, got lo={lo_hz}, hi={hi_hz}, fs={rec.fs_hz}"
        )
    return _stage(lambda: _butter(2, [lo_hz, hi_hz], rec.fs_hz), lo_hz, 4, rec.fs_hz,
                  rec.n_samples, f"bandpass [{lo_hz}, {hi_hz}] Hz at fs={rec.fs_hz}")


def _notch_stage(rec: ContinuousRecording, freq_hz: float):
    """Zero-phase second-order IIR notch (quality factor 35)."""
    if not (0.0 < freq_hz < rec.fs_hz / 2.0):
        raise InvalidFilterSpec(f"notch frequency {freq_hz} outside (0, fs/2) for fs={rec.fs_hz}")
    return _stage(lambda: _notch(freq_hz, rec.fs_hz), freq_hz, 2, rec.fs_hz, rec.n_samples,
                  f"notch {freq_hz} Hz at fs={rec.fs_hz}")


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
    stage = _stage(lambda: _butter(8, cutoff, fs), cutoff, 8, fs, n_samples,
                   f"anti-alias lowpass at {cutoff} Hz for fs={fs}")
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
                         spec: PreprocessSpec = PreprocessSpec()) -> tuple[EpochSet, list[int]]:
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
    The jobs run by :func:`parallel.map_blocks` on the workers that
    :func:`parallel.block_workers` picks for :func:`parallel.n_cpus` CPUs;
    the result is bit-identical at any count.  One INFO line gives the
    seconds of the jobs, with their worker count, and of the re-reference.
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
    n_workers = parallel.block_workers(rec.n_channels, row_bytes, parallel.n_cpus())
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
                "re-referenced in %.3f s", rec.n_channels, filtered - begin, n_workers,
                time.perf_counter() - filtered)
    return EpochSet(out, kept_labels, spec.target_fs_hz, t0, list(rec.channels)), skipped
