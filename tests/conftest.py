import math
import multiprocessing
import os
import tracemalloc
from typing import Callable, NamedTuple

import numpy as np
import pytest

from errpkit import features, preprocessing, synth
from errpkit.preprocessing import EpochSet


def random_spd(rng: np.random.Generator, d: int, cond: float = 20.0) -> np.ndarray:
    """Random SPD matrix with log-spaced eigenvalues (condition about ``cond``)."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    lo = 1.0 / np.sqrt(cond)
    eig = np.geomspace(lo, lo * cond, d)
    rng.shuffle(eig)
    return (q * eig) @ q.T


def random_symmetric(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d))
    return 0.5 * (a + a.T)


def subset(es: EpochSet, indices) -> EpochSet:
    """The epochs of ``es`` at ``indices``, in that order."""
    idx = np.asarray(indices)
    return EpochSet(es.data[idx], es.labels[idx], es.fs_hz, es.t0_offset_s, list(es.channels))


def method_rows(es: EpochSet, method: str) -> np.ndarray:
    """The rows of ``es`` that ``evaluation.run_cv`` takes for ``method``."""
    return (features.riemann_windows(es) if method == "riemann"
            else features.benchmark_features(es))


def desk_shaped_epochs(n_trials: int = 150):
    """Synthetic epochs of 32 channels at 256 Hz, 150 as one desk-scale
    training fold holds them: their super-trial covariances are 96x96."""
    return synth.generate_epochs(np.arange(n_trials) % 2, synth.ErpTemplateSpec(frn_amp_uv=-10.0),
                                 n_channels=32, fs_hz=256.0, seed=0, pre_s=0.5, post_s=0.7)


def traced_peak(call, *args, **kwargs):
    """``call(*args, **kwargs)``'s result and the peak bytes tracemalloc
    traced while it ran."""
    tracemalloc.start()
    try:
        result = call(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def one_stage(rec, build, *args) -> np.ndarray:
    """The rows of ``rec``, upcast to float64, through the one zero-phase
    stage ``build(rec, *args)`` (``preprocessing._bandpass_stage`` or
    ``_notch_stage``) and no other, as the pipeline filters its rows."""
    return preprocessing._filter_rows(rec.data, build(rec, *args))


class Filters(NamedTuple):
    """The filter designs and the zero-phase run that
    :func:`whole_array_reference` builds its pipeline from: ``bandpass(lo,
    hi, fs)``, ``notch(f0, fs)`` and ``lowpass(cutoff, fs)`` give
    second-order sections, and ``filtfilt(sos, x, padlen)`` runs them
    forward and backward along the last axis of ``x`` with even padding."""

    bandpass: Callable
    notch: Callable
    lowpass: Callable
    filtfilt: Callable


# errpkit's own designs and its whole-array zero-phase function
ERRPKIT_FILTERS = Filters(
    lambda lo, hi, fs: preprocessing._butter(2, [lo, hi], fs),
    preprocessing._notch,
    lambda cutoff, fs: preprocessing._butter(8, cutoff, fs),
    lambda sos, x, pad: preprocessing._zero_phase(x, preprocessing._ZeroPhase(sos, pad)),
)


def scipy_filters() -> Filters:
    """scipy.signal's designs and ``sosfiltfilt``: an oracle that shares no
    filter code with errpkit."""
    from scipy import signal

    return Filters(
        lambda lo, hi, fs: signal.butter(2, [lo, hi], btype="bandpass", fs=fs, output="sos"),
        lambda f0, fs: signal.tf2sos(*signal.iirnotch(f0, 35.0, fs=fs)),
        lambda cutoff, fs: signal.butter(8, cutoff, btype="lowpass", fs=fs, output="sos"),
        lambda sos, x, pad: signal.sosfiltfilt(sos, x, axis=-1, padtype="even", padlen=pad),
    )


def whole_array_reference(rec, labels, spec, reference_first=False, staged=False,
                          filters=ERRPKIT_FILTERS):
    """The pipeline from whole-array zero-phase calls of ``filters`` (test
    oracle): ``labels`` are those of the events of ``spec.event_code``, and
    times become sample indexes by half-up rounding.  The bandpass and the
    notches run as one forward-backward pass of their cascaded sections,
    padded by the longest stage padding; ``staged`` runs one pass per stage
    instead.  The average reference is subtracted from the downsampled
    epochs, before a baseline that follows the downsampling;
    ``reference_first`` subtracts it from the filtered recording instead,
    before the epochs are cut."""
    fs, n = rec.fs_hz, rec.n_samples

    def index(x):
        return math.floor(x + 0.5)

    def padlen(order, lo_hz, length):
        return int(min(length - 1, round(3.0 * order * fs / lo_hz)))

    def rereference(x):
        return x - x.mean(axis=-2, keepdims=True)

    lo, hi = spec.bandpass_lo_hz, spec.bandpass_hi_hz
    chain = [(filters.bandpass(lo, hi, fs), padlen(4, lo, n)),
             *((filters.notch(f0, fs), padlen(2, f0, n)) for f0 in spec.notch_hz)]
    x = rec.data.astype(np.float64)
    if staged:
        for sos, pad in chain:
            x = filters.filtfilt(sos, x, pad)
    else:
        x = filters.filtfilt(np.vstack([sos for sos, _ in chain]), x,
                             max(pad for _, pad in chain))
    if reference_first:
        x = rereference(x)
    n_pre, n_post = index(spec.epoch_pre_s * fs), index(spec.epoch_post_s * fs)
    matching = [s for s, code in rec.events if code == spec.event_code]
    kept = [(s, lab) for s, lab in zip(matching, labels) if s - n_pre >= 0 and s + n_post <= n]
    epochs = np.stack([x[:, s - n_pre:s + n_post] for s, _ in kept])

    def baseline(e, rate):
        a, b = (index((t + spec.epoch_pre_s) * rate) for t in spec.baseline_window_s)
        return e - e[..., a:b].mean(axis=-1, keepdims=True)

    factor = round(fs / spec.target_fs_hz)
    cutoff = 0.4 * spec.target_fs_hz
    lowpass = filters.lowpass(cutoff, fs)
    n_out = epochs.shape[-1] // factor

    def downsample(e):
        e = filters.filtfilt(lowpass, e, padlen(8, cutoff, e.shape[-1]))
        e = e[..., : n_out * factor : factor]
        return e if reference_first else rereference(e)

    if spec.baseline_before_downsample:
        epochs = downsample(baseline(epochs, fs))
    else:
        epochs = baseline(downsample(epochs), spec.target_fs_hz)
    return epochs, [lab for _, lab in kept]


# Bound, fixed before the first run, on float64 epochs against scipy's filters
SCIPY_RELATIVE_BOUND = 1e-9


def assert_near_scipy(data, rec, labels, spec):
    """``data``, float64 epochs of ``rec``, within :data:`SCIPY_RELATIVE_BOUND`
    of max|expected| of the pipeline run on scipy's filters."""
    expected, _ = whole_array_reference(rec, labels, spec, filters=scipy_filters())
    scale = np.abs(expected).max()
    assert np.abs(data - expected).max() <= SCIPY_RELATIVE_BOUND * scale, \
        np.abs(data - expected).max() / scale


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def worker_filter_calls(monkeypatch):
    """A fork-visible count of the ``preprocessing._zero_phase`` calls made
    in processes other than this one, such as forked filter workers."""
    parent, calls = os.getpid(), multiprocessing.get_context("fork").Value("i", 0)
    original = preprocessing._zero_phase

    def zero_phase(*args, **kwargs):
        if os.getpid() != parent:
            with calls.get_lock():
                calls.value += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(preprocessing, "_zero_phase", zero_phase)
    return calls


@pytest.fixture
def featurizer_calls(monkeypatch):
    """A function that gives the fork-visible counts of the calls of
    ``features.riemann_windows`` and ``features.benchmark_features``, made in
    this process and in forked workers alike."""
    context = multiprocessing.get_context("fork")
    counts = {name: context.Value("i", 0) for name in ("riemann_windows", "benchmark_features")}

    def counted(original, count):
        def wrapper(es):
            with count.get_lock():
                count.value += 1
            return original(es)
        return wrapper

    for name, count in counts.items():
        monkeypatch.setattr(features, name, counted(getattr(features, name), count))
    return lambda: {name: count.value for name, count in counts.items()}
