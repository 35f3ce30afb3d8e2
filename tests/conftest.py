import errpkit  # noqa: F401  # first: it pins BLAS to one thread before numpy loads

import multiprocessing
import os

import numpy as np
import pytest

from errpkit import features, synth
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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def worker_filter_calls(monkeypatch):
    """A fork-visible count of the ``sosfiltfilt`` calls made in processes
    other than this one, such as forked filter workers."""
    from scipy import signal

    parent, calls = os.getpid(), multiprocessing.get_context("fork").Value("i", 0)
    original = signal.sosfiltfilt

    def sosfiltfilt(*args, **kwargs):
        if os.getpid() != parent:
            with calls.get_lock():
                calls.value += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(signal, "sosfiltfilt", sosfiltfilt)
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
