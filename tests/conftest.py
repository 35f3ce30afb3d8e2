import numpy as np
import pytest

from errpkit import synth


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


def desk_shaped_epochs():
    """150 synthetic epochs of 32 channels at 256 Hz, as one desk-scale
    training fold holds them: their super-trial covariances are 96x96."""
    return synth.generate_epochs(np.arange(150) % 2, synth.ErpTemplateSpec(frn_amp_uv=-10.0),
                                 n_channels=32, fs_hz=256.0, seed=0, pre_s=0.5, post_s=0.7)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
