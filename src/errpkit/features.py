"""The two featurizers.

Riemannian route: average the training epochs of each class over the
analysis window into per-class prototype matrices, stack
[success prototype; failure prototype; trial] into a super trial, take its
shrunk sample covariance, and project onto the tangent space at the
geometric mean of the training covariances.  It has a fit phase (training
epochs only) and a pure transform phase; the fitted model is immutable.

Benchmark route: per channel, the mean and standard deviation over four
fixed windows, each feature scaled by its maximum absolute value in the
training set.  The features of a trial depend on that trial alone, so
:func:`benchmark_features` computes them once for a whole dataset and a
fold only indexes its rows and divides by :func:`max_abs_scale` of its
training rows.

Fitting is bit-identical under any permutation of the training epochs
(canonical summation, max-based scaling).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import manifold
from .errors import DegenerateTrainingSet, DimMismatch, EmptyInput, InvalidWindow, NotPositiveDefinite
from .labels import FAILURE, SUCCESS
from .preprocessing import EpochSet, _window_slice

RIEMANN_WINDOW = (0.100, 0.600)
BENCHMARK_WINDOWS = ((0.100, 0.200), (0.200, 0.300), (0.300, 0.400), (0.400, 0.600))
DEFAULT_SHRINKAGE = 0.01


@dataclass(frozen=True)
class PrototypePair:
    """Per-class mean ERPs over the analysis window, (n_channels, n_window) each."""

    proto_success: np.ndarray
    proto_failure: np.ndarray

    def __post_init__(self):
        if self.proto_success.shape != self.proto_failure.shape:
            raise DimMismatch("prototype shapes differ")

    @property
    def n_channels(self) -> int:
        return self.proto_success.shape[0]

    @property
    def n_window(self) -> int:
        return self.proto_success.shape[1]


@dataclass(frozen=True)
class RiemannModel:
    window: tuple[float, float]
    prototypes: PrototypePair
    reference: np.ndarray  # (3c, 3c) geometric mean of training covariances
    shrinkage: float
    fs_hz: float


def _covariances(stack: np.ndarray, shrinkage: float) -> np.ndarray:
    """Shrunk sample covariances of a stack of (d, w) matrices -> (n, d, d).

    C = (1 - s) * Xc Xc' / (w - 1) + s * mu * I   with mu = trace / d.
    Eigenvalues of C are bounded below by s * mu, so the result is SPD for
    s > 0 whenever the input is nonzero.
    """
    if not 0.0 <= shrinkage < 1.0:
        raise ValueError(f"shrinkage must be in [0, 1), got {shrinkage}")
    stack = np.asarray(stack, dtype=np.float64)
    d, w = stack.shape[-2], stack.shape[-1]
    if w < 2:
        raise InvalidWindow(f"need at least 2 samples for a covariance, got {w}")
    xc = stack - stack.mean(axis=-1, keepdims=True)
    cov = xc @ xc.swapaxes(-1, -2) / (w - 1)
    cov = 0.5 * (cov + cov.swapaxes(-1, -2))
    mu = np.trace(cov, axis1=-2, axis2=-1) / d
    if shrinkage > 0.0:
        if np.any(mu <= 0.0):
            raise NotPositiveDefinite("zero covariance cannot be shrunk to SPD")
        eye = np.eye(d)
        cov = (1.0 - shrinkage) * cov + shrinkage * mu[..., None, None] * eye
    else:
        eig = np.linalg.eigvalsh(cov)
        floor = eig[..., -1] * d * 1e-12
        if np.any(eig[..., 0] <= floor) or np.any(eig[..., -1] <= 0.0):
            raise NotPositiveDefinite(
                "sample covariance is singular or near-singular; raise the shrinkage"
            )
    return cov


def _sliced(es: EpochSet, window: tuple[float, float]) -> np.ndarray:
    sl = _window_slice(es.fs_hz, es.t0_offset_s, es.n_samples, window[0], window[1])
    return es.data[:, :, sl]


def fit_prototypes(train: EpochSet,
                   window: tuple[float, float] = RIEMANN_WINDOW) -> PrototypePair:
    """Per-class mean ERPs of the training epochs over the analysis window."""
    counts = train.class_counts()
    if counts.get(SUCCESS, 0) == 0 or counts.get(FAILURE, 0) == 0:
        raise DegenerateTrainingSet(f"need both classes in training data, got {counts}")
    windowed = _sliced(train, window)
    return PrototypePair(
        proto_success=manifold.canonical_mean(windowed[train.labels == SUCCESS]),
        proto_failure=manifold.canonical_mean(windowed[train.labels == FAILURE]),
    )


def fit_riemann(
    train: EpochSet,
    window: tuple[float, float] = RIEMANN_WINDOW,
    shrinkage: float = DEFAULT_SHRINKAGE,
    mean_tol: float = manifold.DEFAULT_MEAN_TOL,
    mean_max_iter: int = manifold.DEFAULT_MEAN_MAX_ITER,
) -> RiemannModel:
    """Fit prototypes and the tangent-space reference point on training epochs only."""
    protos = fit_prototypes(train, window)
    covs = _covariances(_super_trials(_sliced(train, window), protos), shrinkage)
    reference = manifold.geometric_mean(covs, tol=mean_tol, max_iter=mean_max_iter)
    return RiemannModel(tuple(window), protos, reference, shrinkage, train.fs_hz)


def _super_trials(windowed: np.ndarray, protos: PrototypePair) -> np.ndarray:
    """Stack [success prototype; failure prototype; trial] per epoch, (n, 3c, n_window)."""
    n = windowed.shape[0]
    if windowed.shape[1:] != (protos.n_channels, protos.n_window):
        raise DimMismatch(
            f"trial windows {windowed.shape[1:]} do not match prototypes "
            f"({protos.n_channels}, {protos.n_window})"
        )
    top = np.broadcast_to(
        np.concatenate([protos.proto_success, protos.proto_failure], axis=0),
        (n, 2 * protos.n_channels, protos.n_window),
    )
    return np.concatenate([top, windowed], axis=1)


def transform_riemann_set(model: RiemannModel, es: EpochSet) -> np.ndarray:
    """Tangent feature vectors for every epoch in the set, (n, D(D+1)/2)."""
    if es.n_channels != model.prototypes.n_channels:
        raise DimMismatch(
            f"epoch has {es.n_channels} channels, model expects {model.prototypes.n_channels}"
        )
    if es.fs_hz != model.fs_hz:
        raise DimMismatch(f"epoch rate {es.fs_hz} differs from model rate {model.fs_hz}")
    windowed = _sliced(es, model.window)
    sts = _super_trials(windowed, model.prototypes)
    covs = _covariances(sts, model.shrinkage)
    return manifold.tangent_project(covs, model.reference)


def benchmark_features(
    es: EpochSet,
    windows: tuple[tuple[float, float], ...] = BENCHMARK_WINDOWS,
) -> np.ndarray:
    """Unscaled windowed features of every epoch, (n, n_channels * n_windows * 2).

    Layout is channel-major, window-minor, with (mean, std) innermost; std
    uses the n-1 denominator.  Each row depends on its own epoch only, so
    the rows of a subset equal the subset of the rows bit for bit.
    """
    data, fs, t0 = es.data, es.fs_hz, es.t0_offset_s
    n, c, s = data.shape
    feats = np.empty((n, c, len(windows), 2))
    for w, (t_a, t_b) in enumerate(windows):
        sl = _window_slice(fs, t0, s, t_a, t_b)
        if sl.stop - sl.start < 2:
            raise InvalidWindow(f"window [{t_a}, {t_b}] has fewer than 2 samples at fs={fs}")
        seg = data[:, :, sl]
        feats[:, :, w, 0] = seg.mean(axis=-1)
        feats[:, :, w, 1] = seg.std(axis=-1, ddof=1)
    return feats.reshape(n, c * len(windows) * 2)


def max_abs_scale(train_feats: np.ndarray) -> np.ndarray:
    """Each feature's max absolute value over the training rows (0 -> 1)."""
    if len(train_feats) == 0:
        raise EmptyInput("cannot fit a scale on no training rows")
    scale = np.abs(train_feats).max(axis=0)
    scale[scale == 0.0] = 1.0
    return scale
