"""The two featurizers.

Riemannian route: average the training windows of each class into
per-class prototype matrices, stack [success prototype; failure
prototype; trial] into a super trial, take its shrunk sample covariance,
and project onto the tangent space at the geometric mean of the training
covariances.  The fit (training windows only) also yields the training
windows' tangent vectors: the Karcher iteration computes them at its
final iterate, bit for bit as the pure transform would, so a fold
transforms only its test windows.  The fitted model is immutable.

Benchmark route: per channel, the mean and standard deviation over four
fixed windows, each feature scaled by its maximum absolute value in the
training set.

Each route's rows are computed once per dataset (:func:`riemann_windows`,
a view of the samples, and :func:`benchmark_features`), by the caller of
:func:`evaluation.run_cv` and :func:`evaluation.chance_level`, and every fold
indexes them: a row depends on its own epoch alone.  Computing the rows
checks the route's windows.

A featurizer's fit (the class prototypes, the Karcher mean, the benchmark
scale) is bit-identical under any permutation of the training epochs (means
summed in the order of the addends' bytes, max-based scaling).  The
classifier fitted to its rows is not: a fold gives it them in index order.

Memory: the super trials and their covariances are made a block of
epochs at a time (:func:`parallel.map_blocks`) into one preallocated
``(n, 3c, 3c)`` array, and the manifold passes are blockwise too.  So a
fit holds the training covariances and their tangent logs, then the logs
and their vectors, plus a few blocks; a transform holds the test
covariances and their vectors, plus a few blocks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import manifold, parallel
from .errors import DegenerateTrainingSet, DimMismatch, EmptyInput, InvalidWindow, NotPositiveDefinite
from .labels import FAILURE, SUCCESS
from .preprocessing import EpochSet, _window_slice

RIEMANN_WINDOW = (0.100, 0.600)
BENCHMARK_WINDOWS = ((0.100, 0.200), (0.200, 0.300), (0.300, 0.400), (0.400, 0.600))
DEFAULT_SHRINKAGE = 0.01
SUPER_TRIAL_ROWS = 3  # per channel: [success prototype; failure prototype; trial]


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
    prototypes: PrototypePair
    reference: np.ndarray  # (3c, 3c) geometric mean of training covariances
    shrinkage: float
    train_features: np.ndarray  # (n_train, D(D+1)/2), rows in training order


def check_shrinkage(shrinkage: float) -> None:
    """Reject a shrinkage outside [0, 1)."""
    if not 0.0 <= shrinkage < 1.0:
        raise ValueError(f"shrinkage must be in [0, 1), got {shrinkage}")


def check_covariance_shape(d: int, w: int, shrinkage: float) -> None:
    """Reject a shrinkage outside [0, 1), and fewer samples ``w`` than a shrunk
    covariance of ``d`` rows needs to be SPD: 2, or ``d + 1`` without
    shrinkage, as the centred rows span at most ``w - 1`` dimensions."""
    check_shrinkage(shrinkage)
    need = 2 if shrinkage > 0.0 else d + 1
    if w < need:
        raise InvalidWindow(f"a {d}x{d} covariance at shrinkage {shrinkage} needs at least "
                            f"{need} samples, got {w}")


def _covariances(stack: np.ndarray, shrinkage: float,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Shrunk sample covariances of a stack of (d, w) matrices -> (n, d, d),
    computed in ``out`` when given.

    C = (1 - s) * Xc Xc' / (w - 1) + s * mu * I   with mu = trace / d.
    Eigenvalues of C are bounded below by s * mu, so the result is SPD for
    s > 0 whenever the input is nonzero.
    """
    stack = np.asarray(stack, dtype=np.float64)
    d, w = stack.shape[-2], stack.shape[-1]
    check_covariance_shape(d, w, shrinkage)
    xc = stack - stack.mean(axis=-1, keepdims=True)
    cov = np.matmul(xc, xc.swapaxes(-1, -2), out=out)
    cov /= w - 1
    cov += cov.swapaxes(-1, -2)  # numpy buffers the overlapping operand
    cov *= 0.5
    mu = np.trace(cov, axis1=-2, axis2=-1) / d
    if shrinkage > 0.0:
        if np.any(mu <= 0.0):
            raise NotPositiveDefinite("zero covariance cannot be shrunk to SPD")
        cov *= 1.0 - shrinkage
        # adds s * mu on the diagonal and +0.0 off it, as the whole-array sum did
        cov += shrinkage * mu[..., None, None] * np.eye(d)
    else:
        eig = np.linalg.eigvalsh(cov)
        floor = eig[..., -1] * d * 1e-12
        if np.any(eig[..., 0] <= floor) or np.any(eig[..., -1] <= 0.0):
            raise NotPositiveDefinite(
                "sample covariance is singular or near-singular; raise the shrinkage"
            )
    return cov


def _sample_window(es: EpochSet, window: tuple[float, float]) -> slice:
    """The samples of ``window`` (seconds) in every epoch: at least 2, as a
    covariance and an n-1 standard deviation need."""
    settings = f"manifest fs_hz {es.fs_hz}, t0_offset_s {es.t0_offset_s}"
    sl = _window_slice(es.fs_hz, es.t0_offset_s, es.n_samples, window, "window", settings)
    if sl.stop - sl.start < 2:
        raise InvalidWindow(f"window {list(window)} s has fewer than 2 samples ({settings})")
    return sl


def riemann_windows(es: EpochSet) -> np.ndarray:
    """The :data:`RIEMANN_WINDOW` of every epoch, an (n, n_channels, n_window) view."""
    return es.data[:, :, _sample_window(es, RIEMANN_WINDOW)]


def fit_prototypes(windows: np.ndarray, labels: np.ndarray) -> PrototypePair:
    """Per-class mean ERPs of the training windows, labelled by ``labels``."""
    labels = np.asarray(labels)
    if labels.shape != windows.shape[:1]:
        raise DimMismatch(f"{len(labels)} labels for {len(windows)} windows")
    counts = {int(c): int(n) for c, n in zip(*np.unique(labels, return_counts=True))}
    if counts.get(SUCCESS, 0) == 0 or counts.get(FAILURE, 0) == 0:
        raise DegenerateTrainingSet(f"need both classes in training data, got {counts}")
    return PrototypePair(
        proto_success=manifold.canonical_mean(windows[labels == SUCCESS]),
        proto_failure=manifold.canonical_mean(windows[labels == FAILURE]),
    )


def fit_riemann(
    train: np.ndarray,
    labels: np.ndarray,
    shrinkage: float = DEFAULT_SHRINKAGE,
    mean_tol: float = manifold.DEFAULT_MEAN_TOL,
    mean_max_iter: int = manifold.DEFAULT_MEAN_MAX_ITER,
) -> RiemannModel:
    """Fit prototypes and the tangent-space reference point on training windows only.

    ``train_features`` equals ``transform_riemann_set(model, train)``.
    """
    protos = fit_prototypes(train, labels)
    karcher = manifold.geometric_mean(_covariance_set(train, protos, shrinkage),
                                      tol=mean_tol, max_iter=mean_max_iter)
    return RiemannModel(protos, karcher.mean, shrinkage, manifold.vectorize_sym(karcher.logs))


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


def _covariance_set(windows: np.ndarray, protos: PrototypePair, shrinkage: float) -> np.ndarray:
    """Shrunk covariances of the super trials of ``windows``, (n, 3c, 3c),
    made a block of epochs at a time: no (n, 3c, n_window) stack is held."""
    n, d, w = len(windows), SUPER_TRIAL_ROWS * protos.n_channels, windows.shape[-1]

    def covariances(sl: slice, out: np.ndarray) -> None:
        _covariances(_super_trials(windows[sl], protos), shrinkage, out=out)

    # at least one block, so that an empty set is checked as any other
    return parallel.map_blocks(covariances, max(n, 1), 8 * d * max(d, w), (n, d, d))


def transform_riemann_set(model: RiemannModel, windows: np.ndarray) -> np.ndarray:
    """Tangent feature vectors of a stack of windows, (n, D(D+1)/2)."""
    covs = _covariance_set(windows, model.prototypes, model.shrinkage)
    return manifold.tangent_project(covs, model.reference)


def benchmark_features(es: EpochSet) -> np.ndarray:
    """Unscaled features of every epoch over the :data:`BENCHMARK_WINDOWS`,
    (n, n_channels * n_windows * 2).

    Layout is channel-major, window-minor, with (mean, std) innermost; std
    uses the n-1 denominator.  Each row depends on its own epoch only, so
    the rows of a subset equal the subset of the rows bit for bit.  Each
    window's samples are upcast to float64 as it is cut.
    """
    n, c, _ = es.data.shape
    feats = np.empty((n, c, len(BENCHMARK_WINDOWS), 2))
    for w, window in enumerate(BENCHMARK_WINDOWS):
        seg = es.data[:, :, _sample_window(es, window)].astype(np.float64)
        feats[:, :, w, 0] = seg.mean(axis=-1)
        feats[:, :, w, 1] = seg.std(axis=-1, ddof=1)
    return feats.reshape(n, c * len(BENCHMARK_WINDOWS) * 2)


def max_abs_scale(train_feats: np.ndarray) -> np.ndarray:
    """Each feature's max absolute value over the training rows (0 -> 1)."""
    if len(train_feats) == 0:
        raise EmptyInput("cannot fit a scale on no training rows")
    scale = np.abs(train_feats).max(axis=0)
    scale[scale == 0.0] = 1.0
    return scale
