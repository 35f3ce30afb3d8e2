"""The evaluation protocol.

Stratified 10-by-10-fold cross-validation, the variance-corrected paired
t-test for overlapping CV training sets, a cross-dataset permutation test
on summed median-accuracy differences, and shuffle-based chance-level
estimation (benchmark pipeline only).

Folds are independent jobs.  ``run_cv`` and ``chance_level`` each compute
the method's rows once and map one job per (labelling, repeat, fold) over
them with :func:`parallel.map_jobs`: in this process at one worker, else
on forked worker processes.  The workers inherit the rows, labels, plans
and hyperparameters in memory and send back only each fold's accuracy and
classifier convergence.  Results are placed by job index, so they do not
depend on the worker count.
"""
from __future__ import annotations

import functools
import logging
# ThreadPoolExecutor runs nothing here; bench/tracer.py:204 rebinds it, so
# the name stays bound until that line goes.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass

import numpy as np

from . import features, logreg, manifold, parallel
from .errors import (
    EmptyInput,
    ErrpkitError,
    InsufficientData,
    InvalidWindow,
    NumericalFailure,
    PlanMismatch,
)
from .preprocessing import EpochSet, check_window

logger = logging.getLogger(__name__)

METHODS = ("riemann", "benchmark")


@dataclass(frozen=True)
class FoldPlan:
    """Stratified fold assignments for r repeats of k-fold CV.

    Per repeat, fold sizes differ by at most one and per-class fold counts
    are within one of perfect stratification.  Fully determined by ``seed``.
    """

    n_epochs: int
    k: int
    r: int
    assignments: np.ndarray  # (r, n_epochs) fold indices
    seed: int

    def same_as(self, other: "FoldPlan") -> bool:
        return (
            self.n_epochs == other.n_epochs
            and self.k == other.k
            and self.r == other.r
            and self.seed == other.seed
            and np.array_equal(self.assignments, other.assignments)
        )


@dataclass(frozen=True)
class CVResult:
    method: str
    accuracies: np.ndarray  # (r * k,), repeat-major
    plan: FoldPlan


@dataclass(frozen=True)
class TTestResult:
    t: float
    p: float
    df: int
    mean_diff: float


@dataclass(frozen=True)
class PermTestResult:
    observed_metric: float
    z: float
    p: float
    n_permutations: int
    null_mean: float
    null_std: float


@dataclass(frozen=True)
class ChanceLevel:
    mean_accuracy: float
    threshold_97_5: float
    n_shuffles: int
    per_shuffle_mean_accuracies: np.ndarray


@dataclass(frozen=True)
class Hyperparams:
    """Featurizer and classifier settings shared by both pipelines.

    Field names are config keys: ``config.DEFAULTS`` takes its entries for
    them from these defaults.
    """

    riemann_window_s: tuple[float, float] = features.RIEMANN_WINDOW
    shrinkage: float = features.DEFAULT_SHRINKAGE
    benchmark_windows_s: tuple = features.BENCHMARK_WINDOWS
    reg_c: float = logreg.DEFAULT_REG_C
    clf_tol: float = logreg.DEFAULT_TOL
    clf_max_iter: int = logreg.DEFAULT_MAX_ITER
    mean_tol: float = manifold.DEFAULT_MEAN_TOL
    mean_max_iter: int = manifold.DEFAULT_MEAN_MAX_ITER

    def __post_init__(self):
        check_window("riemann_window_s", self.riemann_window_s)
        if not self.benchmark_windows_s:
            raise InvalidWindow("benchmark_windows_s must hold at least one window")
        for i, window in enumerate(self.benchmark_windows_s):
            check_window(f"benchmark_windows_s[{i}]", window)


def derive_seed(*parts) -> int:
    """Stable child seed from integer parts (order-sensitive)."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def normal_two_sided_p(z: float) -> float:
    """Two-sided tail probability of a standard normal at |z|."""
    from scipy.special import erfc  # imported on use: it is a slow import

    return float(erfc(abs(z) / np.sqrt(2.0)))


def t_two_sided_p(t: float, df: int) -> float:
    """Two-sided tail probability of Student's t with ``df`` degrees of freedom."""
    from scipy.special import stdtr

    return float(2.0 * stdtr(df, -abs(t)))


def make_fold_plan(labels, k: int = 10, r: int = 10, seed: int = 0) -> FoldPlan:
    """Stratified assignments, reproducible from ``seed``."""
    labels = np.asarray(labels)
    n = labels.size
    if k < 2:
        raise ValueError("k must be at least 2")
    if r < 1:
        raise ValueError(f"need at least 1 repeat, got r={r}")
    classes, counts = np.unique(labels, return_counts=True)
    if n == 0 or counts.min() < k:
        raise InsufficientData(
            f"every class needs at least k={k} epochs, got counts {dict(zip(classes.tolist(), counts.tolist()))}"
        )
    rng = np.random.default_rng(seed)
    assignments = np.empty((r, n), dtype=np.int64)
    for rep in range(r):
        load = np.zeros(k, dtype=np.int64)  # extra epochs already given to each fold
        fold_of = np.empty(n, dtype=np.int64)
        for cls in classes:
            idx = rng.permutation(np.flatnonzero(labels == cls))
            base, rem = divmod(idx.size, k)
            tiebreak = rng.permutation(k)
            extra_folds = np.lexsort((tiebreak, load))[:rem]
            per_fold = np.full(k, base, dtype=np.int64)
            per_fold[extra_folds] += 1
            load[extra_folds] += 1
            stops = np.cumsum(per_fold)
            starts = stops - per_fold
            for f in range(k):
                fold_of[idx[starts[f] : stops[f]]] = f
        assignments[rep] = fold_of
    return FoldPlan(n, k, r, assignments, seed)


def _canonical_order(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Deterministic sample order that depends only on the (feature, label) multiset."""
    key = np.ascontiguousarray(
        np.concatenate([np.asarray(y, dtype=np.float64)[:, None], x], axis=1)
    )
    as_bytes = key.view(np.dtype((np.void, key.shape[1] * key.itemsize))).ravel()
    return np.argsort(as_bytes, kind="stable")


def _fit_transform(rows: np.ndarray, labels: np.ndarray, method: str, tr_idx: np.ndarray,
                   te_idx: np.ndarray, hp: Hyperparams):
    """Training and test features of one fold, from the rows ``run_cv``
    computed for the whole dataset: riemann windows, or benchmark features
    divided by the training rows' scale."""
    if method == "riemann":
        model = features.fit_riemann(
            rows[tr_idx], labels[tr_idx], shrinkage=hp.shrinkage,
            mean_tol=hp.mean_tol, mean_max_iter=hp.mean_max_iter,
        )
        return model.train_features, features.transform_riemann_set(model, rows[te_idx])
    raw_tr = rows[tr_idx]
    scale = features.max_abs_scale(raw_tr)
    return raw_tr / scale, rows[te_idx] / scale


def _run_fold(rows: np.ndarray, labels: np.ndarray, method: str, plan: FoldPlan, rep: int,
              fold: int, hp: Hyperparams) -> tuple[float, logreg.LogisticModel]:
    """Accuracy and fitted classifier of one fold."""
    mask = plan.assignments[rep] == fold
    te_idx = np.flatnonzero(mask)
    tr_idx = np.flatnonzero(~mask)
    ytr, yte = labels[tr_idx], labels[te_idx]
    try:
        xtr, xte = _fit_transform(rows, labels, method, tr_idx, te_idx, hp)
        order = _canonical_order(xtr, ytr)
        clf = logreg.fit(xtr[order], ytr[order], reg_c=hp.reg_c,
                         tol=hp.clf_tol, max_iter=hp.clf_max_iter)
        pred = logreg.predict(clf, xte)
    except ErrpkitError as exc:
        raise type(exc)(f"(repeat {rep}, fold {fold}): {exc}") from exc
    return float(np.mean(pred == yte)), clf


@dataclass(frozen=True)
class _FoldJobs:
    """Every fold of one call, over rows computed once.  Job ``i`` is fold
    ``i % (r * k)`` (repeat-major) under ``labels[s]`` and ``plans[s]``,
    where ``s = i // (r * k)``; every plan has the same ``k`` and ``r``."""

    rows: np.ndarray
    method: str
    labels: tuple
    plans: tuple
    hp: Hyperparams

    def __len__(self) -> int:
        return len(self.plans) * self.plans[0].r * self.plans[0].k


def _run_job(jobs: _FoldJobs, i: int) -> tuple[float, bool, float]:
    """Accuracy, classifier convergence and final gradient norm of job ``i``."""
    plan = jobs.plans[0]
    s, j = divmod(i, plan.r * plan.k)
    rep, fold = divmod(j, plan.k)
    acc, clf = _run_fold(jobs.rows, jobs.labels[s], jobs.method, jobs.plans[s], rep, fold, jobs.hp)
    return acc, clf.converged, clf.final_grad_norm


def _fold_accuracies(jobs: _FoldJobs, n_workers: int, name: str) -> np.ndarray:
    """Accuracy of every job, one row per labelling, on at most ``n_workers``
    processes: in this process when only one would run.  Non-converged
    classifier fits are counted in one WARNING."""
    n = len(jobs)
    if parallel.workers_for(n_workers, n) > 1:
        import scipy.special  # noqa: F401  # loaded before the fork, else every worker imports it
    results = parallel.map_jobs(functools.partial(_run_job, jobs), n, n_workers, "fold")
    accs, converged, grad_norms = (np.array(col) for col in zip(*results))
    if not converged.all():
        logger.warning(
            "%s: the classifier did not converge in %d of %d folds "
            "(largest final gradient norm %.3e, tol %.1e)",
            name, np.count_nonzero(~converged), n, grad_norms[~converged].max(), jobs.hp.clf_tol,
        )
    return accs.reshape(len(jobs.plans), -1)


def run_cv(dataset: EpochSet, method: str, plan: FoldPlan,
           hyperparams: Hyperparams | None = None, n_workers: int = 1) -> CVResult:
    """Fit on each training split, score accuracy on the held-out fold.

    The method's rows (riemann windows or benchmark features) are computed
    once per call; each fold indexes them.  Folds run on up to
    ``n_workers`` processes (see the module docstring) and are placed by
    (repeat, fold) index, so the output is identical for any ``n_workers``.
    Folds whose classifier fit did not converge are counted in one WARNING
    per call; they still count.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if plan.n_epochs != len(dataset):
        raise PlanMismatch(f"plan covers {plan.n_epochs} epochs, dataset has {len(dataset)}")
    hp = hyperparams or Hyperparams()
    rows = (features.riemann_windows(dataset, hp.riemann_window_s) if method == "riemann"
            else features.benchmark_features(dataset, windows=hp.benchmark_windows_s))
    jobs = _FoldJobs(rows, method, (dataset.labels,), (plan,), hp)
    return CVResult(method, _fold_accuracies(jobs, n_workers, method)[0], plan)


def corrected_t_test(a: CVResult, b: CVResult) -> TTestResult:
    """Paired t-test with the resampling variance correction (1/n + n_test/n_train).

    The test/train ratio is fixed at (1/k)/(1 - 1/k) regardless of the
    plus/minus-one fold-size jitter.
    """
    if not a.plan.same_as(b.plan):
        raise PlanMismatch("CV results were produced under different fold plans")
    d = a.accuracies - b.accuracies
    n = d.size
    mean_diff = float(d.mean())
    var = float(d.var(ddof=1))
    df = n - 1
    ratio = 1.0 / (a.plan.k - 1)
    if var == 0.0:
        if mean_diff == 0.0:
            return TTestResult(t=0.0, p=1.0, df=df, mean_diff=0.0)
        t = np.inf if mean_diff > 0 else -np.inf
        return TTestResult(t=float(t), p=0.0, df=df, mean_diff=mean_diff)
    t = mean_diff / np.sqrt(var * (1.0 / n + ratio))
    return TTestResult(t=float(t), p=t_two_sided_p(t, df), df=df, mean_diff=mean_diff)


def permutation_test(per_participant, n_perm: int = 1000, seed: int = 0) -> PermTestResult:
    """Sum over datasets of (median a - median b), z-scored against a null
    built by independently swapping the two methods' accuracy sets within
    each dataset.

    When the medians tie on every dataset, every swap gives 0, and the
    result is observed 0, z 0, p 1 with a null of mean 0 and std 0.
    """
    pairs = list(per_participant)
    if not pairs:
        raise EmptyInput("permutation test needs at least one dataset")
    if n_perm < 100:
        raise ValueError("need at least 100 permutations")
    diffs = np.array([
        float(np.median(a.accuracies)) - float(np.median(b.accuracies)) for a, b in pairs
    ])
    if not diffs.any():
        # every sign pattern sums to 0: no evidence either way
        return PermTestResult(0.0, 0.0, 1.0, n_perm, 0.0, 0.0)
    observed = float(diffs.sum())
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(n_perm, diffs.size)) * 2.0 - 1.0
    nulls = signs @ diffs
    null_mean = float(nulls.mean())
    null_std = float(nulls.std(ddof=1))
    if null_std == 0.0:
        raise NumericalFailure(
            "null distribution has zero variance although the methods' accuracy "
            "medians differ"
        )
    z = (observed - null_mean) / null_std
    return PermTestResult(observed, float(z), normal_two_sided_p(z), n_perm, null_mean, null_std)


def chance_level(dataset: EpochSet, plan_seed: int, n_shuffles: int = 100,
                 k: int = 10, r: int = 10, hyperparams: Hyperparams | None = None,
                 n_workers: int = 1) -> ChanceLevel:
    """Label-shuffle chance estimate using the benchmark pipeline.

    Each shuffle permutes the labels, draws a fresh stratified plan, runs
    the full CV and records the mean accuracy; the threshold is the 97.5th
    percentile (linear interpolation) of those means.  Benchmark features
    do not depend on the labels, so they are computed once, and every
    (shuffle, repeat, fold) is one job on up to ``n_workers`` processes.
    Non-converged classifier fits are counted in one WARNING per call.
    """
    if n_shuffles < 1:
        raise ValueError(f"need at least 1 chance shuffle, got n_shuffles={n_shuffles}")
    hp = hyperparams or Hyperparams()
    labels = [np.random.default_rng([int(plan_seed), s]).permutation(dataset.labels)
              for s in range(n_shuffles)]
    plans = [make_fold_plan(y, k=k, r=r, seed=derive_seed(plan_seed, s, 1))
             for s, y in enumerate(labels)]
    rows = features.benchmark_features(dataset, windows=hp.benchmark_windows_s)
    jobs = _FoldJobs(rows, "benchmark", tuple(labels), tuple(plans), hp)
    means = _fold_accuracies(jobs, n_workers, "chance level").mean(axis=1)
    return ChanceLevel(
        mean_accuracy=float(means.mean()),
        threshold_97_5=float(np.percentile(means, 97.5)),
        n_shuffles=n_shuffles,
        per_shuffle_mean_accuracies=means,
    )
