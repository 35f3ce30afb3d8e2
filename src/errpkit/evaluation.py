"""The evaluation protocol.

Stratified 10-by-10-fold cross-validation, the variance-corrected paired
t-test for overlapping CV training sets, a cross-dataset permutation test
on summed median-accuracy differences, and shuffle-based chance-level
estimation (benchmark pipeline only).
"""
from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import features, logreg, manifold
from .errors import (
    EmptyInput,
    ErrpkitError,
    InsufficientData,
    NumericalFailure,
    PlanMismatch,
)
from .preprocessing import EpochSet

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


def _run_indexed(fn, n: int, n_threads: int) -> None:
    """Call ``fn(i)`` for every i < n: in order on one thread, else on a pool."""
    if n_threads < 1:
        raise ValueError(f"n_threads must be at least 1, got {n_threads}")
    if n_threads == 1:
        for i in range(n):
            fn(i)
    else:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(fn, range(n)))


def _canonical_order(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Deterministic sample order that depends only on the (feature, label) multiset."""
    key = np.ascontiguousarray(
        np.concatenate([np.asarray(y, dtype=np.float64)[:, None], x], axis=1)
    )
    as_bytes = key.view(np.dtype((np.void, key.shape[1] * key.itemsize))).ravel()
    return np.argsort(as_bytes, kind="stable")


def _fit_transform(dataset: EpochSet, method: str, tr_idx: np.ndarray,
                   te_idx: np.ndarray, hp: Hyperparams, bench_raw: np.ndarray | None):
    """Training and test features of one fold; the benchmark route indexes the
    rows of ``bench_raw`` and divides them by the training rows' scale."""
    if method == "riemann":
        # both copies before the fit: a test copy made after the fit's
        # temporaries were freed raised a desk compare's peak RSS by 10 MB
        train, test = dataset.subset(tr_idx), dataset.subset(te_idx)
        model = features.fit_riemann(
            train, window=hp.riemann_window_s, shrinkage=hp.shrinkage,
            mean_tol=hp.mean_tol, mean_max_iter=hp.mean_max_iter,
        )
        return model.train_features, features.transform_riemann_set(model, test)
    raw_tr = bench_raw[tr_idx]
    scale = features.max_abs_scale(raw_tr)
    return raw_tr / scale, bench_raw[te_idx] / scale


def _run_fold(dataset: EpochSet, method: str, plan: FoldPlan, rep: int, fold: int,
              hp: Hyperparams, bench_raw) -> tuple[float, logreg.LogisticModel]:
    """Accuracy and fitted classifier of one fold."""
    mask = plan.assignments[rep] == fold
    te_idx = np.flatnonzero(mask)
    tr_idx = np.flatnonzero(~mask)
    ytr, yte = dataset.labels[tr_idx], dataset.labels[te_idx]
    try:
        xtr, xte = _fit_transform(dataset, method, tr_idx, te_idx, hp, bench_raw)
        order = _canonical_order(xtr, ytr)
        clf = logreg.fit(xtr[order], ytr[order], reg_c=hp.reg_c,
                         tol=hp.clf_tol, max_iter=hp.clf_max_iter)
        pred = logreg.predict(clf, xte)
    except ErrpkitError as exc:
        raise type(exc)(f"(repeat {rep}, fold {fold}): {exc}") from exc
    return float(np.mean(pred == yte)), clf


def run_cv(dataset: EpochSet, method: str, plan: FoldPlan,
           hyperparams: Hyperparams | None = None, n_threads: int = 1) -> CVResult:
    """Fit on each training split, score accuracy on the held-out fold.

    The benchmark features are computed once per call; each fold indexes
    their rows.  Results are placed by (repeat, fold) index, so the output
    is identical for any ``n_threads``.  Folds whose classifier fit did not
    converge are counted in one WARNING per call; they still count.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if plan.n_epochs != len(dataset):
        raise PlanMismatch(f"plan covers {plan.n_epochs} epochs, dataset has {len(dataset)}")
    hp = hyperparams or Hyperparams()
    bench_raw = (features.benchmark_features(dataset, windows=hp.benchmark_windows_s)
                 if method == "benchmark" else None)
    jobs = [(rep, fold) for rep in range(plan.r) for fold in range(plan.k)]
    accs = np.empty(len(jobs))
    clfs = [None] * len(jobs)

    def run(i: int) -> None:
        rep, fold = jobs[i]
        accs[i], clfs[i] = _run_fold(dataset, method, plan, rep, fold, hp, bench_raw)

    _run_indexed(run, len(jobs), n_threads)
    failed = [clf.final_grad_norm for clf in clfs if not clf.converged]
    if failed:
        logger.warning(
            "%s: the classifier did not converge in %d of %d folds "
            "(largest final gradient norm %.3e, tol %.1e)",
            method, len(failed), len(jobs), max(failed), hp.clf_tol,
        )
    return CVResult(method, accs, plan)


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
                 n_threads: int = 1) -> ChanceLevel:
    """Label-shuffle chance estimate using the benchmark pipeline.

    Each shuffle permutes the labels, draws a fresh stratified plan, runs
    the full CV and records the mean accuracy; the threshold is the 97.5th
    percentile (linear interpolation) of those means.
    """
    if n_shuffles < 1:
        raise ValueError(f"need at least 1 chance shuffle, got n_shuffles={n_shuffles}")
    means = np.empty(n_shuffles)

    def one(s: int) -> None:
        rng = np.random.default_rng([int(plan_seed), s])
        shuffled = replace(dataset, labels=rng.permutation(dataset.labels))
        plan = make_fold_plan(shuffled.labels, k=k, r=r, seed=derive_seed(plan_seed, s, 1))
        res = run_cv(shuffled, "benchmark", plan, hyperparams)
        means[s] = res.accuracies.mean()

    _run_indexed(one, n_shuffles, n_threads)
    return ChanceLevel(
        mean_accuracy=float(means.mean()),
        threshold_97_5=float(np.percentile(means, 97.5)),
        n_shuffles=n_shuffles,
        per_shuffle_mean_accuracies=means,
    )
