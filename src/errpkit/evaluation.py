"""The evaluation protocol.

Stratified 10-by-10-fold cross-validation, the variance-corrected paired
t-test for overlapping CV training sets, a cross-dataset permutation test
on summed median-accuracy differences (its sign-flip null in closed form),
and shuffle-based chance-level estimation (benchmark pipeline only).  The
t and normal tails are computed here from the ``math`` module, so
evaluation loads no scipy module.

Folds are independent.  ``run_cv`` and ``chance_level`` take a method's
rows for the whole dataset, made once by the caller: the riemann windows
(:func:`features.riemann_windows`, an ``(n, c, w)`` view) or the benchmark
features (:func:`features.benchmark_features`, ``(n, p)``).  They compute no
features of their own, and map jobs over the rows with
:func:`parallel.map_jobs`: in this process at one worker, else on forked
worker processes.  A job is a block of :func:`parallel.blocks` of
consecutive folds of one repeat of one labelling, whose items are the
folds' training features, and it runs in two functions: :func:`_fold_split`
featurizes one fold, and :func:`_run_folds` makes the block's splits, fits
the classifiers of its folds of equal training shape as one stack with
:func:`logreg.fit_many`, which gives each the bits of its own fit, and
scores them.  The workers inherit the rows, labels, plans and
hyperparameters in memory and send back only each fold's accuracy and
classifier convergence.  Results are placed by job index, and jobs do not
depend on the worker count, so neither do the results.
"""
from __future__ import annotations

import itertools
import logging
import math
# ThreadPoolExecutor runs nothing here; bench/tracer.py:204 rebinds it, so
# the name stays bound until that line goes.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass

import numpy as np

from . import features, logreg, manifold, parallel
from .errors import (
    DimMismatch,
    EmptyInput,
    ErrpkitError,
    InsufficientData,
    NumericalFailure,
    PlanMismatch,
)

logger = logging.getLogger(__name__)

METHODS = ("riemann", "benchmark")
# the number of dimensions of each method's rows, and their names
_ROW_SHAPES = {"riemann": (3, "(n, c, w)"), "benchmark": (2, "(n, p)")}

# Lentz's guard against a zero denominator, the relative change at which the
# fraction has converged, and its term limit (it needs O(sqrt(df)) terms).
_CF_TINY = 1e-300
_CF_EPS = 2.0 ** -52
_CF_MAX_TERMS = 100_000


@dataclass(frozen=True)
class FoldPlan:
    """Stratified fold assignments for r repeats of k-fold CV.

    Per repeat, fold sizes differ by at most one and per-class fold counts
    are within one of perfect stratification.  Fully determined by ``seed``.
    ``r`` and ``n_epochs`` are the shape of ``assignments``.
    """

    k: int
    assignments: np.ndarray  # (r, n_epochs) fold indices
    seed: int

    @property
    def r(self) -> int:
        return self.assignments.shape[0]

    @property
    def n_epochs(self) -> int:
        return self.assignments.shape[1]

    def same_as(self, other: "FoldPlan") -> bool:
        """Equal ``k``, ``seed`` and assignments, whose shape is (r, n_epochs)."""
        return ((self.k, self.seed) == (other.k, other.seed)
                and np.array_equal(self.assignments, other.assignments))


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

    The analysis windows and the classifier's stopping rule are constants of
    :mod:`features` and :mod:`logreg`.  Field names are config keys:
    ``config.DEFAULTS`` takes its entries for them from these defaults.
    """

    shrinkage: float = features.DEFAULT_SHRINKAGE
    reg_c: float = logreg.DEFAULT_REG_C
    mean_tol: float = manifold.DEFAULT_MEAN_TOL
    mean_max_iter: int = manifold.DEFAULT_MEAN_MAX_ITER

    def __post_init__(self):
        features.check_shrinkage(self.shrinkage)
        if self.mean_max_iter < 1:
            raise ValueError(f"mean_max_iter must be at least 1, got {self.mean_max_iter}")
        for key in ("reg_c", "mean_tol"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be positive, got {getattr(self, key)}")


def derive_seed(*parts) -> int:
    """Stable child seed from integer parts (order-sensitive)."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def normal_two_sided_p(z: float) -> float:
    """Two-sided tail probability of a standard normal at |z|."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction ``1 / (1 + d_1 / (1 + d_2 / (1 + ...)))`` of the
    regularized incomplete beta function, ``I_x(a, b) = x^a (1 - x)^b / (a B(a,
    b))`` times it, by the modified Lentz method on its reciprocal.  It
    converges fast for x < (a + 1) / (a + b + 2)."""
    f, c, d = 1.0, 1.0, 0.0
    for j in range(1, _CF_MAX_TERMS):
        m = j // 2
        if j % 2:
            coef = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        else:
            coef = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        d = 1.0 + coef * d
        d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
        c = 1.0 + coef / c
        c = c if abs(c) > _CF_TINY else _CF_TINY
        f *= c * d
        if abs(c * d - 1.0) <= _CF_EPS:
            return 1.0 / f
    raise NumericalFailure(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def t_two_sided_p(t: float, df: int) -> float:
    """Two-sided tail probability of Student's t with ``df`` degrees of freedom.

    That is ``I_x(df/2, 1/2)`` at ``x = df / (df + t^2)``, from the
    continued fraction where it converges and as ``1 - I_{1-x}(1/2, df/2)``
    elsewhere, where the tail is above about 0.08.  ``df`` is an integer of
    at least 1, so ``B(df/2, 1/2)`` follows by recurrence from ``B(1/2, 1/2)
    = pi`` or ``B(1, 1/2) = 2``.  For df up to 9,999 this agrees with ``2 *
    scipy.special.stdtr(df, -|t|)`` to 1e-12 relative wherever that is
    above 1e-300.
    """
    t = abs(t)
    if t == 0.0:
        return 1.0
    if t == math.inf:
        return 0.0
    a, b = 0.5 * df, 0.5
    r = t / math.sqrt(df)  # x = 1 / (1 + r^2), in logs so that r^2 cannot overflow
    log_inv_x = math.log1p(r * r) if r < 1e150 else 2.0 * math.log(r)
    log_x, log_1mx = -log_inv_x, 2.0 * math.log(r) - log_inv_x
    a0 = 0.5 if df % 2 else 1.0
    beta = math.pi if df % 2 else 2.0
    for k in range((df - 1) // 2):
        beta *= (a0 + k) / (a0 + k + 0.5)  # B(a + 1, 1/2) = B(a, 1/2) a / (a + 1/2)
    front = math.exp(a * log_x + b * log_1mx) / beta
    x = math.exp(log_x)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, math.exp(log_1mx)) / b


def make_fold_plan(labels, k: int, r: int, seed: int = 0) -> FoldPlan:
    """Stratified assignments, reproducible from ``seed``, of labels that hold
    two classes of at least ``k`` epochs each: every training set holds both."""
    labels = np.asarray(labels)
    n = labels.size
    if k < 2:
        raise ValueError("k must be at least 2")
    if r < 1:
        raise ValueError(f"need at least 1 repeat, got r={r}")
    classes, counts = np.unique(labels, return_counts=True)
    if classes.size < 2:
        raise InsufficientData(f"labels must hold both classes, got {classes.tolist()}")
    if counts.min() < k:
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
    return FoldPlan(k, assignments, seed)


def _canonical_order(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Deterministic sample order that depends only on the (feature, label)
    multiset: by label, then by the features' bytes, without copying them."""
    o = manifold.canonical_order(x)
    return o[np.argsort(y[o], kind="stable")]


def _named(exc: ErrpkitError, rep: int, folds: list[int]) -> ErrpkitError:
    where = f"fold {folds[0]}" if len(folds) == 1 else "folds " + ", ".join(map(str, folds))
    return type(exc)(f"(repeat {rep}, {where}): {exc}")


def _fold_split(rows: np.ndarray, labels: np.ndarray, method: str, plan: FoldPlan, rep: int,
                fold: int, hp: Hyperparams):
    """Training features and labels in canonical order, then test features
    and labels, of fold ``fold`` of repeat ``rep``, from the method's rows of
    the whole dataset: the riemann features of a model fitted to the training
    rows, or the benchmark features divided by the training rows' scale.  A
    feature error raises named by the repeat and the fold."""
    mask = plan.assignments[rep] == fold
    tr_idx, te_idx = np.flatnonzero(~mask), np.flatnonzero(mask)
    ytr, yte = labels[tr_idx], labels[te_idx]
    try:
        if method == "riemann":
            model = features.fit_riemann(rows[tr_idx], ytr, shrinkage=hp.shrinkage,
                                         mean_tol=hp.mean_tol, mean_max_iter=hp.mean_max_iter)
            xtr, xte = model.train_features, features.transform_riemann_set(model, rows[te_idx])
        else:
            raw_tr = rows[tr_idx]
            scale = features.max_abs_scale(raw_tr)
            xtr, xte = raw_tr / scale, rows[te_idx] / scale
    except ErrpkitError as exc:
        raise _named(exc, rep, [fold]) from exc
    order = _canonical_order(xtr, ytr)
    return xtr[order], ytr[order], xte, yte


def _run_folds(rows: np.ndarray, labels: np.ndarray, method: str, plan: FoldPlan, rep: int,
               folds: range, hp: Hyperparams) -> list[tuple[float, bool, float]]:
    """Accuracy, classifier convergence and final gradient norm of each of
    ``folds`` of repeat ``rep``.  Their splits are made in fold order by
    :func:`_fold_split`.  Then the splits of equal training shape are fitted
    as one stack by :func:`logreg.fit_many`, in the order of each shape's
    first fold; a failing stack raises named by ``rep`` and its folds."""
    splits = [_fold_split(rows, labels, method, plan, rep, fold, hp) for fold in folds]
    by_shape: dict = {}
    for i, (xtr, *_) in enumerate(splits):
        by_shape.setdefault(xtr.shape, []).append(i)
    results = [None] * len(splits)
    for members in by_shape.values():
        # a lone split's arrays are viewed, not copied
        xtr, ytr = (splits[members[0]][part][None] if len(members) == 1
                    else np.stack([splits[i][part] for i in members]) for part in (0, 1))
        try:
            fitted = logreg.fit_many(xtr, ytr, reg_c=hp.reg_c)
        except ErrpkitError as exc:
            raise _named(exc, rep, [folds[i] for i in members]) from exc
        for i, clf in zip(members, fitted):
            _, _, xte, yte = splits[i]
            results[i] = (float(np.mean(logreg.predict(clf, xte) == yte)), clf.converged,
                          clf.final_grad_norm)
    return results


def _fold_accuracies(rows: np.ndarray, method: str, labels, plans, hp: Hyperparams,
                     n_workers: int, name: str) -> np.ndarray:
    """Accuracy of every fold, one row per labelling ``labels[s]`` under
    ``plans[s]`` (all with the same ``k`` and ``r``), on at most ``n_workers``
    processes: in this process when only one would run.  A job runs a block
    of folds of one repeat (see the module docstring).  Non-converged
    classifier fits are counted in one WARNING."""
    r, k, n = plans[0].r, plans[0].k, plans[0].n_epochs
    width = (manifold.tangent_dim(features.SUPER_TRIAL_ROWS * rows.shape[1])
             if method == "riemann" else rows.shape[1])
    groups = parallel.blocks(k, 8 * (n - n // k) * width)  # items: the largest training set

    def job(i: int) -> list[tuple[float, bool, float]]:
        s, j = divmod(i, r * len(groups))
        rep, g = divmod(j, len(groups))
        return _run_folds(rows, labels[s], method, plans[s], rep, range(k)[groups[g]], hp)

    results = parallel.map_jobs(job, len(plans) * r * len(groups), n_workers, "fold")
    accs, converged, grad_norms = (np.array(col) for col in zip(*itertools.chain(*results)))
    if not converged.all():
        logger.warning(
            "%s: the classifier did not converge in %d of %d folds "
            "(largest final gradient norm %.3e, tol %.1e)",
            name, np.count_nonzero(~converged), converged.size, grad_norms[~converged].max(),
            logreg.DEFAULT_TOL,
        )
    return accs.reshape(len(plans), -1)


def _check_rows(rows: np.ndarray, labels: np.ndarray, method: str) -> None:
    """Raise unless ``rows`` have the dimensions of ``method``'s rows and
    ``labels`` hold one label per row."""
    ndim, names = _ROW_SHAPES[method]
    if rows.ndim != ndim:
        raise DimMismatch(f"{method} rows must be {names}, got shape {rows.shape}")
    if labels.shape != rows.shape[:1]:
        raise DimMismatch(f"{labels.size} labels for {len(rows)} rows")


def run_cv(rows: np.ndarray, labels, method: str, plan: FoldPlan,
           hyperparams: Hyperparams | None = None, n_workers: int = 1) -> CVResult:
    """Fit on each training split, score accuracy on the held-out fold.

    ``rows`` are the method's rows of the whole dataset, one per label:
    :func:`features.riemann_windows` for riemann, an ``(n, c, w)`` stack, or
    :func:`features.benchmark_features` for benchmark, ``(n, p)``.  Each fold
    indexes them.  Folds run on up to ``n_workers`` processes (see the
    module docstring) and are placed by (repeat, fold) index, so the output
    is identical for any ``n_workers``.  Folds whose classifier fit did not
    converge are counted in one WARNING per call; they still count.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    rows, labels = np.asarray(rows), np.asarray(labels)
    _check_rows(rows, labels, method)
    if plan.n_epochs != len(rows):
        raise PlanMismatch(f"plan covers {plan.n_epochs} epochs, dataset has {len(rows)}")
    hp = hyperparams or Hyperparams()
    accs = _fold_accuracies(rows, method, [labels], [plan], hp, n_workers, method)
    return CVResult(method, accs[0], plan)


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
    if var > 0.0:
        t = float(mean_diff / np.sqrt(var * (1.0 / n + 1.0 / (a.plan.k - 1))))
    else:  # equal differences: t is 0 or infinite, and p is 1 or 0
        t = math.copysign(math.inf, mean_diff) if mean_diff else 0.0
    return TTestResult(t=t, p=t_two_sided_p(t, df), df=df, mean_diff=mean_diff)


def permutation_test(per_participant) -> PermTestResult:
    """Sum over datasets of d = (median a - median b), z-scored against the
    null of independently swapping the two methods' accuracy sets within each
    dataset.

    Each of the 2^m sign patterns of the m differences is equally likely
    under that null, so the null sum has mean 0 and standard deviation
    sqrt(sum d^2) exactly: z = sum d / sqrt(sum d^2), with p from the
    normal tail.  Both sums are correctly rounded (``math.fsum``), so the
    order of the datasets does not move a bit, and swapping a and b negates
    z exactly.  By Cauchy-Schwarz |z| <= sqrt(m): at m = 7, p is never below
    erfc(sqrt(3.5)), about 0.008.  When the medians tie on every dataset,
    every pattern sums to 0, and z is 0 and p 1.
    """
    pairs = list(per_participant)
    if not pairs:
        raise EmptyInput("permutation test needs at least one dataset")
    diffs = [float(np.median(a.accuracies)) - float(np.median(b.accuracies)) for a, b in pairs]
    observed = math.fsum(diffs)
    null_std = math.sqrt(math.fsum(d * d for d in diffs))
    z = observed / null_std if null_std else 0.0
    return PermTestResult(observed, z, normal_two_sided_p(z), null_std)


def chance_level(rows: np.ndarray, labels, plan_seed: int, n_shuffles: int, k: int, r: int,
                 hyperparams: Hyperparams | None = None, n_workers: int = 1) -> ChanceLevel:
    """Label-shuffle chance estimate using the benchmark pipeline.

    ``rows`` are the dataset's :func:`features.benchmark_features`, one per
    label.  Each shuffle permutes the labels, draws a fresh stratified plan,
    runs the full CV on the same rows, which do not depend on the labels,
    and records the mean accuracy; the threshold is the 97.5th percentile
    (linear interpolation) of those means.  The folds of every shuffle run
    as jobs (see the module docstring) on up to ``n_workers`` processes.
    Non-converged classifier fits are counted in one WARNING per call.
    """
    if n_shuffles < 1:
        raise ValueError(f"need at least 1 chance shuffle, got n_shuffles={n_shuffles}")
    rows, labels = np.asarray(rows), np.asarray(labels)
    _check_rows(rows, labels, "benchmark")
    hp = hyperparams or Hyperparams()
    shuffled = [np.random.default_rng([int(plan_seed), s]).permutation(labels)
                for s in range(n_shuffles)]
    plans = [make_fold_plan(y, k=k, r=r, seed=derive_seed(plan_seed, s, 1))
             for s, y in enumerate(shuffled)]
    means = _fold_accuracies(rows, "benchmark", shuffled, plans, hp, n_workers,
                             "chance level").mean(axis=1)
    return ChanceLevel(
        mean_accuracy=float(means.mean()),
        threshold_97_5=float(np.percentile(means, 97.5)),
        n_shuffles=n_shuffles,
        per_shuffle_mean_accuracies=means,
    )
