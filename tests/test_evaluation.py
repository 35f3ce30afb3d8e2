import concurrent.futures.process
import functools
import itertools
import math
import multiprocessing
import os
import time

import numpy as np
import pytest

from errpkit import evaluation, features, logreg, parallel
from errpkit.errors import (
    DimMismatch,
    ErrpkitError,
    InsufficientData,
    NumericalFailure,
    PlanMismatch,
)
from errpkit.evaluation import (
    CVResult,
    FoldPlan,
    Hyperparams,
    chance_level,
    corrected_t_test,
    derive_seed,
    make_fold_plan,
    normal_two_sided_p,
    permutation_test,
    run_cv,
    t_two_sided_p,
    _fold_split,
)
from errpkit.synth import ErpTemplateSpec, generate_epochs

from conftest import method_rows, subset

TINY = dict(n_channels=3, fs_hz=64.0, pre_s=0.25, post_s=0.75)


def tiny_dataset(seed=0, n=40, frn=-30.0, noise=6.0):
    labels = np.arange(n) % 2
    spec = ErpTemplateSpec(frn_amp_uv=frn, p3a_amp_uv=2.0, noise_rms_uv=noise)
    return generate_epochs(labels, spec, seed=seed, **TINY)


def oracle_accuracy(xtr, ytr, xte, yte, hp):
    """One fold's accuracy from a classifier fitted to that fold alone."""
    clf = logreg.fit(xtr, ytr, reg_c=hp.reg_c)
    return float(np.mean(logreg.predict(clf, xte) == yte))


@pytest.fixture
def one_newton_step(monkeypatch):
    """Fold classifiers fitted in one Newton iteration, which does not converge."""
    monkeypatch.setattr(logreg, "fit_many", functools.partial(logreg.fit_many, max_iter=1))


def synthetic_result(plan, accs, method="riemann"):
    return CVResult(method, np.asarray(accs, dtype=np.float64), plan)


class TestFoldPlan:
    def test_balanced_300_gives_15_per_class(self):
        labels = np.array([0, 1] * 150)
        plan = make_fold_plan(labels, k=10, r=10, seed=1)
        for rep in range(10):
            for fold in range(10):
                members = labels[plan.assignments[rep] == fold]
                assert members.size == 30
                assert (members == 0).sum() == 15
                assert (members == 1).sum() == 15

    def test_unbalanced_299_within_one_of_perfect(self):
        labels = np.array([0, 1] * 149 + [0])
        plan = make_fold_plan(labels, k=10, r=5, seed=2)
        for rep in range(5):
            sizes = np.bincount(plan.assignments[rep], minlength=10)
            assert sizes.max() - sizes.min() <= 1
            for fold in range(10):
                members = labels[plan.assignments[rep] == fold]
                assert abs((members == 0).sum() - 15.0) <= 1.0
                assert abs((members == 1).sum() - 14.9) <= 1.0

    def test_folds_partition_each_repeat(self):
        labels = np.arange(37) % 2
        plan = make_fold_plan(labels, k=4, r=3, seed=3)
        for rep in range(3):
            assert np.isin(plan.assignments[rep], np.arange(4)).all()
            assert np.bincount(plan.assignments[rep], minlength=4).sum() == 37

    def test_same_seed_identical(self):
        labels = np.arange(50) % 2
        p1 = make_fold_plan(labels, k=5, r=4, seed=9)
        p2 = make_fold_plan(labels, k=5, r=4, seed=9)
        assert np.array_equal(p1.assignments, p2.assignments)
        assert p1.same_as(p2)

    def test_small_class_rejected(self):
        labels = np.array([0] * 30 + [1] * 5)
        with pytest.raises(InsufficientData):
            make_fold_plan(labels, k=10, r=1)

    @pytest.mark.parametrize("labels, line", [
        ([0] * 20, "labels must hold both classes, got [0]"),
        ([], "labels must hold both classes, got []"),
    ], ids=["one-class", "empty"])
    def test_fewer_than_two_classes_rejected(self, labels, line):
        with pytest.raises(InsufficientData) as info:
            make_fold_plan(np.array(labels, dtype=np.int64), k=4, r=1)
        assert str(info.value) == line

    @pytest.mark.parametrize("r", [0, -1])
    def test_no_repeats_rejected(self, r):
        with pytest.raises(ValueError, match=f"need at least 1 repeat, got r={r}"):
            make_fold_plan(np.arange(20) % 2, k=4, r=r)


class TestRunCV:
    def test_strong_signal_high_accuracy_both_methods(self):
        es = tiny_dataset(seed=4, frn=-40.0, noise=6.0)
        plan = make_fold_plan(es.labels, k=5, r=2, seed=5)
        for method in ("riemann", "benchmark"):
            res = run_cv(method_rows(es, method), es.labels, method, plan)
            assert res.accuracies.size == 10
            assert res.accuracies.mean() >= 0.95

    def test_destroyed_labels_near_chance(self):
        es = tiny_dataset(seed=6, frn=-40.0)
        rng = np.random.default_rng(7)
        shuffled = type(es)(es.data, rng.permutation(es.labels), es.fs_hz,
                            es.t0_offset_s, list(es.channels))
        plan = make_fold_plan(shuffled.labels, k=5, r=4, seed=8)
        res = run_cv(method_rows(shuffled, "benchmark"), shuffled.labels, "benchmark", plan)
        assert 0.3 <= res.accuracies.mean() <= 0.7

    def test_permuted_storage_with_matching_plan_identical(self):
        es = tiny_dataset(seed=9)
        plan = make_fold_plan(es.labels, k=4, r=2, seed=10)
        base = run_cv(method_rows(es, "riemann"), es.labels, "riemann", plan)

        rng = np.random.default_rng(11)
        perm = rng.permutation(len(es))
        es2 = subset(es, perm)
        plan2 = FoldPlan(plan.k, plan.assignments[:, perm], plan.seed)
        moved = run_cv(method_rows(es2, "riemann"), es2.labels, "riemann", plan2)
        assert np.array_equal(base.accuracies, moved.accuracies)

    def test_thread_count_does_not_change_result(self):
        es = tiny_dataset(seed=12)
        plan = make_fold_plan(es.labels, k=4, r=2, seed=13)
        rows = features.benchmark_features(es)
        r1 = run_cv(rows, es.labels, "benchmark", plan, n_workers=1)
        r2 = run_cv(rows, es.labels, "benchmark", plan, n_workers=3)
        assert np.array_equal(r1.accuracies, r2.accuracies)

    @pytest.mark.parametrize("method", ["riemann", "benchmark"])
    def test_fold_accuracy_is_pure_function_of_split(self, method):
        es = tiny_dataset(seed=14)
        plan = make_fold_plan(es.labels, k=4, r=1, seed=15)
        rows = method_rows(es, method)
        res = run_cv(rows, es.labels, method, plan)
        hp = Hyperparams()
        for fold in range(4):
            mask = plan.assignments[0] == fold
            tr, te = np.flatnonzero(~mask), np.flatnonzero(mask)
            xtr, ytr, xte, yte = _fold_split(rows, es.labels, method, plan, 0, fold, hp)
            # the fold's features are those of its own epochs alone, in
            # index order
            train, test = subset(es, tr), subset(es, te)
            if method == "riemann":
                model = features.fit_riemann(features.riemann_windows(train), train.labels)
                want_tr = model.train_features
                want_te = features.transform_riemann_set(model, features.riemann_windows(test))
            else:
                scale = features.max_abs_scale(features.benchmark_features(train))
                want_tr = features.benchmark_features(train) / scale
                want_te = features.benchmark_features(test) / scale
            assert np.array_equal(xtr, want_tr) and np.array_equal(ytr, train.labels)
            assert np.array_equal(xte, want_te) and np.array_equal(yte, test.labels)
            assert oracle_accuracy(xtr, ytr, xte, yte, hp) == res.accuracies[fold]

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_uneven_folds_match_the_per_fold_oracle(self, n_workers):
        # 21 epochs a class in 4 folds: training sets of 31 to 32 rows, so a
        # job fits more than one stack
        es = tiny_dataset(seed=34, n=42)
        hp = Hyperparams()
        plan = make_fold_plan(es.labels, k=4, r=2, seed=35)
        assert len({np.count_nonzero(plan.assignments[0] == f) for f in range(4)}) > 1

        def oracle(rows, labels, method, plan):
            accs = []
            for rep in range(plan.r):
                for fold in range(plan.k):
                    split = _fold_split(rows, labels, method, plan, rep, fold, hp)
                    accs.append(oracle_accuracy(*split, hp))
            return np.array(accs)

        rows = {method: method_rows(es, method) for method in evaluation.METHODS}
        for method in evaluation.METHODS:
            res = run_cv(rows[method], es.labels, method, plan, n_workers=n_workers)
            assert np.array_equal(res.accuracies, oracle(rows[method], es.labels, method, plan))
        chance = chance_level(rows["benchmark"], es.labels, plan_seed=36, n_shuffles=3, k=4, r=2,
                              n_workers=n_workers)
        for s in range(3):
            labels = np.random.default_rng([36, s]).permutation(es.labels)
            plan = make_fold_plan(labels, k=4, r=2, seed=derive_seed(36, s, 1))
            assert chance.per_shuffle_mean_accuracies[s] == oracle(
                rows["benchmark"], labels, "benchmark", plan).mean()

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_classifier_fits_training_rows_in_index_order(self, monkeypatch, n_workers):
        # uneven folds, so that a job fits more than one stack
        es = tiny_dataset(seed=16, n=42)
        plan = make_fold_plan(es.labels, k=4, r=2, seed=17)
        splits = [np.flatnonzero(plan.assignments[rep] != fold)
                  for rep in range(plan.r) for fold in range(plan.k)]
        fitted = multiprocessing.get_context("fork").Array("i", len(splits))
        fit_many = logreg.fit_many
        monkeypatch.setattr(parallel, "n_cpus", lambda: 2)
        for method in evaluation.METHODS:
            rows = method_rows(es, method)
            want = [(features.fit_riemann(rows[tr], es.labels[tr]).train_features
                     if method == "riemann" else rows[tr] / features.max_abs_scale(rows[tr]),
                     es.labels[tr]) for tr in splits]

            def checked_fit_many(xs, ys, **kwargs):
                for x, y in zip(xs, ys):
                    match = [i for i, (wx, wy) in enumerate(want)
                             if np.array_equal(x, wx) and np.array_equal(y, wy)]
                    assert len(match) == 1, "a stack member is no split's rows in index order"
                    with fitted.get_lock():
                        fitted[match[0]] += 1
                return fit_many(xs, ys, **kwargs)

            monkeypatch.setattr(logreg, "fit_many", checked_fit_many)
            run_cv(rows, es.labels, method, plan, n_workers=n_workers)
        assert list(fitted) == [len(evaluation.METHODS)] * len(splits)

    def test_benchmark_features_computed_once_per_call(self, featurizer_calls):
        """The caller computes each method's rows once; run_cv computes none,
        in this process or in its workers."""
        es = tiny_dataset(seed=18)
        plan = make_fold_plan(es.labels, k=4, r=3, seed=19)
        rows = {method: method_rows(es, method) for method in evaluation.METHODS}
        for method, n_workers in itertools.product(evaluation.METHODS, (1, 2)):
            run_cv(rows[method], es.labels, method, plan, n_workers=n_workers)
        assert featurizer_calls() == {"riemann_windows": 1, "benchmark_features": 1}

    @pytest.mark.parametrize("method, rows_of, line", [
        ("riemann", features.benchmark_features,
         "riemann rows must be (n, c, w), got shape (40, 24)"),
        ("benchmark", features.riemann_windows,
         "benchmark rows must be (n, p), got shape (40, 3, 32)"),
    ], ids=["riemann", "benchmark"])
    def test_rows_of_the_other_method_rejected(self, method, rows_of, line):
        es = tiny_dataset(seed=16)
        plan = make_fold_plan(es.labels, k=4, r=1, seed=17)
        with pytest.raises(DimMismatch) as info:
            run_cv(rows_of(es), es.labels, method, plan)
        assert str(info.value) == line

    @pytest.mark.parametrize("method", evaluation.METHODS)
    def test_labels_of_another_length_rejected(self, method):
        es = tiny_dataset(seed=16)
        plan = make_fold_plan(es.labels, k=4, r=1, seed=17)
        with pytest.raises(DimMismatch, match="^39 labels for 40 rows$"):
            run_cv(method_rows(es, method), es.labels[:-1], method, plan)

    def test_plan_size_mismatch(self):
        es = tiny_dataset(seed=16)
        plan = make_fold_plan(np.arange(20) % 2, k=4, r=1, seed=17)
        with pytest.raises(PlanMismatch):
            run_cv(method_rows(es, "benchmark"), es.labels, "benchmark", plan)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_thread_count_below_one_rejected(self, threads):
        es = tiny_dataset(seed=16)
        plan = make_fold_plan(es.labels, k=4, r=1, seed=17)
        with pytest.raises(ValueError, match=f"n_workers must be at least 1, got {threads}"):
            run_cv(method_rows(es, "benchmark"), es.labels, "benchmark", plan, n_workers=threads)

    def test_nonconverged_folds_warn_once(self, caplog, one_newton_step):
        es = tiny_dataset(seed=18)
        plan = make_fold_plan(es.labels, k=4, r=2, seed=19)
        with caplog.at_level("WARNING", logger="errpkit.evaluation"):
            res = run_cv(method_rows(es, "benchmark"), es.labels, "benchmark", plan)
        [record] = caplog.records
        assert record.levelname == "WARNING" and record.name == "errpkit.evaluation"
        msg = record.getMessage()
        assert msg.startswith("benchmark: the classifier did not converge in 8 of 8 folds")
        assert "largest final gradient norm" in msg and msg.endswith("tol 1.0e-06)")
        assert res.accuracies.size == 8

    def test_null_container_folds_converge_at_defaults(self, caplog):
        # the shape of the null benchmark container: 60 trials x 3 channels at 64 Hz, no ERP
        spec = ErpTemplateSpec(frn_amp_uv=0.0, p3a_amp_uv=0.0, noise_rms_uv=8.0)
        es = generate_epochs(np.arange(60) % 2, spec, seed=2, **TINY)
        plan = make_fold_plan(es.labels, k=10, r=10, seed=3)
        with caplog.at_level("WARNING", logger="errpkit.evaluation"):
            for method in ("benchmark", "riemann"):
                run_cv(method_rows(es, method), es.labels, method, plan)
        assert caplog.records == []

    def test_converged_folds_do_not_warn(self, caplog):
        es = tiny_dataset(seed=18)
        plan = make_fold_plan(es.labels, k=4, r=1, seed=19)
        with caplog.at_level("WARNING", logger="errpkit.evaluation"):
            run_cv(method_rows(es, "benchmark"), es.labels, "benchmark", plan)
        assert caplog.records == []

    @pytest.mark.parametrize("shape", ["null", "erp-8ch"])
    def test_default_mean_tol_moves_no_accuracy(self, shape):
        """The default Karcher tolerance rests on this: every riemann fold
        scores as it does with the mean taken to 1e-8.  A failure here says
        the default is too loose, not that the test is wrong."""
        if shape == "null":  # the null benchmark container: 60 x 3 at 64 Hz, no ERP
            spec = ErpTemplateSpec(frn_amp_uv=0.0, p3a_amp_uv=0.0, noise_rms_uv=8.0)
            es = generate_epochs(np.arange(60) % 2, spec, seed=5, **TINY)
            plan = make_fold_plan(es.labels, k=10, r=5, seed=6)
        else:  # a weak ERP on 8 channels, folds scoring 0.58 to 0.79
            spec = ErpTemplateSpec(frn_amp_uv=-2.0, frn_width_s=0.05, p3a_amp_uv=1.0,
                                   p3a_width_s=0.06, noise_rms_uv=7.5, noise_exponent=1.2)
            es = generate_epochs(np.arange(120) % 2, spec, n_channels=8, fs_hz=128.0,
                                 pre_s=0.5, post_s=0.7, seed=7)
            plan = make_fold_plan(es.labels, k=5, r=1, seed=8)
        rows = method_rows(es, "riemann")
        loose = run_cv(rows, es.labels, "riemann", plan)
        tight = run_cv(rows, es.labels, "riemann", plan, Hyperparams(mean_tol=1e-8))
        assert Hyperparams().mean_tol > 1e-8
        assert np.array_equal(loose.accuracies, tight.accuracies)


class InProcessPool:
    """Stands in for ``ProcessPoolExecutor``: runs the map in this process
    and records the pool size it was asked for."""

    sizes: list = []

    def __init__(self, max_workers, mp_context, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


class TestFoldRunner:
    @staticmethod
    def planted(x) -> bool:
        return int(np.abs(x).sum() * 1e3) % 3 == 0

    def fail_some_fits(self, monkeypatch):
        """Make about a third of the folds' classifier fits raise, chosen by
        their training data, so forked workers fail the same folds; a stack
        that holds such a fold fails as a whole."""
        original = logreg.fit_many

        def fit_many(xs, ys, **kwargs):
            if any(map(self.planted, xs)):
                raise NumericalFailure("planted failure")
            return original(xs, ys, **kwargs)

        monkeypatch.setattr(logreg, "fit_many", fit_many)

    def test_fold_error_same_at_one_and_two_workers(self, monkeypatch):
        self.fail_some_fits(monkeypatch)
        es = tiny_dataset(seed=21)
        plan = make_fold_plan(es.labels, k=4, r=10, seed=22)
        raised = []
        for n_workers in (1, 2):
            with pytest.raises(NumericalFailure) as info:
                run_cv(features.benchmark_features(es), es.labels, "benchmark", plan,
                       n_workers=n_workers)
            raised.append((type(info.value), str(info.value)))
            assert multiprocessing.active_children() == []
        assert raised[0] == raised[1]
        # the message names the repeat and the folds of the first stack, in
        # (repeat, stack) order, whose fit fails: every training set holds 30
        # epochs, so a repeat's 4 folds fit as one stack
        rows = features.benchmark_features(es)
        assert parallel.blocks(4, 8 * 30 * rows.shape[1]) == [slice(0, 4)]
        first = next(rep for rep in range(10) if any(self.planted(
            evaluation._fold_split(rows, es.labels, "benchmark", plan, rep, fold,
                                   Hyperparams())[0]) for fold in range(4)))
        assert raised[0][1] == "(repeat %d, folds 0, 1, 2, 3): planted failure" % first

    def test_first_error_skips_the_remaining_folds(self, monkeypatch):
        # the first fold fails; every other fold takes 20 ms and is counted
        ran = multiprocessing.get_context("fork").Value("i", 0)
        original = evaluation._fold_split

        def fold_split(rows, labels, method, plan, rep, fold, hp):
            if (rep, fold) == (0, 0):
                raise NumericalFailure("(repeat 0, fold 0): planted failure")
            with ran.get_lock():
                ran.value += 1
            time.sleep(0.02)
            return original(rows, labels, method, plan, rep, fold, hp)

        monkeypatch.setattr(evaluation, "_fold_split", fold_split)
        monkeypatch.setattr(parallel, "n_cpus", lambda: 2)
        es = tiny_dataset(seed=23)
        plan = make_fold_plan(es.labels, k=4, r=25, seed=24)
        with pytest.raises(NumericalFailure, match=r"^\(repeat 0, fold 0\): planted failure$"):
            run_cv(method_rows(es, "benchmark"), es.labels, "benchmark", plan, n_workers=2)
        assert multiprocessing.active_children() == []
        # a job runs a repeat's 4 folds, 3 jobs a chunk, 3 chunks in flight:
        # only skipping the rest keeps the other worker from running all 12
        # folds of its chunk
        assert ran.value < 12

    def test_dead_worker_raises_one_errpkit_error(self, monkeypatch):
        parent = os.getpid()

        def fit_many(xs, ys, **kwargs):
            assert os.getpid() != parent, "the fit ran in the parent"
            os._exit(3)

        monkeypatch.setattr(logreg, "fit_many", fit_many)
        monkeypatch.setattr(parallel, "n_cpus", lambda: 2)
        es = tiny_dataset(seed=25)
        plan = make_fold_plan(es.labels, k=4, r=2, seed=26)
        with pytest.raises(ErrpkitError, match="^a fold worker process died: "):
            run_cv(method_rows(es, "benchmark"), es.labels, "benchmark", plan, n_workers=2)
        assert multiprocessing.active_children() == []

    def test_pool_never_larger_than_cpu_count(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(InProcessPool, "sizes", [])
        for name in ("_worker_fn", "_worker_abort"):  # the fake installs them here
            monkeypatch.setattr(parallel, name, None)
        monkeypatch.setattr(parallel, "n_cpus", lambda: 3)
        es = tiny_dataset(seed=27)
        # a job runs a whole repeat of these small folds: 3 repeats, 3 jobs
        plan = make_fold_plan(es.labels, k=4, r=3, seed=28)
        rows = features.benchmark_features(es)
        pooled = run_cv(rows, es.labels, "benchmark", plan, n_workers=10_000)
        chance_level(rows, es.labels, plan_seed=29, n_shuffles=3, k=4, r=1, n_workers=10_000)
        assert InProcessPool.sizes == [3, 3]
        assert np.array_equal(pooled.accuracies,
                              run_cv(rows, es.labels, "benchmark", plan).accuracies)
        # never more workers than jobs
        run_cv(rows, es.labels, "benchmark", make_fold_plan(es.labels, k=2, r=2, seed=30),
               n_workers=10_000)
        assert InProcessPool.sizes == [3, 3, 2]

    def test_one_worker_constructs_no_executor(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("n_workers=1 constructed an executor")

        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", no_pool)
        es = tiny_dataset(seed=31)
        plan = make_fold_plan(es.labels, k=4, r=2, seed=32)
        run_cv(method_rows(es, "riemann"), es.labels, "riemann", plan, n_workers=1)
        chance_level(features.benchmark_features(es), es.labels, plan_seed=33, n_shuffles=2,
                     k=4, r=1, n_workers=1)
        assert multiprocessing.active_children() == []


class TestCorrectedTTest:
    def test_identical_inputs(self):
        plan = make_fold_plan(np.arange(40) % 2, k=4, r=2, seed=0)
        acc = np.linspace(0.6, 0.9, 8)
        res = corrected_t_test(synthetic_result(plan, acc),
                               synthetic_result(plan, acc, "benchmark"))
        assert res.t == 0.0 and res.p == 1.0
        assert res.df == 7

    def test_hand_computed_four_folds(self):
        # k=4 plan: test/train ratio (1/4)/(3/4) = 1/3; spreadsheet arithmetic below
        plan = make_fold_plan(np.arange(40) % 2, k=4, r=1, seed=1)
        a = [0.82, 0.88, 0.75, 0.85]
        b = [0.80, 0.84, 0.76, 0.82]
        d = [x - y for x, y in zip(a, b)]
        n = 4
        mean = sum(d) / n
        var = sum((x - mean) ** 2 for x in d) / (n - 1)
        expected_t = mean / math.sqrt(var * (1.0 / n + 1.0 / 3.0))
        res = corrected_t_test(synthetic_result(plan, a),
                               synthetic_result(plan, b, "benchmark"))
        assert abs(res.t - expected_t) < 1e-12
        assert res.df == 3
        assert abs(res.p - t_two_sided_p(expected_t, 3)) < 1e-15

    def test_scaling_identity_against_plain_paired_t(self):
        rng = np.random.default_rng(2)
        plan = make_fold_plan(np.arange(300) % 2, k=10, r=10, seed=3)
        base = rng.uniform(0.6, 0.9, 100)
        d = rng.normal(0.01, 0.02, 100)
        res = corrected_t_test(synthetic_result(plan, base + d),
                               synthetic_result(plan, base, "benchmark"))
        n = 100
        plain_t = d.mean() / math.sqrt(d.var(ddof=1) / n)
        shrink = math.sqrt((1.0 / n) / (1.0 / n + 1.0 / 9.0))
        assert abs(res.t - plain_t * shrink) < 1e-10

    def test_effect_size_scale(self):
        # mean difference 0.061 with spread chosen to land t near 2.33
        plan = make_fold_plan(np.arange(300) % 2, k=10, r=10, seed=4)
        pattern = np.tile([1.0, -1.0], 50)
        d = 0.061 + pattern * 0.0754 / np.std(pattern, ddof=1)
        base = np.full(100, 0.8)
        res = corrected_t_test(synthetic_result(plan, base + d),
                               synthetic_result(plan, base, "benchmark"))
        assert 2.0 < res.t < 2.6
        assert 0.01 < res.p < 0.05
        assert res.df == 99

    def test_zero_variance_nonzero_mean(self):
        plan = make_fold_plan(np.arange(40) % 2, k=4, r=1, seed=5)
        res = corrected_t_test(synthetic_result(plan, [0.9] * 4),
                               synthetic_result(plan, [0.8] * 4, "benchmark"))
        assert res.t == np.inf and res.p == 0.0

    def test_plan_mismatch(self):
        p1 = make_fold_plan(np.arange(40) % 2, k=4, r=1, seed=6)
        p2 = make_fold_plan(np.arange(40) % 2, k=4, r=1, seed=7)
        with pytest.raises(PlanMismatch):
            corrected_t_test(synthetic_result(p1, [0.8] * 4),
                             synthetic_result(p2, [0.8] * 4, "benchmark"))


class TestPermutationTest:
    @staticmethod
    def pairs_from(diffs, rng, spread=0.05):
        plan = make_fold_plan(np.arange(40) % 2, k=4, r=1, seed=8)
        pairs = []
        for d in diffs:
            base = rng.uniform(0.6, 0.8, 4)
            pairs.append((synthetic_result(plan, base + d),
                          synthetic_result(plan, base + rng.normal(0, spread, 4),
                                           "benchmark")))
        return pairs

    @staticmethod
    def pairs_with_medians(diffs):
        """Pairs whose median accuracies differ by exactly ``diffs``."""
        plan = make_fold_plan(np.arange(40) % 2, k=4, r=1, seed=8)
        return [(synthetic_result(plan, [0.5 + d] * 4), synthetic_result(plan, [0.5] * 4))
                for d in diffs]

    def test_statistically_identical_methods_give_large_p(self):
        rng = np.random.default_rng(9)
        pairs = self.pairs_from(np.zeros(7), rng, spread=0.02)
        res = permutation_test(pairs)
        assert abs(res.z) < 2.5
        assert res.p > 0.01

    def test_argument_swap_negates_exactly(self):
        rng = np.random.default_rng(11)
        pairs = self.pairs_from(np.full(7, 0.06), rng)
        fwd = permutation_test(pairs)
        rev = permutation_test([(b, a) for a, b in pairs])
        assert rev.observed_metric == -fwd.observed_metric
        assert rev.z.hex() == (-fwd.z).hex()
        assert rev.p == fwd.p and rev.null_std == fwd.null_std

    def test_all_ties_give_p_one(self):
        plan = make_fold_plan(np.arange(40) % 2, k=4, r=1, seed=13)
        acc = [0.7, 0.8, 0.75, 0.9]
        pairs = [(synthetic_result(plan, acc),
                  synthetic_result(plan, acc, "benchmark"))] * 3
        res = permutation_test(pairs)
        assert (res.observed_metric, res.z, res.p, res.null_std) == (0.0, 0.0, 1.0, 0.0)

    def test_relabeling_datasets_barely_moves_p(self):
        rng = np.random.default_rng(15)
        pairs = self.pairs_from(np.full(6, 0.05), rng)
        assert permutation_test(pairs) == permutation_test(pairs[::-1])

    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    def test_null_std_is_that_of_every_sign_pattern(self, m):
        rng = np.random.default_rng(100 + m)
        pairs = self.pairs_from(rng.normal(0.0, 0.1, m), rng)
        diffs = [float(np.median(a.accuracies)) - float(np.median(b.accuracies))
                 for a, b in pairs]
        sums = [math.fsum(s * d for s, d in zip(signs, diffs))
                for signs in itertools.product((-1.0, 1.0), repeat=m)]
        res = permutation_test(pairs)
        assert math.fsum(sums) / 2 ** m == 0.0
        population_std = math.sqrt(math.fsum(x * x for x in sums) / 2 ** m)
        assert res.null_std == pytest.approx(population_std, rel=1e-12, abs=0.0)
        assert res.observed_metric == math.fsum(diffs)
        assert abs(res.z) <= math.sqrt(m)
        assert res.p == normal_two_sided_p(res.z)
        assert res.p_exact == sum(abs(x) >= abs(res.observed_metric) for x in sums) / 2 ** m

    def test_exact_z(self):
        res = permutation_test(self.pairs_with_medians([0.25, 0.125, -0.125]))
        # sum d = 1/4 and sum d^2 = 3/32 are exact in binary
        assert (res.observed_metric, res.null_std) == (0.25, math.sqrt(0.09375))
        assert res.z == 0.25 / math.sqrt(0.09375) == pytest.approx(math.sqrt(2 / 3), rel=1e-15)
        equal = permutation_test(self.pairs_with_medians([0.25] * 4))
        assert (equal.z, equal.p) == (2.0, normal_two_sided_p(2.0))
        assert equal.p == pytest.approx(math.erfc(math.sqrt(2.0)), rel=1e-14)
        # equal differences meet the bound |z| <= sqrt(m)
        assert permutation_test(self.pairs_with_medians([0.125] * 7)).z == pytest.approx(
            math.sqrt(7), rel=1e-15)
        assert permutation_test(self.pairs_with_medians([-0.25])).z == -1.0

    @pytest.mark.parametrize("diffs, p_exact", [
        ([0.3], 1.0),
        ([0.25, 0.125], 0.5),
        ([0.25, -0.25], 1.0),
        ([0.1, 0.2, 0.3], 0.25),
        ([0.1, -0.2, 0.3], 0.75),
        ([0.0, 0.0, 0.0], 1.0),
    ])
    def test_exact_p_by_hand(self, diffs, p_exact):
        res = permutation_test(self.pairs_with_medians(diffs))
        assert res.p_exact == p_exact

    @pytest.mark.parametrize("negative, z, p, p_exact", [
        (0, 2.646, 0.0082, 0.015625), (1, 1.890, 0.0588, 0.125), (2, 1.134, 0.2568, 0.453125),
    ])
    def test_exact_p_of_seven_equal_differences(self, negative, z, p, p_exact):
        """The normal tail understates p most when the differences are equal;
        no order of the datasets and no swap of the methods moves p_exact."""
        diffs = [-0.1] * negative + [0.1] * (7 - negative)
        pairs = self.pairs_with_medians(diffs)
        rng = np.random.default_rng(7)
        for order in (pairs, pairs[::-1], [pairs[i] for i in rng.permutation(7)]):
            for swapped in (order, [(b, a) for a, b in order]):
                res = permutation_test(swapped)
                assert (round(abs(res.z), 3), round(res.p, 4), res.p_exact) == (z, p, p_exact)

    def test_exact_p_up_to_16_datasets(self):
        at_16 = permutation_test(self.pairs_with_medians([0.125] * 16))
        assert at_16.p_exact == 2 / 2 ** 16
        at_17 = permutation_test(self.pairs_with_medians([0.125] * 17))
        assert at_17.p_exact is None and at_17.z == pytest.approx(math.sqrt(17), rel=1e-15)


class TestChanceLevel:
    def test_null_dataset_chance_band_and_determinism(self):
        # balanced 300-trial dataset with the labels destroyed: mean ~ 0.5
        labels = np.arange(300) % 2
        spec = ErpTemplateSpec(frn_amp_uv=-20.0, p3a_amp_uv=0.0, noise_rms_uv=8.0)
        es = generate_epochs(labels, spec, seed=17, **TINY)
        rows = features.benchmark_features(es)
        ch1 = chance_level(rows, es.labels, plan_seed=18, n_shuffles=30, k=5, r=1)
        assert 0.47 <= ch1.mean_accuracy <= 0.53
        assert ch1.threshold_97_5 >= ch1.mean_accuracy - 1e-6
        assert ch1.per_shuffle_mean_accuracies.size == 30
        ch2 = chance_level(rows, es.labels, plan_seed=18, n_shuffles=30, k=5, r=1)
        assert np.array_equal(ch1.per_shuffle_mean_accuracies,
                              ch2.per_shuffle_mean_accuracies)
        assert ch1.threshold_97_5 == ch2.threshold_97_5

    @pytest.mark.parametrize("threads", [0, -3])
    def test_thread_count_below_one_rejected(self, threads):
        es = tiny_dataset(seed=19)
        with pytest.raises(ValueError, match=f"n_workers must be at least 1, got {threads}"):
            chance_level(features.benchmark_features(es), es.labels, plan_seed=20,
                         n_shuffles=2, k=4, r=1, n_workers=threads)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_benchmark_features_computed_once_per_call(self, featurizer_calls, n_workers):
        """The caller computes the rows once; chance_level computes none, in
        this process or in its workers."""
        es = tiny_dataset(seed=34)
        rows = features.benchmark_features(es)
        chance_level(rows, es.labels, plan_seed=35, n_shuffles=4, k=4, r=2, n_workers=n_workers)
        assert featurizer_calls() == {"riemann_windows": 0, "benchmark_features": 1}

    @pytest.mark.parametrize("labels, rows_of, line", [
        (slice(-1), features.benchmark_features, "39 labels for 40 rows"),
        (slice(None), features.riemann_windows,
         "benchmark rows must be (n, p), got shape (40, 3, 32)"),
    ], ids=["labels-of-another-length", "riemann-rows"])
    def test_rows_checked(self, labels, rows_of, line):
        es = tiny_dataset(seed=34)
        with pytest.raises(DimMismatch) as info:
            chance_level(rows_of(es), es.labels[labels], plan_seed=35, n_shuffles=2, k=4, r=1)
        assert str(info.value) == line

    def test_nonconverged_folds_warn_once(self, caplog, one_newton_step):
        es = tiny_dataset(seed=18)
        with caplog.at_level("WARNING", logger="errpkit.evaluation"):
            ch = chance_level(features.benchmark_features(es), es.labels, plan_seed=36,
                              n_shuffles=3, k=4, r=2)
        [record] = caplog.records
        assert record.levelname == "WARNING" and record.name == "errpkit.evaluation"
        msg = record.getMessage()
        assert msg.startswith("chance level: the classifier did not converge in 24 of 24 folds")
        assert "largest final gradient norm" in msg
        assert ch.n_shuffles == 3

    @pytest.mark.parametrize("n_shuffles", [0, -2])
    def test_no_shuffles_rejected(self, n_shuffles):
        es = tiny_dataset(seed=19)
        with pytest.raises(ValueError, match="need at least 1 chance shuffle"):
            chance_level(features.benchmark_features(es), es.labels, plan_seed=20,
                         n_shuffles=n_shuffles, k=4, r=1)


class TestTails:
    def test_normal_two_sided_matches_reference_value(self):
        assert abs(normal_two_sided_p(4.028) - 5.632e-05) < 1e-7

    def test_normal_two_sided_matches_scipy(self):
        from scipy import special

        # out to z = 37, where the tail is about 6e-300
        z = np.linspace(-37.0, 37.0, 7401)
        ours = [normal_two_sided_p(v) for v in z]
        np.testing.assert_allclose(ours, special.erfc(np.abs(z) / np.sqrt(2.0)), rtol=1e-12)
        assert normal_two_sided_p(0.0) == 1.0

    @pytest.mark.parametrize("df", [1, 2, 3, 9, 99, 999, 9999])
    def test_t_tail_matches_scipy(self, df):
        from scipy import special

        # |t| out to where scipy's tail falls to 1e-300; at df 1 it reads 0
        # beyond |t| ~ 1.3e154 (t^2 overflows), so the grid stops there
        t_max = 1.0
        while 2.0 * special.stdtr(df, -1.01 * t_max) > 1e-300:
            t_max *= 1.01
        t = np.concatenate([np.linspace(0.0, 5.0, 501), np.geomspace(5.0, t_max, 1500)])
        ours = [t_two_sided_p(s * v, df) for v in t for s in (1.0, -1.0)]
        np.testing.assert_allclose(ours, np.repeat(2.0 * special.stdtr(df, -t), 2), rtol=1e-12)
        assert t_two_sided_p(0.0, df) == 1.0

    def test_t_tail_at_one_degree_is_cauchy_out_to_1e_300(self):
        t = np.geomspace(1e-3, 6.4e299, 2000)
        ours = [t_two_sided_p(v, 1) for v in t]
        np.testing.assert_allclose(ours, 2.0 / np.pi * np.arctan(1.0 / t), rtol=1e-12)
        assert ours[-1] < 1.01e-300

    def test_t_tail_at_zero(self):
        assert t_two_sided_p(0.0, 99) == 1.0

    def test_derive_seed_is_stable_and_order_sensitive(self):
        assert derive_seed(1, 2) == derive_seed(1, 2)
        assert derive_seed(1, 2) != derive_seed(2, 1)
