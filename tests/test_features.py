import inspect
from dataclasses import fields

import numpy as np
import pytest

from errpkit import logreg, manifold
from errpkit.config import DEFAULTS
from errpkit.errors import (
    DegenerateTrainingSet,
    DimMismatch,
    EmptyInput,
    InvalidWindow,
    NotPositiveDefinite,
)
from errpkit.evaluation import Hyperparams
from errpkit.features import (
    BENCHMARK_WINDOWS,
    PrototypePair,
    _covariances,
    _super_trials,
    benchmark_features,
    fit_riemann,
    max_abs_scale,
    riemann_windows,
    transform_riemann_set,
)
from errpkit.preprocessing import EpochSet
from errpkit.synth import ErpTemplateSpec

from conftest import desk_shaped_epochs, subset


def make_set(rng, n_trials=20, n_channels=4, fs=256.0, pre=0.5, post=0.7, scale=5.0,
             labels=None):
    n_samples = int((pre + post) * fs)
    data = rng.standard_normal((n_trials, n_channels, n_samples)) * scale
    if labels is None:
        labels = np.arange(n_trials) % 2
    return EpochSet(data, np.asarray(labels), fs, -pre,
                    [f"c{i}" for i in range(n_channels)])


def super_trial(window, protos):
    """One epoch's super trial through the set path, (3c, n_window)."""
    return _super_trials(np.asarray(window)[None], protos)[0]


def trial_covariance(st, shrinkage):
    """One super trial's shrunk covariance through the set path, (3c, 3c)."""
    return _covariances(np.asarray(st)[None], shrinkage)[0]


class TestSuperTrial:
    def test_full_montage_shape(self, rng):
        protos = PrototypePair(rng.standard_normal((32, 128)), rng.standard_normal((32, 128)))
        st = super_trial(rng.standard_normal((32, 128)), protos)
        assert st.shape == (96, 128)

    def test_toy_shape_and_order(self, rng):
        ps = rng.standard_normal((2, 10))
        pf = rng.standard_normal((2, 10))
        trial = rng.standard_normal((2, 10))
        st = super_trial(trial, PrototypePair(ps, pf))
        assert st.shape == (6, 10)
        assert np.array_equal(st[0:2], ps)
        assert np.array_equal(st[2:4], pf)
        assert np.array_equal(st[4:6], trial)

    def test_zero_inputs_zero_output(self):
        protos = PrototypePair(np.zeros((3, 8)), np.zeros((3, 8)))
        assert np.abs(super_trial(np.zeros((3, 8)), protos)).max() == 0.0

    def test_shape_mismatch(self, rng):
        protos = PrototypePair(np.zeros((3, 8)), np.zeros((3, 8)))
        with pytest.raises(DimMismatch):
            super_trial(np.zeros((3, 9)), protos)


class TestTrialCovariance:
    def test_full_montage_shape(self, rng):
        st = rng.standard_normal((96, 128))
        c = trial_covariance(st, 0.01)
        assert c.shape == (96, 96)
        assert np.abs(c - c.T).max() == 0.0
        assert np.linalg.eigvalsh(c).min() > 0.0

    def test_duplicate_rows_singular_without_shrinkage(self, rng):
        row = rng.standard_normal(50)
        st = np.vstack([row, row, rng.standard_normal(50)])
        with pytest.raises(NotPositiveDefinite):
            trial_covariance(st, 0.0)

    def test_eigenvalue_floor(self, rng):
        st = rng.standard_normal((6, 50))
        lam = 0.1
        c = trial_covariance(st, lam)
        xc = st - st.mean(axis=1, keepdims=True)
        sample = xc @ xc.T / 49
        mu = np.trace(sample) / 6
        assert np.linalg.eigvalsh(c).min() >= lam * mu - 1e-10

    def test_symmetric_output(self, rng):
        c = trial_covariance(rng.standard_normal((8, 40)), 0.05)
        assert np.abs(c - c.T).max() < 1e-12

    def test_invalid_shrinkage(self, rng):
        with pytest.raises(ValueError):
            trial_covariance(rng.standard_normal((3, 10)), 1.0)


class TestFitRiemann:
    def test_prototype_shapes_at_full_montage(self, rng):
        es = make_set(rng, n_trials=12, n_channels=32, fs=256.0, pre=0.5, post=0.7)
        model = fit_riemann(riemann_windows(es), es.labels)
        assert model.prototypes.proto_success.shape == (32, 128)
        assert model.prototypes.proto_failure.shape == (32, 128)
        assert model.reference.shape == (96, 96)

    def test_toy_reference_dimension(self, rng):
        es = make_set(rng, n_trials=10, n_channels=2)
        model = fit_riemann(riemann_windows(es), es.labels)
        assert model.reference.shape == (6, 6)

    def test_identical_epochs_reference_is_shared_covariance(self, rng):
        base = rng.standard_normal((3, 307)) * 4
        data = np.broadcast_to(base, (8, 3, 307)).copy()
        es = EpochSet(data, np.arange(8) % 2, 256.0, -0.5, ["a", "b", "c"])
        model = fit_riemann(riemann_windows(es), es.labels, shrinkage=0.01)
        windowed = base[:, 154:282]
        protos = PrototypePair(windowed, windowed)
        expected = trial_covariance(super_trial(windowed, protos), 0.01)
        assert np.linalg.norm(model.reference - expected) < 1e-10

    def test_prototypes_are_class_means(self, rng):
        es = make_set(rng, n_trials=14, n_channels=3)
        model = fit_riemann(riemann_windows(es), es.labels)
        sl = slice(154, 282)
        assert np.allclose(model.prototypes.proto_success,
                           es.data[es.labels == 0][:, :, sl].mean(axis=0), atol=1e-12)
        assert np.allclose(model.prototypes.proto_failure,
                           es.data[es.labels == 1][:, :, sl].mean(axis=0), atol=1e-12)

    def test_mean_defaults_match_hyperparams_and_config(self):
        for cls in (ErpTemplateSpec, Hyperparams):
            for f in fields(cls):
                assert f.name in DEFAULTS, f"{cls.__name__}.{f.name} is not a config key"
                assert DEFAULTS[f.name] == f.default, f"{cls.__name__}.{f.name}"
        params = inspect.signature(fit_riemann).parameters
        hp = Hyperparams()
        window = inspect.signature(riemann_windows).parameters["window"].default
        assert window == hp.riemann_window_s
        assert params["shrinkage"].default == hp.shrinkage
        assert params["mean_tol"].default == hp.mean_tol == DEFAULTS["mean_tol"]
        assert params["mean_max_iter"].default == hp.mean_max_iter == DEFAULTS["mean_max_iter"]
        windows = inspect.signature(benchmark_features).parameters["windows"].default
        assert windows == hp.benchmark_windows_s
        mean = inspect.signature(manifold.geometric_mean).parameters
        assert mean["tol"].default == hp.mean_tol
        assert mean["max_iter"].default == hp.mean_max_iter
        clf = inspect.signature(logreg.fit).parameters
        assert clf["reg_c"].default == hp.reg_c == DEFAULTS["reg_c"]
        assert clf["tol"].default == hp.clf_tol == DEFAULTS["clf_tol"]
        assert clf["max_iter"].default == hp.clf_max_iter == DEFAULTS["clf_max_iter"]

    def test_single_class_rejected(self, rng):
        es = make_set(rng, n_trials=10, labels=np.zeros(10, dtype=int))
        with pytest.raises(DegenerateTrainingSet):
            fit_riemann(riemann_windows(es), es.labels)

    def test_label_count_mismatch_rejected(self, rng):
        es = make_set(rng, n_trials=10)
        with pytest.raises(DimMismatch, match="9 labels for 10 windows"):
            fit_riemann(riemann_windows(es), es.labels[:-1])

    def test_permuted_training_order_bit_identical(self, rng):
        es = make_set(rng, n_trials=16, n_channels=3)
        perm = rng.permutation(16)
        m1 = fit_riemann(riemann_windows(es), es.labels)
        moved = subset(es, perm)
        m2 = fit_riemann(riemann_windows(moved), moved.labels)
        assert np.array_equal(m1.prototypes.proto_success, m2.prototypes.proto_success)
        assert np.array_equal(m1.prototypes.proto_failure, m2.prototypes.proto_failure)
        assert np.array_equal(m1.reference, m2.reference)

    def test_train_features_equal_transform_of_train(self, rng):
        es = desk_shaped_epochs()
        for train in (es, subset(es, rng.permutation(len(es)))):
            windows = riemann_windows(train)
            model = fit_riemann(windows, train.labels, mean_tol=1e-4)
            assert np.array_equal(model.train_features, transform_riemann_set(model, windows))


class TestTransformRiemann:
    def test_feature_length_4656(self, rng):
        es = make_set(rng, n_trials=8, n_channels=32, fs=256.0, pre=0.5, post=0.7)
        model = fit_riemann(riemann_windows(es), es.labels)
        v = transform_riemann_set(model, riemann_windows(subset(es, [0])))
        assert v.shape == (1, 4656)

    def test_norm_matches_distance_oracle(self, rng):
        es = make_set(rng, n_trials=10, n_channels=3)
        model = fit_riemann(riemann_windows(es), es.labels)
        feats = transform_riemann_set(model, riemann_windows(es))
        sl = slice(154, 282)
        covs = _covariances(_super_trials(es.data[:4, :, sl], model.prototypes),
                            model.shrinkage)
        for i in range(4):
            d = manifold.airm_distance(model.reference, covs[i])
            assert abs(np.linalg.norm(feats[i]) - d) < 1e-8

    def test_epoch_at_reference_gives_zero_vector(self, rng):
        base = rng.standard_normal((3, 307)) * 2
        data = np.broadcast_to(base, (6, 3, 307)).copy()
        es = EpochSet(data, np.arange(6) % 2, 256.0, -0.5, ["a", "b", "c"])
        model = fit_riemann(riemann_windows(es), es.labels)
        v = transform_riemann_set(model, riemann_windows(subset(es, [0])))
        assert v.shape == (1, 9 * 10 // 2)
        assert np.abs(v).max() < 1e-7

    def test_channel_mismatch(self, rng):
        es = make_set(rng, n_channels=3)
        other = make_set(rng, n_channels=4)
        model = fit_riemann(riemann_windows(es), es.labels)
        with pytest.raises(DimMismatch):
            transform_riemann_set(model, riemann_windows(other))

    def test_prototype_block_constant_across_trials(self, rng):
        es = make_set(rng, n_trials=10, n_channels=2)
        model = fit_riemann(riemann_windows(es), es.labels, shrinkage=0.0)
        sl = slice(154, 282)
        covs = _covariances(_super_trials(es.data[:, :, sl], model.prototypes), 0.0)
        blocks = covs[:, :4, :4]
        assert np.abs(blocks - blocks[0]).max() < 1e-12


def scaled_features(train, es):
    """``es``'s benchmark features divided by ``train``'s max-abs scale."""
    return benchmark_features(es) / max_abs_scale(benchmark_features(train))


class TestBenchmark:
    def test_feature_count(self, rng):
        es = make_set(rng, n_trials=6, n_channels=32, fs=256.0, pre=0.5, post=0.7)
        feats = scaled_features(es, es)
        assert feats.shape == (6, 32 * 2 * 4) == (6, 256)

    def test_scale_is_training_max_abs(self, rng):
        es = make_set(rng, n_trials=12, n_channels=3)
        feats = scaled_features(es, es)
        assert np.abs(feats).max() <= 1.0 + 1e-12
        assert np.isclose(np.abs(feats).max(), 1.0)

    def test_constant_channel_mean_and_std(self):
        data = np.full((1, 2, 307), 5.0)
        es = EpochSet(data, [1], 256.0, -0.5, ["a", "b"])
        # scale of a constant +5 feature is 5; mean scales to 1, std to 0
        [feats] = scaled_features(es, es)
        means = feats[0::2]
        stds = feats[1::2]
        assert np.allclose(means, 1.0)
        assert np.allclose(stds, 0.0)

    def test_zero_feature_gets_unit_scale(self):
        data = np.zeros((3, 2, 307))
        es = EpochSet(data, [0, 1, 0], 256.0, -0.5, ["a", "b"])
        assert np.all(max_abs_scale(benchmark_features(es)) == 1.0)

    def test_test_epoch_may_exceed_unit_range(self, rng):
        train = make_set(rng, n_trials=10, n_channels=2, scale=1.0)
        big = EpochSet(train.data[:1] * 50.0, train.labels[:1], train.fs_hz,
                       train.t0_offset_s, list(train.channels))
        feats = scaled_features(train, big)
        assert np.abs(feats).max() > 1.0

    def test_matches_bruteforce_oracle(self, rng):
        es = make_set(rng, n_trials=5, n_channels=3)
        scale = max_abs_scale(benchmark_features(es))
        feats = scaled_features(es, es)
        fs, t0 = es.fs_hz, es.t0_offset_s
        for trial in range(5):
            expected = []
            for ch in range(3):
                for (ta, tb) in BENCHMARK_WINDOWS:
                    a = int(np.floor((ta - t0) * fs + 0.5))
                    b = int(np.floor((tb - t0) * fs + 0.5))
                    seg = es.data[trial, ch, a:b]
                    expected += [seg.mean(), seg.std(ddof=1)]
            expected = np.asarray(expected) / scale
            assert np.allclose(feats[trial], expected, atol=1e-12)

    def test_window_outside_epoch(self, rng):
        es = make_set(rng, pre=0.1, post=0.3)
        with pytest.raises(InvalidWindow):
            benchmark_features(es)

    def test_permuted_training_order_bit_identical(self, rng):
        es = make_set(rng, n_trials=9, n_channels=3)
        s1 = max_abs_scale(benchmark_features(es))
        s2 = max_abs_scale(benchmark_features(subset(es, rng.permutation(9))))
        assert np.array_equal(s1, s2)

    def test_rows_of_whole_set_equal_features_of_subset(self, rng):
        # the invariant that lets evaluation compute the features once per dataset
        es = make_set(rng, n_trials=30, n_channels=5)
        whole = benchmark_features(es)
        for idx in (rng.permutation(30)[:11], np.arange(0, 30, 3), np.array([29])):
            assert np.array_equal(whole[idx], benchmark_features(subset(es, idx)))

    def test_scale_of_no_rows_rejected(self):
        with pytest.raises(EmptyInput):
            max_abs_scale(np.empty((0, 8)))
