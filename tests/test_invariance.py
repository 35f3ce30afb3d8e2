"""The comparison's symmetries, checked through ``run_cv``.

The riemann pipeline rests on the congruence invariance of the affine-
invariant metric: the shrinkage target mu*I commutes with an orthogonal
congruence, ``vectorize_sym`` is an isometry, and an L2 logistic fit with an
unpenalized bias is invariant under an orthogonal map of its features.  So
its fold accuracies do not move under an orthogonal mixing of the channels,
a channel permutation or a global scale.  The benchmark's per-channel
window statistics, divided by their training maxima, do not move under a
permutation or a scale, but do under a mixing.  Nothing is claimed for a
non-orthogonal mixing: the trace-scaled shrinkage breaks it.

Leakage: when nothing of a test fold reaches its fit, flipping the labels
of that fold's test trials turns its accuracy into exactly 1 - accuracy.
"""
import numpy as np
import pytest

from errpkit.evaluation import FoldPlan, make_fold_plan, run_cv
from errpkit.labels import FAILURE, SUCCESS
from errpkit.preprocessing import EpochSet
from errpkit.synth import ErpTemplateSpec, generate_epochs

from conftest import method_rows

# (n_channels, frn_amp_uv, seed) of each set: 120 trials at 64 Hz, 8 uV noise
SETS = [(8, -3.0, 1), (8, -2.0, 2), (12, -3.0, 3)]
# A riemann fold takes about 70 ms at 8 channels and 170 ms at 12, most of
# it the Karcher mean, so riemann runs on the first set and the first repeat
# of its plan alone: 20 folds in about 1.5 s.
RIEMANN_SEEDS = [SETS[0][2]]


def dataset(n_channels: int, frn_amp_uv: float, seed: int, n_trials: int = 120) -> EpochSet:
    labels = np.random.default_rng([seed, 0]).permutation(np.arange(n_trials) % 2)
    spec = ErpTemplateSpec(frn_amp_uv=frn_amp_uv, noise_rms_uv=8.0)
    return generate_epochs(labels, spec, n_channels=n_channels, fs_hz=64.0, pre_s=0.25,
                           post_s=0.75, seed=seed)


def transforms(n_channels: int, seed: int) -> dict:
    """Maps of (n, c, s) float64 epochs: an orthogonal mixing of the
    channels, a channel permutation and a global scale."""
    rng = np.random.default_rng([seed, 1])
    q, _ = np.linalg.qr(rng.standard_normal((n_channels, n_channels)))
    perm = rng.permutation(n_channels)
    return {
        "mixing": lambda x: np.einsum("ij,njs->nis", q, x),
        "permutation": lambda x: x[:, perm],
        "scale": lambda x: 3.7 * x,
    }


def fold_accuracies(es: EpochSet, method: str, plan, transform=None) -> np.ndarray:
    data = es.data.astype(np.float64)
    if transform is not None:
        data = transform(data)
    moved = EpochSet(data, es.labels, es.fs_hz, es.t0_offset_s, list(es.channels))
    return run_cv(method_rows(moved, method), es.labels, method, plan).accuracies


@pytest.fixture(scope="module")
def accuracies():
    """Fold accuracies of each set, method and transform (None: untransformed):
    the benchmark's at 5x4 folds, riemann's at the first repeat of that plan."""
    table = {}
    for n_channels, frn, seed in SETS:
        es = dataset(n_channels, frn, seed)
        plan = make_fold_plan(es.labels, k=5, r=4, seed=seed)
        plans = {"benchmark": plan}
        if seed in RIEMANN_SEEDS:
            plans["riemann"] = FoldPlan(plan.k, plan.assignments[:1], plan.seed)
        for method, method_plan in plans.items():
            for name, transform in {None: None, **transforms(n_channels, seed)}.items():
                table[seed, method, name] = fold_accuracies(es, method, method_plan, transform)
    return table


@pytest.mark.parametrize("name", ["mixing", "permutation", "scale"])
@pytest.mark.parametrize("seed", RIEMANN_SEEDS)
def test_riemann_accuracies_are_invariant(accuracies, seed, name):
    assert np.array_equal(accuracies[seed, "riemann", name], accuracies[seed, "riemann", None])


@pytest.mark.parametrize("name", ["permutation", "scale"])
@pytest.mark.parametrize("seed", [seed for *_, seed in SETS])
def test_benchmark_accuracies_are_invariant(accuracies, seed, name):
    assert np.array_equal(accuracies[seed, "benchmark", name],
                          accuracies[seed, "benchmark", None])


def test_mixing_moves_the_benchmark(accuracies):
    # a rotation of the channels mixes the per-channel statistics
    assert any(not np.array_equal(accuracies[seed, "benchmark", "mixing"],
                                  accuracies[seed, "benchmark", None]) for *_, seed in SETS)


@pytest.mark.parametrize("method", ["riemann", "benchmark"])
def test_flipped_test_labels_flip_the_fold_accuracy(method):
    es = dataset(6, -3.0, 4, n_trials=80)
    plan = make_fold_plan(es.labels, k=5, r=1, seed=4)
    rows = method_rows(es, method)
    base = run_cv(rows, es.labels, method, plan).accuracies
    for fold in range(plan.k):
        test = plan.assignments[0] == fold
        flipped = np.where(test, np.where(es.labels == SUCCESS, FAILURE, SUCCESS), es.labels)
        acc = run_cv(rows, flipped, method, plan).accuracies[fold]
        n_test = np.count_nonzero(test)
        # counts of correct test trials, so that no rounding of 1 - acc enters
        assert round(acc * n_test) == n_test - round(base[fold] * n_test)
