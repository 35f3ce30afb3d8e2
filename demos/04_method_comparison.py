"""The full evaluation protocol on a small synthetic dataset.

Both featurizers feed the same L2-regularized logistic regression:

* tangent-space route: per-class prototype averages are stacked with each
  trial into a super trial, its shrunk covariance is projected onto the
  tangent space at the geometric mean of the training covariances;
* benchmark route: per-channel means and standard deviations over four
  post-feedback windows, max-abs scaled on the training set.

Stratified repeated k-fold cross-validation scores both, a
variance-corrected paired t-test compares them within the dataset, a
label-shuffle run estimates the chance band, and a permutation test
aggregates the median-accuracy difference across datasets.

Each featurizer's rows are computed once per dataset, and every fold (and
every chance shuffle) indexes them.

Run:  python3 demos/04_method_comparison.py   (a few seconds)
"""
import errpkit  # noqa: F401  # first: it pins BLAS to one thread before numpy loads

import numpy as np

from errpkit.evaluation import (
    Hyperparams,
    chance_level,
    corrected_t_test,
    derive_seed,
    make_fold_plan,
    permutation_test,
    run_cv,
)
from errpkit.features import benchmark_features, riemann_windows
from errpkit.synth import ErpTemplateSpec, generate_epochs

SHAPE = dict(n_channels=8, fs_hz=128.0, pre_s=0.5, post_s=0.7)
template = ErpTemplateSpec(frn_amp_uv=-5.0, frn_width_s=0.05,
                           p3a_amp_uv=2.0, p3a_width_s=0.06,
                           noise_rms_uv=7.5, noise_exponent=1.2)
hp = Hyperparams(mean_tol=1e-6)

pairs = []
for dataset_idx in range(3):
    labels = np.random.default_rng([dataset_idx, 99]).permutation(np.arange(120) % 2)
    es = generate_epochs(labels, template, seed=dataset_idx, **SHAPE)
    plan = make_fold_plan(es.labels, k=5, r=2, seed=derive_seed(dataset_idx, 1))
    riemann = run_cv(riemann_windows(es), es.labels, "riemann", plan, hp)
    benchmark = run_cv(benchmark_features(es), es.labels, "benchmark", plan, hp)
    ttest = corrected_t_test(riemann, benchmark)
    pairs.append((riemann, benchmark))
    print(f"dataset {dataset_idx}: tangent-space {riemann.accuracies.mean():.3f} "
          f"vs benchmark {benchmark.accuracies.mean():.3f}  "
          f"(t = {ttest.t:+.3f}, p = {ttest.p:.3f}, df = {ttest.df})")

# ---------------------------------------------------------------------------
# Chance level: destroy the labels, rerun the benchmark CV many times, and
# report the mean and the 97.5th percentile of the shuffled accuracies.
# Accuracy above that threshold is unlikely to be a fluke of this dataset.
# ---------------------------------------------------------------------------
labels = np.arange(120) % 2
es = generate_epochs(labels, template, seed=0, **SHAPE)
ch = chance_level(benchmark_features(es), es.labels, plan_seed=7, n_shuffles=40, k=5, r=2,
                  hyperparams=hp)
print(f"\nchance level: mean {ch.mean_accuracy:.3f}, "
      f"97.5th percentile {ch.threshold_97_5:.3f} over {ch.n_shuffles} shuffles")

# ---------------------------------------------------------------------------
# Across datasets: sum the per-dataset differences of median accuracy and
# z-score the sum against the null of swapping the two methods' accuracy
# sets within each dataset.  Every swap pattern is equally likely, so the
# null has mean 0 and standard deviation sqrt(sum d^2), with no draws.
# ---------------------------------------------------------------------------
perm = permutation_test(pairs)
print(f"across datasets: observed {perm.observed_metric:+.4f}, "
      f"z = {perm.z:+.3f}, two-sided p = {perm.p:.2e}")
