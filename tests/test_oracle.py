"""The riemann and benchmark folds, computed again as a textbook would.

The oracle shares no numerics with the package but its fold plan.  The
riemann fold is pyRiemann's ``ERPCovariances`` (prototype super trials;
Barachant & Congedo 2014, arXiv:1409.0107) with the package's trace-scaled
shrinkage, the Riemannian mean by the fixed-step Karcher iteration (Pennec
et al. 2006) to 1e-12, ``TangentSpace`` at that mean, and an L2 logistic
regression with an unpenalized bias, fitted by L-BFGS on the objective of
the :mod:`errpkit.logreg` docstring.  The matrix functions are scipy's
``sqrtm``, ``logm`` and ``expm``.  The benchmark fold is built from plain
loops over channels and windows.

A fold's accuracies are compared only where the oracle's smallest test
|decision value| clears :data:`MARGIN`, so that no test trial sits on a tie
that rounding could tip.  The margin was fixed before the first run.
"""
import math

import numpy as np
import pytest
from scipy import linalg, optimize

from errpkit.evaluation import make_fold_plan, run_cv
from errpkit.features import benchmark_features, riemann_windows
from errpkit.labels import FAILURE
from errpkit.synth import ErpTemplateSpec, generate_epochs

MARGIN = 1e-3
SHRINKAGE, REG_C = 0.01, 1.0


def samples(es, t_a: float, t_b: float) -> slice:
    """The samples of ``[t_a, t_b)`` s of an epoch, by half-up rounding."""
    return slice(*(math.floor((t - es.t0_offset_s) * es.fs_hz + 0.5) for t in (t_a, t_b)))


def covariance(x: np.ndarray) -> np.ndarray:
    xc = x - x.mean(axis=1, keepdims=True)
    c = xc @ xc.T / (x.shape[1] - 1)
    return (1 - SHRINKAGE) * c + SHRINKAGE * np.trace(c) / len(c) * np.eye(len(c))


def karcher_mean(covs: list[np.ndarray]) -> np.ndarray:
    g = sum(covs) / len(covs)
    for _ in range(500):
        root = linalg.sqrtm(g)
        inv_root = np.linalg.inv(root)
        t = sum(linalg.logm(inv_root @ c @ inv_root) for c in covs) / len(covs)
        if np.linalg.norm(t) < 1e-12:
            return g
        g = root @ linalg.expm(t) @ root
    raise AssertionError("the oracle's Karcher mean did not converge")


def tangent_vector(c: np.ndarray, g: np.ndarray) -> np.ndarray:
    inv_root = np.linalg.inv(linalg.sqrtm(g))
    log = linalg.logm(inv_root @ c @ inv_root)
    d = len(log)
    return np.array([log[i, j] * (1.0 if i == j else math.sqrt(2.0))
                     for i in range(d) for j in range(i, d)])


def logistic_decisions(xtr, ytr, xte) -> np.ndarray:
    """Test decision values of the L2 logistic fit; positive means failure."""
    y = np.where(ytr == FAILURE, 1.0, -1.0)

    def objective(params):
        w, b = params[:-1], params[-1]
        margin = -y * (xtr @ w + b)
        sigma = 0.5 * (1.0 + np.tanh(0.5 * margin))
        grad = np.append(xtr.T @ (-y * sigma) + w / REG_C, np.sum(-y * sigma))
        return np.sum(np.logaddexp(0.0, margin)) + w @ w / (2 * REG_C), grad

    res = optimize.minimize(objective, np.zeros(xtr.shape[1] + 1), jac=True, method="L-BFGS-B",
                            options={"gtol": 1e-10, "ftol": 1e-15, "maxiter": 10_000})
    return xte @ res.x[:-1] + res.x[-1]


def riemann_fold(es, train, test) -> np.ndarray:
    window = es.data[:, :, samples(es, 0.1, 0.6)].astype(np.float64)
    ytr = es.labels[train]
    protos = [window[train][ytr == label].mean(axis=0) for label in (0, 1)]
    covs = [covariance(np.vstack([*protos, window[i]])) for i in range(len(es))]
    g = karcher_mean([covs[i] for i in train])
    x = np.array([tangent_vector(c, g) for c in covs])
    return logistic_decisions(x[train], ytr, x[test])


def benchmark_fold(es, train, test) -> np.ndarray:
    rows = []
    for epoch in es.data.astype(np.float64):
        row = []
        for channel in epoch:
            for t_a, t_b in ((0.1, 0.2), (0.2, 0.3), (0.3, 0.4), (0.4, 0.6)):
                seg = channel[samples(es, t_a, t_b)]
                row += [seg.mean(), seg.std(ddof=1)]
        rows.append(row)
    x = np.array(rows)
    scale = np.abs(x[train]).max(axis=0)
    scale[scale == 0] = 1.0
    return logistic_decisions(x[train] / scale, es.labels[train], x[test] / scale)


@pytest.mark.parametrize("method, amplitude", [("riemann", -3.0), ("benchmark", -3.0),
                                               ("benchmark", 0.0)],
                         ids=["riemann-erp", "benchmark-erp", "benchmark-null"])
def test_fold_accuracies_equal_the_oracle(method, amplitude):
    """20 trials of 3 channels at 64 Hz, 5x1 folds; an ERP of ``amplitude``
    uV and the opposite positivity, or none."""
    spec = ErpTemplateSpec(frn_amp_uv=amplitude, p3a_amp_uv=-amplitude)
    es = generate_epochs(np.arange(20) % 2, spec, n_channels=3, fs_hz=64.0, seed=7,
                         pre_s=0.25, post_s=0.75)
    plan = make_fold_plan(es.labels, 5, 1, seed=3)
    rows = riemann_windows(es) if method == "riemann" else benchmark_features(es)
    got = run_cv(rows, es.labels, method, plan).accuracies
    fold = riemann_fold if method == "riemann" else benchmark_fold
    compared = 0
    for k in range(plan.k):
        test = np.flatnonzero(plan.assignments[0] == k)
        train = np.flatnonzero(plan.assignments[0] != k)
        z = fold(es, train, test)
        if np.abs(z).min() > MARGIN:
            compared += 1
            assert got[k] == np.mean(np.where(z >= 0, FAILURE, 0) == es.labels[test]), k
    assert compared >= 4
