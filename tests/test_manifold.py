import logging

import numpy as np
import pytest

from errpkit import features, manifold
from errpkit.errors import (
    DimMismatch,
    EmptyInput,
    InvalidMatrix,
    NonConvergence,
    NotPositiveDefinite,
)

from conftest import desk_shaped_epochs, random_spd, random_symmetric


def geodesic_midpoint(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Closed-form midpoint a^1/2 (a^-1/2 b a^-1/2)^1/2 a^1/2 (test oracle)."""
    sq = manifold.mat_sqrt(a)
    isq = manifold.mat_invsqrt(a)
    return sq @ manifold.mat_sqrt(isq @ b @ isq) @ sq


def convergence_battery():
    """Nine SPD sets: cond 10, 1e3, 1e5 by shapes (d, n) (2, 5), (6, 10), (8, 40)."""
    rng = np.random.default_rng(0)
    return [
        np.stack([random_spd(rng, d, cond=cond) for _ in range(n)])
        for cond in (10.0, 1e3, 1e5)
        for d, n in ((2, 5), (6, 10), (8, 40))
    ]


class TestSymEig:
    def test_identity(self):
        w, v = manifold.sym_eig(np.eye(3))
        assert np.allclose(w, 1.0)
        assert np.allclose(v @ v.T, np.eye(3), atol=1e-10)

    def test_diagonal(self):
        w, v = manifold.sym_eig(np.diag([2.0, 5.0]))
        assert np.allclose(w, [2.0, 5.0])
        assert np.allclose(np.abs(v), np.eye(2))

    def test_reconstruction_96(self, rng):
        m = random_symmetric(rng, 96)
        w, v = manifold.sym_eig(m)
        recon = (v * w) @ v.T
        assert np.linalg.norm(recon - m) < 1e-9 * (1.0 + np.linalg.norm(m))
        assert np.all(np.diff(w) >= 0)
        assert np.abs(v.T @ v - np.eye(96)).max() < 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidMatrix):
            manifold.sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidMatrix):
            manifold.sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestMatFn:
    def test_log_identity_is_zero(self):
        assert np.allclose(manifold.mat_log(np.eye(5)), 0.0)

    def test_sqrt_diagonal(self):
        assert np.allclose(manifold.mat_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_exp_log_roundtrip_96(self, rng):
        c = random_spd(rng, 96)
        back = manifold.mat_exp(manifold.mat_log(c))
        assert np.linalg.norm(back - c) < 1e-9 * np.linalg.norm(c)

    def test_sqrt_squares_back(self, rng):
        c = random_spd(rng, 12)
        s = manifold.mat_sqrt(c)
        assert np.linalg.norm(s @ s - c) < 1e-9 * np.linalg.norm(c)

    def test_log_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            manifold.mat_log(np.diag([1.0, -1.0]))


class TestDistance:
    def test_zero_on_identical(self, rng):
        c = random_spd(rng, 6)
        assert manifold.airm_distance(c, c) < 1e-10

    def test_log_eigenvalue_one(self):
        d = 4
        b = np.eye(d)
        b[0, 0] = np.e
        assert abs(manifold.airm_distance(np.eye(d), b) - 1.0) < 1e-12

    def test_symmetric_in_arguments(self, rng):
        a, b = random_spd(rng, 6), random_spd(rng, 6)
        assert abs(manifold.airm_distance(a, b) - manifold.airm_distance(b, a)) < 1e-10

    def test_congruence_invariance(self, rng):
        a, b = random_spd(rng, 6), random_spd(rng, 6)
        w = rng.standard_normal((6, 6)) / np.sqrt(6)
        d1 = manifold.airm_distance(a, b)
        d2 = manifold.airm_distance(w.T @ a @ w, w.T @ b @ w)
        assert abs(d1 - d2) < 1e-8

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimMismatch):
            manifold.airm_distance(random_spd(rng, 3), random_spd(rng, 4))


class TestGeometricMean:
    def test_singleton(self, rng):
        c = random_spd(rng, 5)
        g = manifold.geometric_mean(c[None]).mean
        assert np.allclose(g, c, atol=1e-12)

    def test_replicates(self, rng):
        c = random_spd(rng, 5)
        g = manifold.geometric_mean(np.stack([c, c, c])).mean
        assert np.linalg.norm(g - c) < 1e-8

    def test_pair_matches_geodesic_midpoint(self, rng):
        a, b = random_spd(rng, 6), random_spd(rng, 6)
        g = manifold.geometric_mean(np.stack([a, b]), tol=1e-10, max_iter=200).mean
        assert np.linalg.norm(g - geodesic_midpoint(a, b)) < 1e-8

    def test_congruence_equivariance(self, rng):
        mats = np.stack([random_spd(rng, 6) for _ in range(6)])
        w = rng.standard_normal((6, 6)) / np.sqrt(6)
        g = manifold.geometric_mean(mats, tol=1e-11, max_iter=200).mean
        gw = manifold.geometric_mean(w.T @ mats @ w, tol=1e-11, max_iter=200).mean
        assert np.linalg.norm(gw - w.T @ g @ w) < 1e-7

    def test_karcher_residual_is_zero_at_fixed_point(self, rng):
        mats = np.stack([random_spd(rng, 5) for _ in range(8)])
        g = manifold.geometric_mean(mats, tol=1e-9, max_iter=100).mean
        isq = manifold.mat_invsqrt(g)
        logs = [manifold.mat_log(isq @ c @ isq) for c in mats]
        assert np.linalg.norm(np.mean(logs, axis=0)) <= 1e-9 * 1.001

    def test_permutation_gives_bit_identical_mean(self, rng):
        mats = np.stack([random_spd(rng, 5) for _ in range(7)])
        g1 = manifold.geometric_mean(mats).mean
        g2 = manifold.geometric_mean(mats[::-1].copy()).mean
        assert np.array_equal(g1, g2)

    def test_logs_are_tangent_vectors_at_mean(self, rng):
        mats = np.stack([random_spd(rng, 5, cond=100.0) for _ in range(9)])
        result = manifold.geometric_mean(mats, tol=1e-9)
        assert result.logs.shape == mats.shape
        assert np.array_equal(manifold.vectorize_sym(result.logs),
                              manifold.tangent_project(mats, result.mean))
        assert result.residual == np.linalg.norm(manifold.canonical_mean(result.logs), ord="fro")
        assert result.residual <= 1e-9 and 0 < result.iterations

    def test_empty_set(self):
        with pytest.raises(EmptyInput):
            manifold.geometric_mean(np.empty((0, 3, 3)))

    def test_nonconvergence_reports_residual(self, rng):
        mats = np.stack([random_spd(rng, 4, cond=1000.0) for _ in range(5)])
        with pytest.raises(NonConvergence, match="residual"):
            manifold.geometric_mean(mats, tol=1e-14, max_iter=1)

    @pytest.mark.parametrize("tol", [1e-8, 1e-11])
    def test_convergence_battery(self, tol):
        # spread sets that defeat weaker step rules: a unit step that
        # backtracks when the cost rises stalls at residual 1.6e-2 on the
        # cond-1e3 6x10 set, a 0.95 decay without the 0.5 floor stalls short
        # of tol on five runs, and with the floor it needs up to 57
        # iterations at tol 1e-11; the Barzilai-Borwein step needs 18
        for mats in convergence_battery():
            g = manifold.geometric_mean(mats, tol=tol, max_iter=25).mean
            isq = manifold.mat_invsqrt(g)
            logs = [manifold.mat_log(isq @ c @ isq) for c in mats]
            assert np.linalg.norm(np.mean(logs, axis=0)) <= tol * 1.001

    def test_desk_shaped_set_iteration_budget(self):
        # 150 super-trial covariances of 96x96, as one desk-scale training
        # fold builds them: 6 iterations reach tol 1e-4, where the 0.95-decay
        # step with a 0.5 floor needs 8 and a unit step with backtracking 15
        es = desk_shaped_epochs()
        windowed = features.riemann_windows(es, features.RIEMANN_WINDOW)
        protos = features.PrototypePair(manifold.canonical_mean(windowed[es.labels == 0]),
                                        manifold.canonical_mean(windowed[es.labels == 1]))
        covs = features._covariances(features._super_trials(windowed, protos),
                                     features.DEFAULT_SHRINKAGE)
        assert covs.shape == (150, 96, 96)
        manifold.geometric_mean(covs, tol=1e-4, max_iter=7)

    def test_logs_iterations_residual_and_step(self, rng, caplog):
        mats = np.stack([random_spd(rng, 4, cond=1000.0) for _ in range(5)])
        with caplog.at_level(logging.DEBUG, logger="errpkit.manifold"):
            manifold.geometric_mean(mats, tol=1e-8, max_iter=100)
        [record] = caplog.records
        assert record.levelno == logging.DEBUG
        assert all(word in record.getMessage() for word in ("iterations", "residual", "step"))
        with pytest.raises(NonConvergence, match="final step"):
            manifold.geometric_mean(mats, tol=1e-14, max_iter=1)


class TestTangent:
    def test_zero_vector_at_base(self, rng):
        g = random_spd(rng, 5)
        v = manifold.tangent_project(g, g)
        assert v.shape == (15,)
        assert np.abs(v).max() < 1e-10

    def test_dimension_4656_for_96(self, rng):
        c = random_spd(rng, 96)
        g = random_spd(rng, 96)
        v = manifold.tangent_project(c, g)
        assert v.shape == (manifold.tangent_dim(96),) == (4656,)

    def test_norm_equals_distance(self, rng):
        for _ in range(20):
            c, g = random_spd(rng, 6), random_spd(rng, 6)
            v = manifold.tangent_project(c, g)
            assert abs(np.linalg.norm(v) - manifold.airm_distance(g, c)) < 1e-8

    def test_batched_matches_single(self, rng):
        g = random_spd(rng, 5)
        cs = np.stack([random_spd(rng, 5) for _ in range(4)])
        batch = manifold.tangent_project(cs, g)
        for i in range(4):
            assert np.allclose(batch[i], manifold.tangent_project(cs[i], g), atol=1e-12)

    def test_vectorize_roundtrip(self, rng):
        m = random_symmetric(rng, 7)
        v = manifold.vectorize_sym(m)
        assert abs(np.linalg.norm(v) - np.linalg.norm(m, "fro")) < 1e-12
        expected = [m[i, j] * (1.0 if i == j else np.sqrt(2.0))
                    for i in range(7) for j in range(i, 7)]
        assert np.array_equal(v, expected)

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimMismatch):
            manifold.tangent_project(random_spd(rng, 4), random_spd(rng, 5))
