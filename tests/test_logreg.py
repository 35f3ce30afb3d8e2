import warnings

import numpy as np
import pytest

from errpkit import logreg
from errpkit.errors import DegenerateTrainingSet, DimMismatch, NumericalFailure
from errpkit.labels import FAILURE, SUCCESS
from errpkit.logreg import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    LogisticModel,
    _expit,
    decision_value,
    fit,
    fit_many,
    grad_check,
    objective,
    predict,
)

from conftest import traced_peak


def blobs(rng, n=40, dim=2, gap=8.0):
    x = rng.standard_normal((n, dim))
    y = np.arange(n) % 2
    x[y == 1] += gap
    return x, y


class TestFit:
    def test_separable_blobs_perfect_training_accuracy(self, rng):
        x, y = blobs(rng)
        model = fit(x, y, reg_c=1.0)
        assert np.mean(predict(model, x) == y) == 1.0

    def test_zero_features_balanced_gives_flat_model(self):
        x = np.zeros((10, 3))
        y = np.array([0, 1] * 5)
        model = fit(x, y)
        assert np.all(model.weights == 0.0)
        assert model.bias == 0.0
        assert decision_value(model, np.zeros(3)) == 0.0

    def test_gradient_small_at_solution(self, rng):
        x, y = blobs(rng, gap=2.0)
        model = fit(x, y, tol=1e-6)
        assert model.converged
        params = np.append(model.weights, model.bias)
        y_pm = np.where(y == FAILURE, 1.0, -1.0)
        _, g = objective(params, x, y_pm, model.reg_c)
        assert np.abs(g).max() <= 1e-6
        assert model.final_grad_norm <= 1e-6

    def test_single_class_rejected(self, rng):
        x = rng.standard_normal((6, 2))
        with pytest.raises(DegenerateTrainingSet):
            fit(x, np.zeros(6, dtype=int))

    @pytest.mark.parametrize("reg_c", [1e50, 1e200])
    def test_singular_newton_system_names_reg_c(self, reg_c):
        # two equal columns: a penalty 1 / reg_c lost in rounding leaves the
        # Hessian exactly singular
        x = np.repeat(np.array([[1.0], [2.0], [3.0], [0.0]]), 2, axis=1)
        assert fit(x, [0, 1, 0, 1], reg_c=1.0).converged
        with pytest.raises(NumericalFailure) as err:
            fit(x, [0, 1, 0, 1], reg_c=reg_c)
        assert str(err.value) == (
            f"the Newton system is singular at reg_c {reg_c}; a smaller reg_c regularizes it")

    def test_determinism(self, rng):
        x, y = blobs(rng, gap=1.0)
        m1 = fit(x, y)
        m2 = fit(x, y)
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias


class TestExpit:
    def test_within_four_ulp_of_scipy(self):
        from scipy import special

        # Both evaluate 1 / (1 + exp(-x)); numpy's exp and the C library's
        # differ by up to 1 ulp, and near exp(-x) = 2^53 the rounding of
        # 1 + exp(-x) can turn that into 2 ulp of the result on each side.
        x = np.linspace(-750.0, 750.0, 1_500_001)
        ours, ref = _expit(x), special.expit(x)
        assert np.all(np.abs(ours - ref) <= 4 * np.spacing(ref))

    def test_saturates_exactly_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _expit(np.array([-1000.0, 1000.0])).tolist() == [0.0, 1.0]
            assert (_expit(-1000.0), _expit(1000.0)) == (0.0, 1.0)


class TestPredict:
    def test_predict_is_the_sign_of_the_decision_value(self, rng):
        w = rng.standard_normal(5)
        b = 0.37
        m = LogisticModel(w, b, 1.0, True, 0.0)
        x = rng.standard_normal((6, 5))
        z = x @ w + b
        assert np.array_equal(decision_value(m, x), z)
        assert predict(m, x).tolist() == [FAILURE if v >= 0 else SUCCESS for v in z]
        z0 = decision_value(m, x[0])
        assert z0 == x[0] @ w + b
        assert predict(m, x[0]) == (FAILURE if z0 >= 0 else SUCCESS)
        flat = LogisticModel(np.zeros(5), 0.0, 1.0, True, 0.0)
        assert predict(flat, x[0]) == FAILURE  # a zero decision value is failure

    def test_dim_mismatch(self):
        m = LogisticModel(np.zeros(3), 0.0, 1.0, True, 0.0)
        for fn in (predict, decision_value):
            with pytest.raises(DimMismatch):
                fn(m, np.zeros(4))


class TestGradCheck:
    def test_random_points(self, rng):
        x = rng.standard_normal((20, 5))
        y = rng.integers(0, 2, 20)
        y[:2] = [0, 1]
        for _ in range(5):
            params = rng.standard_normal(6)
            assert grad_check(params, x, y, reg_c=1.0, h=1e-5) < 1e-5

    def test_zero_data_regularizer_only(self, rng):
        params = rng.standard_normal(4)
        err = grad_check(params, np.zeros((0, 3)), np.zeros(0), reg_c=2.0, h=1e-5)
        assert err < 1e-10

    def test_far_from_optimum_on_separable_data(self, rng):
        x, y = blobs(rng, n=30, gap=10.0)
        params = rng.standard_normal(3) * 5
        assert grad_check(params, x, y, h=1e-5) < 1e-5

    def test_step_range_enforced(self, rng):
        with pytest.raises(ValueError):
            grad_check(np.zeros(3), np.zeros((1, 2)), np.array([1]), h=1e-2)


class TestProperties:
    def test_objective_is_convex(self, rng):
        x = rng.standard_normal((15, 4))
        y = rng.integers(0, 2, 15)
        y_pm = np.where(y == 1, 1.0, -1.0)
        for _ in range(10):
            p = rng.standard_normal(5)
            q = rng.standard_normal(5)
            t = rng.uniform(0.1, 0.9)
            jp, _ = objective(p, x, y_pm, 1.0)
            jq, _ = objective(q, x, y_pm, 1.0)
            jm, _ = objective(t * p + (1 - t) * q, x, y_pm, 1.0)
            assert jm <= t * jp + (1 - t) * jq + 1e-10

    def test_decision_symmetry(self, rng):
        x, y = blobs(rng, n=24, gap=1.5)
        m1 = fit(x, y)
        m2 = fit(-x, 1 - y)
        p1 = predict(m1, x)
        p2 = predict(m2, -x)
        assert np.array_equal(p2, 1 - p1)

    def test_weight_norm_monotone_in_reg_c(self, rng):
        x, y = blobs(rng, n=30, gap=1.0)
        norms = [
            np.linalg.norm(fit(x, y, reg_c=c, tol=1e-10).weights)
            for c in (0.01, 0.1, 1.0, 10.0, 100.0)
        ]
        for a, b in zip(norms, norms[1:]):
            assert b >= a - 1e-8


def lbfgs_reference(x, y, reg_c):
    """An independent L-BFGS-B solve of the same objective at gtol 1e-10."""
    from scipy.optimize import minimize

    y_pm = np.where(y == FAILURE, 1.0, -1.0)
    res = minimize(objective, np.zeros(x.shape[1] + 1), args=(x, y_pm, reg_c), jac=True,
                   method="L-BFGS-B",
                   options={"gtol": 1e-10, "ftol": 0.0, "maxiter": 20000, "maxfun": 40000})
    return res.x[:-1], res.x[-1]


def row_space_reference(x, y, reg_c=logreg.DEFAULT_REG_C):
    """The weights ``q @ beta`` and bias of the Newton fit in the row space
    of ``x``, from a reduced QR whose ``q`` is formed (test reference)."""
    y_pm = np.where(np.asarray(y) == FAILURE, 1.0, -1.0)
    q, r = np.linalg.qr(x.T)
    beta = logreg.minimize(r.T[None], y_pm[None], reg_c, DEFAULT_TOL, DEFAULT_MAX_ITER)[0]
    return q @ beta[:-1], beta[-1]


def rank_deficient(x, deficiency):
    """``x`` with its row 1 a copy of row 0, or with row 1 all zero."""
    x = x.copy()
    x[1] = x[0] if deficiency == "duplicated-row" else 0.0
    return x


def shaped_problem(shape):
    """Two-class features of the given (n, p) with a weak class shift."""
    n, p = shape
    rng = np.random.default_rng(n * 100003 + p)
    x = rng.standard_normal((n, p))
    y = np.arange(n) % 2
    x[y == 1, : max(1, p // 10)] += 0.5
    return x, y


class TestNewtonRowSpace:
    """The Newton fit, on x itself or in its row space, reaches the penalized
    optimum in every shape."""

    @pytest.mark.parametrize("shape, duplicate", [
        ((30, 500), False), ((150, 4656), False), ((200, 12), False), ((60, 8), True),
    ], ids=["p-above-n", "desk", "p-below-n", "duplicated-column"])
    def test_optimum(self, shape, duplicate):
        x, y = shaped_problem(shape)
        if duplicate:
            x[:, -1] = x[:, 0]
        y_pm = np.where(y == FAILURE, 1.0, -1.0)
        for tol in (DEFAULT_TOL, 1e-10):
            model = fit(x, y, tol=tol)
            assert model.converged
            _, g = objective(np.append(model.weights, model.bias), x, y_pm, model.reg_c)
            assert np.abs(g).max() <= tol
            assert model.final_grad_norm == np.abs(g).max()
            # w = x.T a for some a: no part of w lies outside the row space of x
            a, *_ = np.linalg.lstsq(x.T, model.weights, rcond=None)
            off = np.linalg.norm(model.weights - x.T @ a)
            assert off <= 1e-10 * np.linalg.norm(model.weights)
            if duplicate:
                assert abs(model.weights[-1] - model.weights[0]) <= 1e-10

        # at equal gradient tolerance both solvers give the same decision values
        w_ref, b_ref = lbfgs_reference(x, y, model.reg_c)
        x_eval = np.vstack([x, np.random.default_rng(1).standard_normal(x.shape)])
        np.testing.assert_allclose(decision_value(model, x_eval), x_eval @ w_ref + b_ref,
                                   rtol=0, atol=1e-6)

    @pytest.mark.parametrize("shape", [(54, 24), (54, 45), (270, 256)],
                             ids=["null-benchmark", "null-riemann", "desk-benchmark"])
    def test_direct_route_matches_row_space_route(self, shape):
        """At p <= n the fit runs Newton on x itself; the row-space route it
        skips, run here by hand, lands on the same model."""
        x, y = shaped_problem(shape)
        self.assert_matches_row_space_reference(x, y)

    @pytest.mark.parametrize("deficiency", ["duplicated-row", "zero-row"])
    def test_rank_deficient_rows_match_row_space_reference(self, deficiency):
        """At p > n, training rows that are linearly dependent give a
        singular r; the fit applies q's reflectors, solves nothing with r,
        and lands on the reduced-QR model."""
        x, y = shaped_problem((30, 500))
        x = rank_deficient(x, deficiency)
        diag = np.abs(np.diag(np.linalg.qr(x.T)[1]))
        assert diag.min() <= 1e-12 * diag.max()
        self.assert_matches_row_space_reference(x, y)

    @staticmethod
    def assert_matches_row_space_reference(x, y):
        model = fit(x, y)
        assert model.converged
        w_qr, b_qr = row_space_reference(x, y, model.reg_c)
        np.testing.assert_allclose(model.weights, w_qr, rtol=0, atol=1e-12 * np.abs(w_qr).max())
        np.testing.assert_allclose(model.bias, b_qr, rtol=1e-12)
        x_eval = np.vstack([x, np.random.default_rng(1).standard_normal(x.shape)])
        assert np.array_equal(predict(model, x_eval),
                              np.where(x_eval @ w_qr + b_qr >= 0.0, FAILURE, SUCCESS))

    def test_p_above_n_fit_holds_one_copy_of_the_features(self):
        """A desk-shaped p > n fit peaks at most 1.75 times the features'
        bytes: the reflectors are one copy, and no p x n q is formed."""
        x, y = shaped_problem((150, 4656))
        fit_many(x[None, :20, :40], y[None, :20])  # first-call allocations out of the measurement
        models, peak = traced_peak(fit_many, x[None], y[None])
        assert models[0].converged
        assert peak <= 1.75 * x.nbytes, peak / x.nbytes

    def test_max_iter_counts_newton_steps(self, rng):
        x, y = blobs(rng, gap=1.0)
        assert not fit(x, y, max_iter=1).converged
        assert fit(x, y, max_iter=20).converged


class TestFitMany:
    """Every member of a stack fits the same bits as its problem alone."""

    @staticmethod
    def mixed_stack(n, p):
        """Six problems: all-zero features (at the optimum from the start),
        then class shifts and scales that converge after different numbers
        of Newton steps."""
        rng = np.random.default_rng(n * 1000 + p)
        xs = rng.standard_normal((6, n, p))
        ys = np.stack([rng.permutation(np.arange(n) % 2) for _ in range(6)])
        for i, (gap, scale) in enumerate([(0, 0), (0.2, 1), (1, 1), (3, 1), (1, 10), (6, 3)]):
            xs[i, ys[i] == FAILURE, : max(1, p // 4)] += gap
            xs[i] *= scale
        return xs, ys

    @pytest.mark.parametrize("n, p, deficiency", [
        (40, 6, None), (20, 60, None), (40, 40, None), (40, 41, None),
        (20, 60, "duplicated-row"),
    ], ids=["p-below-n", "p-above-n", "p-equals-n", "p-one-above-n", "p-above-n-rank-deficient"])
    def test_members_match_fit_bit_for_bit(self, n, p, deficiency):
        xs, ys = self.mixed_stack(n, p)
        if deficiency:
            xs = np.stack([rank_deficient(x, deficiency) for x in xs])
        for max_iter in (DEFAULT_MAX_ITER, 1):
            models = fit_many(xs, ys, max_iter=max_iter)
            converged = [m.converged for m in models]
            assert converged == [True] * 6 if max_iter > 1 else converged == [True] + [False] * 5
            for i, model in enumerate(models):
                alone = fit(xs[i], ys[i], max_iter=max_iter)
                assert np.array_equal(model.weights, alone.weights)
                assert model.bias == alone.bias
                assert model.converged == alone.converged
                assert model.final_grad_norm == alone.final_grad_norm

    def test_member_that_halves_its_step(self, monkeypatch):
        """At a weak penalty the first problem backtracks a Newton step while
        the others take theirs whole."""
        xs, ys = [], []
        for seed in (91, 0, 1, 2):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((40, 6)) + 10 * rng.standard_normal(6)
            y = rng.permutation(np.arange(40) % 2)
            x[y == 1] += 2 * rng.standard_normal(6)
            xs.append(x)
            ys.append(y)
        models = fit_many(np.stack(xs), np.stack(ys), reg_c=1e6)
        for x, y, model in zip(xs, ys, models):
            alone = fit(x, y, reg_c=1e6)
            assert np.array_equal(model.weights, alone.weights)
            assert (model.bias, model.converged, model.final_grad_norm) == (
                alone.bias, alone.converged, alone.final_grad_norm)
        # the first problem's fit evaluates more trial steps than it solves for
        calls = []
        objective, solve = logreg.objective, np.linalg.solve
        monkeypatch.setattr(logreg, "objective", lambda *a: calls.append("eval") or objective(*a))
        monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append("step") or solve(*a))
        fit(xs[0], ys[0], reg_c=1e6)
        # less the evaluations at the start and of the final gradient
        assert calls.count("eval") - 2 > calls.count("step")

    def test_single_class_member_rejected(self, rng):
        xs = rng.standard_normal((3, 6, 2))
        ys = np.array([[0, 1] * 3, [1] * 6, [0, 1] * 3])
        with pytest.raises(DegenerateTrainingSet, match=r"single class: \{1\}"):
            fit_many(xs, ys)
