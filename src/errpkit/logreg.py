"""Binary L2-regularized logistic regression.

Minimizes, over weights w and (unpenalized) bias b,

    J(w, b) = sum_i log(1 + exp(-y_i (w . x_i + b))) + ||w||^2 / (2 reg_c)

with y in {-1, +1} and failure encoded as +1.  Deterministic L-BFGS-B from
a zero start; a central-finite-difference harness verifies the analytic
gradient.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from .errors import DegenerateTrainingSet, DimMismatch, NumericalFailure
from .labels import FAILURE, SUCCESS

DEFAULT_REG_C = 1.0
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 500


@dataclass(frozen=True)
class LogisticModel:
    weights: np.ndarray
    bias: float
    reg_c: float
    converged: bool
    final_grad_norm: float


def _prepare(features, labels) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise DimMismatch("features must be (n_samples, n_features)")
    y = np.asarray(labels)
    if y.shape != (x.shape[0],):
        raise DimMismatch(f"{x.shape[0]} samples but {y.size} labels")
    present = set(np.unique(y).tolist())
    if not present <= {SUCCESS, FAILURE}:
        raise ValueError(f"labels must be success/failure codes, got {present}")
    if present != {SUCCESS, FAILURE}:
        raise DegenerateTrainingSet(f"training labels contain a single class: {present}")
    y_pm = np.where(y == FAILURE, 1.0, -1.0)
    return x, y_pm


def objective(params: np.ndarray, x: np.ndarray, y_pm: np.ndarray,
              reg_c: float) -> tuple[float, np.ndarray]:
    """Loss and gradient at ``params = [w..., b]``."""
    w, b = params[:-1], params[-1]
    margin = -y_pm * (x @ w + b)
    loss = float(np.logaddexp(0.0, margin).sum() + 0.5 * (w @ w) / reg_c)
    s = expit(margin)  # sigma(-y z)
    coef = -y_pm * s
    grad = np.empty_like(params)
    grad[:-1] = x.T @ coef + w / reg_c
    grad[-1] = coef.sum()
    return loss, grad


def fit(features, labels, reg_c: float = DEFAULT_REG_C, tol: float = DEFAULT_TOL,
        max_iter: int = DEFAULT_MAX_ITER) -> LogisticModel:
    """Train from a zero start; ``converged`` reflects the gradient test at return."""
    if reg_c <= 0:
        raise ValueError("reg_c must be positive")
    x, y_pm = _prepare(features, labels)
    x0 = np.zeros(x.shape[1] + 1)
    res = minimize(
        objective,
        x0,
        args=(x, y_pm, reg_c),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iter, "maxfun": 10 * max_iter, "ftol": 1e-14, "gtol": tol},
    )
    params = res.x
    if not np.all(np.isfinite(params)):
        raise NumericalFailure("optimizer produced non-finite parameters")
    _, grad = objective(params, x, y_pm, reg_c)
    gnorm = float(np.abs(grad).max())
    if not np.isfinite(gnorm):
        raise NumericalFailure("non-finite gradient at the solution")
    return LogisticModel(
        weights=params[:-1].copy(),
        bias=float(params[-1]),
        reg_c=reg_c,
        converged=bool(gnorm <= tol),
        final_grad_norm=gnorm,
    )


def decision_value(model: LogisticModel, x) -> np.ndarray | float:
    """w . x + b; positive means failure.  Accepts one vector or a stack."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.weights.shape[0]:
        raise DimMismatch(
            f"feature length {x.shape[-1]} does not match model dim {model.weights.shape[0]}"
        )
    z = x @ model.weights + model.bias
    return float(z) if z.ndim == 0 else z


def predict_proba(model: LogisticModel, x) -> np.ndarray | float:
    """P(failure | x) through the logistic link."""
    z = decision_value(model, x)
    p = expit(z)
    return float(p) if np.ndim(p) == 0 else p


def predict(model: LogisticModel, x) -> np.ndarray | int:
    """Hard labels: failure iff the decision value is nonnegative."""
    z = decision_value(model, x)
    out = np.where(np.asarray(z) >= 0.0, FAILURE, SUCCESS)
    return int(out) if out.ndim == 0 else out


def grad_check(params, features, labels, reg_c: float = 1.0, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``labels`` may be empty, in which case only the regularizer is probed.
    The per-coordinate error is normalized by max(1, |analytic|).
    """
    if not 1e-7 <= h <= 1e-3:
        raise ValueError(f"step h must lie in [1e-7, 1e-3], got {h}")
    params = np.asarray(params, dtype=np.float64)
    x = np.asarray(features, dtype=np.float64).reshape(-1, params.size - 1)
    y = np.asarray(labels)
    y_pm = np.where(y == FAILURE, 1.0, -1.0) if y.size else np.zeros(0)
    _, grad = objective(params, x, y_pm, reg_c)
    worst = 0.0
    for i in range(params.size):
        step = np.zeros_like(params)
        step[i] = h
        jp, _ = objective(params + step, x, y_pm, reg_c)
        jm, _ = objective(params - step, x, y_pm, reg_c)
        fd = (jp - jm) / (2.0 * h)
        err = abs(fd - grad[i]) / max(1.0, abs(grad[i]))
        worst = max(worst, err)
    return worst
