"""Binary L2-regularized logistic regression.

Minimizes, over weights w and (unpenalized) bias b,

    J(w, b) = sum_i log(1 + exp(-y_i (w . x_i + b))) + ||w||^2 / (2 reg_c)

with y in {-1, +1} and failure encoded as +1.

J is minimized by damped Newton from a zero start, on the training
features x (n x p) themselves when p <= n, and otherwise in their row
space.  At the optimum the gradient in w vanishes, so w = -reg_c x.T c,
where c holds the per-sample derivatives of the loss term: the optimal
weights lie in the row space of x.  With the reduced QR factorization
x.T = q r (q is p x m with orthonormal columns, m = min(n, p)), span(q)
contains that row space, and writing w = q beta gives x w = r.T beta and
||w|| = ||beta||.  So J becomes the same penalized problem on the m
features r.T, with the same bias, and its optimum beta maps back to the
optimum w = q beta.  When p > n, each Newton step then solves an
(n+1)-square system instead of a (p+1)-square one, and q (p x n, the size
of x) is never formed: LAPACK's ``geqrf`` (numpy's ``mode="raw"``) leaves
r and the n Householder reflectors whose product is q, and w = q beta is
those reflectors applied to [beta; 0].  The weights are not recovered from
x instead, as x.T r^-T beta: that solve needs r invertible, and r is
singular whenever the training rows are linearly dependent, as duplicated
or all-zero trials make them.  When p <= n, q is square and orthogonal, a
rotation under which Newton's iterates are the same in exact arithmetic,
so the factorization is skipped.  A central-finite-difference harness
verifies the analytic gradient.

:func:`fit_many` fits a stack of problems of one shape at once, and
:func:`fit` is that stack of one, so there is one Newton loop.  The stack
takes one label check, one batched QR when p > n, and one Newton loop over
all problems: a problem leaves the active set when it meets ``tol`` or
when its line search fails, and each keeps its own Armijo step.  Every
operand of a member has the memory layout of its own fit, and every
reduction is taken per member as that fit takes it (a BLAS dot,
matrix-vector or matrix product, or numpy's sum along one row), so each
model is the same bits as a fit of its problem alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTrainingSet, DimMismatch, NumericalFailure
from .labels import FAILURE, SUCCESS

DEFAULT_REG_C = 1.0
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 500  # counts Newton iterations

_ARMIJO_C = 1e-4  # sufficient-decrease fraction of the Armijo test
_MAX_HALVINGS = 60
# Relative rounding error allowed in the loss, a sum of up to a few hundred
# terms each exact to about 1e-16: near the optimum a Newton step lowers the
# loss by less than that, and the test must still take it.
_LOSS_RTOL = 1e-13
# exp(-x) is finite exactly for x >= _EXPIT_LOW; below it the link rounds to 0.
_EXPIT_LOW = -float(np.log(np.finfo(np.float64).max))


@dataclass(frozen=True)
class LogisticModel:
    weights: np.ndarray
    bias: float
    reg_c: float
    converged: bool
    final_grad_norm: float


def _prepare(features, labels) -> tuple[np.ndarray, np.ndarray]:
    """A stack of problems as float64 features and +-1 labels, its labels
    checked once for the whole stack."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 3:
        raise DimMismatch("features must be (n_problems, n_samples, n_features)")
    y = np.asarray(labels)
    if y.shape != x.shape[:2]:
        raise DimMismatch(f"labels must have shape {x.shape[:2]}, got {y.shape}")
    present = set(np.unique(y).tolist())
    if not present <= {SUCCESS, FAILURE}:
        raise ValueError(f"labels must be success/failure codes, got {present}")
    both = (y == SUCCESS).any(axis=1) & (y == FAILURE).any(axis=1)
    if not both.all():
        single = set(np.unique(y[np.argmin(both)]).tolist())
        raise DegenerateTrainingSet(f"training labels contain a single class: {single}")
    y_pm = np.where(y == FAILURE, 1.0, -1.0)
    return x, y_pm


def _expit(x):
    """The logistic link ``1 / (1 + exp(-x))``, scipy.special.expit's formula.

    ``x`` is clipped at :data:`_EXPIT_LOW` so that ``exp`` cannot overflow,
    and the clipped entries are set to 0 by the 0/1 numerator.
    """
    return (x >= _EXPIT_LOW) / (1.0 + np.exp(-np.maximum(x, _EXPIT_LOW)))


def _dot(a: np.ndarray, b: np.ndarray):
    """``a[i] . b[i]`` over the last axis, by the BLAS dot product of
    ``a @ b`` on vectors."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``a[i] @ v[i]``, by the BLAS matrix-vector product of ``a @ v``."""
    return (a @ v[..., None])[..., 0]


def objective(params: np.ndarray, x: np.ndarray, y_pm: np.ndarray, reg_c: float):
    """Loss and gradient at ``params = [w..., b]``.

    ``params`` may also be a stack (B, p+1) with ``x`` (B, n, p) and
    ``y_pm`` (B, n): the loss is then one per problem, each the same bits
    as its problem's own call.
    """
    w, b = params[..., :-1], params[..., -1:]
    margin = -y_pm * (_matvec(x, w) + b)
    loss = np.logaddexp(0.0, margin).sum(axis=-1) + 0.5 * _dot(w, w) / reg_c
    s = _expit(margin)  # sigma(-y z)
    coef = -y_pm * s
    grad = np.empty_like(params)
    grad[..., :-1] = _matvec(np.swapaxes(x, -1, -2), coef) + w / reg_c
    grad[..., -1] = coef.sum(axis=-1)
    return loss, grad


def fit(features, labels, reg_c: float = DEFAULT_REG_C, tol: float = DEFAULT_TOL,
        max_iter: int = DEFAULT_MAX_ITER) -> LogisticModel:
    """Train from a zero start: :func:`fit_many` on a stack of one."""
    return fit_many(np.asarray(features)[None], np.asarray(labels)[None], reg_c=reg_c, tol=tol,
                    max_iter=max_iter)[0]


def fit_many(features, labels, reg_c: float = DEFAULT_REG_C, tol: float = DEFAULT_TOL,
             max_iter: int = DEFAULT_MAX_ITER) -> list[LogisticModel]:
    """Train one model per problem of a stack, ``features`` (B, n, p) and
    ``labels`` (B, n); ``converged`` reflects the gradient test at return.

    Each problem's parameters are found by at most ``max_iter`` Newton
    steps, each backtracked from step 1 until the Armijo condition holds.
    When ``p <= n`` the steps run on the features themselves.  When
    ``p > n`` they run on the (n+1)-parameter reduced problem, and the
    weights are ``q beta`` in the row space of the features, applied from
    the reflectors of ``q`` without forming it (see the module docstring).
    A problem's steps stop once the 2-norm of its gradient, reduced or not,
    is at most ``tol``: as ``q`` is orthonormal, the weight
    gradient in the original space is ``q`` times the reduced one, so its
    max-abs entry is at most that norm.  ``final_grad_norm`` is the max-abs
    gradient recomputed in the original space, and ``converged`` is whether
    it is at most ``tol``.  Every model is the same bits as a fit of its
    problem alone.
    """
    if reg_c <= 0:
        raise ValueError("reg_c must be positive")
    x, y_pm = _prepare(features, labels)
    if x.shape[2] <= x.shape[1]:
        params = minimize(x, y_pm, reg_c, tol, max_iter)
        weights = params[:, :-1]
    else:
        h, tau = np.linalg.qr(np.swapaxes(x, 1, 2), mode="raw")
        r = np.triu(np.swapaxes(h, 1, 2)[:, :x.shape[1]])
        beta = minimize(np.swapaxes(r, 1, 2), y_pm, reg_c, tol, max_iter)
        weights = _reflect(h, tau, beta[:, :-1])
        params = np.concatenate([weights, beta[:, -1:]], axis=1)
    if not np.all(np.isfinite(params)):
        raise NumericalFailure("optimizer produced non-finite parameters")
    _, grad = objective(params, x, y_pm, reg_c)
    gnorm = np.abs(grad).max(axis=1)
    if not np.all(np.isfinite(gnorm)):
        raise NumericalFailure("non-finite gradient at the solution")
    return [
        LogisticModel(weights=weights[i], bias=float(params[i, -1]), reg_c=reg_c,
                      converged=bool(gnorm[i] <= tol), final_grad_norm=float(gnorm[i]))
        for i in range(len(params))
    ]


def _reflect(h: np.ndarray, tau: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """``q[i] @ beta[i]`` from the Householder form ``(h, tau)`` of
    ``np.linalg.qr(., mode="raw")``: ``H_1 ... H_k [beta; 0]``, with
    ``H_j = I - tau_j v_j v_j.T`` and ``v_j`` row ``j`` of ``h`` from its
    diagonal on, that diagonal read as 1.  ``h`` is overwritten."""
    w = np.zeros((h.shape[0], h.shape[2]))
    w[:, :beta.shape[1]] = beta
    for j in reversed(range(tau.shape[1])):
        v = h[:, j, j:]
        v[:, 0] = 1.0
        w[:, j:] -= (tau[:, j] * _dot(v, w[:, j:]))[:, None] * v
    return w


def minimize(z: np.ndarray, y_pm: np.ndarray, reg_c: float, tol: float,
             max_iter: int) -> np.ndarray:
    """Minimize ``objective(., z[i], y_pm[i], reg_c)`` for every problem ``i``
    of the stack ``z`` (B, n, p) by damped Newton from zero.

    Returns the (B, p+1) stack of ``[w..., b]``.  A problem leaves the
    active set after the first iterate whose gradient has 2-norm at most
    ``tol``, or when its line search finds no step that passes the Armijo
    test in :data:`_MAX_HALVINGS` halvings; the rest stop after
    ``max_iter`` Newton steps.  Each step solves with the full (p+1) x (p+1)
    Hessian, so ``fit_many`` passes the reduced features when p > n.  A
    singular Hessian, whose penalty ``1 / reg_c`` is lost in rounding,
    raises :class:`NumericalFailure` naming ``reg_c``.
    """
    z1 = np.concatenate([z, np.ones(z.shape[:2] + (1,))], axis=2)
    penalty = np.diag(np.append(np.full(z.shape[2], 1.0 / reg_c), 0.0))
    params = np.zeros((z1.shape[0], z1.shape[2]))
    loss, grad = objective(params, z, y_pm, reg_c)
    live = np.ones(len(params), dtype=bool)
    for _ in range(max_iter):
        live &= ~(np.sqrt(_dot(grad, grad)) <= tol)
        if not live.any():
            break
        # while every problem is active, its operands are views, not copies
        at = slice(None) if live.all() else np.flatnonzero(live)
        az, az1, ay, aparams, aloss, agrad = (v[at] for v in (z, z1, y_pm, params, loss, grad))
        a = _matvec(az1, aparams)
        d = _expit(a) * _expit(-a)  # sigma'(a), without the underflow of p * (1 - p)
        hess = (np.swapaxes(az1, 1, 2) * d[:, None, :]) @ az1
        hess += penalty
        try:
            step = -np.linalg.solve(hess, agrad[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"the Newton system is singular at reg_c {reg_c}; a smaller "
                                   "reg_c regularizes it") from exc
        slope = _dot(agrad, step)
        noise = _LOSS_RTOL * np.abs(aloss)
        # each problem halves its own step until it passes; one that has
        # passed keeps its step, and its trial repeats the same bits
        t = np.ones(len(aparams))
        for _ in range(_MAX_HALVINGS):
            trial = aparams + t[:, None] * step
            trial_loss, trial_grad = objective(trial, az, ay, reg_c)
            ok = trial_loss <= aloss + _ARMIJO_C * t * slope + noise
            if ok.all():
                break
            t = np.where(ok, t, 0.5 * t)
        # a problem with no acceptable step keeps its iterate and stops
        params[at] = np.where(ok[:, None], trial, aparams)
        loss[at] = np.where(ok, trial_loss, aloss)
        grad[at] = np.where(ok[:, None], trial_grad, agrad)
        live[at] &= ok
    return params


def decision_value(model: LogisticModel, x) -> np.ndarray | float:
    """w . x + b; positive means failure.  Accepts one vector or a stack."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.weights.shape[0]:
        raise DimMismatch(
            f"feature length {x.shape[-1]} does not match model dim {model.weights.shape[0]}"
        )
    z = x @ model.weights + model.bias
    return float(z) if z.ndim == 0 else z


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
