"""Affine-invariant geometry on symmetric positive-definite (SPD) matrices.

Eigendecomposition-based matrix functions, the affine-invariant geodesic
distance, the Karcher (geometric) mean, and tangent-space projection with
the sqrt(2) off-diagonal weighting that makes the vectorized tangent inner
product match the Riemannian one at the base point.

Functions accept a single ``(d, d)`` matrix or a stack ``(..., d, d)`` and
operate on the last two axes, like ``numpy.linalg`` routines.

Memory: every pass over a stack of matrices (the symmetry check, the
whitened logs of the Karcher iteration and of the tangent projection, and
the canonical mean) works on the blocks of :func:`parallel.blocks`, about
512 KiB of matrices at a time, writing into one preallocated output, so
its temporaries are a few blocks whatever the stack's length.  Each matrix
goes through the same operations in the same order as in a whole-stack
pass, so results do not depend on the block size, and a stack that fits
in one block is one pass with no extra copy.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import parallel
from .errors import (
    DimMismatch,
    EmptyInput,
    InvalidMatrix,
    NonConvergence,
    NotPositiveDefinite,
    NumericalFailure,
)

logger = logging.getLogger(__name__)

SYMMETRY_ATOL = 1e-12
DEFAULT_MEAN_TOL = 1e-4  # measured to leave fold accuracies as they are at 1e-8
DEFAULT_MEAN_MAX_ITER = 200
_MIN_STEP, _MAX_STEP = 0.05, 2.0  # bounds of the Karcher step size


def _entry_bytes(stack: np.ndarray) -> int:
    """Bytes of one entry of ``stack`` along axis 0: the item of its blocks."""
    return stack.itemsize * math.prod(stack.shape[1:])


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        raise InvalidMatrix(f"expected square matrices of at least 1 row, got shape {a.shape}")
    return a


def check_symmetric(m) -> np.ndarray:
    """Validate symmetry (to :data:`SYMMETRY_ATOL`) and finiteness; return float64 array.

    A non-finite entry anywhere is reported ahead of any asymmetry."""
    a = _as_square(m)
    stack = a.reshape(-1, *a.shape[-2:])
    parts = [stack[sl] for sl in parallel.blocks(len(stack), _entry_bytes(stack))]
    if not all(np.isfinite(part).all() for part in parts):
        raise InvalidMatrix("matrix contains non-finite entries")
    skew = max((np.abs(part - part.swapaxes(-1, -2)).max() for part in parts), default=0.0)
    if skew > SYMMETRY_ATOL:
        raise InvalidMatrix(
            f"matrix is not symmetric: max |m - m.T| = {skew:.3e} > {SYMMETRY_ATOL}")
    return a


def _symmetrize(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.multiply(0.5, a + a.swapaxes(-1, -2), out=out)


def sym_eig(m):
    """Eigendecomposition of a symmetric matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and orthonormal
    eigenvectors in the columns of ``v``, so ``m == v @ diag(w) @ v.T``.
    """
    a = check_symmetric(m)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"symmetric eigendecomposition failed: {exc}") from exc
    return w, v


def _spectral_apply(w: np.ndarray, v: np.ndarray, fn,
                    out: np.ndarray | None = None) -> np.ndarray:
    return _symmetrize((v * fn(w)[..., None, :]) @ v.swapaxes(-1, -2), out=out)


def _positive_fn(m, fn, name: str) -> np.ndarray:
    """Apply ``fn`` to the eigenvalues of a positive-definite matrix."""
    w, v = sym_eig(m)
    if w.min() <= 0.0:
        raise NotPositiveDefinite(
            f"matrix {name} requires positive eigenvalues; smallest is {w.min():.3e}"
        )
    return _spectral_apply(w, v, fn)


def mat_log(m) -> np.ndarray:
    return _positive_fn(m, np.log, "log")


def mat_exp(m) -> np.ndarray:
    return _spectral_apply(*sym_eig(m), np.exp)


def mat_sqrt(m) -> np.ndarray:
    return _positive_fn(m, np.sqrt, "sqrt")


def _invsqrt(w: np.ndarray) -> np.ndarray:
    return 1.0 / np.sqrt(w)


def mat_invsqrt(m) -> np.ndarray:
    return _positive_fn(m, _invsqrt, "invsqrt")


def airm_distance(a, b) -> float:
    """Affine-invariant geodesic distance between two SPD matrices.

    Computed from the eigenvalues of the pencil ``(b, a)``, those of
    ``inv(l) @ b @ inv(l).T`` for the Cholesky factor ``l`` of ``a``, which
    is an independent route from the eigendecomposition whitening used by
    :func:`tangent_project`; the two must agree, and tests rely on that.
    Either argument not positive definite raises
    :class:`NotPositiveDefinite`.
    """
    a = check_symmetric(a)
    b = check_symmetric(b)
    if a.shape != b.shape or a.ndim != 2:
        raise _dim_mismatch(a, b)
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"first argument is not positive definite: {exc}") from exc
    w = np.linalg.eigvalsh(np.linalg.solve(low, np.linalg.solve(low, b).T))
    if w.min() <= 0.0:
        raise NotPositiveDefinite("second argument is not positive definite")
    return float(np.sqrt(np.sum(np.log(w) ** 2)))


def _dim_mismatch(a, b):
    return DimMismatch(f"incompatible matrix shapes {a.shape} and {b.shape}")


def _whitened_logs(stack: np.ndarray, isq: np.ndarray, what: str) -> np.ndarray:
    """``log(isq @ C @ isq)`` for each matrix ``C`` of an ``(n, d, d)`` stack;
    the one route to the tangent logs of :func:`geometric_mean` and
    :func:`tangent_project`, so the two agree bit for bit.  A block's
    whitened matrices, eigenvectors and logs are its only temporaries: the
    peak is the ``(n, d, d)`` result plus a few blocks."""
    def logs(sl: slice, out: np.ndarray) -> None:
        lw, lv = np.linalg.eigh(_symmetrize(isq @ stack[sl] @ isq))
        if lw.min() <= 0.0:
            raise NotPositiveDefinite(f"{what} is not positive definite")
        _spectral_apply(lw, lv, np.log, out=out)

    return parallel.map_blocks(logs, len(stack), _entry_bytes(stack), stack.shape)


def canonical_mean(stack: np.ndarray) -> np.ndarray:
    """Arithmetic mean along axis 0 of the entries reduced in the stable
    order of their bytes, which permuting them changes only among
    byte-identical ones, so it is bit-identical under any permutation.

    The entries are gathered a block at a time into one buffer behind the
    running total, and each reduction adds them to it in turn.  numpy adds
    entries of more than one element one by one along axis 0, so these are
    the sums of one reduction over the whole ordered stack, without its
    copy.  (Entries of one element it sums pairwise, so past one block their
    last bits may differ from that; the mean is still permutation-invariant.)"""
    stack = np.asarray(stack, dtype=np.float64)
    n = len(stack)
    if n == 0:
        raise EmptyInput("canonical_mean of an empty stack")
    rows = np.ascontiguousarray(stack).reshape(n, -1)
    keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()
    order = np.argsort(keys, kind="stable")
    blocks = parallel.blocks(n, _entry_bytes(stack))
    buf = np.empty((blocks[0].stop + 1,) + stack.shape[1:])
    first = 1  # the first block has no running total before it
    for sl in blocks:
        k = sl.stop - sl.start
        np.take(stack, order[sl], axis=0, out=buf[1:k + 1], mode="clip")  # "raise" buffers out
        buf[0] = np.add.reduce(buf[first:k + 1])
        first = 0
    return buf[0] / n


@dataclass(frozen=True)
class KarcherMean:
    """Result of :func:`geometric_mean`.

    ``logs[i]`` is ``log(mean^-1/2 C_i mean^-1/2)``, computed by the routine
    :func:`tangent_project` calls, so ``vectorize_sym(logs)`` equals
    ``tangent_project(mats, mean)`` bit for bit.
    """

    mean: np.ndarray  # (d, d)
    logs: np.ndarray  # (n, d, d), in input order
    iterations: int  # steps taken
    residual: float  # Frobenius norm of the mean of ``logs``
    step: float  # step size the next iteration would take


def geometric_mean(mats, tol: float = DEFAULT_MEAN_TOL,
                   max_iter: int = DEFAULT_MEAN_MAX_ITER) -> KarcherMean:
    """Karcher mean of a set of SPD matrices under the affine-invariant metric.

    Gradient descent from the arithmetic mean (Pennec et al. 2006):
    ``G <- G^1/2 exp(nu * T) G^1/2`` with ``T = mean_i log(G^-1/2 C_i G^-1/2)``.
    The step is the Barzilai-Borwein rule (Barzilai & Borwein 1988), one of
    those compared for this mean by Jeuris, Vandebril & Vandereycken (2012,
    ETNA 39), taken in the whitened coordinates of each iterate and without
    parallel transport: with ``s = nu * T_k`` and ``y = T_k - T_k+1``, the
    next step is ``<s, s> / <s, y>``.  It starts at 1 and is clipped to
    [0.05, 2]; when ``<s, y>`` is not positive or not finite the step is
    halved instead, down to the same floor.  Stops when the Frobenius norm
    of ``T`` falls below ``tol``.

    Parameters
    ----------
    mats : array-like, shape (n, d, d)
        SPD matrices (a list of ``(d, d)`` arrays also works).
    tol : float
        Frobenius-norm tolerance on the mean tangent residual.
    max_iter : int
        Iteration budget; exceeded -> :class:`NonConvergence`.
    """
    stack = np.asarray(mats, dtype=np.float64)
    if stack.ndim != 3 or stack.shape[-1] != stack.shape[-2]:
        raise InvalidMatrix(f"expected a stack of square matrices, got shape {stack.shape}")
    if stack.shape[0] == 0:
        raise EmptyInput("geometric_mean of an empty set")
    if tol <= 0:
        raise ValueError("tol must be positive")
    check_symmetric(stack)

    g = _symmetrize(canonical_mean(stack))
    resid = np.inf
    nu = 1.0
    s = t = None
    for it in range(max_iter + 1):
        w, v = np.linalg.eigh(g)
        if w.min() <= 0.0:
            raise NotPositiveDefinite("iterate lost positive definiteness")
        # as mat_invsqrt computes it, so the final logs are tangent_project's
        logs = _whitened_logs(stack, _spectral_apply(w, v, _invsqrt), "input matrix")
        t_prev, t = t, canonical_mean(logs)
        resid = float(np.linalg.norm(t, ord="fro"))
        if s is not None:
            sy = float(np.sum(s * (t_prev - t)))
            if sy > 0.0 and np.isfinite(sy):
                nu = float(np.clip(np.sum(s * s) / sy, _MIN_STEP, _MAX_STEP))
            else:
                nu = max(0.5 * nu, _MIN_STEP)
        if resid <= tol:
            result = KarcherMean(g, logs, it, resid, nu)
            logger.debug("Karcher mean: %d iterations, residual %.3e, step %.3g",
                         result.iterations, result.residual, result.step)
            return result
        if it == max_iter:
            break
        del logs
        s = nu * t
        ew, ev = np.linalg.eigh(s)
        sq = (v * np.sqrt(w)) @ v.T
        g = _symmetrize(sq @ _spectral_apply(ew, ev, np.exp) @ sq)
    raise NonConvergence(
        f"Karcher mean residual {resid:.3e} > tol {tol:.1e} after {max_iter} iterations "
        f"(final step {nu:.3g})"
    )


def tangent_dim(d: int) -> int:
    """Length of the vectorized tangent space at dimension ``d``: d(d+1)/2."""
    return d * (d + 1) // 2


def vectorize_sym(m: np.ndarray) -> np.ndarray:
    """Upper-triangle vectorization with off-diagonals weighted by sqrt(2).

    The Euclidean norm of the result equals the Frobenius norm of ``m``.
    """
    m = _as_square(m)
    d = m.shape[-1]
    rows, cols = np.triu_indices(d)
    vec = m[..., rows, cols]
    vec *= np.where(rows == cols, 1.0, np.sqrt(2.0))
    return vec


def tangent_project(c, base) -> np.ndarray:
    """Project SPD matrices onto the tangent space at ``base`` and vectorize.

    ``c`` may be ``(d, d)`` or a stack ``(n, d, d)``; the result is a vector
    of length ``d(d+1)/2`` (or a stack of them).  The vector's Euclidean
    norm equals ``airm_distance(base, c)``.  Each block's logs are
    vectorized as they are made, so no ``(n, d, d)`` logs are held.
    """
    c = check_symmetric(c)
    base = check_symmetric(base)
    if c.shape[-1] != base.shape[-1] or base.ndim != 2:
        raise _dim_mismatch(c, base)
    isq = mat_invsqrt(base)
    d = base.shape[-1]
    stack = c.reshape(-1, d, d)

    def project(sl: slice, out: np.ndarray) -> None:
        out[...] = vectorize_sym(_whitened_logs(stack[sl], isq, "matrix to project"))

    out = parallel.map_blocks(project, len(stack), _entry_bytes(stack),
                              (len(stack), tangent_dim(d)))
    return out.reshape(c.shape[:-2] + out.shape[1:])
