"""The one parallel map: independent jobs on forked worker processes.

:func:`map_jobs` runs ``fn(0), ..., fn(n_jobs - 1)`` and returns their
results in job order.  At one worker, or where ``fork`` is unavailable, the
jobs run in this process.  Otherwise a ``fork`` process pool of
:func:`workers_for` workers inherits ``fn`` and everything it refers to in
memory, so only job indexes and results cross the pipe.  A job that writes
its result into an array of :func:`empty` returns nothing: that memory is
shared with the workers.

``errpkit/__init__.py`` pins BLAS to one thread, so these workers are the
package's only parallelism.
"""
from __future__ import annotations

import mmap
import os

import numpy as np

from .errors import ErrpkitError

# Set in each worker process by _install, never in the parent.
_worker_fn = None
_worker_abort = None


def workers_for(n_workers: int, n_jobs: int) -> int:
    """How many processes :func:`map_jobs` runs ``n_jobs`` on when asked for
    ``n_workers``: at most one per job and per CPU, and 1 (this process)
    where ``fork`` is unavailable."""
    if n_workers < 1:
        raise ValueError(f"n_workers must be at least 1, got {n_workers}")
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(n_workers, n_jobs, os.cpu_count() or 1))


def empty(shape, n_workers: int) -> np.ndarray:
    """An uninitialised float64 array for jobs to write into: ``np.empty``
    at one worker, else anonymous shared memory that forked workers write
    into and this process reads."""
    if n_workers == 1:
        return np.empty(shape)
    n_bytes = 8 * int(np.prod(shape))
    return np.frombuffer(mmap.mmap(-1, max(1, n_bytes)), np.float64, n_bytes // 8).reshape(shape)


def _install(fn, abort) -> None:
    global _worker_fn, _worker_abort
    _worker_fn, _worker_abort = fn, abort


def _worker_job(i: int):
    if _worker_abort.is_set():
        return None  # the parent is raising an earlier job's error
    return _worker_fn(i)


def map_jobs(fn, n_jobs: int, n_workers: int, name: str) -> list:
    """``[fn(i) for i in range(n_jobs)]`` on :func:`workers_for` processes.

    The first failing job in index order raises, as in one process; the
    jobs after it are cancelled or skipped, and every worker is joined
    before this returns.  A worker that dies raises :class:`ErrpkitError`
    naming the ``name`` of the jobs.
    """
    n_workers = workers_for(n_workers, n_jobs)
    if n_workers == 1:
        return [fn(i) for i in range(n_jobs)]
    import multiprocessing  # imported on use: only a pooled run needs it
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    ctx = multiprocessing.get_context("fork")
    abort = ctx.Event()
    try:
        with ProcessPoolExecutor(n_workers, mp_context=ctx, initializer=_install,
                                 initargs=(fn, abort)) as pool:
            try:
                return list(pool.map(_worker_job, range(n_jobs),
                                     chunksize=max(1, n_jobs // (4 * n_workers))))
            except BaseException:
                abort.set()
                raise
    except BrokenProcessPool as exc:
        raise ErrpkitError(f"a {name} worker process died: {exc}") from exc
