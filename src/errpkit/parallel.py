"""The one parallel map, and the one rule that splits work into blocks.

:func:`map_jobs` runs ``fn(0), ..., fn(n_jobs - 1)`` and returns their
results in job order.  At one worker, or where ``fork`` is unavailable, the
jobs run in this process.  Otherwise a ``fork`` process pool of
:func:`workers_for` workers inherits ``fn`` and everything it refers to in
memory, so only job indexes and results cross the pipe.  A job that writes
its result into an array of :func:`empty` (float64 unless a ``dtype`` is
given) returns nothing: that memory is shared with the workers.

:func:`blocks` is the one rule that splits work: consecutive slices of as
many items as fit in :data:`_BLOCK_BYTES`, and at least one.
:func:`map_blocks` runs a function on each block into one output array,
as jobs of :func:`map_jobs`, in this process for small inputs.  It runs
on a pool for :mod:`preprocessing` (filtered rows, epochs) and
:mod:`synth` (float32 epochs); :mod:`features` and :mod:`manifold` use
its blocks in this process.

Memory: :func:`drop_pages` drops a block of a map from the process that
calls it.  It acts only on the ``MAP_SHARED`` map of :func:`empty` and on
read-only file maps: the values of their pages live in shared memory or
in the page cache, not in the process, so they survive and a later touch
maps them back.  A pool worker drops each job's block of the output once
the job has written it (:func:`map_blocks`), so no worker keeps the pages
it wrote; the process that reads the output next drops each block once
it is done with it (:mod:`preprocessing`, :mod:`io`).

Importing errpkit pins BLAS to one thread in this process, and so in every
forked worker (:func:`_pin_blas`), so these workers are the package's only
parallelism.

Each pool worker, and no other process, sets glibc's malloc to serve
blocks of up to 32 MiB from its heap and to return free heap to the
system only past 256 MiB (:func:`_install`).  A worker runs one job after
another with temporaries of the same sizes, such as the ~18 MB that
``preprocessing._zero_phase`` makes for one 900 s row at 1,024 Hz (18.0 MB
traced for the cascaded bandpass and notches of :mod:`preprocessing`); by
default glibc hands them back to the system after each job and the next
job faults them in again, page by page.  This process keeps the defaults,
so a command that starts no pool holds no more memory than before, and
:mod:`synth` fills a set below the pool bound here as one block, not a job
per block through :func:`map_blocks`: a job that frees all its temporaries
lets glibc trim the heap top, and the next faults them in again (the bench
recording's epochs on one CPU: 222k minor faults and +25 % time).
"""
from __future__ import annotations

import errno
import mmap
import os

import numpy as np

try:
    from numpy.lib.array_utils import byte_bounds
except ImportError:  # numpy < 2
    from numpy import byte_bounds

from .errors import ErrpkitError

_BLOCK_BYTES = 1 << 19  # bytes of the items of one block
# Bytes of input below which map_blocks runs in this process.  `errpkit
# preprocess` on 2 CPUs (32 channels at 1,024 Hz, an epoch every 3 s; two
# rounds of 10 runs alternating this bound with 0) was faster with the pool
# in 7 and 4 of 10 runs at 3.75 MiB of float64 input, 7 and 6 at 7.5 MiB,
# and 6 and 9 at 15.75 MiB.  The pool moved the median wall time of about
# 1.2-1.5 s by +1.5 % to -5.5 % and took 3-6 % more CPU, so below this
# bound a pool does not pay for its start.
_POOL_MIN_BYTES = 1 << 24

# numpy's bundled OpenBLAS, relative to the directory holding numpy
_NUMPY_OPENBLAS = "numpy.libs/libscipy_openblas64_-*.so"

# glibc's mallopt parameters (malloc.h), which _install sets in each worker
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3

# Set in each worker process by _install, never in the parent.
_worker_fn = None
_worker_abort = None


def n_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, so ``taskset``
    bounds every pool, or the machine's count where the platform has no mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pin_blas() -> None:
    """Set the BLAS of the loaded numpy to one thread through its library's own
    setter; log one WARNING where no known setter is found."""
    import ctypes
    import logging
    from pathlib import Path

    for path in Path(np.__file__).parents[1].glob(_NUMPY_OPENBLAS):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            lib.scipy_openblas_set_num_threads64_(1)
            return
    logging.getLogger(__name__).warning(
        "numpy was imported before errpkit and its BLAS has no known thread setter, so it "
        "may run several threads per process; set OPENBLAS_NUM_THREADS, OMP_NUM_THREADS "
        "and MKL_NUM_THREADS to 1 before importing numpy")


def workers_for(n_workers: int, n_jobs: int) -> int:
    """How many processes :func:`map_jobs` runs ``n_jobs`` on when asked for
    ``n_workers``: at most one per job and per CPU of :func:`n_cpus`, and 1
    (this process) where ``fork`` is unavailable."""
    if n_workers < 1:
        raise ValueError(f"n_workers must be at least 1, got {n_workers}")
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(n_workers, n_jobs, n_cpus()))


class _SharedMap(mmap.mmap):
    """The anonymous ``MAP_SHARED`` map of :func:`empty`, which
    :func:`drop_pages` knows by this class."""


def empty(shape, n_workers: int, dtype=np.float64) -> np.ndarray:
    """An uninitialised array of ``dtype`` for jobs to write into:
    ``np.empty`` at one worker, else an anonymous ``MAP_SHARED`` map that
    forked workers write into and this process reads.  A map that cannot
    be made (``mmap``'s ``ENOMEM`` or ``OverflowError``) raises
    ``MemoryError``, as ``np.empty`` does.  The map's pages belong to the
    map, not to a process, so any process may :func:`drop_pages` of it that
    it has written or read; they keep their values, and a later touch maps
    them back.  So dropping lowers each process's resident set, not the
    machine's use: the map stays in shared memory, whole, until its last
    reference is gone (46.9 MB for the 300 x 32 x 640 epochs of a 900 s
    recording, held for the rest of a ``preprocess`` run)."""
    dtype = np.dtype(dtype)
    if n_workers == 1:
        return np.empty(shape, dtype)
    n_items = int(np.prod(shape))
    try:
        buf = _SharedMap(-1, max(1, n_items * dtype.itemsize))
    except (OSError, OverflowError) as exc:
        if isinstance(exc, OSError) and exc.errno != errno.ENOMEM:
            raise
        raise MemoryError(f"cannot map {n_items} items of {dtype}") from exc
    return np.frombuffer(buf, dtype, n_items).reshape(shape)


def drop_pages(arr: np.ndarray) -> None:
    """Drop from this process the pages that ``arr`` spans, from its lowest
    byte to its highest (a strided view spans its gaps), where it views a
    map whose pages keep their values when dropped: the shared map of
    :func:`empty`, or a read-only file map, as :mod:`io` maps a continuous
    container's ``data.bin``.  A later touch maps the pages back from the
    shared memory or the page cache, so no value of any array changes.  Any
    other array is left as it is: a copy-on-write map would lose the pages
    that this process has written, and a heap array would lose its values.

    ``MADV_DONTNEED`` only unmaps the pages from this process.  A dropped
    page of a file map goes back to the page cache, which the kernel may
    reclaim; a dropped page of the shared map stays allocated in shared
    memory for as long as the map lives, so a drop moves it out of every
    process's resident set but not out of the process tree's footprint.
    Without that drop the largest process of ``errpkit preprocess`` of the
    bench recording on 2 CPUs peaked at 84.6 MiB, not 54.3, and ran no faster."""
    owner = arr
    while isinstance(owner, (np.ndarray, memoryview)):  # np.frombuffer's base is a memoryview
        owner = owner.base if isinstance(owner, np.ndarray) else owner.obj
    if not (isinstance(owner, mmap.mmap) and hasattr(mmap, "MADV_DONTNEED") and arr.size):
        return
    if not isinstance(owner, _SharedMap):
        with memoryview(owner) as view:
            if not view.readonly:
                return
    lo, hi = byte_bounds(arr)
    start = lo - np.frombuffer(owner, np.uint8).ctypes.data
    first = start - start % mmap.PAGESIZE
    owner.madvise(mmap.MADV_DONTNEED, first, start + hi - lo - first)


def _install(fn, abort) -> None:
    """Initialize a pool worker: its job function, the abort event, and a
    heap that keeps freed blocks of up to 32 MiB (glibc's ``mallopt``, where
    libc has it)."""
    import ctypes

    global _worker_fn, _worker_abort
    _worker_fn, _worker_abort = fn, abort
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 256 << 20)


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


def _block_items(item_bytes: int) -> int:
    """How many items of ``item_bytes`` one block of :func:`blocks` holds."""
    return max(1, _BLOCK_BYTES // max(item_bytes, 1))


def blocks(n: int, item_bytes: int) -> list[slice]:
    """Consecutive slices covering ``range(n)``, each of as many items of
    ``item_bytes`` as fit in :data:`_BLOCK_BYTES`, and at least one."""
    step = _block_items(item_bytes)
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


def block_workers(n: int, item_bytes: int, n_workers: int) -> int:
    """How many processes :func:`map_blocks` runs ``n`` items of
    ``item_bytes`` on when asked for ``n_workers``: one (this process) below
    :data:`_POOL_MIN_BYTES` of input (``n * item_bytes``), else
    :func:`workers_for` its blocks."""
    return workers_for(n_workers if n * item_bytes >= _POOL_MIN_BYTES else 1,
                       len(range(0, n, _block_items(item_bytes))))


def map_blocks(fn, n: int, item_bytes: int, shape, n_workers: int = 1,
               name: str = "block", axis: int = 0, dtype=np.float64) -> np.ndarray:
    """``out``, an array of ``shape`` and ``dtype``, after ``fn(sl, view)`` wrote
    each block ``sl`` of ``blocks(n, item_bytes)`` into ``view``, the
    slice ``sl`` of ``out`` along ``axis``.  The blocks are :func:`map_jobs`
    jobs named ``name`` on :func:`block_workers` processes; each job then
    drops ``view`` from its process (:func:`drop_pages`), which at more
    than one worker leaves no written page of ``out`` in a worker."""
    n_workers = block_workers(n, item_bytes, n_workers)
    out = empty(shape, n_workers, dtype)  # a set too large raises here, not listing its blocks
    sls = blocks(n, item_bytes)
    lead = (slice(None),) * axis

    def job(j: int) -> None:
        view = out[lead + (sls[j],)]
        fn(sls[j], view)
        drop_pages(view)

    map_jobs(job, len(sls), n_workers, name)
    return out
