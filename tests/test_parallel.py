import concurrent.futures.process
import ctypes
import errno
import logging
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from errpkit import parallel
from errpkit.io import read_epoch_container, write_epoch_container
from errpkit.preprocessing import EpochSet

try:
    import resource
except ImportError:  # not a Unix
    resource = None

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NUMPY_OPENBLAS = sorted(Path(np.__file__).parents[1].glob("numpy.libs/libscipy_openblas64_-*.so"))

# Imports numpy, then errpkit, and prints the thread count of numpy's OpenBLAS
# (argv[1]) in this process and in each of four map_jobs jobs at two workers.
NUMPY_FIRST = """
import ctypes, sys
import numpy
import errpkit
from errpkit import parallel
get = ctypes.CDLL(sys.argv[1]).scipy_openblas_get_num_threads64_
print(get(), *parallel.map_jobs(lambda i: get(), 4, 2, "probe"))
"""
needs_numpy_openblas = pytest.mark.skipif(
    parallel.n_cpus() < 2 or not NUMPY_OPENBLAS,
    reason="needs two CPUs and numpy's bundled OpenBLAS")


def blas_threads_after_numpy_first(**env) -> list[int]:
    """The BLAS thread counts NUMPY_FIRST prints in a child whose environment
    holds none of the BLAS thread variables but those in ``env``: this test
    process has them set by importing errpkit."""
    src = str(Path(parallel.__file__).resolve().parents[1])
    env = {**{k: v for k, v in os.environ.items() if k not in BLAS_VARS}, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", NUMPY_FIRST, str(NUMPY_OPENBLAS[0])],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return [int(n) for n in proc.stdout.split()]


@needs_numpy_openblas
def test_numpy_first_import_pins_blas_in_parent_and_workers():
    assert blas_threads_after_numpy_first() == [1] * 5


@needs_numpy_openblas
def test_numpy_first_import_keeps_the_callers_openblas_threads():
    assert blas_threads_after_numpy_first(OPENBLAS_NUM_THREADS="2") == [2] * 5


def test_pin_without_a_known_setter_logs_one_warning(monkeypatch, caplog):
    monkeypatch.setattr(parallel, "_NUMPY_OPENBLAS", "no-such-dir/libblas-*.so")
    with caplog.at_level("WARNING", logger="errpkit.parallel"):
        parallel._pin_blas()
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    assert all(var in record.getMessage() for var in BLAS_VARS)


def test_jobs_write_shared_memory_and_return_in_order(monkeypatch):
    monkeypatch.setattr(parallel, "n_cpus", lambda: 2)
    n_workers = parallel.workers_for(8, 6)
    assert n_workers == 2
    out = parallel.empty((2, 3), n_workers)

    def job(i):
        out[divmod(i, 3)] = i * i
        return os.getpid(), -i

    results = parallel.map_jobs(job, 6, n_workers, "test")
    assert [r for _, r in results] == [0, -1, -2, -3, -4, -5]
    assert os.getpid() not in {pid for pid, _ in results}
    assert out.tolist() == [[0, 1, 4], [9, 16, 25]]
    assert multiprocessing.active_children() == []


def test_runs_in_process_without_fork(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("constructed an executor without fork")

    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", no_pool)
    assert parallel.workers_for(4, 10) == 1
    assert parallel.empty((2, 3), 1).flags.owndata
    assert parallel.map_jobs(lambda i: (os.getpid(), i), 3, 4, "test") == [
        (os.getpid(), i) for i in range(3)]


@pytest.mark.parametrize("n_workers", [1, 2])
def test_empty_makes_the_dtype_asked_for(n_workers):
    out = parallel.empty((3, 5), n_workers, dtype=np.float32)
    assert out.dtype == np.float32 and out.shape == (3, 5)
    assert out.flags.owndata == (n_workers == 1)
    assert parallel.empty((3, 5), n_workers).dtype == np.float64


@pytest.mark.parametrize("error", [OSError(errno.ENOMEM, "Cannot allocate memory"),
                                   OverflowError("cannot fit 'int' into an index-sized integer")],
                         ids=["ENOMEM", "overflow"])
def test_a_shared_map_that_cannot_be_made_is_a_memory_error(monkeypatch, error):
    def fail(*args):
        raise error

    monkeypatch.setattr(parallel, "_SharedMap", fail)
    with pytest.raises(MemoryError):
        parallel.empty((3, 5), 2)
    assert parallel.empty((3, 5), 1).shape == (3, 5)


def test_a_shared_map_fails_on_other_errors_as_they_are(monkeypatch):
    def fail(*args):
        raise OSError(errno.ENODEV, "No such device")

    monkeypatch.setattr(parallel, "_SharedMap", fail)
    with pytest.raises(OSError, match="No such device"):
        parallel.empty((3, 5), 2)


def test_cpu_count_is_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert parallel.n_cpus() == 1
    assert parallel.workers_for(2, 10) == 1
    monkeypatch.delattr(os, "sched_getaffinity")  # a platform without a mask
    assert parallel.n_cpus() == 8
    assert parallel.workers_for(2, 10) == 2


class TestBlocks:
    def test_no_items_give_no_block(self):
        assert parallel.blocks(0, 8) == []

    def test_one_block_holds_a_small_stack(self):
        assert parallel.blocks(7, 8 * 6 * 6) == [slice(0, 7)]

    def test_items_of_no_bytes_fit_one_block(self):
        assert parallel.blocks(10, 0) == [slice(0, 10)]

    def test_an_item_over_the_budget_gets_a_block_of_its_own(self):
        assert parallel.blocks(3, parallel._BLOCK_BYTES + 1) == [
            slice(0, 1), slice(1, 2), slice(2, 3)]

    def test_blocks_cover_the_items_contiguously(self, monkeypatch):
        monkeypatch.setattr(parallel, "_BLOCK_BYTES", 100)
        for n in (1, 9, 10, 11, 100):
            for item_bytes in (1, 7, 10, 33, 100, 101):
                sls = parallel.blocks(n, item_bytes)
                assert [i for sl in sls for i in range(n)[sl]] == list(range(n))
                step = max(1, 100 // item_bytes)
                assert all(sl.stop - sl.start == step for sl in sls[:-1])
                assert 1 <= sls[-1].stop - sls[-1].start <= step


class TestMapBlocks:
    @staticmethod
    def squares(sl, out):
        out[:, 0] = np.arange(sl.start, sl.stop) ** 2
        out[:, 1] = os.getpid()

    def test_small_input_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("started a pool below the in-process bound")

        monkeypatch.setattr(parallel, "n_cpus", lambda: 2)
        monkeypatch.setattr(parallel, "_BLOCK_BYTES", 16)
        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", no_pool)
        out = parallel.map_blocks(self.squares, 10, 8, (10, 2), n_workers=2)
        assert out.flags.owndata
        assert out[:, 0].tolist() == [i * i for i in range(10)]
        assert set(out[:, 1]) == {os.getpid()}

    def test_one_and_two_workers_give_the_same_array(self, monkeypatch):
        monkeypatch.setattr(parallel, "n_cpus", lambda: 2)
        monkeypatch.setattr(parallel, "_BLOCK_BYTES", 16)
        monkeypatch.setattr(parallel, "_POOL_MIN_BYTES", 0)
        one = parallel.map_blocks(self.squares, 10, 8, (10, 2))
        two = parallel.map_blocks(self.squares, 10, 8, (10, 2), n_workers=2)
        assert np.array_equal(one[:, 0], two[:, 0])
        assert os.getpid() not in set(two[:, 1])
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_the_first_failing_block_raises(self, monkeypatch, n_workers):
        monkeypatch.setattr(parallel, "n_cpus", lambda: 2)
        monkeypatch.setattr(parallel, "_BLOCK_BYTES", 16)
        monkeypatch.setattr(parallel, "_POOL_MIN_BYTES", 0)

        def fail(sl, out):
            if sl.start >= 4:
                raise ValueError(f"block at {sl.start}")
            out[...] = 1.0

        with pytest.raises(ValueError, match="^block at 4$"):
            parallel.map_blocks(fail, 10, 8, (10,), n_workers=n_workers)
        assert multiprocessing.active_children() == []


@pytest.mark.skipif(resource is None or not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="needs getrusage and glibc's mallopt")
def test_workers_keep_freed_blocks_resident(monkeypatch):
    def rounds(n):
        for _ in range(n):
            arrays = [np.full(1 << 20, 1.0) for _ in range(3)]  # 8 MiB each
            del arrays

    def minor_faults_of_four_rounds(i):
        rounds(2)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        rounds(4)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    monkeypatch.setattr(parallel, "n_cpus", lambda: 2)
    faults = parallel.map_jobs(minor_faults_of_four_rounds, 2, 2, "heap")
    assert max(faults) < 100, faults
    assert multiprocessing.active_children() == []


def resident() -> int:
    """This process's resident bytes, from ``/proc/self/statm``."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


needs_statm = pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                                 reason="needs /proc/self/statm")


class TestDropPages:
    def test_values_that_workers_wrote_survive_a_drop(self, monkeypatch):
        monkeypatch.setattr(parallel, "n_cpus", lambda: 2)
        out = parallel.empty((4, 3000), 2)

        def job(i):
            out[i] = np.arange(3000) * (i + 1)
            parallel.drop_pages(out[i])

        parallel.map_jobs(job, 4, 2, "test")
        expected = np.arange(3000) * np.arange(1, 5)[:, None]
        assert np.array_equal(out, expected)
        parallel.drop_pages(out[:, 1000:2000])  # a strided view
        assert np.array_equal(out, expected)
        parallel.drop_pages(out)
        assert np.array_equal(out, expected)
        assert multiprocessing.active_children() == []

    @needs_statm
    def test_a_drop_lowers_residency_by_the_arrays_size(self):
        out = parallel.empty((1 << 21,), 2)  # 16 MiB
        out[...] = 1.5
        before = resident()
        parallel.drop_pages(out[::2])
        fallen = before - resident()
        assert 0.95 * out.nbytes <= fallen <= out.nbytes + (1 << 20), fallen / out.nbytes
        assert (out == 1.5).all()

    @needs_statm
    def test_a_heap_array_is_left_as_it_is(self):
        heap = np.arange(1 << 21, dtype=np.float64)
        before = resident()
        parallel.drop_pages(heap)
        assert before - resident() < 1 << 20
        assert np.array_equal(heap, np.arange(1 << 21))

    def test_a_copy_on_write_container_keeps_its_written_page(self, tmp_path):
        data = np.arange(4 * 2 * 1024, dtype=np.float32).reshape(4, 2, 1024)
        path = write_epoch_container(tmp_path / "c", EpochSet(data, [0, 1, 0, 1], 256.0, 0.0,
                                                              ["a", "b"]))
        es = read_epoch_container(path)
        es.data[2, 1, 5] = -1.0
        parallel.drop_pages(es.data)
        parallel.drop_pages(es.data[2])
        assert es.data[2, 1, 5] == -1.0
        data[2, 1, 5] = -1.0
        assert np.array_equal(es.data, data)
