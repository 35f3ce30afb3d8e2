import concurrent.futures.process
import multiprocessing
import os

from errpkit import parallel


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


def test_cpu_count_is_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert parallel.n_cpus() == 1
    assert parallel.workers_for(2, 10) == 1
    monkeypatch.delattr(os, "sched_getaffinity")  # a platform without a mask
    assert parallel.n_cpus() == 8
    assert parallel.workers_for(2, 10) == 2
