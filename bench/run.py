"""errpkit benchmark: drive the CLI as a user does and report what it costs.

Run from the root of a checkout (numpy and scipy installed, nothing built):

    python3 bench/run.py --workload desk_compare --seed 1 --seconds 10 --trace 0

Each workload builds its inputs from ``--seed`` in set-up (one process,
``bench/tracer.py``), then runs its CLI command(s) closed-loop, one fresh
``python3 -m errpkit.cli`` process at a time, until ``--seconds`` have passed,
at least two invocations ran and each input was used; every output is
checked.  BLAS thread
variables are passed through as found (normally unset) and recorded.

``--trace 0`` reports the end-to-end metrics: medians over the timed
invocations of wall time, CPU time and peak RSS, and the median of several
set-ups.  ``--trace 1`` sets up once under the tracer, runs one untraced
and one traced invocation, and reports the per-layer metrics of
``tracer.py`` plus the tracing overhead (traced minus untraced wall time).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
details (environment, per-invocation figures, checks, layer mapping).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
CONFIGS = BENCH / "configs"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
NULL_CONTAINERS = 4
TIME_BUDGET_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
HARDWARE_COUNTERS = ("not read: the sandbox gives no access to hardware counters; "
                     "io.bytes_read and features.cov_gflop are computed from array shapes")

# End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metrics (``--trace 1``): unit, and which end-to-end metric on
# which workload each should move.
PER_LAYER = {
    "synth.generate_s": ("s", "setup_s", "all"),
    "preprocessing.bandpass_s": ("s", "wall_s, peak_rss_mb", "preprocess_recording"),
    "preprocessing.notch_s": ("s", "wall_s, peak_rss_mb", "preprocess_recording"),
    "preprocessing.downsample_s": ("s", "wall_s, peak_rss_mb", "preprocess_recording"),
    "preprocessing.epoch_s": ("s", "wall_s, peak_rss_mb", "preprocess_recording"),
    "io.read_s": ("s", "wall_s", "preprocess_recording"),
    "io.write_s": ("s", "wall_s", "preprocess_recording"),
    "io.bytes_read": ("bytes", "wall_s", "preprocess_recording"),
    "features.riemann_self_s": ("s", "wall_s", "desk_compare"),
    "features.cov_gflop": ("GFLOP", "wall_s", "desk_compare"),
    "features.benchmark_s": ("s", "wall_s", "null_chance"),
    "manifold.karcher_s": ("s", "wall_s", "desk_compare (light on null_chance)"),
    "manifold.karcher_calls": ("count", "wall_s", "desk_compare (light on null_chance)"),
    "manifold.karcher_iters": ("count", "wall_s", "desk_compare (light on null_chance)"),
    "manifold.tangent_s": ("s", "wall_s", "desk_compare (light on null_chance)"),
    "logreg.fit_s": ("s", "wall_s", "null_chance"),
    "logreg.fit_calls": ("count", "wall_s", "null_chance"),
    "logreg.objective_evals": ("count", "wall_s", "null_chance"),
    "logreg.nonconverged": ("count", "wall_s", "null_chance"),
    "evaluation.cv_self_s": ("s", "wall_s, cpu_s", "null_chance"),
    "evaluation.folds": ("count", "wall_s, cpu_s", "null_chance"),
    "evaluation.stats_s": ("s", "wall_s, cpu_s", "null_chance"),
    "evaluation.chance_s": ("s", "wall_s, cpu_s", "null_chance"),
    "cli.audit_s": ("s", "wall_s", "desk_compare"),
    "cli.self_s": ("s", "wall_s", "desk_compare"),
    "trace.overhead_s": ("s", "none (traced minus untraced wall time)", "all"),
}


class SetupFailed(RuntimeError):
    pass


# ---------------------------------------------------------------- workloads


@dataclass
class Workload:
    """Inputs, commands and output checks of one workload.

    A command is ``("cli", args)`` for ``python3 -m errpkit.cli ARGS`` or
    ``("recording", args)`` for ``bench/recording.py``; ``{work}`` in an
    argument stands for the run's work directory.  Set-up writes under
    ``{work}/inputs``.
    """

    name: str
    threads: int | None
    setup: list  # commands run in one process
    variants: list  # invocations, used in turn; each command is its own process
    check: object  # (work dir, stdout of each command) -> (problems, output digest)


def _cfg(name: str) -> str:
    return str((CONFIGS / f"{name}.json").relative_to(ROOT))


def _compare_check(config: dict, chance: bool):
    folds = config["folds"] * config["repeats"]

    def check(work: Path, outputs: list[str]):
        from errpkit import io

        try:
            report = io.read_report(work / "report.json")
            problems = report_problems(report)
        except (OSError, ValueError, KeyError, TypeError, io.ContainerError) as exc:
            return [f"report unreadable or incomplete: {exc!r}"], None
        body = {k: v for k, v in report.items() if k != "meta"}
        digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
        return problems, digest

    def report_problems(report: dict) -> list[str]:
        problems = []
        datasets = report["datasets"]
        if len(datasets) != 1:
            problems.append(f"{len(datasets)} datasets in report, expected 1")
        for block in datasets:
            for method, res in block["methods"].items():
                accs = res["accuracies"]
                if len(accs) != folds:
                    problems.append(f"{method}: {len(accs)} fold accuracies, expected {folds}")
                if not all(0.0 <= a <= 1.0 for a in accs):
                    problems.append(f"{method}: accuracy outside [0, 1]")
            if chance:
                ch = block["chance"]
                if ch is None or ch["n_shuffles"] != config["n_chance_shuffles"]:
                    problems.append("chance block missing or with the wrong shuffle count")
                elif not all(0.0 <= a <= 1.0 for a in ch["per_shuffle_mean_accuracies"]):
                    problems.append("chance accuracy outside [0, 1]")
        return problems

    return check


def _preprocess_check(n_events: int):
    def check(work: Path, outputs: list[str]):
        problems = []
        if outputs[-1].strip() != "ok":
            problems.append(f"validate printed {outputs[-1].strip()!r}, expected 'ok'")
        manifest_path = work / "epochs" / "manifest.json"
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, ValueError) as exc:
            return problems + [f"epoch manifest unreadable: {exc}"], None
        if manifest.get("n_trials") != n_events or manifest.get("skipped_events") != []:
            problems.append(f"expected {n_events} epochs and none skipped")
        return problems, _tree_digest(work / "epochs")

    return check


def make_workload(name: str, seed: int, toy: bool) -> Workload:
    if name == "desk_compare":
        sets = ["--set", "n_trials=40", "--set", "n_channels=4", "--set", "fs_hz=64.0"] if toy else []
        cfg = ["--config", _cfg(name), *sets]
        config = json.loads((CONFIGS / f"{name}.json").read_text())
        # Two containers, compared in turn: the Karcher iteration count and so
        # the cost of a desk fit differ from one dataset to the next, and the
        # median of two datasets halves that spread between seeds.
        paths = [f"{{work}}/inputs/desk{i}" for i in range(2)]
        return Workload(
            name, 1,
            setup=[("cli", ["synth", *cfg, "--seed", str(2 * seed + i), "--out", p])
                   for i, p in enumerate(paths)],
            variants=[[("cli", ["compare", *cfg, "--threads", "1", "--seed", str(seed),
                                "--input", p, "--out", "{work}/report.json"])] for p in paths],
            check=_compare_check(config, chance=False),
        )
    if name == "null_chance":
        config = json.loads((CONFIGS / f"{name}.json").read_text())
        sets = []
        if toy:
            config.update(folds=2, repeats=1, n_chance_shuffles=2)
            sets = ["--set", "folds=2", "--set", "repeats=1", "--set", "n_chance_shuffles=2"]
        cfg = ["--config", _cfg(name), *sets]
        # One container per compare: with 6-trial test folds the two methods'
        # median accuracies on null data tie often, and when they tie on every
        # dataset of one compare, its permutation test exits 1 (zero-variance
        # null).  Comparing the containers one at a time runs the same folds
        # without the permutation test, whose cost is negligible.  Each run
        # compares every one of NULL_CONTAINERS containers at least once: the
        # cost of a compare differs from dataset to dataset and two-thread
        # invocations spread widely, so the median needs several of both.
        paths = [f"{{work}}/inputs/null{i}" for i in range(NULL_CONTAINERS)]
        return Workload(
            name, 2,
            setup=[("cli", ["synth", *cfg, "--seed", str(NULL_CONTAINERS * seed + i),
                            "--out", p])
                   for i, p in enumerate(paths)],
            variants=[[("cli", ["compare", *cfg, "--chance", "--threads", "2", "--seed", str(seed),
                                "--input", p, "--out", "{work}/report.json"])] for p in paths],
            check=_compare_check(config, chance=True),
        )
    if name == "preprocess_recording":
        channels, fs, events = (4, 512.0, 10) if toy else (32, 1024.0, 300)
        return Workload(
            name, None,
            setup=[("recording", ["--n-channels", str(channels), "--fs-hz", str(fs),
                                  "--n-events", str(events), "--seed", str(seed),
                                  "--out", "{work}/inputs/rec"])],
            variants=[[
                ("cli", ["preprocess", "--config", _cfg(name), "--input", "{work}/inputs/rec",
                         "--out", "{work}/epochs"]),
                ("cli", ["validate", "--input", "{work}/epochs"]),
            ]],
            check=_preprocess_check(events),
        )
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("desk_compare", "null_chance", "preprocess_recording")


# ---------------------------------------------------------------- processes


@dataclass
class Proc:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _resolve(commands, work: Path) -> list:
    rel = str(work.relative_to(ROOT))
    return [[kind, [a.replace("{work}", rel) for a in args]] for kind, args in commands]


def _argv(commands, work: Path, spans: Path | None = None) -> list[str]:
    """One process running ``commands``: the plain CLI for a single untraced
    CLI command, else ``tracer.py`` (which traces only with ``spans``)."""
    commands = _resolve(commands, work)
    if spans is None and len(commands) == 1 and commands[0][0] == "cli":
        return [sys.executable, "-m", "errpkit.cli", *commands[0][1]]
    traced = ["--spans", str(spans)] if spans is not None else []
    return [sys.executable, str(BENCH / "tracer.py"), *traced, json.dumps(commands)]


def run_proc(argv: list[str], log: Path, deadline: float) -> Proc:
    """Run one child to completion; its own rusage gives CPU time and peak RSS."""
    with open(log, "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, log.read_text())


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    ok: bool
    problems: list
    variant: int
    digest: str | None


def invoke(wl: Workload, variant: int, work: Path, deadline: float,
           trace_dir: Path | None = None, tag: str = "run") -> Invocation:
    procs = []
    for i, command in enumerate(wl.variants[variant]):
        spans = None if trace_dir is None else trace_dir / f"{tag}-{i}.json"
        procs.append(run_proc(_argv([command], work, spans), work / f"{tag}-{i}.log", deadline))
        if procs[-1].returncode != 0:
            break
    problems = [f"command {i} exited {p.returncode}: {p.stdout.strip()[-300:]}"
                for i, p in enumerate(procs) if p.returncode != 0]
    digest = None
    if not problems:
        problems, digest = wl.check(work, [p.stdout for p in procs])
    return Invocation(
        wall_s=sum(p.wall_s for p in procs),
        cpu_s=sum(p.cpu_s for p in procs),
        peak_rss_mb=max(p.peak_rss_mb for p in procs),
        ok=not problems,
        problems=problems,
        variant=variant,
        digest=digest,
    )


def set_up(wl: Workload, work: Path, deadline: float, trace_dir: Path | None = None) -> float:
    """Build the workload's inputs from scratch; return the wall time it took."""
    inputs = work / "inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    spans = None if trace_dir is None else trace_dir / "setup.json"
    proc = run_proc(_argv(wl.setup, work, spans), work / "setup.log", deadline)
    if proc.returncode != 0:
        raise SetupFailed(f"set-up exited {proc.returncode}: {proc.stdout.strip()[-300:]}")
    return proc.wall_s


# ---------------------------------------------------------------- checks


def _tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode())
        with open(f, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def _code_digest() -> str:
    """Digest of the program and benchmark files that decide the outputs."""
    h = hashlib.sha256()
    files = [*(ROOT / "src").rglob("*.py"), *BENCH.rglob("*.py"), *CONFIGS.glob("*.json")]
    for f in sorted(files):
        h.update(f.read_bytes())
    return h.hexdigest()


def check_repeatable(key: str, runs: list[Invocation]) -> list[str]:
    """Outputs of one input must not differ: within this run, and across runs
    of the same code and seed in this checkout (remembered in the work dir)."""
    problems = []
    store = WORK / "digests.json"
    try:
        known = json.loads(store.read_text())
    except (OSError, ValueError):
        known = {}
    for variant in sorted({r.variant for r in runs}):
        digests = [r.digest for r in runs if r.variant == variant and r.digest]
        if not digests:
            continue
        if len(set(digests)) > 1:
            problems.append(f"input {variant}: outputs differ across invocations")
        vkey = f"{key}|input={variant}"
        if known.setdefault(vkey, digests[0]) != digests[0]:
            problems.append(f"input {variant}: output differs from an earlier run's")
    store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return problems


# ---------------------------------------------------------------- environment


def environment(wl: Workload) -> dict:
    import numpy
    import scipy

    def blas(cfg):
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads_flag": wl.threads,
        "blas_thread_vars": {v: os.environ.get(v, "unset") for v in BLAS_VARS},
        "hardware_counters": HARDWARE_COUNTERS,
    }


def steal_seconds() -> float | None:
    """CPU time the hypervisor gave to other guests, summed over this
    machine's CPUs since boot (``/proc/stat``); None where not reported."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


# ---------------------------------------------------------------- modes


def measure(wl: Workload, work: Path, seconds: float, deadline: float, key: str):
    setups = []
    input_digests = []
    for _ in range(SETUP_REPEATS):
        setups.append(set_up(wl, work, deadline))
        input_digests.append(_tree_digest(work / "inputs"))
    problems = []
    if len(set(input_digests)) > 1:
        problems.append("set-up built different inputs from one seed")

    runs: list[Invocation] = []
    steal0 = steal_seconds()
    t0 = time.monotonic()
    while True:
        runs.append(invoke(wl, len(runs) % len(wl.variants), work, deadline))
        done = time.monotonic() - t0 >= seconds and len(runs) >= max(2, len(wl.variants))
        longest = max(r.wall_s for r in runs)
        if done or time.monotonic() + 1.5 * longest > deadline:
            break
    steal1 = steal_seconds()
    problems += check_repeatable(key, runs)
    values = {
        "wall_s": statistics.median(r.wall_s for r in runs),
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "setup_s": statistics.median(setups),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    details = {
        "setup_s": setups,
        "invocations": [vars(r) for r in runs],
        "steal_s_during_invocations": None if steal0 is None else steal1 - steal0,
    }
    return runs, problems, metrics, details


def trace(wl: Workload, work: Path, deadline: float, key: str):
    trace_dir = work / "spans"
    trace_dir.mkdir(parents=True, exist_ok=True)
    set_up(wl, work, deadline, trace_dir)
    plain = invoke(wl, 0, work, deadline, tag="untraced")
    traced = invoke(wl, 0, work, deadline, trace_dir=trace_dir, tag="traced")
    runs = [plain, traced]
    problems = check_repeatable(key, runs)

    def load(pattern):
        return [json.loads(p.read_text()) for p in sorted(trace_dir.glob(pattern))]

    setup_traces, run_traces = load("setup.json"), load("traced-*.json")
    values = tracer.layer_metrics(run_traces)
    values["synth.generate_s"] = tracer.layer_metrics(setup_traces)["synth.generate_s"]
    values["trace.overhead_s"] = traced.wall_s - plain.wall_s
    metrics = {name: (values[name], unit) for name, (unit, _, _) in PER_LAYER.items()}

    span_total = sum(doc["spans"][0][4] for doc in run_traces)
    self_sum = overlap = 0.0
    for doc in run_traces:
        spans = [tuple(s) for s in doc["spans"]]
        selfs, extra = tracer.self_times(spans)
        self_sum += sum(selfs.values())
        overlap += extra
        problems += tracer.nesting_problems(spans)[:10]
    details = {
        "untraced_wall_s": plain.wall_s,
        "traced_wall_s": traced.wall_s,
        "span_total_s": span_total,
        "span_self_sum_s": self_sum,
        "concurrent_overlap_s": overlap,
        "spans": sum(len(doc["spans"]) for doc in run_traces),
        "invocations": [vars(r) for r in runs],
        "layer_map": {name: {"moves": m, "workload": w} for name, (_, m, w) in PER_LAYER.items()},
    }
    return runs, problems, metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="errpkit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the harness self-test")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + TIME_BUDGET_S
    if not (ROOT / "src" / "errpkit" / "cli.py").is_file():
        print(f"error: no errpkit sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    wl = make_workload(args.workload, args.seed, args.toy)
    work = WORK / f"{wl.name}-{args.seed}{'-toy' if args.toy else ''}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    key = f"{wl.name}|seed={args.seed}|toy={args.toy}|code={_code_digest()}"
    try:
        if args.trace:
            runs, problems, metrics, details = trace(wl, work, deadline, key)
        else:
            runs, problems, metrics, details = measure(wl, work, args.seconds, deadline, key)
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not r.ok for r in runs)
    details.update(workload=wl.name, seed=args.seed, trace=args.trace,
                   problems=problems + [p for r in runs for p in r.problems],
                   environment=environment(wl))
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
