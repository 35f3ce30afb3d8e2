"""Self-test of the benchmark harness at toy size.

    python3 bench/selftest.py        # from the repository root, ~1 minute

Checks the span arithmetic on a hand-made trace, then runs every workload
with ``--toy`` in both modes and checks that each metric named in
``BENCHMARK.json`` is emitted with its unit, that the outputs pass, that
every layer mapped to the workload shows work, and that span self times
sum to the traced total.  Finally runs the benchmark in a directory that
holds only ``BENCHMARK.json`` and the benchmark files, where it must fail
without printing a result.  Exits 1 on any failure.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracer

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_span_arithmetic() -> None:
    # root 0..10; a 1..5 with two overlapping children 2..4 and 3..5
    # (worker threads); b 6..7.  Self: root 10-5=5, a 4-3=1, kids 2+2, b 1.
    spans = [(0, -1, "process", 0.0, 10.0), (1, 0, "x.a", 1.0, 5.0),
             (2, 1, "y.k", 2.0, 4.0), (3, 1, "y.k", 3.0, 5.0), (4, 0, "x.b", 6.0, 7.0)]
    selfs, overlap = tracer.self_times(spans)
    expect(selfs == {0: 5.0, 1: 1.0, 2: 2.0, 3: 2.0, 4: 1.0} and overlap == 1.0,
           "self times and child overlap of a hand-made trace")
    expect(math.isclose(sum(selfs.values()), 10.0 + overlap), "self times sum to total + overlap")
    expect(not tracer.nesting_problems(spans), "well-nested trace has no nesting problems")
    expect(len(tracer.nesting_problems(spans + [(5, 4, "z", 6.5, 7.5)])) == 1,
           "a child outside its parent is reported")


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def check_workload(workload: str, trace: int) -> None:
    what = f"{workload} --trace {trace}"
    proc = run_bench(workload, trace)
    lines = proc.stdout.strip().splitlines()
    expect(proc.returncode == 0 and len(lines) >= 2, f"{what}: exits 0 with a result")
    if proc.returncode != 0 or len(lines) < 2:
        print(proc.stderr[-2000:])
        return
    result = json.loads(lines[-1])
    details = json.loads(lines[-2])["details"]
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{what}: outputs pass their checks {details['problems']}")
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == wanted, f"{what}: every metric emitted with its unit")
    expect(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
               for m in result["metrics"].values()), f"{what}: values are finite numbers")
    if trace:
        # a layer mapped to this workload must show work; these two may be 0
        may_be_zero = {"logreg.nonconverged", "trace.overhead_s"}
        idle = [name for name, (_, _, on) in run.PER_LAYER.items()
                if (on == "all" or on.startswith(workload)) and name not in may_be_zero
                and result["metrics"][name]["value"] <= 0]
        expect(not idle, f"{what}: layers mapped to this workload show work {idle}")
        expect(math.isclose(details["span_self_sum_s"],
                            details["span_total_s"] + details["concurrent_overlap_s"],
                            rel_tol=1e-9),
               f"{what}: span self times sum to the traced total")


def check_bare_directory() -> None:
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run_bench("desk_compare", 0, cwd=bare)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               "without the sources: fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_span_arithmetic()
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_workload(workload, trace)
    check_bare_directory()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
