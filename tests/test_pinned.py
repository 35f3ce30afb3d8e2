"""Fixed-seed results pinned across commits.

``pinned_results.json`` holds the accuracies, medians, chance levels,
t-tests and permutation tests of three small fixed-seed compares:

- ``desk``: a desk-shaped container (60 trials of 32 channels at 256 Hz, so
  96x96 super-trial covariances, in 30-trial training folds) under the desk
  config's 2x1 folds;
- ``tiny_chance``: acceptance 10's 40x3 container under ``compare --chance``
  at 5x2 folds, run at one and at two threads;
- ``two_null``: two 40x3 containers without components (``frn_amp_uv`` and
  ``p3a_amp_uv`` 0) in one compare at 5x2 folds, with its permutation test;
  ``two_null_csv`` holds the sha256 of the two ERP CSVs and the accuracy
  CSV that its ``--emit-erp`` writes.

It also holds the sha256 of ``data.bin`` and ``labels.bin`` of the tiny
``synth`` container (``synth_tiny``), of the same shape labelled by the
staircase observer at seed 2 (``synth_staircase``), and of the
``preprocess`` output of a seeded 4-channel, 70 s recording at 1024 Hz in
both baseline orders (``preprocess_baseline_first`` and
``preprocess_downsample_first``): its 4 filtered rows and its 21 epochs
fill several blocks of ``parallel.blocks``.

Accuracies, medians, chance accuracies and the permutation test's observed
metric are sums of fractions of test-fold sizes, and the exact permutation
p a share of sign patterns, and are compared exactly; t, p, z, the null's
standard deviation and the chance threshold to 1e-12 relative.
A change that moves a pinned value regenerates the file with

    PYTHONPATH=src python tests/test_pinned.py

which prints the path of each value that moved (``moved:
preprocess_baseline_first.data.bin``); name each in CHANGES.md.
"""
import contextlib
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from errpkit.cli import main
from errpkit.io import write_continuous_container
from errpkit.preprocessing import ContinuousRecording

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).resolve().parent / "pinned_results.json"
DESK_CONFIG = str(ROOT / "configs" / "desk_benchmark.json")
TINY = [
    "--set", "n_trials=40", "--set", "n_channels=3", "--set", "fs_hz=64.0",
    "--set", "pre_s=0.25", "--set", "post_s=0.75",
    "--set", "frn_amp_uv=-9.0", "--set", "noise_rms_uv=6.0",
]
NULL = ["--set", "frn_amp_uv=0.0", "--set", "p3a_amp_uv=0.0"]
CLOSE = ("t", "p", "z", "null_std", "threshold_97_5")


def _results(report_path):
    """The pinned fields of each dataset of a report."""
    out = []
    for ds in json.loads(Path(report_path).read_text())["datasets"]:
        entry = {name: {"accuracies": m["accuracies"], "median": m["median"]}
                 for name, m in ds["methods"].items()}
        entry["t_test"] = {"t": ds["t_test"]["t"], "p": ds["t_test"]["p"]}
        if ds["chance"] is not None:
            entry["chance"] = {key: ds["chance"][key] for key in
                               ("mean_accuracy", "per_shuffle_mean_accuracies", "threshold_97_5")}
        out.append(entry)
    return out


def _digests(directory: Path, names=("data.bin", "labels.bin")) -> dict:
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in names}


def _recording(tmp: Path) -> Path:
    """A continuous container of 4 channels, 70 s at 1024 Hz, with 23 events
    of code 1, one too close to each edge, and one of code 2."""
    fs, rng = 1024.0, np.random.default_rng(11)
    data = (rng.standard_normal((4, int(70 * fs))) * 20).astype(np.float32)
    events = [(int(fs * t), 1) for t in (0.2, *(1.0 + 3.2 * i for i in range(21)), 69.0)]
    events.append((int(fs * 30.5), 2))
    rec = ContinuousRecording(fs, ["Fz", "FCz", "Cz", "Pz"], data, events)
    return write_continuous_container(tmp / "raw", rec, [i % 2 for i in range(len(events))])


def compute(tmp: Path) -> dict:
    """Run the pinned compares under ``tmp``, the tiny one at 1 and 2 threads,
    and digest the tiny container and the preprocess outputs."""
    desk, tiny = tmp / "desk", tmp / "tiny"
    assert main(["synth", "--config", DESK_CONFIG, "--set", "n_trials=60", "--seed", "1",
                 "--out", str(desk)]) == 0
    assert main(["synth", "--out", str(tiny), "--seed", "3", *TINY]) == 0
    assert main(["compare", "--config", DESK_CONFIG, "--input", str(desk), "--seed", "1",
                 "--threads", "1", "--out", str(tmp / "desk.json")]) == 0
    results = {"desk": _results(tmp / "desk.json")}
    for threads in (1, 2):
        out = tmp / f"tiny_{threads}.json"
        assert main(["compare", "--input", str(tiny), "--seed", "5", "--folds", "5",
                     "--repeats", "2", "--chance", "--threads", str(threads),
                     "--out", str(out)]) == 0
        results[f"tiny_chance_threads_{threads}"] = _results(out)
    nulls = [tmp / f"null_{seed}" for seed in (21, 22)]
    for seed, path in zip((21, 22), nulls):
        assert main(["synth", "--out", str(path), "--seed", str(seed), *TINY, *NULL]) == 0
    # relative paths: the accuracy CSV names each input as it was given
    with contextlib.chdir(tmp):
        assert main(["compare", *(arg for path in nulls for arg in ("--input", path.name)),
                     "--seed", "9", "--folds", "5", "--repeats", "2", "--emit-erp",
                     "--out", "two_null.json"]) == 0
    results["synth_tiny"] = _digests(tiny)
    stair = tmp / "staircase"
    assert main(["synth", "--out", str(stair), "--seed", "2", *TINY,
                 "--set", "label_source=staircase"]) == 0
    results["synth_staircase"] = _digests(stair)
    raw = _recording(tmp)
    for order, first in (("baseline_first", "true"), ("downsample_first", "false")):
        out = tmp / f"ep_{order}"
        assert main(["preprocess", "--input", str(raw), "--set",
                     f"baseline_before_downsample={first}", "--out", str(out)]) == 0
        results[f"preprocess_{order}"] = _digests(out)
    report = json.loads((tmp / "two_null.json").read_text())
    results["two_null"] = {
        "datasets": _results(tmp / "two_null.json"),
        "permutation_test": {key: report["permutation_test"][key]
                             for key in ("observed_metric", "z", "p", "null_std", "p_exact")},
    }
    results["two_null_csv"] = _digests(tmp, ("two_null_erp_0.csv", "two_null_erp_1.csv",
                                             "two_null_accuracies.csv"))
    return results


def _assert_matches(got, want, path=""):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            _assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{path}[{i}]")
    elif path.rsplit(".", 1)[-1] in CLOSE:
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (path, got, want)
    else:
        assert got == want, (path, got, want)


def test_fixed_seed_results_match_the_pinned_file(tmp_path):
    pinned = json.loads(PINNED.read_text())
    got = compute(tmp_path)
    assert sorted(pinned) == ["desk", "preprocess_baseline_first", "preprocess_downsample_first",
                              "synth_staircase", "synth_tiny", "tiny_chance_threads_1",
                              "tiny_chance_threads_2", "two_null", "two_null_csv"]
    _assert_matches(got, pinned)


def _moved(old, new, path=""):
    """The paths of the values of ``new`` that differ from ``old``, or that
    only one of them holds."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [moved for key in sorted(old.keys() | new.keys())
                for moved in _moved(old.get(key), new.get(key), f"{path}.{key}" if path else key)]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [moved for i, (o, n) in enumerate(zip(old, new))
                for moved in _moved(o, n, f"{path}[{i}]")]
    return [] if old == new else [path]


if __name__ == "__main__":
    old = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = compute(Path(tmp))
    PINNED.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    moved = _moved(old, new)
    sys.stdout.write("".join(f"moved: {path}\n" for path in moved)
                     + f"wrote {PINNED}, {len(moved)} value(s) moved\n")
