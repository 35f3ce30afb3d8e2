"""``bench/tracer.py`` runs errpkit commands under its span tracer.

The tracer finds what it measures by name: it wraps
``features.fit_riemann`` and ``features.transform_riemann_set``, binds their
``train`` and ``model`` arguments and reads the model's prototype shape.  A
change to those names breaks ``bench/run.py --trace 1``; this test runs the
tracer on a toy compare so that the break shows here.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_times_the_riemann_route(tmp_path):
    data, report, spans = tmp_path / "data", tmp_path / "report.json", tmp_path / "spans.json"
    commands = [
        ["cli", ["synth", "--out", str(data), "--seed", "1", "--set", "n_trials=40",
                 "--set", "n_channels=3", "--set", "fs_hz=64.0"]],
        ["cli", ["compare", "--input", str(data), "--out", str(report),
                 "--folds", "2", "--repeats", "1"]],
    ]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "bench/tracer.py", "--spans", str(spans), json.dumps(commands)],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans.read_text())
    names = {span[2] for span in doc["spans"]}
    assert {"features.fit_riemann", "features.transform_riemann_set"} <= names
    assert doc["computed"]["features.cov_flop"] > 0
