"""Every errpkit name a demo, a benchmark script or a README ``python``
block imports or reads as an attribute must exist, and every keyword it
passes to an errpkit callable must be one that callable takes.

The scripts are parsed with ``ast``, not run, so removing or renaming a name
or keyword that a demo, the benchmark harness (``bench/``) or the README's
quick start still uses fails here in well under a second, not when the
benchmark runs or a reader copies the example.  The scanner cannot see a
demo that fails at run time, so each demo also runs once to exit 0.

Each demo and the README's quick start must also import errpkit before
numpy: importing errpkit pins BLAS to one thread only while numpy is not yet
loaded.  Running the demos cannot show this, because the test process pins
the environment that they inherit.
"""
import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _bindings(tree: ast.AST) -> tuple[dict[str, str], set[str]]:
    """Local names bound to errpkit paths, and the modules imported whole."""
    bound: dict[str, str] = {}  # local name -> dotted errpkit path
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "errpkit":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "errpkit":
                    local = alias.asname or alias.name.split(".")[0]
                    bound[local] = alias.name if alias.asname else "errpkit"
                    modules.add(alias.name)
    return bound, modules


def _dotted(node: ast.AST, bound: dict[str, str]) -> str | None:
    """The errpkit path an attribute chain on a bound name spells, if any."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in bound:
        return ".".join([bound[node.id], *reversed(attrs)])
    return None


def errpkit_names(source: str) -> set[str]:
    """Dotted errpkit paths the script imports or reads, e.g. ``errpkit.manifold.mat_log``."""
    tree = ast.parse(source)
    bound, names = _bindings(tree)
    names.update(bound.values())
    names.update(path for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and (path := _dotted(node, bound)))
    return names


_MISSING = object()


def _resolve(path: str):
    parts = path.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            return _MISSING
    return obj


def unresolved(path: str) -> bool:
    return _resolve(path) is _MISSING


def unknown_keywords(source: str) -> list[str]:
    """``path(keyword=)`` for each keyword passed to an errpkit callable that
    its signature does not take; ``**mapping`` arguments are not checked."""
    tree = ast.parse(source)
    bound, _ = _bindings(tree)
    bad = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not (path := _dotted(node.func, bound)):
            continue
        obj = _resolve(path)
        if obj is _MISSING or not callable(obj):
            continue
        params = inspect.signature(obj).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        bad += [f"{path}({kw.arg}=)" for kw in node.keywords
                if kw.arg is not None and kw.arg not in params]
    return sorted(bad)


def first_import(source: str, roots: set[str]) -> str | None:
    """The first of ``roots`` that a top-level import statement names."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        for name in names:
            if name.split(".")[0] in roots:
                return name.split(".")[0]
    return None


def imports_errpkit_first(source: str) -> bool:
    """Whether errpkit is imported before numpy, or scipy, which loads it."""
    return first_import(source, {"errpkit", "numpy", "scipy"}) == "errpkit"


def test_import_order_scanner():
    assert imports_errpkit_first("import errpkit\nimport numpy as np\n")
    assert imports_errpkit_first('"""doc"""\nfrom errpkit import io\nimport numpy\n')
    assert not imports_errpkit_first("import numpy as np\nimport errpkit\n")
    assert not imports_errpkit_first("import os, numpy\nfrom errpkit.synth import x\n")
    assert not imports_errpkit_first("from scipy import signal\nimport errpkit\n")
    assert not imports_errpkit_first("import numpy as np\n")


def test_scanner_sees_imports_and_attributes():
    source = (
        "import errpkit.io\n"
        "from errpkit import manifold as m\n"
        "from errpkit.synth import gone\n"
        "m.mat_log(x).shape\n"
        "errpkit.io.nope\n"
    )
    names = errpkit_names(source)
    assert {"errpkit.io", "errpkit.manifold", "errpkit.synth.gone",
            "errpkit.manifold.mat_log", "errpkit.io.nope"} <= names
    assert not any(n.endswith(".shape") for n in names)  # attribute of a call result
    assert sorted(n for n in names if unresolved(n)) == ["errpkit.io.nope", "errpkit.synth.gone"]


def test_scanner_sees_unknown_keywords():
    source = (
        "from errpkit import synth\n"
        "from errpkit.synth import SynthSpec\n"
        "SynthSpec(n_trials=5, n_trails=5)\n"
        "synth.generate_epochs(labels, n_channels=3, fs_hz=64.0, pre_s=0.1, post_s=0.4,\n"
        "                      seed=1, n_samples=9, **extra)\n"
    )
    assert unknown_keywords(source) == [
        "errpkit.synth.SynthSpec(n_trails=)", "errpkit.synth.generate_epochs(n_samples=)"]


# benchmark scripts that use errpkit at all (bench/selftest.py drives the others)
BENCH = [p for p in sorted((ROOT / "bench").glob("*.py")) if errpkit_names(p.read_text())]


def problems(source: str) -> list[str]:
    """Unresolved errpkit names and unknown keywords of a script."""
    return sorted(n for n in errpkit_names(source) if unresolved(n)) + unknown_keywords(source)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_names_resolve(demo):
    assert errpkit_names(demo.read_text()), f"{demo.name} uses no errpkit names"
    assert problems(demo.read_text()) == []


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_imports_errpkit_before_numpy(demo):
    assert imports_errpkit_first(demo.read_text())


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def readme_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                      flags=re.MULTILINE | re.DOTALL)


def test_readme_names_resolve():
    blocks = readme_blocks()
    assert blocks, "README.md has no python block"
    for source in blocks:
        assert errpkit_names(source), "a README python block uses no errpkit names"
        assert problems(source) == []


def test_readme_quick_start_imports_errpkit_before_numpy():
    assert all(map(imports_errpkit_first, readme_blocks()))


def test_bench_scripts_are_scanned():
    assert {p.name for p in BENCH} >= {"recording.py", "run.py", "tracer.py"}


@pytest.mark.parametrize("script", BENCH, ids=[f"bench/{p.name}" for p in BENCH])
def test_bench_names_resolve(script):
    assert problems(script.read_text()) == []
