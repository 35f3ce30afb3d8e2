"""Every errpkit name a demo or a benchmark script imports or reads as an
attribute must exist.

The scripts are parsed with ``ast``, not run, so removing a name that a
demo or the benchmark harness (``bench/``) still uses fails here in well
under a second, not when the benchmark runs.
"""
import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def errpkit_names(source: str) -> set[str]:
    """Dotted errpkit paths the script imports or reads, e.g. ``errpkit.manifold.mat_log``."""
    tree = ast.parse(source)
    bound: dict[str, str] = {}  # local name -> dotted errpkit path
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "errpkit":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "errpkit":
                    local = alias.asname or alias.name.split(".")[0]
                    bound[local] = alias.name if alias.asname else "errpkit"
                    names.add(alias.name)
    names.update(bound.values())
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in bound:
            names.add(".".join([bound[node.id], *reversed(attrs)]))
    return names


def unresolved(path: str) -> bool:
    parts = path.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            return True
    return False


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


# benchmark scripts that use errpkit at all (bench/selftest.py drives the others)
BENCH = [p for p in sorted((ROOT / "bench").glob("*.py")) if errpkit_names(p.read_text())]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_names_resolve(demo):
    names = errpkit_names(demo.read_text())
    assert names, f"{demo.name} uses no errpkit names"
    assert sorted(n for n in names if unresolved(n)) == []


def test_bench_scripts_are_scanned():
    assert {p.name for p in BENCH} >= {"recording.py", "run.py", "tracer.py"}


@pytest.mark.parametrize("script", BENCH, ids=[f"bench/{p.name}" for p in BENCH])
def test_bench_names_resolve(script):
    names = errpkit_names(script.read_text())
    assert sorted(n for n in names if unresolved(n)) == []
