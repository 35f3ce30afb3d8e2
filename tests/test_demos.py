"""Every errpkit name a demo, a benchmark script or a README ``python``
block imports or reads as an attribute must exist, and every keyword it
passes to an errpkit callable must be one that callable takes.

The scripts are parsed with ``ast``, not run, so removing or renaming a name
or keyword that a demo, the benchmark harness (``bench/``) or the README's
quick start still uses fails here in well under a second, not when the
benchmark runs or a reader copies the example.  The scanner cannot see a
demo that fails at run time, so each demo also runs once to exit 0.

The README's shell blocks are held to the parser the same way: each
``errpkit`` command line in them must parse with ``cli.build_parser()``, so a
flag that is renamed or removed fails here too.  And every demo script must
be named in the README, so its demo table lists each one.
"""
import ast
import importlib
import inspect
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from errpkit import cli

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
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def readme_blocks(lang: str = "python") -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", (ROOT / "README.md").read_text(),
                      flags=re.MULTILINE | re.DOTALL)


def readme_commands() -> list[str]:
    """The ``errpkit`` command lines of the README's ``sh`` blocks, with
    ``\\``-continued lines joined and ``#`` comments stripped."""
    lines = []
    for block in readme_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("errpkit"):
                lines.append(line)
    return lines


def test_readme_names_resolve():
    blocks = readme_blocks()
    assert blocks, "README.md has no python block"
    for source in blocks:
        assert errpkit_names(source), "a README python block uses no errpkit names"
        assert problems(source) == []


def full_flag_parser():
    """``cli.build_parser()`` with no prefix of a flag standing for the flag,
    so a README line must spell each flag as the parser names it."""
    parser = cli.build_parser()
    for action in parser._actions:
        if isinstance(action.choices, dict):  # the subcommands' parsers
            for sub in action.choices.values():
                sub.allow_abbrev = False
    return parser


def test_readme_commands_parse():
    commands = readme_commands()
    assert commands, "README.md has no errpkit command in an sh block"
    for line in commands:
        try:
            full_flag_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_readme_lists_every_demo():
    readme = (ROOT / "README.md").read_text()
    assert [d.name for d in DEMOS if d.name not in readme] == []


def test_bench_scripts_are_scanned():
    assert {p.name for p in BENCH} >= {"recording.py", "run.py", "tracer.py"}


@pytest.mark.parametrize("script", BENCH, ids=[f"bench/{p.name}" for p in BENCH])
def test_bench_names_resolve(script):
    assert problems(script.read_text()) == []
