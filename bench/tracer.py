"""Run errpkit commands in one process, optionally under a span tracer.

Usage, from the root of a checkout with ``src`` on ``PYTHONPATH``::

    python3 bench/tracer.py [--spans OUT.json] COMMANDS_JSON

``COMMANDS_JSON`` is a list of ``["cli", ARGS]`` (``errpkit.cli.main(ARGS)``)
and ``["recording", ARGS]`` (the benchmark's continuous-recording builder)
pairs, run in order; the first non-zero exit code stops the list.

With ``--spans``, before the commands start every public function of every
``errpkit`` module is replaced by a timing wrapper at each module binding
that names it, so a function that ``cli`` imported by name is wrapped where
``cli`` looks it up.  A few private or foreign bindings that carry a
per-layer metric are wrapped as well (``cli._audit_blocks``,
``logreg.minimize``).  Spans (id, parent, name, start, end) and counts stay
in memory and are written as JSON when the commands return.

``evaluation`` runs folds on a ``ThreadPoolExecutor``; its binding is
replaced by a subclass that hands each task the span that submitted it, so
spans on worker threads keep the right parent.

The analysis half of this file (``self_times``, ``layer_metrics``) imports
nothing from errpkit and is used by ``run.py`` on the written JSON.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

PROCESS_SPAN = "process"

# Hot leaf functions: counted (per calling span) but given no span of their
# own, which would cost more than the work they do.
COUNT_ONLY = {"logreg.objective", "preprocessing.sample_index"}

# Bindings outside the public-function rule that carry a per-layer metric.
EXTRA_BINDINGS = {
    "cli": ["_audit_blocks"],
    "logreg": ["minimize"],
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self.computed: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [(0, "")]
        return stack

    def span(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack()
            sid = next(self._ids)
            parent = stack[-1][0]
            stack.append((sid, name))
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1))
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = self.stack()[-1][1]
            with self._lock:
                self.counts[f"{name}@{caller}"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.computed[key] += value

    def pool_class(self, base):
        tracer = self

        class PropagatingPool(base):
            def submit(self, fn, /, *args, **kwargs):
                inherited = list(tracer.stack())

                def run(*a, **k):
                    saved = getattr(tracer._local, "stack", None)
                    tracer._local.stack = list(inherited)
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer._local.stack = saved

                return super().submit(run, *args, **kwargs)

        return PropagatingPool

    def dump(self, path: str, root: tuple[float, float]) -> None:
        t_base = root[0]
        doc = {
            "spans": [[0, -1, PROCESS_SPAN, 0.0, root[1] - t_base]]
            + [[s, p, n, a - t_base, b - t_base] for s, p, n, a, b in self.spans],
            "counts": dict(self.counts),
            "computed": dict(self.computed),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _hooks(errpkit_modules) -> dict:
    """Computed figures taken from arguments and results, keyed by span name."""
    features = errpkit_modules["features"]
    fit_sig = inspect.signature(features.fit_riemann)
    transform_sig = inspect.signature(features.transform_riemann_set)

    def epochs_read(tr, args, kwargs, es):
        tr.add("io.bytes_read", 4 * es.data.size + len(es))  # float32 samples + label bytes

    def continuous_read(tr, args, kwargs, result):
        tr.add("io.bytes_read", 4 * result[0].data.size)

    def cov_fit(tr, args, kwargs, model):
        train = fit_sig.bind(*args, **kwargs).arguments["train"]
        d = 3 * model.prototypes.n_channels
        tr.add("features.cov_flop", len(train) * d * d * model.prototypes.n_window)

    def cov_transform(tr, args, kwargs, feats):
        model = transform_sig.bind(*args, **kwargs).arguments["model"]
        d = 3 * model.prototypes.n_channels
        tr.add("features.cov_flop", feats.shape[0] * d * d * model.prototypes.n_window)

    def logreg_fit(tr, args, kwargs, model):
        tr.add("logreg.nonconverged", 0 if model.converged else 1)

    def cv_folds(tr, args, kwargs, result):
        tr.add("evaluation.folds", result.accuracies.size)

    return {
        "io.read_epoch_container": epochs_read,
        "io.read_continuous_container": continuous_read,
        "features.fit_riemann": cov_fit,
        "features.transform_riemann_set": cov_transform,
        "logreg.fit": logreg_fit,
        "evaluation.run_cv": cv_folds,
    }


def install(tracer: Tracer) -> None:
    """Wrap every public errpkit function at every module binding."""
    import importlib
    import pkgutil

    import errpkit

    modules = {
        info.name: importlib.import_module(f"errpkit.{info.name}")
        for info in pkgutil.iter_modules(errpkit.__path__)
    }
    hooks = _hooks(modules)
    wrapped: dict[int, object] = {}

    def wrapper_for(name, fn):
        if id(fn) not in wrapped:
            if name in COUNT_ONLY:
                wrapped[id(fn)] = tracer.counter(name, fn)
            else:
                wrapped[id(fn)] = tracer.span(name, fn, hooks.get(name))
        return wrapped[id(fn)]

    for short, mod in modules.items():
        extra = EXTRA_BINDINGS.get(short, [])
        for attr, value in list(vars(mod).items()):
            if not inspect.isfunction(value):
                continue
            home = value.__module__ or ""
            if home.startswith("errpkit.") and not attr.startswith("_"):
                name = f"{home.split('.', 1)[1]}.{value.__name__}"
            elif attr in extra:
                name = f"{short}.{attr}"
            else:
                continue
            setattr(mod, attr, wrapper_for(name, value))
    evaluation = modules["evaluation"]
    evaluation.ThreadPoolExecutor = tracer.pool_class(evaluation.ThreadPoolExecutor)


def run_commands(commands) -> int:
    from errpkit import cli

    import recording

    for kind, args in commands:
        code = (cli.main if kind == "cli" else recording.main)(args)
        if code:
            return code
    return 0


def main(argv: list[str]) -> int:
    t_start = time.perf_counter()
    spans_out = None
    if len(argv) == 3 and argv[0] == "--spans":
        spans_out, argv = argv[1], argv[2:]
    if len(argv) != 1:
        print("usage: tracer.py [--spans OUT.json] COMMANDS_JSON", file=sys.stderr)
        return 2
    commands = json.loads(argv[0])
    if spans_out is None:
        return run_commands(commands)
    tracer = Tracer()
    install(tracer)
    code = run_commands(commands)
    tracer.dump(spans_out, (t_start, time.perf_counter()))
    return code


# ---------------------------------------------------------------- analysis


def _union_length(intervals) -> float:
    total = 0.0
    end = -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans) -> tuple[dict[int, float], float]:
    """Self time per span id, and the summed overlap of concurrent children.

    A span's self time is its duration minus the part of its interval that
    its child spans cover.  Children on worker threads can overlap each
    other; the overlap is returned so that
    ``sum(self) == sum(root durations) + overlap`` holds exactly.
    """
    children = defaultdict(list)
    for sid, parent, _name, a, b in spans:
        children[parent].append((a, b))
    out = {}
    overlap = 0.0
    for sid, _parent, _name, a, b in spans:
        kids = children.get(sid, [])
        covered = _union_length(kids)
        out[sid] = (b - a) - covered
        overlap += sum(kb - ka for ka, kb in kids) - covered
    return out, overlap


def nesting_problems(spans, tol: float = 1e-6) -> list[str]:
    """Spans whose parent is missing or whose interval leaves the parent's."""
    by_id = {sid: (a, b) for sid, _parent, _name, a, b in spans}
    problems = []
    for sid, parent, name, a, b in spans:
        if parent == -1:
            continue
        if parent not in by_id:
            problems.append(f"{name} #{sid}: parent #{parent} missing")
        elif a < by_id[parent][0] - tol or b > by_id[parent][1] + tol:
            problems.append(f"{name} #{sid}: outside parent #{parent}")
    return problems


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the span files of one workload's processes."""
    incl = Counter()
    self_by_name = Counter()
    self_by_layer = Counter()
    calls = Counter()
    counts = Counter()
    computed = Counter()
    karcher_inner = 0
    for doc in traces:
        spans = [tuple(s) for s in doc["spans"]]
        selfs, _ = self_times(spans)
        names = {sid: name for sid, _p, name, _a, _b in spans}
        for sid, parent, name, a, b in spans:
            incl[name] += b - a
            self_by_name[name] += selfs[sid]
            self_by_layer[layer_of(name)] += selfs[sid]
            calls[name] += 1
            if name == "manifold.canonical_mean" and names.get(parent) == "manifold.geometric_mean":
                karcher_inner += 1
        counts.update(doc["counts"])
        computed.update(doc["computed"])

    def inclusive(*names):
        return sum(incl[n] for n in names)

    def own(*names):
        return sum(self_by_name[n] for n in names)

    return {
        "synth.generate_s": inclusive("synth.generate_epochs"),
        "preprocessing.bandpass_s": inclusive("preprocessing.bandpass"),
        "preprocessing.notch_s": inclusive("preprocessing.notch"),
        "preprocessing.downsample_s": inclusive("preprocessing.downsample_set"),
        "preprocessing.epoch_s": inclusive(
            "preprocessing.average_reference", "preprocessing.epoch_extract",
            "preprocessing.baseline_subtract_set",
        ),
        "io.read_s": inclusive(
            "io.read_epoch_container", "io.read_continuous_container", "io.read_report",
        ),
        "io.write_s": inclusive(
            "io.write_epoch_container", "io.write_continuous_container", "io.write_report",
        ),
        "io.bytes_read": computed["io.bytes_read"],
        "features.riemann_self_s": own("features.fit_riemann", "features.transform_riemann_set"),
        "features.cov_gflop": computed["features.cov_flop"] / 1e9,
        "features.benchmark_s": inclusive(
            "features.fit_benchmark", "features.transform_benchmark_set",
        ),
        "manifold.karcher_s": inclusive("manifold.geometric_mean"),
        "manifold.karcher_calls": calls["manifold.geometric_mean"],
        "manifold.karcher_iters": karcher_inner - calls["manifold.geometric_mean"],
        "manifold.tangent_s": inclusive("manifold.tangent_project"),
        "logreg.fit_s": inclusive("logreg.fit"),
        "logreg.fit_calls": calls["logreg.fit"],
        "logreg.objective_evals": counts["logreg.objective@logreg.minimize"],
        "logreg.nonconverged": computed["logreg.nonconverged"],
        "evaluation.cv_self_s": own("evaluation.run_cv"),
        "evaluation.folds": computed["evaluation.folds"],
        "evaluation.stats_s": inclusive(
            "evaluation.corrected_t_test", "evaluation.permutation_test",
        ),
        "evaluation.chance_s": inclusive("evaluation.chance_level"),
        "cli.audit_s": inclusive("cli._audit_blocks"),
        "cli.self_s": self_by_layer["cli"],
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
