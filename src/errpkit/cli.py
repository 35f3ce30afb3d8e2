"""Batch command-line interface.

Subcommands: ``synth`` (generate a synthetic epoch container),
``preprocess`` (continuous container -> epoch container), ``run`` (one
method's cross-validation), ``compare`` (both methods, statistics, optional
chance level and ERP/accuracy CSV export), ``chance`` (shuffle-based chance
level alone) and ``validate`` (container integrity check).  ``run``,
``compare`` and ``chance`` are one command function that writes one report
schema (:func:`io.write_report`); they differ only in which methods run and
whether the chance level does.

Every command is deterministic given its inputs, flags and seed; reports
embed all seeds.  Exit codes: 0 success, 1 internal or numerical failure,
2 invalid input or configuration.  ``ERRP_LOG`` selects the log level;
a value that names no level exits 2.
"""
from __future__ import annotations

import argparse
import csv
import datetime
import logging
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import evaluation, features, io, parallel, synth
from .config import from_config, load_config
from .errors import ErrpkitError, InvalidInput
from .labels import FAILURE, SUCCESS
from .preprocessing import EpochSet, PreprocessSpec, preprocess_recording

logger = logging.getLogger(__name__)


def _check_out(out: str | Path, kind: str) -> None:
    """Raise unless a ``kind`` ("file" or "directory") can be made at ``out``: the
    nearest existing one of it and its parents is a directory, or ``out`` as a ``kind``."""
    path = Path(out)
    near = next(p for p in (path, *path.parents) if p.exists())
    if near.is_dir() != (near != path or kind == "directory"):
        raise ValueError(f"--out {out}: {near} is {'a' if near.is_dir() else 'not a'} directory")


def _setting(args, cfg: dict, key: str, least: int) -> int:
    """The flag ``--key`` if the command has it and it is given, else the
    config's ``key``; a value below ``least`` raises naming the one it came from."""
    value, name = getattr(args, key, None), f"--{key}"
    if value is None:
        value, name = cfg[key], f"config field {key!r}"
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def cmd_synth(args) -> int:
    _check_out(args.out, "directory")
    cfg = load_config(args.config, args.set)
    cfg["seed"] = _setting(args, cfg, "seed", 0)
    spec, template = from_config(synth.SynthSpec, cfg), from_config(synth.ErpTemplateSpec, cfg)
    es = synth.generate_dataset(spec, template, cfg["seed"])
    io.write_epoch_container(args.out, es, extra_manifest={
        "generator": {"seed": cfg["seed"], **asdict(spec), **asdict(template)}})
    print(f"wrote {len(es)} epochs to {args.out}")
    return 0


def cmd_preprocess(args) -> int:
    _check_out(args.out, "directory")
    cfg = load_config(args.config, args.set)
    spec = from_config(PreprocessSpec, cfg)
    rec, labels = io.read_continuous_container(args.input)
    labels = [lab for (_, code), lab in zip(rec.events, labels) if code == spec.event_code]
    es, skipped = preprocess_recording(rec, labels, spec, n_workers=parallel.n_cpus())
    io.write_epoch_container(
        args.out, es, extra_manifest={"skipped_events": skipped, "preprocess": asdict(spec)},
    )
    print(f"wrote {len(es)} epochs to {args.out} (skipped {len(skipped)} edge-clipped events)")
    return 0


def _audit_blocks(es: EpochSet, hp: evaluation.Hyperparams,
                  methods) -> tuple[dict, np.ndarray | None]:
    """Whole-dataset featurizer provenance for each method that ran, and the
    benchmark rows when the benchmark ran.  The riemann audit checks the
    riemann window, and the shrinkage against it, before the benchmark rows
    check the benchmark windows."""
    audit, rows = {}, None
    if "riemann" in methods:
        windows = features.riemann_windows(es)
        features.check_covariance_shape(features.SUPER_TRIAL_ROWS * es.n_channels,
                                        windows.shape[-1], hp.shrinkage)
        protos = features.fit_prototypes(windows, es.labels)
        audit["riemann"] = {
            "prototype_sha256_success": io.sha256_hex(protos.proto_success),
            "prototype_sha256_failure": io.sha256_hex(protos.proto_failure),
        }
    if "benchmark" in methods:
        rows = features.benchmark_features(es)
        audit["benchmark"] = {"scale": features.max_abs_scale(rows)}
    return audit, rows


def _erp_table(es: EpochSet) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The ERP CSV's header, times and (n_samples, 3 * n_channels) waves: the
    success mean, the failure mean and their difference for each channel,
    summed in float64."""
    succ = es.data[es.labels == SUCCESS].mean(axis=0, dtype=np.float64)
    fail = es.data[es.labels == FAILURE].mean(axis=0, dtype=np.float64)
    waves = np.stack([succ, fail, fail - succ], axis=1).reshape(-1, es.n_samples).T
    return (["time_s"] + [f"{ch}_{kind}_uv" for ch in es.channels
                          for kind in ("success", "failure", "diff")],
            np.arange(es.n_samples) / es.fs_hz + es.t0_offset_s, waves)


def _write_erp_csv(path: Path, header: list[str], t: np.ndarray, waves: np.ndarray) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{tj:.6f}", *map(repr, row)] for tj, row in zip(t, waves.tolist()))


def _write_accuracy_csv(path: Path, dataset_blocks: list[dict]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "method", "index", "accuracy"])
        for block in dataset_blocks:
            for method, res in block["methods"].items():
                for i, acc in enumerate(res["accuracies"]):
                    writer.writerow([block["path"], method, i, repr(float(acc))])


def _summary_line(block: dict) -> str:
    parts = [f"{m} {res['mean']:.4f}" for m, res in block["methods"].items()]
    if block["t_test"] is not None:
        parts.append(f"t={block['t_test']['t']:.3f}, p={block['t_test']['p']:.4f}, "
                     f"df={block['t_test']['df']}")
    if block["chance"] is not None:
        parts.append(f"chance {block['chance']['mean_accuracy']:.4f} "
                     f"(97.5th percentile {block['chance']['threshold_97_5']:.4f})")
    return f"{block['path']}: " + "; ".join(parts)


def cmd_evaluate(args) -> int:
    """``run``, ``compare`` and ``chance``: cross-validate ``args.methods`` and,
    with ``args.chance``, estimate the chance level, on every ``--input``.

    Dataset ``d`` gets the plan seed ``derive_seed(seed, d)`` and the chance
    seed ``derive_seed(seed, d, 0xC)`` whichever command runs, so a block is
    the same in every report that holds it.  Blocks that do not apply are
    null: ``t_test`` needs both methods, ``permutation_test`` needs both
    methods on at least two datasets.  Every file it writes, the report and
    with ``emit_erp`` the CSVs beside it, and every setting are checked before
    any input is read.  A check pass reads each input once and builds its
    report block: path, shape, plan and audit.  Beside the block it keeps the
    plan, the labels, the benchmark rows where the benchmark or the chance
    level runs, and with ``emit_erp`` the ERP table, not the samples, so a bad
    later input exits 2 before any fold, with a line that starts with its
    path.  The rows are computed once per input: the audit's ``scale``, the
    chance level and the benchmark folds all read them.  An evaluate pass then
    fills in each block's ``chance``, ``methods`` and ``t_test``; only the
    riemann folds read a container again, for its windows.
    """
    t_start = time.perf_counter()
    out = Path(args.out)
    csvs = []  # with emit_erp: one ERP CSV per input, then the accuracy CSV
    if args.emit_erp:
        csvs = [out.with_name(f"{out.stem}_{name}.csv")
                for name in [*(f"erp_{d}" for d in range(len(args.input))), "accuracies"]]
    for path in (args.out, *csvs):
        _check_out(path, "file")
    cfg = load_config(args.config, args.set)
    seed, k, r, threads = (_setting(args, cfg, key, least) for key, least in
                           (("seed", 0), ("folds", 2), ("repeats", 1), ("threads", 1)))
    shuffles = _setting(args, cfg, "n_chance_shuffles", 1) if args.chance else None
    cfg.update(seed=seed, folds=k, repeats=r)  # the report's config is what ran
    hp = from_config(evaluation.Hyperparams, cfg)

    inputs, erps = [], []  # per input: (block, plan, labels, benchmark rows or None); ERP tables
    for d, in_path in enumerate(args.input):
        try:
            es = io.read_epoch_container(in_path)
            plan = evaluation.make_fold_plan(es.labels, k=k, r=r,
                                             seed=evaluation.derive_seed(seed, d))
            audit, rows = _audit_blocks(es, hp, args.methods)
            if args.chance and rows is None:
                rows = features.benchmark_features(es)
        except (InvalidInput, OSError, ValueError) as exc:
            raise type(exc)(f"{in_path}: {exc}") from exc
        block = {
            "path": str(in_path),
            "n_trials": len(es),
            "n_channels": es.n_channels,
            "fs_hz": float(es.fs_hz),
            "plan": {"seed": plan.seed, "k": plan.k, "r": plan.r,
                     "assignments_sha256": io.sha256_hex(plan.assignments.astype(np.float64))},
            "methods": {},
            "t_test": None,
            "chance": None,
            "audit": audit,
        }
        inputs.append((block, plan, es.labels, rows))
        if args.emit_erp:
            erps.append(_erp_table(es))
        del es
    pairs = []
    for d, (block, plan, labels, rows) in enumerate(inputs):
        if args.chance:
            block["chance"] = asdict(evaluation.chance_level(
                rows, labels, plan_seed=evaluation.derive_seed(seed, d, 0xC),
                n_shuffles=shuffles, k=k, r=r, hyperparams=hp, n_workers=threads,
            ))
        results = {
            method: evaluation.run_cv(
                rows if method == "benchmark"
                else features.riemann_windows(io.read_epoch_container(block["path"])),
                labels, method, plan, hp, n_workers=threads)
            for method in args.methods
        }
        block["methods"] = {m: {"accuracies": res.accuracies, "mean": float(res.accuracies.mean()),
                                "median": float(np.median(res.accuracies))}
                            for m, res in results.items()}
        if len(results) == len(evaluation.METHODS):
            pairs.append((results["riemann"], results["benchmark"]))
            block["t_test"] = asdict(evaluation.corrected_t_test(*pairs[-1]))
    blocks = [block for block, *_ in inputs]

    perm = None
    if len(pairs) >= 2:
        perm = {**asdict(evaluation.permutation_test(pairs)),
                "swap_scheme": "independent per-dataset swaps"}

    io.write_report(out, {
        "format_version": io.REPORT_VERSION,
        "meta": {
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "runtime_s": time.perf_counter() - t_start,
        },
        "config": cfg,
        "seed": seed,
        "datasets": blocks,
        "permutation_test": perm,
    })
    if args.emit_erp:  # beside the report, in the directory write_report made
        for path, table in zip(csvs, erps):
            _write_erp_csv(path, *table)
        _write_accuracy_csv(csvs[-1], blocks)
    for block in blocks:
        print(_summary_line(block))
    if perm is not None:
        print(f"across datasets: z={perm['z']:.3f}, p={perm['p']:.3e}")
    return 0


def cmd_validate(args) -> int:
    problems = io.validate_container(args.input)
    if problems:
        for p in problems:
            print(f"violation: {p}")
        return 2
    print("ok")
    return 0


class _OneMethod(argparse.Action):
    """Store ``--method m`` as the one-method tuple ``(m,)``."""

    def __call__(self, parser, namespace, value, option_string=None):
        setattr(namespace, self.dest, (value,))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="errpkit",
        description="Success/failure feedback-ERP classification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True, threads=False):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config field")
        if seed:
            p.add_argument("--seed", type=int, default=None)
        if threads:
            p.add_argument("--threads", type=int, default=1,
                           help="worker processes for the folds (1: run them in this process)")
        p.add_argument("--out", required=True)

    p = sub.add_parser("synth", help="generate a synthetic epoch container")
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="filter/epoch a continuous container")
    common(p, seed=False)
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_preprocess)

    def evaluation_command(name, help_text, **defaults):
        p = sub.add_parser(name, help=help_text)
        common(p, threads=True)
        p.add_argument("--input", action="append", required=True,
                       help="epoch container (repeat for multiple datasets)")
        p.add_argument("--folds", type=int, default=None)
        p.add_argument("--repeats", type=int, default=None)
        p.set_defaults(**{"func": cmd_evaluate, "chance": False, "emit_erp": False, **defaults})
        return p

    p = evaluation_command("run", "cross-validate one method on a container")
    p.add_argument("--method", dest="methods", choices=list(evaluation.METHODS),
                   required=True, action=_OneMethod)

    p = evaluation_command("compare", "compare both methods, with statistics",
                           methods=evaluation.METHODS)
    p.add_argument("--chance", action="store_true", help="include the shuffle chance level")
    p.add_argument("--emit-erp", action="store_true",
                   help="export ERP class means / difference waves and accuracy CSVs")

    evaluation_command("chance", "shuffle-based chance level for a container",
                       methods=(), chance=True)

    p = sub.add_parser("validate", help="check a container against the format")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        level = os.environ.get("ERRP_LOG", "WARNING")
        if not isinstance(logging.getLevelName(level.upper()), int):
            raise ValueError(f"ERRP_LOG must be a log level such as INFO or DEBUG, got {level!r}")
        logging.basicConfig(level=level.upper())
        return args.func(args)
    except (InvalidInput, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ErrpkitError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
