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

from . import evaluation, features, io, synth
from .config import from_config, load_config
from .errors import ErrpkitError, InvalidInput
from .labels import FAILURE, SUCCESS
from .preprocessing import EpochSet, PreprocessSpec, preprocess_recording

logger = logging.getLogger(__name__)


def cmd_synth(args) -> int:
    cfg = load_config(args.config, args.set)
    if args.seed is not None:
        cfg["seed"] = args.seed
    es = synth.generate_dataset(from_config(synth.SynthSpec, cfg),
                                from_config(synth.ErpTemplateSpec, cfg), cfg["seed"])
    io.write_epoch_container(args.out, es, extra_manifest={"generator": cfg})
    print(f"wrote {len(es)} epochs to {args.out}")
    return 0


def cmd_preprocess(args) -> int:
    cfg = load_config(args.config, args.set)
    spec = from_config(PreprocessSpec, cfg)
    rec, labels = io.read_continuous_container(args.input)
    labels = [lab for (_, code), lab in zip(rec.events, labels) if code == spec.event_code]
    # every CPU this process may run on, so `taskset` bounds the workers
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    es, skipped = preprocess_recording(rec, labels, spec, n_workers=cpus or 1)
    io.write_epoch_container(
        args.out, es, extra_manifest={"skipped_events": skipped, "preprocess": cfg},
    )
    print(f"wrote {len(es)} epochs to {args.out} (skipped {len(skipped)} edge-clipped events)")
    return 0


def _plan_block(plan: evaluation.FoldPlan) -> dict:
    return {
        "seed": plan.seed,
        "k": plan.k,
        "r": plan.r,
        "assignments_sha256": io.sha256_hex(plan.assignments.astype(np.float64)),
    }


def _method_block(res: evaluation.CVResult) -> dict:
    return {
        "accuracies": res.accuracies,
        "mean": float(res.accuracies.mean()),
        "median": float(np.median(res.accuracies)),
    }


def _audit_blocks(es: EpochSet, hp: evaluation.Hyperparams, methods) -> dict:
    """Whole-dataset featurizer provenance for each method that ran."""
    audit = {}
    if "riemann" in methods:
        protos = features.fit_prototypes(features.riemann_windows(es, hp.riemann_window_s),
                                         es.labels)
        audit["riemann"] = {
            "prototype_sha256_success": io.sha256_hex(protos.proto_success),
            "prototype_sha256_failure": io.sha256_hex(protos.proto_failure),
        }
    if "benchmark" in methods:
        raw = features.benchmark_features(es, windows=hp.benchmark_windows_s)
        audit["benchmark"] = {"scale": features.max_abs_scale(raw)}
    return audit


def _write_erp_csv(path: Path, es: EpochSet) -> None:
    succ = es.data[es.labels == SUCCESS].mean(axis=0)
    fail = es.data[es.labels == FAILURE].mean(axis=0)
    # (n_samples, 3 * n_channels): success, failure and difference of each channel
    waves = np.stack([succ, fail, fail - succ], axis=1).reshape(-1, es.n_samples).T
    t = np.arange(es.n_samples) / es.fs_hz + es.t0_offset_s
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s"] + [f"{ch}_{kind}_uv" for ch in es.channels
                                      for kind in ("success", "failure", "diff")])
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
        parts.append(f"t={block['t_test']['t']:.3f}, p={block['t_test']['p']:.4f}")
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
    methods on at least two datasets.
    """
    t_start = time.perf_counter()
    cfg = load_config(args.config, args.set)
    seed = args.seed if args.seed is not None else cfg["seed"]
    k = args.folds if args.folds is not None else cfg["folds"]
    r = args.repeats if args.repeats is not None else cfg["repeats"]
    hp = from_config(evaluation.Hyperparams, cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)

    # every input before the first plan: a bad later one exits 2 before any fold
    datasets = [io.read_epoch_container(in_path) for in_path in args.input]
    dataset_blocks = []
    pairs = []
    for d_index, (in_path, es) in enumerate(zip(args.input, datasets)):
        plan = evaluation.make_fold_plan(es.labels, k=k, r=r,
                                         seed=evaluation.derive_seed(seed, d_index))
        audit = _audit_blocks(es, hp, args.methods)  # before the folds: rejects a short window
        chance = None
        if args.chance:  # before the folds: it rejects a shuffle count below 1
            chance = asdict(evaluation.chance_level(
                es, plan_seed=evaluation.derive_seed(seed, d_index, 0xC),
                n_shuffles=cfg["n_chance_shuffles"], k=k, r=r, hyperparams=hp,
                n_workers=args.threads,
            ))
        results = {
            method: evaluation.run_cv(es, method, plan, hp, n_workers=args.threads)
            for method in args.methods
        }
        ttest = None
        if len(results) == len(evaluation.METHODS):
            pairs.append((results["riemann"], results["benchmark"]))
            ttest = asdict(evaluation.corrected_t_test(*pairs[-1]))
        dataset_blocks.append({
            "path": str(in_path),
            "n_trials": len(es),
            "n_channels": es.n_channels,
            "fs_hz": float(es.fs_hz),
            "plan": _plan_block(plan),
            "methods": {m: _method_block(res) for m, res in results.items()},
            "t_test": ttest,
            "chance": chance,
            "audit": audit,
        })
        if args.emit_erp:
            _write_erp_csv(out.with_name(f"{out.stem}_erp_{d_index}.csv"), es)

    perm = None
    if len(pairs) >= 2:
        pt = evaluation.permutation_test(
            pairs, n_perm=cfg["n_permutations"], seed=evaluation.derive_seed(seed, 0xBEEF),
        )
        perm = {**asdict(pt), "swap_scheme": "independent per-dataset swaps"}

    io.write_report(out, {
        "format_version": io.REPORT_VERSION,
        "meta": {
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "runtime_s": time.perf_counter() - t_start,
        },
        "config": cfg,
        "seed": seed,
        "datasets": dataset_blocks,
        "permutation_test": perm,
    })
    if args.emit_erp:
        _write_accuracy_csv(out.with_name(f"{out.stem}_accuracies.csv"), dataset_blocks)
    for block in dataset_blocks:
        print(_summary_line(block))
    if perm is not None:
        print(f"across datasets: z={perm['z']:.3f}, p={perm['p']:.3e}")
    return 0


def cmd_validate(args) -> int:
    problems = io.validate_epoch_container(args.input)
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
        if getattr(args, "threads", 1) < 1:
            raise ValueError(f"--threads must be at least 1, got {args.threads}")
        return args.func(args)
    except (InvalidInput, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ErrpkitError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
