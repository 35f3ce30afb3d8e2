"""Batch command-line interface.

Subcommands: ``synth`` (generate a synthetic epoch container),
``preprocess`` (continuous container -> epoch container), ``run`` (one
method's cross-validation), ``compare`` (both methods, statistics, optional
chance level and ERP/accuracy CSV export), ``chance`` (shuffle-based chance
level alone) and ``validate`` (container integrity check).

Every command is deterministic given its inputs, flags and seed; reports
embed all seeds.  Exit codes: 0 success, 1 internal or numerical failure,
2 invalid input or configuration.  ``ERRP_LOG`` selects the log level.
"""
from __future__ import annotations

import argparse
import csv
import datetime
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import evaluation, features, io, synth
from .config import ConfigError, from_config, load_config
from .errors import (
    DegenerateTrainingSet,
    DimMismatch,
    EmptyInput,
    ErrpkitError,
    InsufficientChannels,
    InsufficientData,
    InvalidFilterSpec,
    InvalidResampleFactor,
    InvalidWindow,
    PlanMismatch,
)
from .labels import FAILURE, SUCCESS
from .preprocessing import EpochSet, preprocess_recording

logger = logging.getLogger(__name__)

_USAGE_ERRORS = (
    ConfigError,
    io.ContainerError,
    EmptyInput,
    InsufficientData,
    InsufficientChannels,
    InvalidWindow,
    InvalidFilterSpec,
    InvalidResampleFactor,
    DegenerateTrainingSet,
    DimMismatch,
    PlanMismatch,
    FileNotFoundError,
    ValueError,
)


def _synth_labels(cfg: dict) -> np.ndarray:
    n = cfg["n_trials"]
    if cfg["label_source"] == "balanced":
        labels = np.array([SUCCESS, FAILURE] * (n // 2) + [SUCCESS] * (n % 2))
        return np.random.default_rng([cfg["seed"], 0xBA1A]).permutation(labels)
    if cfg["label_source"] == "staircase":
        model = synth.PsychometricModel(
            threshold_alpha=cfg["psy_threshold_alpha"],
            slope_beta=cfg["psy_slope_beta"],
            lapse=cfg["psy_lapse"],
        )
        labels, _runs = synth.simulate_labels(
            n, model, n_blocks=cfg["n_blocks"], start_contrast=cfg["start_contrast"],
            step_factor=cfg["step_factor"], seed=cfg["seed"],
        )
        return labels
    raise ConfigError(f"label_source must be 'balanced' or 'staircase', got {cfg['label_source']!r}")


def cmd_synth(args) -> int:
    cfg = load_config(args.config, args.set)
    if args.seed is not None:
        cfg["seed"] = args.seed
    labels = _synth_labels(cfg)
    es = synth.generate_epochs(
        labels,
        from_config(synth.ErpTemplateSpec, cfg),
        n_channels=cfg["n_channels"],
        fs_hz=cfg["fs_hz"],
        seed=cfg["seed"],
        pre_s=cfg["pre_s"],
        post_s=cfg["post_s"],
    )
    io.write_epoch_container(args.out, es, extra_manifest={"generator": cfg})
    print(f"wrote {len(es)} epochs to {args.out}")
    return 0


def cmd_preprocess(args) -> int:
    cfg = load_config(args.config, args.set)
    rec, labels = io.read_continuous_container(args.input)
    es, skipped = preprocess_recording(
        rec,
        labels,
        event_code=cfg["event_code"],
        bandpass_hz=(cfg["bandpass_lo_hz"], cfg["bandpass_hi_hz"]),
        notch_hz=cfg["notch_hz"],
        epoch_window_s=(cfg["epoch_pre_s"], cfg["epoch_post_s"]),
        baseline_window_s=tuple(cfg["baseline_window_s"]),
        target_fs_hz=cfg["target_fs_hz"],
        baseline_before_downsample=cfg["baseline_before_downsample"],
    )
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


def cmd_run(args) -> int:
    cfg = load_config(args.config, args.set)
    es = io.read_epoch_container(args.input)
    k = args.folds if args.folds is not None else cfg["folds"]
    r = args.repeats if args.repeats is not None else cfg["repeats"]
    seed = args.seed if args.seed is not None else cfg["seed"]
    plan = evaluation.make_fold_plan(es.labels, k=k, r=r, seed=seed)
    res = evaluation.run_cv(es, args.method, plan, from_config(evaluation.Hyperparams, cfg),
                            n_threads=args.threads)
    doc = {
        "format_version": io.REPORT_VERSION,
        "method": args.method,
        "seed": seed,
        "plan": _plan_block(plan),
        "config": cfg,
        **_method_block(res),
        "per_fold_test_sizes": res.per_fold_test_sizes,
    }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(io.canonical_json(doc))
    print(f"{args.method}: mean accuracy {res.accuracies.mean():.4f} over {res.accuracies.size} folds")
    return 0


def _audit_blocks(es: EpochSet, hp: evaluation.Hyperparams) -> dict:
    """Whole-dataset featurizer fits, for report provenance."""
    rm = features.fit_riemann(es, window=hp.riemann_window_s, shrinkage=hp.shrinkage,
                              mean_tol=hp.mean_tol, mean_max_iter=hp.mean_max_iter)
    eig = np.linalg.eigvalsh(rm.reference)
    bm = features.fit_benchmark(es, windows=hp.benchmark_windows_s)
    return {
        "riemann": {
            "prototype_sha256_success": io.sha256_hex(rm.prototypes.proto_success),
            "prototype_sha256_failure": io.sha256_hex(rm.prototypes.proto_failure),
            "reference_eig_min": float(eig.min()),
            "reference_eig_max": float(eig.max()),
        },
        "benchmark": {"scale": bm.scale},
    }


def _write_erp_csv(path: Path, es: EpochSet) -> None:
    succ = es.data[es.labels == SUCCESS].mean(axis=0)
    fail = es.data[es.labels == FAILURE].mean(axis=0)
    diff = fail - succ
    t = np.arange(es.n_samples) / es.fs_hz + es.t0_offset_s
    header = ["time_s"]
    for ch in es.channels:
        header += [f"{ch}_success_uv", f"{ch}_failure_uv", f"{ch}_diff_uv"]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for j in range(es.n_samples):
            row = [f"{t[j]:.6f}"]
            for i in range(es.n_channels):
                row += [repr(succ[i, j]), repr(fail[i, j]), repr(diff[i, j])]
            writer.writerow(row)


def _write_accuracy_csv(path: Path, blocks: list[tuple[str, dict]]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "method", "index", "accuracy"])
        for name, methods in blocks:
            for method, block in methods.items():
                for i, acc in enumerate(block["accuracies"]):
                    writer.writerow([name, method, i, repr(float(acc))])


def cmd_compare(args) -> int:
    t_start = time.perf_counter()
    cfg = load_config(args.config, args.set)
    seed = args.seed if args.seed is not None else cfg["seed"]
    k = args.folds if args.folds is not None else cfg["folds"]
    r = args.repeats if args.repeats is not None else cfg["repeats"]
    hp = from_config(evaluation.Hyperparams, cfg)

    dataset_blocks = []
    csv_blocks = []
    pairs = []
    for d_index, in_path in enumerate(args.input):
        es = io.read_epoch_container(in_path)
        plan_seed = evaluation.derive_seed(seed, d_index)
        plan = evaluation.make_fold_plan(es.labels, k=k, r=r, seed=plan_seed)
        results = {
            method: evaluation.run_cv(es, method, plan, hp, n_threads=args.threads)
            for method in evaluation.METHODS
        }
        ttest = evaluation.corrected_t_test(results["riemann"], results["benchmark"])
        chance = None
        if args.chance:
            ch = evaluation.chance_level(
                es, plan_seed=evaluation.derive_seed(seed, d_index, 0xC),
                n_shuffles=cfg["n_chance_shuffles"], k=k, r=r, hyperparams=hp,
                n_threads=args.threads,
            )
            chance = {
                "mean_accuracy": ch.mean_accuracy,
                "threshold_97_5": ch.threshold_97_5,
                "n_shuffles": ch.n_shuffles,
                "per_shuffle_mean_accuracies": ch.per_shuffle_mean_accuracies,
            }
        methods_block = {m: _method_block(results[m]) for m in evaluation.METHODS}
        dataset_blocks.append({
            "path": str(in_path),
            "n_trials": len(es),
            "n_channels": es.n_channels,
            "fs_hz": float(es.fs_hz),
            "plan": _plan_block(plan),
            "methods": methods_block,
            "t_test": {"t": ttest.t, "p": ttest.p, "df": ttest.df, "mean_diff": ttest.mean_diff},
            "chance": chance,
            "audit": _audit_blocks(es, hp),
        })
        csv_blocks.append((str(in_path), methods_block))
        pairs.append((results["riemann"], results["benchmark"]))
        if args.emit_erp:
            erp_path = Path(args.out).with_suffix("").parent / (
                Path(args.out).stem + f"_erp_{d_index}.csv"
            )
            _write_erp_csv(erp_path, es)

    perm = None
    if len(pairs) >= 2:
        pt = evaluation.permutation_test(
            pairs, n_perm=cfg["n_permutations"], seed=evaluation.derive_seed(seed, 0xBEEF),
        )
        perm = {
            "observed_metric": pt.observed_metric,
            "z": pt.z,
            "p": pt.p,
            "n_permutations": pt.n_permutations,
            "null_mean": pt.null_mean,
            "null_std": pt.null_std,
            "swap_scheme": "independent per-dataset swaps",
        }

    report = {
        "format_version": io.REPORT_VERSION,
        "meta": {
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "runtime_s": time.perf_counter() - t_start,
        },
        "config": cfg,
        "seed": seed,
        "datasets": dataset_blocks,
        "permutation_test": perm,
    }
    io.write_report(args.out, report)
    if args.emit_erp:
        acc_path = Path(args.out).with_suffix("").parent / (Path(args.out).stem + "_accuracies.csv")
        _write_accuracy_csv(acc_path, csv_blocks)
    for block in dataset_blocks:
        print(
            f"{block['path']}: riemann {block['methods']['riemann']['mean']:.4f} "
            f"vs benchmark {block['methods']['benchmark']['mean']:.4f} "
            f"(t={block['t_test']['t']:.3f}, p={block['t_test']['p']:.4f})"
        )
    if perm is not None:
        print(f"across datasets: z={perm['z']:.3f}, p={perm['p']:.3e}")
    return 0


def cmd_chance(args) -> int:
    cfg = load_config(args.config, args.set)
    seed = args.seed if args.seed is not None else cfg["seed"]
    k = args.folds if args.folds is not None else cfg["folds"]
    r = args.repeats if args.repeats is not None else cfg["repeats"]
    es = io.read_epoch_container(args.input)
    ch = evaluation.chance_level(
        es, plan_seed=seed, n_shuffles=cfg["n_chance_shuffles"], k=k, r=r,
        hyperparams=from_config(evaluation.Hyperparams, cfg), n_threads=args.threads,
    )
    doc = {
        "format_version": io.REPORT_VERSION,
        "seed": seed,
        "config": cfg,
        "mean_accuracy": ch.mean_accuracy,
        "threshold_97_5": ch.threshold_97_5,
        "n_shuffles": ch.n_shuffles,
        "per_shuffle_mean_accuracies": ch.per_shuffle_mean_accuracies,
    }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(io.canonical_json(doc))
    print(f"chance mean {ch.mean_accuracy:.4f}, 97.5th percentile {ch.threshold_97_5:.4f}")
    return 0


def cmd_validate(args) -> int:
    problems = io.validate_epoch_container(args.input)
    if problems:
        for p in problems:
            print(f"violation: {p}")
        return 2
    print("ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="errpkit",
        description="Success/failure feedback-ERP classification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config field")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=1)
        if out:
            p.add_argument("--out", required=True)

    p = sub.add_parser("synth", help="generate a synthetic epoch container")
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="filter/epoch a continuous container")
    common(p)
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("run", help="cross-validate one method on a container")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=list(evaluation.METHODS), required=True)
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--repeats", type=int, default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="compare both methods, with statistics")
    common(p)
    p.add_argument("--input", action="append", required=True,
                   help="epoch container (repeat for multiple datasets)")
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--chance", action="store_true", help="include the shuffle chance level")
    p.add_argument("--emit-erp", action="store_true",
                   help="export ERP class means / difference waves and accuracy CSVs")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("chance", help="shuffle-based chance level for a container")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--repeats", type=int, default=None)
    p.set_defaults(func=cmd_chance)

    p = sub.add_parser("validate", help="check a container against the format")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("ERRP_LOG", "WARNING").upper())
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "threads", 1) < 1:
            raise ValueError(f"--threads must be at least 1, got {args.threads}")
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ErrpkitError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
