"""On-disk formats.

An epoch container is a directory holding ``manifest.json``, ``data.bin``
(raw little-endian float32, trial-major then channel then sample) and
``labels.bin`` (one byte per trial).  A continuous container holds a
channels-by-samples float32 block plus ``events.json``.  One inspector
checks the manifest and samples of both kinds and lists every violation.
Reports are canonical JSON: sorted keys, fixed separators, native floats.

Memory: a reader maps ``data.bin`` instead of reading it, so a set holds
no copy of its samples: the pages it touches are the file's page cache.  A
continuous recording's map is read-only, so a filter may drop the pages it
has read from its process (:mod:`preprocessing`) and writing into the
recording raises; an epoch set's map is copy-on-write, so its array is
writable and a write copies only the pages written.  The check for
non-finite samples streams the file a block of :func:`parallel.blocks` at
a time, so neither a read nor ``validate`` holds the samples.  A writer
writes ``data.bin`` a block of :func:`parallel.blocks` at a time to a new
file and renames it over the old one, so it holds no copy of the samples,
and a set read earlier from the same path keeps its samples.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

from . import parallel
from .errors import InvalidInput, InvalidWindow
from .labels import LABEL_NAMES
from .preprocessing import ContinuousRecording, EpochSet, sample_index

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
DATA_NAME = "data.bin"
LABELS_NAME = "labels.bin"
EVENTS_NAME = "events.json"

# 2: one schema for run, compare and chance; no reference_eig_* audit.
# 3: the permutation test's null moments in closed form, not drawn.
REPORT_VERSION = 3
_REPORT_KEYS = {
    "format_version", "meta", "config", "seed", "datasets", "permutation_test",
}


class ContainerError(InvalidInput):
    """Container on disk violates the format."""


_KINDS = {  # kind -> (what a value must be, its test)
    "count": ("an integer >= 0", lambda v: type(v) is int and v >= 0),
    "number": ("a finite number", lambda v: type(v) in (int, float) and math.isfinite(v)),
    "names": ("a list of strings", lambda v: type(v) is list and all(type(x) is str for x in v)),
    "codes": ("an object keyed by label bytes",
              lambda v: type(v) is dict and all(k.isdecimal() for k in v)),
    "continuous": ('"continuous"', lambda v: v == "continuous"),
}
_EPOCH_FIELDS = {
    "format_version": "count", "n_trials": "count", "n_channels": "count",
    "n_samples": "count", "fs_hz": "number", "t0_offset_s": "number",
    "channel_names": "names", "label_codes": "codes",
}
_CONTINUOUS_FIELDS = {
    "format_version": "count", "kind": "continuous", "n_channels": "count",
    "n_samples": "count", "fs_hz": "number", "channel_names": "names", "label_codes": "codes",
}
_EVENT_FIELDS = {"sample": "count", "code": "count", "label": "count"}


def _field_problems(doc, spec: dict[str, str], what: str) -> list[str]:
    """One line per field of ``spec`` that ``doc`` lacks or holds with the wrong type."""
    if not isinstance(doc, dict):
        return [f"{what} is not a JSON object"]
    problems = []
    for key, kind in spec.items():
        expected, ok = _KINDS[kind]
        if key not in doc:
            problems.append(f"{what} missing field {key!r}")
        elif not ok(doc[key]):
            problems.append(f"{what} field {key!r} must be {expected}, "
                            f"got {json.dumps(doc[key])[:40]}")
    return problems


def _load_json(path: Path):
    """The JSON document in ``path``; a missing file or text that does not
    parse is a ContainerError naming the file."""
    if not path.is_file():
        raise ContainerError(f"missing {path.name}")
    try:
        return json.loads(path.read_text())
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ContainerError(f"unreadable {path.name}: {exc}") from None


def _label_problems(labels, manifest: dict, what: str) -> list[str]:
    """A line naming the codes among ``labels`` that the manifest's
    ``label_codes`` does not declare, if any, and one naming the declared codes
    among them that are neither success nor failure, if any."""
    declared, found = {int(code) for code in manifest["label_codes"]}, set(labels)
    problems = []
    if undeclared := sorted(found - declared):
        problems.append(f"{what} contains undeclared codes {undeclared}")
    if other := sorted((found & declared) - set(LABEL_NAMES)):
        problems.append(f"{what} contains codes {other} that are neither success nor failure")
    return problems


def _write_container(path, kind: str, rec: EpochSet | ContinuousRecording,
                     fields: dict) -> Path:
    """Write the manifest that both kinds share, plus ``fields``, and the
    samples of ``rec`` as ``data.bin``."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "n_channels": rec.n_channels,
        "n_samples": rec.n_samples,
        "fs_hz": float(rec.fs_hz),
        "channel_names": list(rec.channels),
        "label_codes": {str(code): name for code, name in LABEL_NAMES.items()},
        **fields,
    }
    (path / MANIFEST_NAME).write_text(canonical_json(manifest))
    # a new file replaces data.bin, so a set read from it earlier, which maps
    # the old file, keeps its samples
    tmp = path / f".{DATA_NAME}.{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            for sl in parallel.blocks(len(rec.data), 4 * math.prod(rec.data.shape[1:])):
                np.ascontiguousarray(rec.data[sl], dtype="<f4").tofile(f)
        os.replace(tmp, path / DATA_NAME)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def write_epoch_container(path, es: EpochSet, extra_manifest: dict | None = None) -> Path:
    path = _write_container(path, "epochs", es, {
        "n_trials": len(es), "t0_offset_s": float(es.t0_offset_s), **(extra_manifest or {}),
    })
    (path / LABELS_NAME).write_bytes(es.labels.astype(np.uint8).tobytes())
    return path


def read_epoch_container(path) -> EpochSet:
    problems, manifest, data, labels = _inspect_epoch_container(Path(path))
    if problems:
        raise ContainerError("; ".join(problems))
    # the float32 samples are held as read; EpochSet widens the label bytes
    return EpochSet(data, np.frombuffer(labels, dtype=np.uint8), manifest["fs_hz"],
                    manifest["t0_offset_s"], list(manifest["channel_names"]))


def validate_container(path) -> list[str]:
    """Every violation of the container at ``path`` (empty = ok): a continuous
    container if its manifest's ``kind`` says so, else an epoch container."""
    path = Path(path)
    try:
        manifest = _load_json(path / MANIFEST_NAME)
    except ContainerError as exc:
        return [str(exc)]
    continuous = isinstance(manifest, dict) and manifest.get("kind") == "continuous"
    return (_inspect_continuous_container if continuous else _inspect_epoch_container)(path)[0]


def _count_nonfinite(dpath: Path, n: int) -> int:
    """Non-finite samples among the ``n`` float32 of ``dpath``, read a block of
    :func:`parallel.blocks` at a time, so only one block is held."""
    with open(dpath, "rb") as f:
        return sum(int(np.count_nonzero(~np.isfinite(
                       np.fromfile(f, dtype="<f4", count=sl.stop - sl.start))))
                   for sl in parallel.blocks(n, 4))


def _inspect(path: Path, spec: dict[str, str], shape: tuple[str, ...], mode: str
             ) -> tuple[list[str], dict | None, np.ndarray | None]:
    """The violations of the container at ``path``, whose manifest must hold
    the fields ``spec``; its manifest once that is well-typed; and its float32
    samples, shaped by the manifest fields ``shape`` and mapped from
    ``data.bin`` in the :class:`numpy.memmap` ``mode``, once that file has
    their size."""
    try:
        manifest = _load_json(path / MANIFEST_NAME)
    except ContainerError as exc:
        return [str(exc)], None, None
    problems = _field_problems(manifest, spec, "manifest")
    if problems:
        return problems, None, None
    if manifest["format_version"] > FORMAT_VERSION:
        problems.append(f"manifest field 'format_version' is {manifest['format_version']}, "
                        f"newer than the supported {FORMAT_VERSION}")
    if manifest["fs_hz"] <= 0:
        problems.append("fs_hz must be positive")
    for key in ("n_channels", "n_samples"):
        if manifest[key] < 1:
            problems.append(f"manifest field {key!r} must be at least 1, got {manifest[key]}")
    n_names, c = len(manifest["channel_names"]), manifest["n_channels"]
    if n_names != c:
        problems.append(f"channel_names has {n_names} entries, expected {c}")

    dims = tuple(manifest[key] for key in shape)
    data = None
    dpath = path / DATA_NAME
    if not dpath.is_file():
        problems.append(f"missing {DATA_NAME}")
    elif (actual := dpath.stat().st_size) != 4 * math.prod(dims):
        problems.append(f"data file is {actual} bytes, expected {4 * math.prod(dims)}")
    else:
        # mapped, not read: a read holds no copy, and the pages it touches
        # stay the file's
        data = (np.memmap(dpath, dtype="<f4", mode=mode, shape=dims) if actual
                else np.empty(dims, dtype="<f4"))  # an empty file cannot be mapped
        bad = _count_nonfinite(dpath, data.size)
        if bad:
            problems.append(f"data file holds {bad} non-finite samples")
    return problems, manifest, data


def _inspect_epoch_container(path: Path
                             ) -> tuple[list[str], dict | None, np.ndarray | None, bytes | None]:
    """:func:`_inspect` of an epoch container, plus the checks of ``labels.bin``
    and its bytes, read once.  The samples are mapped copy-on-write."""
    problems, manifest, data = _inspect(path, _EPOCH_FIELDS,
                                        ("n_trials", "n_channels", "n_samples"), "c")
    if manifest is None:
        return problems, None, None, None
    try:  # the event's sample, by the rule every window is placed with
        sample_index(0.0, manifest["t0_offset_s"], manifest["fs_hz"])
    except InvalidWindow as exc:
        problems.append(f"manifest field 't0_offset_s': {exc}")
    lpath, raw = path / LABELS_NAME, None
    if not lpath.is_file():
        problems.append(f"missing {LABELS_NAME}")
    else:
        raw = lpath.read_bytes()
        n = manifest["n_trials"]
        if len(raw) != n:
            problems.append(f"labels file has {len(raw)} bytes, expected {n}")
        problems += _label_problems(raw, manifest, "labels file")
    return problems, manifest, data, raw


def write_continuous_container(path, rec: ContinuousRecording, event_labels) -> Path:
    """Continuous recording plus labelled events, for the preprocess command."""
    event_labels = list(event_labels)
    if len(event_labels) != len(rec.events):
        raise ValueError("need one label per event")
    path = _write_container(path, "continuous", rec, {})
    events = [
        {"sample": int(s), "code": int(code), "label": int(lab)}
        for (s, code), lab in zip(rec.events, event_labels)
    ]
    (path / EVENTS_NAME).write_text(canonical_json(events))
    return path


def _event_problems(events, manifest: dict) -> list[str]:
    """The violations of the ``events.json`` document ``events``: its type, the
    fields of the first malformed event, or the first event past the end of
    the recording and labels that are not declared success/failure codes."""
    if not isinstance(events, list):
        return [f"{EVENTS_NAME} is not a JSON list"]
    for i, event in enumerate(events):
        problems = _field_problems(event, _EVENT_FIELDS, f"event {i}")
        if problems:
            return problems
    n = manifest["n_samples"]
    late = [f"event {i} field 'sample' is {e['sample']}, outside recording of {n} samples"
            for i, e in enumerate(events) if e["sample"] >= n][:1]
    return late + _label_problems([e["label"] for e in events], manifest, "event field 'label'")


def _inspect_continuous_container(path: Path) -> tuple[list[str], dict | None,
                                                      np.ndarray | None, list | None]:
    """:func:`_inspect` of a continuous container, plus the checks of
    ``events.json`` and its events.  The samples are mapped read-only."""
    problems, manifest, data = _inspect(path, _CONTINUOUS_FIELDS, ("n_channels", "n_samples"),
                                        "r")
    events = None
    if manifest is not None:
        try:
            events = _load_json(path / EVENTS_NAME)
        except ContainerError as exc:
            problems.append(str(exc))
        else:
            problems += _event_problems(events, manifest)
    return problems, manifest, data, events


def read_continuous_container(path) -> tuple[ContinuousRecording, list[int]]:
    """The recording and the label of each of its events; its samples are
    mapped read-only, so writing into them raises.  A container that
    violates the format raises one ContainerError that names every violation."""
    problems, manifest, data, events = _inspect_continuous_container(Path(path))
    if problems:
        raise ContainerError("; ".join(problems))
    rec = ContinuousRecording(manifest["fs_hz"], list(manifest["channel_names"]), data,
                              [(e["sample"], e["code"]) for e in events])
    return rec, [e["label"] for e in events]


def _native(obj):
    """A numpy array or scalar as the lists and Python scalars ``json`` writes."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, default=_native) + "\n"


def write_report(path, report: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    unknown = set(report) - _REPORT_KEYS
    if unknown:
        raise ValueError(f"refusing to write unknown report fields {sorted(unknown)}")
    path.write_text(canonical_json(report))
    return path


def read_report(path) -> dict:
    """Strict reader of versions 1 to :data:`REPORT_VERSION`: unknown top-level
    fields or another version are errors."""
    report = json.loads(Path(path).read_text())
    if not isinstance(report, dict):
        raise ContainerError("report is not a JSON object")
    version = report.get("format_version")
    if type(version) is not int or not 1 <= version <= REPORT_VERSION:
        raise ContainerError(
            f"report format_version {version!r} is not supported (max {REPORT_VERSION})"
        )
    unknown = sorted(set(report) - _REPORT_KEYS)
    if unknown:
        raise ContainerError(f"report contains unknown fields {unknown}")
    return report


def sha256_hex(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.float64).tobytes()).hexdigest()
