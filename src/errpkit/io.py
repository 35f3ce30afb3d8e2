"""On-disk formats.

An epoch container is a directory holding ``manifest.json``, ``data.bin``
(raw little-endian float32, trial-major then channel then sample) and
``labels.bin`` (one byte per trial).  A continuous container holds a
channels-by-samples float32 block plus ``events.json``.  Reports are
canonical JSON: sorted keys, fixed separators, native floats.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .errors import ErrpkitError
from .labels import FAILURE, LABEL_NAMES, SUCCESS
from .preprocessing import ContinuousRecording, EpochSet

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
DATA_NAME = "data.bin"
LABELS_NAME = "labels.bin"
EVENTS_NAME = "events.json"
_CHUNK = 1 << 20  # samples per chunk of the finiteness check

REPORT_VERSION = 2  # 2: one schema for run, compare and chance; no reference_eig_* audit
_REPORT_KEYS = {
    "format_version", "meta", "config", "seed", "datasets", "permutation_test",
}


class ContainerError(ErrpkitError):
    """Container on disk violates the format."""


_KINDS = {  # kind -> (what a value must be, its test)
    "count": ("an integer >= 0", lambda v: type(v) is int and v >= 0),
    "number": ("a finite number", lambda v: type(v) in (int, float) and math.isfinite(v)),
    "names": ("a list of strings", lambda v: type(v) is list and all(type(x) is str for x in v)),
    "codes": ("an object keyed by label bytes",
              lambda v: type(v) is dict and all(k.isdecimal() for k in v)),
}
_EPOCH_FIELDS = {
    "format_version": "count", "n_trials": "count", "n_channels": "count",
    "n_samples": "count", "fs_hz": "number", "t0_offset_s": "number",
    "channel_names": "names", "label_codes": "codes",
}
_CONTINUOUS_FIELDS = {
    "format_version": "count", "n_channels": "count", "n_samples": "count",
    "fs_hz": "number", "channel_names": "names",
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
    """The JSON document in ``path``; text that does not parse is a ContainerError
    naming the file."""
    try:
        return json.loads(path.read_text())
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ContainerError(f"unreadable {path.name}: {exc}") from None


def _version_problems(manifest: dict) -> list[str]:
    """A well-typed manifest whose ``format_version`` is newer than this reader's."""
    version = manifest["format_version"]
    if version > FORMAT_VERSION:
        return [f"manifest field 'format_version' is {version}, "
                f"newer than the supported {FORMAT_VERSION}"]
    return []


def _label_codes() -> dict[str, str]:
    return {str(code): name for code, name in LABEL_NAMES.items()}


def write_epoch_container(path, es: EpochSet, extra_manifest: dict | None = None) -> Path:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": "epochs",
        "n_trials": len(es),
        "n_channels": es.n_channels,
        "n_samples": es.n_samples,
        "fs_hz": float(es.fs_hz),
        "t0_offset_s": float(es.t0_offset_s),
        "channel_names": list(es.channels),
        "label_codes": _label_codes(),
    }
    if extra_manifest:
        manifest.update(extra_manifest)
    (path / MANIFEST_NAME).write_text(canonical_json(manifest))
    (path / DATA_NAME).write_bytes(np.ascontiguousarray(es.data, dtype="<f4").tobytes())
    (path / LABELS_NAME).write_bytes(es.labels.astype(np.uint8).tobytes())
    return path


def read_epoch_container(path) -> EpochSet:
    path = Path(path)
    problems, manifest, data = _inspect_epoch_container(path)
    if problems:
        raise ContainerError("; ".join(problems))
    n, c, s = manifest["n_trials"], manifest["n_channels"], manifest["n_samples"]
    labels = np.frombuffer((path / LABELS_NAME).read_bytes(), dtype=np.uint8)
    return EpochSet(
        data.reshape(n, c, s).astype(np.float64),
        labels.astype(np.int64),
        manifest["fs_hz"],
        manifest["t0_offset_s"],
        list(manifest["channel_names"]),
    )


def validate_epoch_container(path) -> list[str]:
    """Check every container invariant; return a list of violations (empty = ok)."""
    return _inspect_epoch_container(Path(path))[0]


def _count_nonfinite(data: np.ndarray) -> int:
    """Non-finite entries of ``data``, tested a chunk at a time so the mask stays small."""
    flat = data.reshape(-1)
    return sum(int(np.count_nonzero(~np.isfinite(flat[i:i + _CHUNK])))
               for i in range(0, flat.size, _CHUNK))


def _inspect_epoch_container(path: Path) -> tuple[list[str], dict | None, np.ndarray | None]:
    """The violations of the container at ``path``, its manifest once that is
    well-typed, and the flat float32 samples once ``data.bin`` has the right size."""
    mpath = path / MANIFEST_NAME
    if not mpath.is_file():
        return [f"missing {MANIFEST_NAME}"], None, None
    try:
        manifest = _load_json(mpath)
    except ContainerError as exc:
        return [str(exc)], None, None

    problems = _field_problems(manifest, _EPOCH_FIELDS, "manifest")
    if problems:
        return problems, None, None
    problems = _version_problems(manifest)
    n, c, s = manifest["n_trials"], manifest["n_channels"], manifest["n_samples"]
    if manifest["fs_hz"] <= 0:
        problems.append("fs_hz must be positive")
    if len(manifest["channel_names"]) != c:
        problems.append(
            f"channel_names has {len(manifest['channel_names'])} entries, expected {c}"
        )

    data = None
    dpath = path / DATA_NAME
    if not dpath.is_file():
        problems.append(f"missing {DATA_NAME}")
    else:
        expected = 4 * n * c * s
        actual = dpath.stat().st_size
        if actual != expected:
            problems.append(f"data file is {actual} bytes, expected {expected}")
        else:
            data = np.fromfile(dpath, dtype="<f4")
            bad = _count_nonfinite(data)
            if bad:
                problems.append(f"data file holds {bad} non-finite samples")

    lpath = path / LABELS_NAME
    if not lpath.is_file():
        problems.append(f"missing {LABELS_NAME}")
    else:
        raw = lpath.read_bytes()
        if len(raw) != n:
            problems.append(f"labels file has {len(raw)} bytes, expected {n}")
        declared = {int(k) for k in manifest["label_codes"]}
        bad = sorted({b for b in raw} - declared)
        if bad:
            problems.append(f"labels file contains undeclared codes {bad}")
    return problems, manifest, data


def write_continuous_container(path, rec: ContinuousRecording, event_labels) -> Path:
    """Continuous recording plus labelled events, for the preprocess command."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    event_labels = list(event_labels)
    if len(event_labels) != len(rec.events):
        raise ValueError("need one label per event")
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": "continuous",
        "n_channels": rec.n_channels,
        "n_samples": rec.n_samples,
        "fs_hz": float(rec.fs_hz),
        "channel_names": list(rec.channels),
        "label_codes": _label_codes(),
    }
    (path / MANIFEST_NAME).write_text(canonical_json(manifest))
    (path / DATA_NAME).write_bytes(np.ascontiguousarray(rec.data, dtype="<f4").tobytes())
    events = [
        {"sample": int(s), "code": int(code), "label": int(lab)}
        for (s, code), lab in zip(rec.events, event_labels)
    ]
    (path / EVENTS_NAME).write_text(canonical_json(events))
    return path


def read_continuous_container(path) -> tuple[ContinuousRecording, list[int]]:
    path = Path(path)
    manifest = _load_json(path / MANIFEST_NAME)
    if not isinstance(manifest, dict) or manifest.get("kind") != "continuous":
        raise ContainerError(f"{path} is not a continuous container")
    problems = (_field_problems(manifest, _CONTINUOUS_FIELDS, "manifest")
                or _version_problems(manifest))
    if problems:
        raise ContainerError("; ".join(problems))
    c, s = manifest["n_channels"], manifest["n_samples"]
    raw = (path / DATA_NAME).read_bytes()
    if len(raw) != 4 * c * s:
        raise ContainerError(f"data file is {len(raw)} bytes, expected {4 * c * s}")
    data = np.frombuffer(raw, dtype="<f4").reshape(c, s)
    bad = _count_nonfinite(data)
    if bad:
        raise ContainerError(f"data file holds {bad} non-finite samples")
    events_raw = _load_json(path / EVENTS_NAME)
    if not isinstance(events_raw, list):
        raise ContainerError(f"{EVENTS_NAME} is not a JSON list")
    for i, e in enumerate(events_raw):
        problems = _field_problems(e, _EVENT_FIELDS, f"event {i}")
        if problems:
            raise ContainerError("; ".join(problems))
    events = [(e["sample"], e["code"]) for e in events_raw]
    labels = [e["label"] for e in events_raw]
    rec = ContinuousRecording(manifest["fs_hz"], list(manifest["channel_names"]), data, events)
    return rec, labels


def _to_native(obj):
    if isinstance(obj, dict):
        return {str(k): _to_native(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_native(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_to_native(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(_to_native(obj), sort_keys=True, indent=2) + "\n"


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
