"""Property-based fuzz of the command line.

Each property runs :func:`cli.main` in this process on inputs drawn by
``hypothesis``, with a fixed derandomized example sequence and no example
database, so it is the same test on every run.  No command raises a Python
warning.

- ``synth``, on settings drawn from every finite double plus edge values,
  exits 0 or 2; on 2 it prints exactly one ``error:`` line; and a container
  it writes passes ``validate``.
- ``validate``, on a small valid container with edits drawn to its
  manifest, ``data.bin``, ``labels.bin`` or ``events.json``, prints ``ok``
  and exits 0, or prints ``violation:`` lines only and exits 2; a container
  it passes reads as finite samples of the manifest's shape, the bytes of
  its ``data.bin``.
- ``preprocess``, on a small continuous container of drawn channel and
  sample counts, in one example in four with its ``fs_hz``, its
  ``channel_names`` or one event field edited, with events drawn
  overlapping, unsorted, repeated or edge-clipped, and filter, epoch,
  baseline and rate settings drawn as for ``synth``, at 1 or 2 CPUs,
  exits 0 or 2; on 2 it prints exactly one ``error:`` line
  and writes nothing; the epochs it writes pass ``validate`` and are the
  float32 of whole-array filtering.
"""
import contextlib
import functools
import io
import json
import math
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from errpkit import parallel
from errpkit.cli import main
from errpkit.config import from_config, load_config
from errpkit.io import (
    read_continuous_container,
    read_epoch_container,
    write_continuous_container,
    write_epoch_container,
)
from errpkit.preprocessing import ContinuousRecording, PreprocessSpec
from errpkit.synth import ErpTemplateSpec, generate_epochs

from conftest import whole_array_reference

# An epoch of more samples than this is made only where the settings are
# rejected before anything is allocated; 40 epochs of 5 channels at the cap
# take 3.3 MB.
MAX_SAMPLES = 4096
INTP_MAX = 2 ** 63 - 1

EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e-16, 0.5, 1.0, -1.0,
         1e16, 1e18, 1e300, 1.7976931348623157e308, -1.7976931348623157e308]
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGES))


def settings_of(typical: st.SearchStrategy, odd: st.SearchStrategy = FLOATS) -> st.SearchStrategy:
    """A ``typical`` value three times in four, so that many examples make a
    dataset, else an ``odd`` one: by default a finite double or an edge value."""
    usual = st.sampled_from([False, True, True, True])
    return usual.flatmap(lambda is_usual: typical if is_usual else odd)


def run(argv: list[str]) -> tuple[int, list[str], list]:
    """Exit code, printed lines and raised warnings of one ``main`` call."""
    out = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue().splitlines(), caught


def epoch_samples(fs_hz: float, pre_s: float, post_s: float) -> float:
    """The epoch's sample count as ``synth`` rounds it, or NaN where it is not finite."""
    x = (post_s + pre_s) * fs_hz
    return math.floor(x + 0.5) if math.isfinite(x) else math.nan


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(n_trials=st.integers(1, 40), n_channels=st.integers(1, 5),
       fs_hz=settings_of(st.floats(4.0, 128.0)), pre_s=settings_of(st.floats(0.0, 1.0)),
       post_s=settings_of(st.floats(0.1, 2.0)),
       label_source=settings_of(st.sampled_from(["balanced", "staircase"]),
                                FLOATS | st.text(max_size=6)),
       erp_key=st.sampled_from([f.name for f in fields(ErpTemplateSpec) if isinstance(f.default, float)]),
       erp_value=settings_of(st.floats(0.01, 1.0)))
def test_synth_exits_0_or_2_with_one_line(n_trials, n_channels, fs_hz, pre_s, post_s,
                                          label_source, erp_key, erp_value):
    n = epoch_samples(fs_hz, pre_s, post_s)
    # cap the shape: a longer epoch runs only where it is too large to index
    assume(not n > MAX_SAMPLES or 4 * max(n_trials, 2) * n_channels * n > INTP_MAX)
    values = {"n_trials": n_trials, "n_channels": n_channels, "fs_hz": fs_hz, "pre_s": pre_s,
              "post_s": post_s, erp_key: erp_value, "label_source": label_source}
    sets = [arg for key, value in values.items()
            for arg in ("--set", f"{key}={value if isinstance(value, str) else repr(value)}")]
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "x")
        code, lines, caught = run(["synth", "--out", out, "--seed", "0", *sets])
        assert caught == []
        assert code in (0, 2), lines
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert not Path(out).exists()
        else:
            assert run(["validate", "--input", out]) == (0, ["ok"], [])


# manifest values: counts around the small shapes below, counts past any file,
# every double plus edge values and the non-finite ones, and other JSON types
VALUES = st.one_of(st.integers(-2, 12), st.sampled_from([2 ** 31, 2 ** 63, 10 ** 30]), FLOATS,
                   st.sampled_from([math.nan, math.inf, -math.inf]), st.none(), st.booleans(),
                   st.text(max_size=3))
SHAPE_FIELDS = {"epochs": ("n_trials", "n_channels", "n_samples"),
                "continuous": ("n_channels", "n_samples")}
MAX_ITEMS = 4096  # samples of a data.bin refitted to an edited manifest
DELETE = object()  # an event field edit that removes the field


@functools.cache
def valid_container(kind: str) -> dict[str, bytes]:
    """The files of a small valid container of ``kind``: 4 epochs of 2
    channels x 12 samples, or 2 channels x 64 samples with 2 events."""
    with tempfile.TemporaryDirectory() as tmp:
        if kind == "epochs":
            path = write_epoch_container(Path(tmp) / "c", generate_epochs(
                np.array([0, 1, 1, 0]), n_channels=2, fs_hz=16.0, seed=1, pre_s=0.25, post_s=0.5))
        else:
            data = np.random.default_rng(1).standard_normal((2, 64)).astype(np.float32)
            path = write_continuous_container(Path(tmp) / "c", ContinuousRecording(
                64.0, ["a", "b"], data, [(10, 1), (40, 1)]), [0, 1])
        return {f.name: f.read_bytes() for f in path.iterdir()}


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(kind=st.sampled_from(["epochs", "continuous"]),
       manifest_edits=st.dictionaries(st.sampled_from(
           ["n_trials", "n_channels", "n_samples", "fs_hz", "t0_offset_s"]), VALUES, max_size=2),
       refit=st.booleans(),
       resize=settings_of(st.just(0), st.integers(-6, 6)),
       nonfinite=st.lists(st.tuples(st.integers(0, MAX_ITEMS),
                                    st.sampled_from([np.nan, np.inf, -np.inf])), max_size=2),
       labels=settings_of(st.none(), st.binary(max_size=6)),
       event_edit=settings_of(st.none(), st.one_of(
           st.tuples(st.integers(0, 1), st.sampled_from(["sample", "code", "label"]),
                     VALUES | st.just(DELETE)),
           st.sampled_from([{}, [], "events", None, [1]]))))
def test_validate_exits_0_with_ok_or_2_with_violations(kind, manifest_edits, refit, resize,
                                                       nonfinite, labels, event_edit):
    files = dict(valid_container(kind))
    manifest = {**json.loads(files["manifest.json"]), **manifest_edits}
    files["manifest.json"] = json.dumps(manifest).encode()
    data = np.frombuffer(files["data.bin"], dtype="<f4")
    dims = [manifest[key] for key in SHAPE_FIELDS[kind]]
    if refit and all(type(d) is int and 0 <= d <= MAX_ITEMS for d in dims) \
            and math.prod(dims) <= MAX_ITEMS:
        # a data.bin, and labels, of the edited shape, so that edits can pass
        data = np.resize(data, math.prod(dims))
        if kind == "epochs":
            files["labels.bin"] = bytes(np.resize([0, 1], dims[0]).astype(np.uint8))
    data = data.copy()
    for position, value in nonfinite:
        if data.size:
            data[position % data.size] = value
    raw = data.tobytes()
    files["data.bin"] = raw[:len(raw) + resize] if resize < 0 else raw + bytes(resize)
    if kind == "epochs" and labels is not None:
        files["labels.bin"] = labels
    if kind == "continuous" and event_edit is not None:
        events = json.loads(files["events.json"])
        if isinstance(event_edit, tuple):
            i, key, value = event_edit
            if value is DELETE:
                del events[i][key]
            else:
                events[i][key] = value
        else:
            events = event_edit
        files["events.json"] = json.dumps(events).encode()

    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            (Path(tmp) / name).write_bytes(content)
        code, lines, caught = run(["validate", "--input", tmp])
        assert caught == []
        if code == 0:
            assert lines == ["ok"]
            back = (read_epoch_container(tmp) if kind == "epochs"
                    else read_continuous_container(tmp)[0]).data
            assert back.shape == tuple(dims) and np.isfinite(back).all()
            assert back.tobytes() == files["data.bin"]
        else:
            assert code == 2 and lines, lines
            assert all(line.startswith("violation: ") for line in lines), lines


# the settings of ``preprocess``: usual values, and odd ones that an example
# draws for at most two of them
PREPROCESS_USUAL = {
    "bandpass_lo_hz": st.floats(0.5, 20.0),
    "bandpass_hi_hz": st.floats(30.0, 120.0),
    "notch_hz": st.lists(st.floats(10.0, 120.0), max_size=2),
    "epoch_pre_s": st.floats(0.5, 1.0),
    "epoch_post_s": st.floats(0.5, 2.0),
    "baseline_window_s": st.tuples(st.floats(-0.5, -0.05), st.floats(0.0, 0.5)),
    "baseline_before_downsample": st.booleans(),
    "event_code": st.just(1),
}
PREPROCESS_ODD = {
    **{key: FLOATS for key in PREPROCESS_USUAL},
    "target_fs_hz": FLOATS,
    "notch_hz": st.lists(FLOATS, max_size=2),
    "baseline_window_s": st.lists(FLOATS, max_size=3),
    "baseline_before_downsample": st.sampled_from([0, None, "no"]),
    "event_code": st.integers(-1, 3) | FLOATS,
}
PAGE_SAMPLES = 1024  # float32 samples in a 4 KiB page


@settings(max_examples=125, derandomize=True, database=None, deadline=None)
@given(n_channels=settings_of(st.integers(2, 4), st.just(1)),
       n_samples=st.integers(1500, 5000).filter(lambda n: n % PAGE_SAMPLES),
       fs_hz=st.sampled_from([250.0, 256.0, 512.0]),
       factor=st.sampled_from([1, 2, 4, 8]),
       events=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                                 st.sampled_from([1, 1, 1, 2]), st.integers(0, 1)),
                       min_size=2, max_size=8),
       repeat=st.booleans(),
       edit=settings_of(st.none(), st.one_of(
           st.tuples(st.just("fs_hz"), VALUES),
           st.tuples(st.just("channel_names"), VALUES | st.lists(st.text(max_size=2), max_size=5)),
           st.tuples(st.integers(0, 1), st.sampled_from(["sample", "code", "label"]),
                     VALUES | st.just(DELETE)))),
       cpus=st.sampled_from([1, 2]),
       usual=st.fixed_dictionaries(PREPROCESS_USUAL),
       odd=settings_of(st.just([]), st.lists(st.sampled_from(sorted(PREPROCESS_ODD)).flatmap(
           lambda key: st.tuples(st.just(key), PREPROCESS_ODD[key])), min_size=1, max_size=2)))
def test_preprocess_exits_0_or_2_with_one_line(n_channels, n_samples, fs_hz, factor, events,
                                               repeat, edit, cpus, usual, odd):
    """Rows of ``n_samples`` float32 end inside a page, and each row, and each
    event, is its own block, so the filter drops pages that the next block
    reads again; at 2 CPUs both phases run on forked workers."""
    samples = (np.random.default_rng(2).standard_normal((n_channels, n_samples)) * 10
               ).astype(np.float32)
    events = [(int(at * n_samples), code, lab) for at, code, lab in events]
    if repeat:  # the first event again, at the end: one sample, two epochs
        events = events + events[:1]
    rec = ContinuousRecording(fs_hz, [f"c{i}" for i in range(n_channels)], samples,
                              [(s, code) for s, code, _ in events])
    values = {"target_fs_hz": fs_hz / factor, **usual, **dict(odd)}
    pairs = [f"{key}={json.dumps(value)}" for key, value in values.items()]
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(parallel, "n_cpus", lambda: cpus), \
            mock.patch.object(parallel, "_BLOCK_BYTES", 4096), \
            mock.patch.object(parallel, "_POOL_MIN_BYTES", 0):
        raw = write_continuous_container(Path(tmp) / "raw", rec, [lab for *_, lab in events])
        manifest = json.loads((raw / "manifest.json").read_text())
        doc = json.loads((raw / "events.json").read_text())
        if edit is not None and len(edit) == 2:  # a manifest field
            manifest[edit[0]] = edit[1]
            (raw / "manifest.json").write_text(json.dumps(manifest))
        elif edit is not None:  # a field of an event
            i, key, value = edit
            if value is DELETE:
                del doc[i][key]
            else:
                doc[i][key] = value
            (raw / "events.json").write_text(json.dumps(doc))
        out = Path(tmp) / "ep"
        code, lines, caught = run(["preprocess", "--input", str(raw), "--out", str(out),
                                   *(arg for pair in pairs for arg in ("--set", pair))])
        assert caught == []
        assert code in (0, 2), lines
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert not out.exists()
            return
        assert run(["validate", "--input", str(out)]) == (0, ["ok"], [])
        spec = from_config(PreprocessSpec, load_config(None, pairs))
        expected, labels = whole_array_reference(
            ContinuousRecording(manifest["fs_hz"], manifest["channel_names"], samples,
                                [(e["sample"], e["code"]) for e in doc]),
            [e["label"] for e in doc if e["code"] == spec.event_code], spec)
        es = read_epoch_container(out)
        assert es.labels.tolist() == labels
        assert np.array_equal(es.data, expected.astype(np.float32))
