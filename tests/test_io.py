import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from errpkit import io, parallel
from errpkit.io import (
    ContainerError,
    canonical_json,
    read_continuous_container,
    read_epoch_container,
    read_report,
    sha256_hex,
    validate_container,
    write_continuous_container,
    write_epoch_container,
    write_report,
)
from errpkit.preprocessing import ContinuousRecording, EpochSet, preprocess_recording
from errpkit.synth import generate_epochs


@pytest.fixture
def small_set():
    return generate_epochs(np.array([0, 1, 1, 0]), n_channels=3, fs_hz=64.0,
                           seed=1, pre_s=0.25, post_s=0.75)


class TestEpochContainer:
    def test_roundtrip_bit_exact(self, tmp_path, small_set):
        path = write_epoch_container(tmp_path / "c", small_set)
        back = read_epoch_container(path)
        assert np.array_equal(back.data, small_set.data)
        assert np.array_equal(back.labels, small_set.labels)
        assert back.fs_hz == small_set.fs_hz
        assert back.t0_offset_s == small_set.t0_offset_s
        assert back.channels == small_set.channels

    def test_read_holds_the_float32_samples_once(self, tmp_path):
        """A desk-shaped container (300 trials of 32 channels, 307 samples)
        reads within a tenth over its data.bin: no float64 copy is made."""
        rng = np.random.default_rng(4)
        data = rng.standard_normal((300, 32, 307), dtype=np.float32)
        path = write_epoch_container(tmp_path / "c", EpochSet(
            data, np.arange(300) % 2, 256.0, -0.5, [f"c{i}" for i in range(32)]))
        del data
        read_epoch_container(path)  # first-call allocations out of the measurement
        tracemalloc.start()
        try:
            back = read_epoch_container(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.data.dtype == np.float32
        size = (path / "data.bin").stat().st_size
        assert peak <= 1.1 * size, peak / size

    def test_write_of_a_float64_set_holds_one_block(self, tmp_path):
        """Writing a float64 set (16 MB) converts it to float32 one block of
        parallel.blocks at a time: no float32 copy of the whole set is made,
        and the bytes are those of the whole set's float32."""
        data = np.random.default_rng(5).standard_normal((200, 32, 307))
        es = EpochSet(data, np.arange(200) % 2, 256.0, -0.5, [f"c{i}" for i in range(32)])
        write_epoch_container(tmp_path / "warm", es)  # first-call allocations
        tracemalloc.start()
        try:
            path = write_epoch_container(tmp_path / "c", es)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * parallel._BLOCK_BYTES, peak
        assert (path / "data.bin").read_bytes() == data.astype("<f4").tobytes()

    def test_read_set_is_writable_and_leaves_its_file_unchanged(self, tmp_path, small_set):
        path = write_epoch_container(tmp_path / "c", small_set)
        raw = (path / "data.bin").read_bytes()
        back = read_epoch_container(path)
        back.data[0, 0, :] = 7.0
        assert (back.data[0, 0] == 7.0).all()
        assert (path / "data.bin").read_bytes() == raw
        assert np.array_equal(read_epoch_container(path).data, small_set.data)

    def test_rewrite_is_idempotent(self, tmp_path, small_set):
        p1 = write_epoch_container(tmp_path / "a", small_set)
        p2 = write_epoch_container(tmp_path / "b", read_epoch_container(p1))
        assert (p1 / "data.bin").read_bytes() == (p2 / "data.bin").read_bytes()
        assert (p1 / "labels.bin").read_bytes() == (p2 / "labels.bin").read_bytes()

    def test_data_file_read_once(self, tmp_path, small_set, monkeypatch):
        """The reader maps data.bin once and reads its bytes once, a block at a
        time, for the check of its samples."""
        path = write_epoch_container(tmp_path / "c", small_set)
        monkeypatch.setattr(parallel, "_BLOCK_BYTES", 100)
        memmap, fromfile, read_file = np.memmap, np.fromfile, Path.read_bytes
        maps, read_bytes = [], []

        def mapping(file, *args, **kwargs):
            maps.append(Path(file).name)
            return memmap(file, *args, **kwargs)

        def reading(file, *args, **kwargs):
            out = fromfile(file, *args, **kwargs)
            read_bytes.append((Path(file.name).name, out.nbytes))
            return out

        def whole_file(self):
            read_bytes.append((self.name, len(data := read_file(self))))
            return data

        monkeypatch.setattr(np, "memmap", mapping)
        monkeypatch.setattr(np, "fromfile", reading)
        monkeypatch.setattr(Path, "read_bytes", whole_file)
        back = read_epoch_container(path)
        assert maps == ["data.bin"]
        data_reads = [n for name, n in read_bytes if name == "data.bin"]
        assert len(data_reads) > 1
        assert sum(data_reads) == (path / "data.bin").stat().st_size
        assert np.array_equal(back.data, small_set.data)

    def test_rewrite_leaves_a_set_read_before_unchanged(self, tmp_path, small_set):
        """A set maps the data.bin it was read from; writing a container at its
        path replaces that file, so the set keeps its samples."""
        path = write_epoch_container(tmp_path / "c", small_set)
        before = read_epoch_container(path)
        write_epoch_container(path, replace(small_set, data=small_set.data + 1))
        assert np.array_equal(before.data, small_set.data)
        assert np.array_equal(read_epoch_container(path).data, small_set.data + 1)
        assert sorted(p.name for p in path.iterdir()) == ["data.bin", "labels.bin",
                                                          "manifest.json"]

    def test_no_trials_read_and_validate(self, tmp_path):
        """A 0-byte data.bin, which cannot be mapped, reads as an empty set."""
        path = write_epoch_container(tmp_path / "c", EpochSet(
            np.zeros((0, 3, 5), np.float32), np.zeros(0), 64.0, -0.5, ["a", "b", "c"]))
        assert (path / "data.bin").stat().st_size == 0
        assert validate_container(path) == []
        back = read_epoch_container(path)
        assert back.data.shape == (0, 3, 5) and back.data.dtype == np.float32
        assert len(back) == 0

    def test_nonfinite_samples_counted_across_chunks(self, tmp_path, small_set, monkeypatch):
        data = small_set.data.copy()
        data.flat[[0, 6, 7, 200]] = [np.nan, np.inf, -np.inf, np.nan]
        small_set.data = data
        path = write_epoch_container(tmp_path / "c", small_set)
        monkeypatch.setattr(parallel, "_BLOCK_BYTES", 7)
        assert validate_container(path) == ["data file holds 4 non-finite samples"]

    def test_validate_ok(self, tmp_path, small_set):
        path = write_epoch_container(tmp_path / "c", small_set)
        assert validate_container(path) == []

    def test_truncated_data_diagnosed(self, tmp_path, small_set):
        path = write_epoch_container(tmp_path / "c", small_set)
        raw = (path / "data.bin").read_bytes()
        (path / "data.bin").write_bytes(raw[:-8])
        problems = validate_container(path)
        assert any("bytes" in p for p in problems)

    def test_unknown_label_byte_diagnosed(self, tmp_path, small_set):
        path = write_epoch_container(tmp_path / "c", small_set)
        (path / "labels.bin").write_bytes(bytes([0, 1, 7, 0]))
        problems = validate_container(path)
        assert any("7" in p for p in problems)

    def test_declared_label_neither_success_nor_failure_listed(self, tmp_path, small_set):
        path = write_epoch_container(tmp_path / "c", small_set)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["label_codes"]["2"] = "other"
        (path / "manifest.json").write_text(json.dumps(manifest))
        (path / "labels.bin").write_bytes(bytes([0, 1, 2, 0]))
        assert validate_container(path) == [
            "labels file contains codes [2] that are neither success nor failure"]
        with pytest.raises(ContainerError, match=r"^labels file contains codes \[2\] that are "
                                                 r"neither success nor failure$"):
            read_epoch_container(path)

    def test_zero_samples_listed(self, tmp_path, small_set):
        path = write_epoch_container(tmp_path / "c", small_set)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["n_samples"] = 0
        (path / "manifest.json").write_text(json.dumps(manifest))
        (path / "data.bin").write_bytes(b"")
        line = "manifest field 'n_samples' must be at least 1, got 0"
        assert validate_container(path) == [line]
        with pytest.raises(ContainerError, match=f"^{line}$"):
            read_epoch_container(path)

    def test_epoch_start_with_no_finite_event_sample_listed(self, tmp_path, small_set):
        path = write_epoch_container(tmp_path / "c", small_set)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["t0_offset_s"] = -1e308
        (path / "manifest.json").write_text(json.dumps(manifest))
        line = ("manifest field 't0_offset_s': time 0.0 s from -1e+308 s at 64.0 Hz gives no "
                "finite sample index")
        assert validate_container(path) == [line]
        with pytest.raises(ContainerError, match=rf"^{line.replace('+', '[+]')}$"):
            read_epoch_container(path)

    def test_missing_manifest(self, tmp_path):
        assert validate_container(tmp_path) == ["missing manifest.json"]

    def test_multiple_violations_all_listed(self, tmp_path, small_set):
        path = write_epoch_container(tmp_path / "c", small_set)
        (path / "data.bin").write_bytes(b"xx")
        (path / "labels.bin").write_bytes(bytes([9] * 4))
        problems = validate_container(path)
        assert len(problems) >= 2


def in_fresh_process(code: str, path: Path) -> str:
    """The standard output of ``code`` run by a new interpreter that imports
    this errpkit, with ``path`` as its one argument."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(io.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestContinuousContainer:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((3, 500)).astype(np.float32).astype(np.float64)
        rec = ContinuousRecording(512.0, ["a", "b", "c"], data, [(100, 1), (300, 1)])
        path = write_continuous_container(tmp_path / "raw", rec, [0, 1])
        back, labels = read_continuous_container(path)
        assert back.data.dtype == np.float32
        assert np.array_equal(back.data, data)
        assert back.events == [(100, 1), (300, 1)]
        assert labels == [0, 1]

    @pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="needs /proc/self/statm")
    def test_read_and_validate_leave_the_samples_unread(self, tmp_path):
        """A 48 MB recording raises the resident memory of a fresh process by
        less than 4 MB while it is held: its samples are mapped, not copied,
        and the check of its samples streams them.  tracemalloc cannot see a
        mapping, so this measures resident pages."""
        rec = ContinuousRecording(512.0, [f"c{i}" for i in range(16)],
                                  np.zeros((16, 750_000), np.float32), [(100, 1)])
        path = write_continuous_container(tmp_path / "raw", rec, [0])
        assert (path / "data.bin").stat().st_size == 48_000_000
        code = (
            "import os, sys\n"
            "from errpkit.io import read_continuous_container, validate_container\n"
            "def resident():\n"
            "    with open('/proc/self/statm') as f:\n"
            "        return int(f.read().split()[1]) * os.sysconf('SC_PAGE_SIZE')\n"
            "before = resident()\n"
            "rec, labels = read_continuous_container(sys.argv[1])\n"
            "assert validate_container(sys.argv[1]) == []\n"
            "print(rec.data.shape, (resident() - before) / 2**20)\n")
        shape, grown_mb = in_fresh_process(code, path).rsplit(" ", 1)
        assert shape == "(16, 750000)"
        assert float(grown_mb) < 4.0, grown_mb

    @pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="needs /proc/self/statm")
    def test_filtering_a_read_recording_leaves_its_samples_unresident(self, tmp_path):
        """Filtering a 48 MB recording in a fresh process raises its resident
        memory by less than 8 MB: each block's mapped input pages are dropped
        once the block is upcast.  Only 10 samples of each row are kept, and
        a first filter of a row held in memory makes the filter's own
        allocations before the measurement."""
        rec = ContinuousRecording(512.0, [f"c{i}" for i in range(16)],
                                  np.zeros((16, 750_000), np.float32), [(100, 1)])
        path = write_continuous_container(tmp_path / "raw", rec, [0])
        code = (
            "import os, sys\n"
            "import numpy as np\n"
            "from errpkit.io import read_continuous_container\n"
            "from errpkit.preprocessing import _bandpass_stage, _filter_rows\n"
            "def resident():\n"
            "    with open('/proc/self/statm') as f:\n"
            "        return int(f.read().split()[1]) * os.sysconf('SC_PAGE_SIZE')\n"
            "rec, labels = read_continuous_container(sys.argv[1])\n"
            "stages = [_bandpass_stage(rec, 1.0, 40.0)]\n"
            "_filter_rows(np.zeros((1, rec.n_samples), np.float32), stages, [slice(10)])\n"
            "before = resident()\n"
            "out = _filter_rows(rec.data, stages, [slice(10)])\n"
            "print(out.shape, (resident() - before) / 2**20)\n")
        shape, grown_mb = in_fresh_process(code, path).rsplit(" ", 1)
        assert shape == "(16, 10)"
        assert float(grown_mb) < 8.0, grown_mb

    def test_read_recording_is_read_only(self, tmp_path):
        rec = ContinuousRecording(512.0, ["a", "b"], np.ones((2, 500)), [(100, 1)])
        back, _ = read_continuous_container(write_continuous_container(tmp_path / "raw", rec, [0]))
        with pytest.raises(ValueError, match="read-only"):
            back.data[0, 0] = 2.0
        assert (back.data == 1.0).all()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_rewrite_leaves_a_recording_read_before_unchanged(self, tmp_path, monkeypatch, cpus):
        """A recording maps the data.bin it was read from, and a filter drops
        the pages it has read; they are read again from that file, not from
        a data.bin written over it since, so the epochs do not change."""
        monkeypatch.setattr(parallel, "n_cpus", lambda: cpus)
        monkeypatch.setattr(parallel, "_BLOCK_BYTES", 4096)  # one row or event per block
        monkeypatch.setattr(parallel, "_POOL_MIN_BYTES", 0)
        data = np.random.default_rng(6).standard_normal((3, 5000)).astype(np.float32)
        rec = ContinuousRecording(512.0, ["a", "b", "c"], data, [(1000, 1), (3000, 1)])
        path = write_continuous_container(tmp_path / "raw", rec, [0, 1])
        back, labels = read_continuous_container(path)
        first, _ = preprocess_recording(back, labels, n_workers=cpus)
        write_continuous_container(path, replace(rec, data=-data), [0, 1])
        again, _ = preprocess_recording(back, labels, n_workers=cpus)
        assert np.array_equal(again.data, first.data)
        assert np.array_equal(back.data, data)
        assert np.array_equal(read_continuous_container(path)[0].data, -data)

    def test_event_past_the_end_listed(self, tmp_path):
        rec = ContinuousRecording(512.0, ["a", "b", "c"], np.zeros((3, 500)), [(100, 1), (300, 1)])
        path = write_continuous_container(tmp_path / "raw", rec, [0, 1])
        events = json.loads((path / "events.json").read_text())
        events[1]["sample"] = 10**9
        (path / "events.json").write_text(json.dumps(events))
        line = "event 1 field 'sample' is 1000000000, outside recording of 500 samples"
        assert validate_container(path) == [line]
        with pytest.raises(ContainerError, match=f"^{line}$"):
            read_continuous_container(path)

    def test_nonfinite_samples_rejected(self, tmp_path, monkeypatch):
        data = np.zeros((3, 500))
        data[1, [10, 20, 490]] = np.nan
        rec = ContinuousRecording(512.0, ["a", "b", "c"], data, [(100, 1)])
        path = write_continuous_container(tmp_path / "raw", rec, [0])
        monkeypatch.setattr(parallel, "_BLOCK_BYTES", 64)
        with pytest.raises(ContainerError, match="^data file holds 3 non-finite samples$"):
            read_continuous_container(path)

    def test_zero_channels_rejected(self, tmp_path):
        rec = ContinuousRecording(512.0, [], np.zeros((0, 500)), [(100, 1)])
        path = write_continuous_container(tmp_path / "raw", rec, [0])
        with pytest.raises(ContainerError,
                           match="^manifest field 'n_channels' must be at least 1, got 0$"):
            read_continuous_container(path)

    def test_epoch_container_is_not_continuous(self, tmp_path):
        es = generate_epochs(np.array([0, 1]), n_channels=2, fs_hz=64.0, seed=3,
                             pre_s=0.25, post_s=0.75)
        path = write_epoch_container(tmp_path / "c", es)
        with pytest.raises(ContainerError):
            read_continuous_container(path)


class TestReports:
    def report(self):
        return {
            "format_version": io.REPORT_VERSION,
            "meta": {"timestamp": "t", "runtime_s": 0.1},
            "config": {"folds": 10},
            "seed": 7,
            "datasets": [],
            "permutation_test": None,
        }

    def test_roundtrip(self, tmp_path):
        path = write_report(tmp_path / "r.json", self.report())
        assert read_report(path)["seed"] == 7

    def test_unknown_field_rejected_on_read(self, tmp_path):
        doc = self.report()
        doc["surprise"] = 1
        (tmp_path / "r.json").write_text(json.dumps(doc))
        with pytest.raises(ContainerError, match="surprise"):
            read_report(tmp_path / "r.json")

    @pytest.mark.parametrize("version", [1, 2])
    def test_versions_1_and_2_read(self, tmp_path, version):
        doc = self.report()
        doc["format_version"] = version
        (tmp_path / "r.json").write_text(json.dumps(doc))
        assert read_report(tmp_path / "r.json")["format_version"] == version

    @pytest.mark.parametrize("version", [0, 4, "2", None])
    def test_other_versions_rejected(self, tmp_path, version):
        doc = self.report()
        doc["format_version"] = version
        (tmp_path / "r.json").write_text(json.dumps(doc))
        with pytest.raises(ContainerError, match="format_version"):
            read_report(tmp_path / "r.json")

    def test_newer_version_rejected(self, tmp_path):
        doc = self.report()
        doc["format_version"] = 99
        (tmp_path / "r.json").write_text(json.dumps(doc))
        with pytest.raises(ContainerError, match="format_version"):
            read_report(tmp_path / "r.json")

    def test_canonical_json_stable_and_numpy_safe(self):
        a = canonical_json({"b": np.float64(0.5), "a": [np.int64(1), np.bool_(True)]})
        b = canonical_json({"a": [1, True], "b": 0.5})
        assert a == b
        doc = {
            "z": np.array([[1.5, -0.0], [np.nan, 2.0]]),
            "t": (1, (np.int32(2), "x"), []),
            "f": np.float32(0.1),
            "flags": {"on": np.bool_(True), "off": np.bool_(False)},
            "nan": float("nan"),
            "n": np.float64(1e-300),
        }
        assert canonical_json(doc) == (
            '{\n  "f": 0.10000000149011612,\n  "flags": {\n    "off": false,\n'
            '    "on": true\n  },\n  "n": 1e-300,\n  "nan": NaN,\n  "t": [\n    1,\n'
            '    [\n      2,\n      "x"\n    ],\n    []\n  ],\n  "z": [\n    [\n'
            '      1.5,\n      -0.0\n    ],\n    [\n      NaN,\n      2.0\n    ]\n  ]\n}\n'
        )

    def test_sha256_stable(self):
        arr = np.arange(6, dtype=np.float64).reshape(2, 3)
        assert sha256_hex(arr) == sha256_hex(arr.copy())
