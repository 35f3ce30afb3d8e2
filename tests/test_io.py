import json
import tracemalloc
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
from errpkit.preprocessing import ContinuousRecording, EpochSet
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

    def test_rewrite_is_idempotent(self, tmp_path, small_set):
        p1 = write_epoch_container(tmp_path / "a", small_set)
        p2 = write_epoch_container(tmp_path / "b", read_epoch_container(p1))
        assert (p1 / "data.bin").read_bytes() == (p2 / "data.bin").read_bytes()
        assert (p1 / "labels.bin").read_bytes() == (p2 / "labels.bin").read_bytes()

    def test_data_file_read_once(self, tmp_path, small_set, monkeypatch):
        path = write_epoch_container(tmp_path / "c", small_set)
        reads = []

        def counting(read):
            def wrapper(file, *args, **kwargs):
                reads.append(Path(file).name)
                return read(file, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(np, "fromfile", counting(np.fromfile))
        monkeypatch.setattr(Path, "read_bytes", counting(Path.read_bytes))
        back = read_epoch_container(path)
        assert reads.count("data.bin") == 1
        assert np.array_equal(back.data, small_set.data)

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

    def test_missing_manifest(self, tmp_path):
        assert validate_container(tmp_path) == ["missing manifest.json"]

    def test_multiple_violations_all_listed(self, tmp_path, small_set):
        path = write_epoch_container(tmp_path / "c", small_set)
        (path / "data.bin").write_bytes(b"xx")
        (path / "labels.bin").write_bytes(bytes([9] * 4))
        problems = validate_container(path)
        assert len(problems) >= 2


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
