import json

import numpy as np
import pytest

from errpkit.cli import main
from errpkit.io import (
    read_epoch_container,
    read_report,
    write_continuous_container,
)
from errpkit.preprocessing import ContinuousRecording

TINY = [
    "--set", "n_trials=40", "--set", "n_channels=3", "--set", "fs_hz=64.0",
    "--set", "pre_s=0.25", "--set", "post_s=0.75",
    "--set", "frn_amp_uv=-9.0", "--set", "noise_rms_uv=6.0",
]


def synth_tiny(tmp_path, name="data", seed=3):
    out = tmp_path / name
    assert main(["synth", "--out", str(out), "--seed", str(seed), *TINY]) == 0
    return out


@pytest.fixture(scope="module")
def shared_tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def tiny_container(shared_tmp):
    return synth_tiny(shared_tmp)


class TestSynth:
    def test_default_config_file_sizes(self, tmp_path):
        out = tmp_path / "full"
        assert main(["synth", "--out", str(out), "--seed", "0"]) == 0
        assert (out / "data.bin").stat().st_size == 4 * 300 * 32 * 640 == 24_576_000
        labels = (out / "labels.bin").read_bytes()
        assert len(labels) == 300
        assert labels.count(0) == 150 and labels.count(1) == 150
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_samples"] == 640
        assert manifest["t0_offset_s"] == -0.5
        assert manifest["generator"]["seed"] == 0

    def test_same_seed_same_bytes(self, tmp_path):
        a = synth_tiny(tmp_path, "a", seed=11)
        b = synth_tiny(tmp_path, "b", seed=11)
        for name in ("manifest.json", "data.bin", "labels.bin"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_unknown_config_key_exits_2(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "x"), "--set", "bogus=1"]) == 2

    def test_staircase_labels(self, tmp_path):
        out = tmp_path / "stair"
        assert main(["synth", "--out", str(out), "--seed", "2", *TINY,
                     "--set", "label_source=staircase", "--set", "n_trials=60"]) == 0
        es = read_epoch_container(out)
        frac_success = np.mean(es.labels == 0)
        assert 0.4 <= frac_success <= 0.75


class TestValidate:
    def test_ok(self, tiny_container, capsys):
        assert main(["validate", "--input", str(tiny_container)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_truncated_exits_2(self, tmp_path, capsys):
        out = synth_tiny(tmp_path, "t")
        raw = (out / "data.bin").read_bytes()
        (out / "data.bin").write_bytes(raw[:100])
        assert main(["validate", "--input", str(out)]) == 2
        assert "violation" in capsys.readouterr().out

    def test_nan_sample_exits_2(self, tmp_path, capsys):
        out = synth_tiny(tmp_path, "nan")
        raw = bytearray((out / "data.bin").read_bytes())
        raw[400:404] = np.array([np.nan], dtype="<f4").tobytes()
        (out / "data.bin").write_bytes(bytes(raw))
        capsys.readouterr()
        assert main(["validate", "--input", str(out)]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "violation: data file holds 1 non-finite samples"
        ]


class TestRun:
    def test_accuracy_vector_and_plan_logged(self, shared_tmp, tiny_container):
        out = shared_tmp / "run.json"
        assert main(["run", "--input", str(tiny_container), "--method", "riemann",
                     "--folds", "5", "--repeats", "2", "--seed", "7",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["accuracies"]) == 10
        assert doc["plan"]["k"] == 5 and doc["plan"]["r"] == 2
        assert doc["plan"]["seed"] == 7

    def test_same_plan_seed_same_assignments(self, shared_tmp, tiny_container):
        outs = []
        for i, method in enumerate(("riemann", "benchmark")):
            out = shared_tmp / f"run_{method}.json"
            assert main(["run", "--input", str(tiny_container), "--method", method,
                         "--folds", "5", "--repeats", "1", "--seed", "7",
                         "--out", str(out)]) == 0
            outs.append(json.loads(out.read_text()))
        assert outs[0]["plan"]["assignments_sha256"] == outs[1]["plan"]["assignments_sha256"]


class TestCompare:
    def test_single_dataset_report(self, shared_tmp, tiny_container):
        out = shared_tmp / "cmp1.json"
        assert main(["compare", "--input", str(tiny_container), "--seed", "5",
                     "--folds", "5", "--repeats", "2", "--out", str(out)]) == 0
        rep = read_report(out)
        block = rep["datasets"][0]
        assert len(block["methods"]["riemann"]["accuracies"]) == 10
        assert "t" in block["t_test"]
        assert rep["permutation_test"] is None
        assert block["chance"] is None
        assert "prototype_sha256_success" in block["audit"]["riemann"]
        assert len(block["audit"]["benchmark"]["scale"]) == 3 * 2 * 4

    def test_two_datasets_adds_permutation_z(self, shared_tmp, tiny_container, tmp_path):
        second = synth_tiny(tmp_path, "second", seed=21)
        out = shared_tmp / "cmp2.json"
        assert main(["compare", "--input", str(tiny_container), "--input", str(second),
                     "--seed", "5", "--folds", "5", "--repeats", "1",
                     "--set", "n_permutations=300", "--out", str(out)]) == 0
        rep = read_report(out)
        assert rep["permutation_test"] is not None
        assert "z" in rep["permutation_test"]
        assert rep["permutation_test"]["n_permutations"] == 300

    def test_chance_flag(self, shared_tmp, tiny_container):
        out = shared_tmp / "cmp_chance.json"
        assert main(["compare", "--input", str(tiny_container), "--seed", "5",
                     "--folds", "5", "--repeats", "1",
                     "--set", "n_chance_shuffles=10", "--chance", "--out", str(out)]) == 0
        chance = read_report(out)["datasets"][0]["chance"]
        assert chance["n_shuffles"] == 10
        assert chance["threshold_97_5"] >= chance["mean_accuracy"] - 1e-6

    def test_emit_erp_csv(self, shared_tmp, tiny_container):
        out = shared_tmp / "cmp_erp.json"
        assert main(["compare", "--input", str(tiny_container), "--seed", "5",
                     "--folds", "5", "--repeats", "1", "--emit-erp",
                     "--out", str(out)]) == 0
        erp = (shared_tmp / "cmp_erp_erp_0.csv").read_text().splitlines()
        header = erp[0].split(",")
        assert header[0] == "time_s"
        assert "ch00_success_uv" in header and "ch00_diff_uv" in header
        assert len(erp) == 1 + 64  # one row per sample at fs=64, 1 s epoch
        acc = (shared_tmp / "cmp_erp_accuracies.csv").read_text().splitlines()
        assert acc[0] == "dataset,method,index,accuracy"
        assert len(acc) == 1 + 2 * 5


class TestConfigErrors:
    @pytest.mark.parametrize("setting", [
        ["--set", "folds=abc"],
        ["--set", 'reg_c="x"'],
        ["--set", "folds=true"],
        ["--config", {"folds": "10"}],
    ], ids=["set-folds-word", "set-reg_c-string", "set-folds-bool", "file-folds-string"])
    def test_mistyped_config_value_exits_2(self, tiny_container, tmp_path, capsys, setting):
        flag, value = setting
        if isinstance(value, dict):
            value = tmp_path / "cfg.json"
            value.write_text(json.dumps(setting[1]))
        out = tmp_path / "run.json"
        capsys.readouterr()
        assert main(["run", "--input", str(tiny_container), "--method", "benchmark",
                     "--out", str(out), flag, str(value)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: config field ") and "must have the type" in line
        assert not out.exists()


class TestThreads:
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_below_one_exits_2(self, tiny_container, tmp_path, capsys, threads):
        out = tmp_path / "run.json"
        capsys.readouterr()
        assert main(["run", "--input", str(tiny_container), "--method", "benchmark",
                     "--threads", threads, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --threads must be at least 1, got {threads}"
        ]
        assert not out.exists()


class TestChanceCommand:
    def test_writes_chance_doc(self, shared_tmp, tiny_container):
        out = shared_tmp / "chance.json"
        assert main(["chance", "--input", str(tiny_container), "--seed", "9",
                     "--folds", "5", "--repeats", "1",
                     "--set", "n_chance_shuffles=10", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["n_shuffles"] == 10
        assert 0.2 <= doc["mean_accuracy"] <= 0.8


class TestPreprocess:
    def make_raw(self, tmp_path, n_events=4, fs=2048.0):
        rng = np.random.default_rng(0)
        samples = int(fs * (3 * n_events + 3))
        data = (rng.standard_normal((3, samples)) * 10).astype(np.float32).astype(np.float64)
        events = [(int(fs * (2 + 3 * i)), 1) for i in range(n_events)]
        rec = ContinuousRecording(fs, ["Fz", "Cz", "Pz"], data, events)
        return write_continuous_container(tmp_path / "raw", rec,
                                          [i % 2 for i in range(n_events)])

    def test_full_pipeline_shapes(self, tmp_path):
        raw = self.make_raw(tmp_path)
        out = tmp_path / "epochs"
        assert main(["preprocess", "--input", str(raw), "--out", str(out)]) == 0
        es = read_epoch_container(out)
        assert es.data.shape == (4, 3, 640)
        assert es.fs_hz == 256.0
        assert es.t0_offset_s == -0.5
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["skipped_events"] == []

    def test_no_events_exits_2(self, tmp_path):
        raw = self.make_raw(tmp_path)
        out = tmp_path / "epochs"
        assert main(["preprocess", "--input", str(raw), "--out", str(out),
                     "--set", "event_code=99"]) == 2
