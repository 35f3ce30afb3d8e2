import concurrent.futures.process
import dataclasses
import errno
import json
import math
import multiprocessing
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import errpkit
from errpkit import cli, evaluation, io, logreg, parallel, preprocessing, synth
from errpkit.cli import main
from errpkit.errors import ErrpkitError, NumericalFailure
from errpkit.evaluation import derive_seed
from errpkit.io import (
    REPORT_VERSION,
    read_continuous_container,
    read_epoch_container,
    read_report,
    write_continuous_container,
    write_epoch_container,
)
from errpkit.preprocessing import ContinuousRecording, EpochSet, PreprocessSpec

from conftest import traced_peak

PERMUTATION_KEYS = ["null_std", "observed_metric", "p", "p_exact", "swap_scheme", "z"]
REPORT_KEYS = ["config", "datasets", "format_version", "meta", "permutation_test"]
CONFIG_KEYS = ["folds", "mean_max_iter", "mean_tol", "n_chance_shuffles", "reg_c", "repeats",
               "seed", "shrinkage"]

TINY = [
    "--set", "n_trials=40", "--set", "n_channels=3", "--set", "fs_hz=64.0",
    "--set", "pre_s=0.25", "--set", "post_s=0.75",
    "--set", "frn_amp_uv=-9.0", "--set", "noise_rms_uv=6.0",
]


def synth_tiny(tmp_path, name="data", seed=3):
    out = tmp_path / name
    assert main(["synth", "--out", str(out), "--seed", str(seed), *TINY]) == 0
    return out


def zero_channel_container(tmp_path, name="zero"):
    """A well-formed epoch container of 20 trials of no channels."""
    es = EpochSet(np.zeros((20, 0, 64)), np.arange(20) % 2, 64.0, -0.25, [])
    return write_epoch_container(tmp_path / name, es)


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

    def test_container_records_only_its_own_settings(self, tmp_path):
        # an evaluation setting does not reach the container's bytes
        a = synth_tiny(tmp_path, "a", seed=11)
        b = tmp_path / "b"
        assert main(["synth", "--out", str(b), "--seed", "11", *TINY, "--set", "reg_c=0.5"]) == 0
        for name in ("manifest.json", "data.bin", "labels.bin"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        generator = json.loads((a / "manifest.json").read_text())["generator"]
        assert "reg_c" not in generator and generator["n_trials"] == 40

    def test_unknown_config_key_exits_2(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "x"), "--set", "bogus=1"]) == 2

    def test_staircase_labels(self, tmp_path):
        out = tmp_path / "stair"
        assert main(["synth", "--out", str(out), "--seed", "2", *TINY,
                     "--set", "label_source=staircase", "--set", "n_trials=60"]) == 0
        es = read_epoch_container(out)
        frac_success = np.mean(es.labels == 0)
        assert 0.4 <= frac_success <= 0.75


NOT_FLOAT32 = ("error: synthetic epoch 0 is not finite as float32: an amplitude, noise_rms_uv or "
               "noise_exponent setting is too large")


class TestSynthErrors:
    """A synth setting the dataset spec rejects, or a key of the staircase
    observer, which is a constant, exits 2 with one line naming the key,
    before anything is written; so does a setting that makes an epoch
    overflow float32, with no warning, or one that makes the data too large
    to allocate or to index."""

    @pytest.mark.parametrize("settings, line", [
        (["label_source=staircase", "n_blocks=0"],
         "error: unknown config field 'n_blocks' in --set"),
        (["label_source=staircase", "n_blocks=-1"],
         "error: unknown config field 'n_blocks' in --set"),
        (["n_trials=-5"], "error: n_trials must be at least 1, got -5"),
        (["label_source=staircase", "n_trials=-5"], "error: n_trials must be at least 1, got -5"),
        (["n_channels=0"], "error: n_channels must be at least 1, got 0"),
        (["fs_hz=0"], "error: fs_hz must be positive, got 0"),
        (["fs_hz=0.1"], "error: pre_s, post_s and fs_hz must give at least one sample per "
         "epoch, got pre_s 0.5, post_s 2.0 and fs_hz 0.1"),
        (["post_s=-0.5"], "error: pre_s, post_s and fs_hz must give at least one sample per "
         "epoch, got pre_s 0.5, post_s -0.5 and fs_hz 256.0"),
        (["pre_s=-2.0"], "error: pre_s, post_s and fs_hz must give at least one sample per "
         "epoch, got pre_s -2.0, post_s 2.0 and fs_hz 256.0"),
        (["fs_hz=1.7e308"], "error: pre_s, post_s and fs_hz must give a finite epoch length, "
         "got pre_s 0.5, post_s 2.0 and fs_hz 1.7e+308"),
        (["label_source=random"],
         "error: label_source must be 'balanced' or 'staircase', got 'random'"),
        (["psy_threshold_alpha=0"], "error: unknown config field 'psy_threshold_alpha' in --set"),
        (["label_source=staircase", "psy_slope_beta=-1"],
         "error: unknown config field 'psy_slope_beta' in --set"),
        (["psy_lapse=0.5"], "error: unknown config field 'psy_lapse' in --set"),
        (["frn_amp_uv=NaN"],
         "error: config field 'frn_amp_uv' in --set must hold finite numbers only, got NaN"),
        (["noise_rms_uv=NaN"],
         "error: config field 'noise_rms_uv' in --set must hold finite numbers only, got NaN"),
        (["noise_rms_uv=-1"], "error: noise_rms_uv must be nonnegative, got -1"),
        (["frn_width_s=0"], "error: frn_width_s must be positive, got 0"),
        (["p3a_width_s=-0.1"], "error: p3a_width_s must be positive, got -0.1"),
        (["frn_peak_s=5"],
         "error: frn_peak_s 5 s is outside the epoch [-pre_s, post_s] = [-0.5, 2.0] s"),
        (["p3a_peak_s=-1"],
         "error: p3a_peak_s -1 s is outside the epoch [-pre_s, post_s] = [-0.5, 2.0] s"),
        (["n_trials=40", "n_channels=3", "fs_hz=64.0", "noise_rms_uv=1e300"], NOT_FLOAT32),
        (["n_trials=40", "n_channels=3", "fs_hz=64.0", "p3a_amp_uv=1e308",
          "p3a_success_scale=1e308"], NOT_FLOAT32),
        (["n_trials=4", "n_channels=2", "fs_hz=32.0", "noise_exponent=1e308"], NOT_FLOAT32),
        # sizes past any address space, so that no allocation is ever made
        (["n_trials=2", "n_channels=1", "fs_hz=1e16"],
         "error: cannot allocate 2 epochs of 1 channels x 2.5e+16 samples "
         "(the epoch length of fs_hz 1e+16, pre_s 0.5 and post_s 2.0)"),
        (["n_trials=2", "n_channels=1", "post_s=1e15"],
         "error: cannot allocate 2 epochs of 1 channels x 2.56e+17 samples "
         "(the epoch length of fs_hz 256.0, pre_s 0.5 and post_s 1000000000000000.0)"),
        (["n_trials=100000000000000000", "n_channels=1"],
         "error: cannot allocate 1e+17 epochs of 1 channels x 640 samples "
         "(the epoch length of fs_hz 256.0, pre_s 0.5 and post_s 2.0)"),
        # sizes past what numpy can index, rejected before any generation
        (["fs_hz=1e18"],
         "error: cannot allocate 300 epochs of 32 channels x 2.5e+18 samples "
         "(the epoch length of fs_hz 1e+18, pre_s 0.5 and post_s 2.0)"),
        (["fs_hz=1e300"],
         "error: cannot allocate 300 epochs of 32 channels x 2.5e+300 samples "
         "(the epoch length of fs_hz 1e+300, pre_s 0.5 and post_s 2.0)"),
        (["n_trials=1", "n_channels=1", "fs_hz=1e18"],
         "error: cannot allocate 1 epochs of 1 channels x 2.5e+18 samples "
         "(the epoch length of fs_hz 1e+18, pre_s 0.5 and post_s 2.0)"),
    ], ids=["n_blocks-0", "n_blocks-negative", "n_trials-negative", "n_trials-staircase",
            "n_channels-0", "fs_hz-0", "fs_hz-no-sample", "post_s-negative", "pre_s-negative",
            "fs_hz-huge", "label_source",
            "psy_threshold_alpha-0", "psy_slope_beta-staircase", "psy_lapse-0.5",
            "frn_amp_uv-nan", "noise_rms_uv-nan", "noise_rms_uv-negative", "frn_width_s-0",
            "p3a_width_s-negative", "frn_peak_s-late", "p3a_peak_s-early", "noise_rms_uv-huge",
            "p3a_amp_uv-huge", "noise_exponent-huge", "fs_hz-epoch-too-large", "post_s-epoch-too-large",
            "n_trials-too-many", "fs_hz-1e18", "fs_hz-1e300", "fs_hz-1e18-one-epoch"])
    def test_exits_2_with_one_line(self, tmp_path, capsys, settings, line):
        out = tmp_path / "x"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["synth", "--out", str(out),
                         *[arg for item in settings for arg in ("--set", item)]]) == 2
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [line]
        assert caught == []
        assert not out.exists()

    @pytest.mark.parametrize("noise, raiser, matrix", [
        ("10.0", "_mixing_matrix", " and their 60000 x 60000 channel mixing matrix"),
        ("0.0", "class_templates", ""),
    ], ids=["mixing-matrix", "no-noise"])
    def test_allocation_failure_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch,
                                                      noise, raiser, matrix):
        # the float64 mixing matrix of 60000 channels takes 26.8 GiB, their
        # epochs 9.6 MB; the patched function raises before either is made
        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(synth, raiser, out_of_memory)
        out = tmp_path / "x"
        capsys.readouterr()
        assert main(["synth", "--out", str(out), "--set", "n_trials=2", "--set",
                     "n_channels=60000", "--set", "fs_hz=8.0", "--set", f"noise_rms_uv={noise}"]) == 2
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [
            "error: cannot allocate 2 epochs of 60000 channels x 20 samples (the epoch length of "
            f"fs_hz 8.0, pre_s 0.5 and post_s 2.0){matrix}"]
        assert not out.exists()

    @pytest.mark.parametrize("error", [OSError(errno.ENOMEM, "Cannot allocate memory"),
                                       OverflowError("cannot fit 'int' into an index-sized integer")],
                             ids=["ENOMEM", "overflow"])
    def test_a_shared_map_that_cannot_be_made_exits_2_with_one_line(self, tmp_path, capsys,
                                                                     monkeypatch, error):
        # 2 epochs of 60000 channels x 40 samples: 19.2 MB of float32, over the
        # pool bound, so on two CPUs they go to the shared map, which fails
        def fail(*args):
            raise error

        monkeypatch.setattr(parallel, "n_cpus", lambda: 2)
        monkeypatch.setattr(parallel, "_SharedMap", fail)
        assert 4 * 2 * 60000 * 40 >= parallel._POOL_MIN_BYTES
        out = tmp_path / "x"
        capsys.readouterr()
        assert main(["synth", "--out", str(out), "--set", "n_trials=2", "--set",
                     "n_channels=60000", "--set", "fs_hz=16.0", "--set", "noise_rms_uv=0"]) == 2
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [
            "error: cannot allocate 2 epochs of 60000 channels x 40 samples (the epoch length of "
            "fs_hz 16.0, pre_s 0.5 and post_s 2.0)"]
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["synth", "--out", "x", "--threads", "2"],
    ["preprocess", "--input", "x", "--out", "y", "--threads", "2"],
    ["preprocess", "--input", "x", "--out", "y", "--seed", "1"],
], ids=["synth-threads", "preprocess-threads", "preprocess-seed"])
def test_flags_a_command_does_not_read_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def _error_classes(cls=ErrpkitError):
    return [cls] + [sub for child in cls.__subclasses__() for sub in _error_classes(child)]


# every ErrpkitError class and the exit code the command line gives it
EXIT_CODES = {
    "ErrpkitError": 1, "InvalidMatrix": 1, "NotPositiveDefinite": 1,
    "NumericalFailure": 1, "NonConvergence": 1,
    "InvalidInput": 2, "EmptyInput": 2, "InsufficientData": 2, "InsufficientChannels": 2,
    "InvalidWindow": 2, "InvalidFilterSpec": 2, "InvalidResampleFactor": 2,
    "DegenerateTrainingSet": 2, "DimMismatch": 2, "PlanMismatch": 2,
    "ConfigError": 2, "ContainerError": 2,
}


def test_every_error_class_has_a_pinned_exit_code():
    assert sorted(cls.__name__ for cls in _error_classes()) == sorted(EXIT_CODES)


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_error_exit_code(cls, monkeypatch, capsys):
    def fail(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "cmd_validate", fail)
    capsys.readouterr()
    code = EXIT_CODES[cls.__name__]
    assert main(["validate", "--input", "x"]) == code
    assert capsys.readouterr().err == ("error" if code == 2 else "failure") + ": boom\n"


class TestValidate:
    def test_ok(self, tiny_container, capsys):
        assert main(["validate", "--input", str(tiny_container)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_continuous_ok(self, tmp_path, capsys):
        raw = make_raw(tmp_path)
        capsys.readouterr()
        assert main(["validate", "--input", str(raw)]) == 0
        assert capsys.readouterr().out.splitlines() == ["ok"]

    def test_truncated_exits_2(self, tmp_path, capsys):
        out = synth_tiny(tmp_path, "t")
        raw = (out / "data.bin").read_bytes()
        (out / "data.bin").write_bytes(raw[:100])
        assert main(["validate", "--input", str(out)]) == 2
        assert "violation" in capsys.readouterr().out

    def test_zero_channels_exit_2(self, tmp_path, capsys):
        out = zero_channel_container(tmp_path)
        capsys.readouterr()
        assert main(["validate", "--input", str(out)]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "violation: manifest field 'n_channels' must be at least 1, got 0"
        ]

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
        [block] = read_report(out)["datasets"]
        assert len(block["methods"]["riemann"]["accuracies"]) == 10
        assert block["plan"]["k"] == 5 and block["plan"]["r"] == 2
        assert block["plan"]["seed"] == derive_seed(7, 0)

    def test_same_plan_seed_same_assignments(self, shared_tmp, tiny_container):
        outs = []
        for i, method in enumerate(("riemann", "benchmark")):
            out = shared_tmp / f"run_{method}.json"
            assert main(["run", "--input", str(tiny_container), "--method", method,
                         "--folds", "5", "--repeats", "1", "--seed", "7",
                         "--out", str(out)]) == 0
            outs.append(read_report(out)["datasets"][0]["plan"])
        assert outs[0]["assignments_sha256"] == outs[1]["assignments_sha256"]


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
                     "--seed", "5", "--folds", "5", "--repeats", "1", "--out", str(out)]) == 0
        rep = read_report(out)
        assert sorted(rep["permutation_test"]) == PERMUTATION_KEYS

    def test_all_ties_exit_0_with_p_1(self, tmp_path):
        # a strong, low-noise ERP: both methods classify every test trial
        easy = ["--set", "frn_amp_uv=-40.0", "--set", "noise_rms_uv=2.0"]
        inputs = []
        for seed in (3, 4):
            out = tmp_path / f"easy{seed}"
            assert main(["synth", "--out", str(out), "--seed", str(seed), *TINY, *easy]) == 0
            inputs += ["--input", str(out)]
        report = tmp_path / "ties.json"
        assert main(["compare", *inputs, "--seed", "5", "--folds", "5", "--repeats", "1",
                     "--out", str(report)]) == 0
        rep = read_report(report)
        for block in rep["datasets"]:
            assert block["methods"]["riemann"]["median"] == block["methods"]["benchmark"]["median"]
        perm = rep["permutation_test"]
        assert (perm["observed_metric"], perm["z"], perm["p"], perm["null_std"]) == (
            0.0, 0.0, 1.0, 0.0)

    def test_seven_datasets_z_from_the_reported_medians(self, tmp_path):
        # the paper's seven participants: z is sum d / sqrt(sum d^2) of the
        # reported medians, bit for bit, and within the bound sqrt(7)
        inputs = []
        for seed in range(7):
            inputs += ["--input", str(synth_tiny(tmp_path, f"p{seed}", seed=30 + seed))]
        report = tmp_path / "seven.json"
        assert main(["compare", *inputs, "--seed", "5", "--folds", "2", "--repeats", "1",
                     "--out", str(report)]) == 0
        rep = read_report(report)
        diffs = [block["methods"]["riemann"]["median"] - block["methods"]["benchmark"]["median"]
                 for block in rep["datasets"]]
        perm = rep["permutation_test"]
        assert sorted(perm) == PERMUTATION_KEYS
        assert perm["null_std"] > 0.0
        assert perm["z"] == math.fsum(diffs) / math.sqrt(math.fsum(d * d for d in diffs))
        assert perm["p"] == evaluation.normal_two_sided_p(perm["z"])
        assert abs(perm["z"]) <= math.sqrt(7)

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

    def test_emit_erp_into_new_directory_writes_plain_numbers(self, tmp_path, tiny_container):
        out = tmp_path / "new" / "cmp.json"
        assert main(["compare", "--input", str(tiny_container), "--seed", "5",
                     "--folds", "5", "--repeats", "1", "--emit-erp",
                     "--out", str(out)]) == 0
        rows = (tmp_path / "new" / "cmp_erp_0.csv").read_text().splitlines()[1:]
        es = read_epoch_container(tiny_container)
        first = [float(v) for v in rows[0].split(",")]
        succ = es.data[es.labels == 0][:, 0, 0].mean(dtype=np.float64)
        fail = es.data[es.labels == 1][:, 0, 0].mean(dtype=np.float64)
        assert first[:4] == pytest.approx([es.t0_offset_s, succ, fail, fail - succ], rel=1e-12)

    def test_erp_table_of_float32_samples_is_that_of_their_float64_copy(self, tiny_container):
        es = read_epoch_container(tiny_container)
        assert es.data.dtype == np.float32
        wide = EpochSet(es.data.astype(np.float64), es.labels, es.fs_hz, es.t0_offset_s,
                        es.channels)
        (header, t, waves), (wide_header, wide_t, wide_waves) = map(cli._erp_table, (es, wide))
        assert header == wide_header and np.array_equal(t, wide_t)
        assert waves.dtype == np.float64
        assert np.array_equal(waves, wide_waves)

    def test_config_is_what_ran(self, tmp_path, tiny_container):
        """The report's config is the resolved seed, folds and repeats, no
        chance shuffles where no chance level ran, and the hyperparameters;
        the seed is written there only, and the thread count nowhere."""
        out = tmp_path / "cmp.json"
        assert main(["compare", "--input", str(tiny_container), "--folds", "2", "--repeats", "1",
                     "--seed", "7", "--threads", "2", "--set", "reg_c=0.5",
                     "--out", str(out)]) == 0
        report = read_report(out)
        assert sorted(report) == REPORT_KEYS
        assert report["config"] == {"seed": 7, "folds": 2, "repeats": 1, "n_chance_shuffles": None,
                                    **dataclasses.asdict(evaluation.Hyperparams(reg_c=0.5))}
        plan = report["datasets"][0]["plan"]
        assert (plan["k"], plan["r"]) == (2, 1)

    def test_settings_that_do_not_run_leave_the_report(self, tmp_path, tiny_container):
        """``synth`` and ``preprocess`` settings, which compare does not read,
        do not move a byte of the report outside ``meta``."""
        bodies = []
        for extra in ([], ["--set", "n_trials=999", "--set", "notch_hz=[60]"]):
            out = tmp_path / f"cmp{len(extra)}.json"
            assert main(["compare", "--input", str(tiny_container), "--folds", "2",
                         "--repeats", "1", "--seed", "7", *extra, "--out", str(out)]) == 0
            report = read_report(out)
            del report["meta"]
            bodies.append(io.canonical_json(report))
        assert bodies[0] == bodies[1]
        assert sorted(json.loads(bodies[0])["config"]) == CONFIG_KEYS


# The analysis windows, the classifier's stopping rule and the staircase
# observer are constants, so a config that names them is rejected: each
# such key, a command that reads it and the value of its constant.
CONSTANT_KEYS = {
    "riemann_window_s": ("compare", [0.1, 0.6]),
    "benchmark_windows_s": ("compare", [[0.1, 0.2], [0.2, 0.3], [0.3, 0.4], [0.4, 0.6]]),
    "clf_tol": ("compare", 1e-6),
    "clf_max_iter": ("compare", 500),
    "psy_threshold_alpha": ("synth", 0.004),
    "psy_slope_beta": ("synth", 3.5),
    "psy_lapse": ("synth", 0.02),
    "n_blocks": ("synth", 5),
}


@pytest.mark.parametrize("t, p, df, text", [
    (math.inf, 0.0, 1, "t=inf, p=0.0000, df=1"),
    (-0.358, 0.7289, 9, "t=-0.358, p=0.7289, df=9"),
], ids=["two-folds", "ten-folds"])
def test_summary_line_prints_df(t, p, df, text):
    block = {"path": "in", "methods": {"riemann": {"mean": 1.0}, "benchmark": {"mean": 0.5}},
             "t_test": {"t": t, "p": p, "df": df, "mean_diff": 0.5}, "chance": None}
    assert cli._summary_line(block) == f"in: riemann 1.0000; benchmark 0.5000; {text}"


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

    def test_config_file_setting_n_permutations_exits_2(self, tiny_container, tmp_path, capsys):
        # the permutation test draws nothing, so the draw count is no longer a
        # setting; the generator's staircase steps, gains and confound shape
        # are constants or derived, so their keys are gone too
        cfg, out = tmp_path / "cfg.json", tmp_path / "r.json"
        for key, value in [("n_permutations", 1000), ("topography", None),
                           ("confound_peak_s", 0.1375), ("confound_width_s", 0.03),
                           ("confound_amp_success_uv", -1.0), ("confound_amp_failure_uv", -2.0),
                           ("start_contrast", 0.004), ("step_factor", 1.15)]:
            cfg.write_text(json.dumps({key: value}))
            capsys.readouterr()
            assert main(["compare", "--input", str(tiny_container), "--input",
                         str(tiny_container), "--config", str(cfg), "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert (captured.out + captured.err).splitlines() == [
                f"error: unknown config field '{key}' in {cfg}"], key
            assert not out.exists()

    @pytest.mark.parametrize("config, setting, line", [
        (None, ["--config", "missing.json"], "error: cannot read config missing.json: "
         "[Errno 2] No such file or directory: 'missing.json'"),
        ([1, 2], ["--config", "list.json"], "error: config list.json must be a JSON object"),
        (None, ["--set", "foo"], "error: --set expects key=value, got 'foo'"),
    ], ids=["file-missing", "file-list", "set-no-equals"])
    def test_unusable_config_exits_2_with_one_line(self, tiny_container, tmp_path, monkeypatch,
                                                   capsys, config, setting, line):
        monkeypatch.chdir(tmp_path)
        if config is not None:
            Path(setting[1]).write_text(json.dumps(config))
        capsys.readouterr()
        assert main(["compare", "--input", str(tiny_container), *setting,
                     "--out", "r.json"]) == 2
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [line]
        assert not Path("r.json").exists()

    @pytest.mark.parametrize("source", ["file", "set"])
    @pytest.mark.parametrize("key", CONSTANT_KEYS)
    def test_constant_keys_exit_2(self, tiny_container, tmp_path, capsys, key, source):
        command, value = CONSTANT_KEYS[key]
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps({key: value}))
        setting = (["--config", str(cfg)] if source == "file"
                   else ["--set", f"{key}={json.dumps(value)}"])
        inputs = [] if command == "synth" else ["--input", str(tiny_container)]
        capsys.readouterr()
        assert main([command, *inputs, *setting, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [
            f"error: unknown config field '{key}' in {cfg if source == 'file' else '--set'}"]
        assert not out.exists()

    @pytest.mark.parametrize("setting, line", [
        (["--seed", "-1"], "error: --seed must be at least 0, got -1"),
        (["--set", "seed=-3"], "error: config field 'seed' must be at least 0, got -3"),
    ], ids=["flag", "set"])
    @pytest.mark.parametrize("command", ["synth", "compare"])
    def test_negative_seed_exits_2(self, tiny_container, tmp_path, capsys, command, setting,
                                   line):
        out = tmp_path / "out"
        inputs = [] if command == "synth" else ["--input", str(tiny_container)]
        capsys.readouterr()
        assert main([command, *inputs, *setting, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [line]
        assert not out.exists()


class TestSolverSettings:
    """A solver setting that cannot fit, or a key of the classifier's stopping
    rule, which is a constant, exits 2 with one line naming its key, before
    the chance level or any fold runs.  A ``reg_c`` so large that the
    classifier's Newton system is singular exits 1 with one line naming its
    folds and ``reg_c``."""

    @pytest.mark.parametrize("setting, line", [
        ("clf_max_iter=0", "error: unknown config field 'clf_max_iter' in --set"),
        ("mean_max_iter=0", "error: mean_max_iter must be at least 1, got 0"),
        ("clf_tol=-1", "error: unknown config field 'clf_tol' in --set"),
        ("mean_tol=0", "error: mean_tol must be positive, got 0"),
        ("reg_c=0", "error: reg_c must be positive, got 0"),
    ], ids=["clf_max_iter", "mean_max_iter", "clf_tol", "mean_tol", "reg_c"])
    def test_exits_2_before_chance_and_folds(self, tiny_container, tmp_path, capsys,
                                             monkeypatch, setting, line):
        calls = []
        monkeypatch.setattr(evaluation, "chance_level", lambda *args, **kwargs: calls.append(args))
        monkeypatch.setattr(evaluation, "_fold_split", lambda *args: calls.append(args))
        out = tmp_path / "r.json"
        capsys.readouterr()
        assert main(["compare", "--chance", "--set", setting, "--input", str(tiny_container),
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [line]
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("reg_c", ["1e50", "1e200"])
    def test_singular_newton_system_names_reg_c(self, tiny_container, tmp_path, capsys, reg_c):
        capsys.readouterr()
        assert main(["compare", "--input", str(tiny_container), "--set", f"reg_c={reg_c}",
                     "--folds", "2", "--repeats", "1", "--out", str(tmp_path / "report.json")]) == 1
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [
            f"failure: (repeat 0, folds 0, 1): the Newton system is singular at reg_c "
            f"{float(reg_c)}; a smaller reg_c regularizes it"]
        assert not (tmp_path / "report.json").exists()


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

    def test_fold_error_same_line_at_any_worker_count(self, tiny_container, tmp_path,
                                                     capsys, monkeypatch):
        def fit_many(xs, ys, **kwargs):
            raise NumericalFailure("planted failure")

        monkeypatch.setattr(logreg, "fit_many", fit_many)
        lines = []
        for threads in ("1", "2"):
            capsys.readouterr()
            assert main(["compare", "--input", str(tiny_container), "--threads", threads,
                         "--out", str(tmp_path / "report.json")]) == 1
            lines.append(capsys.readouterr().err.splitlines())
            assert multiprocessing.active_children() == []
        # the 36-epoch training sets of a repeat's 10 riemann folds fit as one stack
        assert lines[0] == lines[1] == [
            "failure: (repeat 0, folds 0, 1, 2, 3, 4, 5, 6, 7, 8, 9): planted failure"]

    def test_karcher_failure_names_its_repeat_and_fold(self, tiny_container, tmp_path, capsys):
        lines = []
        for threads in ("1", "2"):
            capsys.readouterr()
            assert main(["compare", "--input", str(tiny_container), "--set", "mean_max_iter=1",
                         "--folds", "2", "--repeats", "1", "--threads", threads,
                         "--out", str(tmp_path / "report.json")]) == 1
            captured = capsys.readouterr()
            lines.append((captured.out + captured.err).splitlines())
            assert multiprocessing.active_children() == []
        assert len(lines[0]) == 1
        assert lines[0][0].startswith("failure: (repeat 0, fold 0): Karcher mean residual")
        assert lines[0][0].endswith(" after 1 iterations (final step 0.973) at mean_max_iter 1 "
                                    "and mean_tol 0.0001"), lines[0][0]
        assert lines[0] == lines[1]
        assert not (tmp_path / "report.json").exists()

    def test_not_positive_definite_failure_names_the_shrinkage(self, tmp_path, capsys):
        # 4 samples of the riemann window at 8 Hz for 6x6 super-trial covariances
        data, out = tmp_path / "data", tmp_path / "report.json"
        assert main(["synth", "--out", str(data), "--seed", "1", "--set", "n_trials=20",
                     "--set", "n_channels=2", "--set", "fs_hz=8"]) == 0
        capsys.readouterr()
        assert main(["run", "--method", "riemann", "--input", str(data),
                     "--set", "shrinkage=1e-300", "--folds", "2", "--repeats", "1",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [
            "failure: (repeat 0, fold 0): iterate lost positive definiteness at shrinkage 1e-300"]
        assert not out.exists()

    def test_bad_later_input_exits_2_before_any_fold(self, tiny_container, tmp_path, capsys,
                                                     monkeypatch):
        folds = multiprocessing.get_context("fork").Value("i", 0)
        original = evaluation._fold_split

        def fold_split(*args):
            with folds.get_lock():
                folds.value += 1
            return original(*args)

        monkeypatch.setattr(evaluation, "_fold_split", fold_split)
        bad = synth_tiny(tmp_path, "bad")
        (bad / "labels.bin").unlink()
        for later in (tmp_path / "nowhere", bad, zero_channel_container(tmp_path)):
            for command in (["compare", "--input", str(tiny_container), "--chance"],
                            ["run", "--method", "benchmark"], ["chance"]):
                capsys.readouterr()
                assert main([*command, "--input", str(later), "--threads", "2",
                             "--out", str(tmp_path / "report.json")]) == 2
                captured = capsys.readouterr()
                [line] = (captured.out + captured.err).splitlines()
                assert line.startswith(f"error: {later}: "), line
        assert folds.value == 0
        assert not (tmp_path / "report.json").exists()

    def test_one_cpu_mask_starts_no_worker(self, tiny_container, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("started a worker pool on a one-CPU mask")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", no_pool)
        # a preprocess of any size would pool on two CPUs
        monkeypatch.setattr(parallel, "_POOL_MIN_BYTES", 0)
        monkeypatch.setattr(parallel, "_BLOCK_BYTES", 1 << 18)
        assert main(["compare", "--input", str(tiny_container), "--threads", "2",
                     "--out", str(tmp_path / "report.json")]) == 0
        assert main(["preprocess", "--input", str(make_raw(tmp_path)),
                     "--out", str(tmp_path / "ep")]) == 0

    def test_dead_worker_exits_1_with_one_line(self, tiny_container, tmp_path, capsys,
                                               monkeypatch):
        parent = os.getpid()

        def fit_many(xs, ys, **kwargs):
            assert os.getpid() != parent, "the fit ran in the parent"
            os._exit(3)

        monkeypatch.setattr(logreg, "fit_many", fit_many)
        monkeypatch.setattr(parallel, "n_cpus", lambda: 2)
        capsys.readouterr()
        assert main(["run", "--input", str(tiny_container), "--method", "benchmark",
                     "--threads", "2", "--out", str(tmp_path / "run.json")]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("failure: a fold worker process died: ")
        assert multiprocessing.active_children() == []


def _src_env(**extra) -> dict:
    """This environment with ``extra`` and the tested package first on PYTHONPATH."""
    env = {**os.environ, **extra}
    src = str(Path(errpkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_unknown_log_level_exits_2_with_one_line(tiny_container):
    proc = subprocess.run([sys.executable, "-m", "errpkit.cli", "validate",
                           "--input", str(tiny_container)],
                          env=_src_env(ERRP_LOG="bogus"), capture_output=True, text=True)
    assert proc.returncode == 2
    assert (proc.stdout + proc.stderr).splitlines() == [
        "error: ERRP_LOG must be a log level such as INFO or DEBUG, got 'bogus'"]


class TestEmptyProtocol:
    """Fewer than two folds, no repeats or no chance shuffles exits 2 with one
    line that names the flag or the config key, before any input is read."""

    @pytest.mark.parametrize("command, line", [
        (["run", "--method", "benchmark", "--repeats", "0"],
         "error: --repeats must be at least 1, got 0"),
        (["run", "--method", "benchmark", "--repeats", "-1"],
         "error: --repeats must be at least 1, got -1"),
        (["chance", "--folds", "5", "--repeats", "1", "--set", "n_chance_shuffles=0"],
         "error: config field 'n_chance_shuffles' must be at least 1, got 0"),
        (["compare", "--folds", "1"], "error: --folds must be at least 2, got 1"),
        (["compare", "--set", "folds=1"], "error: config field 'folds' must be at least 2, got 1"),
        (["compare", "--set", "repeats=0"],
         "error: config field 'repeats' must be at least 1, got 0"),
        (["compare", "--chance", "--set", "n_chance_shuffles=0"],
         "error: config field 'n_chance_shuffles' must be at least 1, got 0"),
    ], ids=["repeats-0", "repeats-negative", "chance-shuffles-0", "folds-1", "config-folds-1",
            "config-repeats-0", "compare-chance-shuffles-0"])
    def test_exits_2(self, tiny_container, tmp_path, capsys, monkeypatch, command, line):
        reads = []
        monkeypatch.setattr(io, "read_epoch_container", lambda path: reads.append(path))
        out = tmp_path / "r.json"
        capsys.readouterr()
        assert main([*command, "--input", str(tiny_container), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [line]
        assert reads == []
        assert not out.exists()

    def test_shuffles_unchecked_without_the_chance_level(self, tiny_container, tmp_path):
        assert main(["run", "--method", "benchmark", "--set", "n_chance_shuffles=0",
                     "--folds", "2", "--repeats", "1", "--input", str(tiny_container),
                     "--out", str(tmp_path / "r.json")]) == 0


    def test_compare_rejects_no_shuffles_before_any_fold(self, tiny_container, tmp_path,
                                                         capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(evaluation, "run_cv", lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "r.json"
        capsys.readouterr()
        assert main(["compare", "--chance", "--set", "n_chance_shuffles=0",
                     "--input", str(tiny_container), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [
            "error: config field 'n_chance_shuffles' must be at least 1, got 0"]
        assert calls == []
        assert not out.exists()


class TestShortWindow:
    """A window too short for a method exits 2 with one line that names the
    input and the window, before any fold runs; where both methods' windows
    are too short, the riemann window's line comes first."""

    @pytest.mark.parametrize("fs_hz, line", [
        ("8", "error: {data}: window [0.1, 0.2] s has fewer than 2 samples "
         "(manifest fs_hz 8.0, t0_offset_s -0.5)"),
        ("0.5", "error: {data}: window [0.1, 0.6] s has fewer than 2 samples "
                "(manifest fs_hz 0.5, t0_offset_s -0.5)"),
    ], ids=["benchmark-window", "riemann-window"])
    def test_exits_2_before_any_fold(self, tmp_path, capsys, monkeypatch, fs_hz, line):
        data, out = tmp_path / "data", tmp_path / "r.json"
        assert main(["synth", "--out", str(data), "--seed", "1", "--set", "n_trials=20",
                     "--set", "n_channels=2", "--set", f"fs_hz={fs_hz}"]) == 0
        calls = []
        fold_split = evaluation._fold_split
        monkeypatch.setattr(evaluation, "_fold_split",
                            lambda *args: calls.append(args) or fold_split(*args))
        capsys.readouterr()
        assert main(["compare", "--input", str(data), "--out", str(out),
                     "--folds", "2", "--repeats", "1"]) == 2
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [line.format(data=data)]
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("key, value, line", [
        ("fs_hz", 128.0, "window [0.1, 0.6] s maps to samples [77, 141) outside the epoch of 80 "
                        "samples (manifest fs_hz 128.0, t0_offset_s -0.5)"),
        ("fs_hz", 1e300, "window [0.1, 0.6] s maps to samples [6e+299, 1.1e+300) outside the "
                         "epoch of 80 samples (manifest fs_hz 1e+300, t0_offset_s -0.5)"),
        ("t0_offset_s", 1e300, "window [0.1, 0.6] s maps to samples [-3.2e+301, -3.2e+301) "
                               "outside the epoch of 80 samples (manifest fs_hz 32.0, "
                               "t0_offset_s 1e+300)"),
    ], ids=["fs-128", "fs-huge", "t0-huge"])
    def test_window_outside_the_epoch_names_the_manifest_fields(self, tmp_path, capsys, key,
                                                                value, line):
        data, out = tmp_path / "data", tmp_path / "r.json"
        assert main(["synth", "--out", str(data), "--seed", "1", "--set", "n_trials=20",
                     "--set", "n_channels=2", "--set", "fs_hz=32"]) == 0
        _set_field(data / "manifest.json", key, value)
        capsys.readouterr()
        assert main(["run", "--method", "riemann", "--input", str(data), "--out", str(out),
                     "--folds", "2", "--repeats", "1"]) == 2
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [f"error: {data}: {line}"]
        assert not out.exists()

    def test_chance_rejects_a_later_short_window_before_any_fold(self, tmp_path, capsys,
                                                                monkeypatch):
        good, short, out = tmp_path / "good", tmp_path / "short", tmp_path / "r.json"
        for path, fs_hz in ((good, "64"), (short, "8")):
            assert main(["synth", "--out", str(path), "--seed", "1", "--set", "n_trials=20",
                         "--set", "n_channels=2", "--set", f"fs_hz={fs_hz}"]) == 0
        calls = []
        fold_split = evaluation._fold_split
        monkeypatch.setattr(evaluation, "_fold_split",
                            lambda *args: calls.append(args) or fold_split(*args))
        capsys.readouterr()
        assert main(["chance", "--input", str(good), "--input", str(short), "--out", str(out),
                     "--folds", "2", "--repeats", "1", "--set", "n_chance_shuffles=2"]) == 2
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [
            f"error: {short}: window [0.1, 0.2] s has fewer than 2 samples "
            "(manifest fs_hz 8.0, t0_offset_s -0.5)"]
        assert calls == []
        assert not out.exists()


class TestShrinkage:
    """A shrinkage the data cannot support exits 2 with one line before the
    chance level and the folds run."""

    @pytest.mark.parametrize("setting, line", [
        ("shrinkage=0", "error: {data}: a 48x48 covariance at shrinkage 0 needs at least 49 "
                        "samples, got 32"),
        ("shrinkage=1.0", "error: shrinkage must be in [0, 1), got 1.0"),
        ("shrinkage=-0.1", "error: shrinkage must be in [0, 1), got -0.1"),
    ], ids=["zero-with-short-window", "one", "negative"])
    def test_exits_2_before_chance_and_folds(self, tmp_path, capsys, monkeypatch, setting, line):
        data, out = tmp_path / "data", tmp_path / "r.json"
        assert main(["synth", "--out", str(data), "--seed", "1", "--set", "n_trials=40",
                     "--set", "n_channels=16", "--set", "fs_hz=64.0"]) == 0
        calls = []
        fold_split = evaluation._fold_split
        monkeypatch.setattr(evaluation, "_fold_split",
                            lambda *args: calls.append(args) or fold_split(*args))
        capsys.readouterr()
        assert main(["compare", "--chance", "--set", setting, "--set", "n_chance_shuffles=2",
                     "--input", str(data), "--out", str(out), "--folds", "2", "--repeats", "1"]) == 2
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [line.format(data=data)]
        assert calls == []
        assert not out.exists()

    def test_later_dataset_exits_2_before_any_fold(self, tmp_path, capsys, monkeypatch):
        """The second container's 48x48 covariances are singular without
        shrinkage; the first container's 9x9 ones are not."""
        first, second, out = tmp_path / "c3", tmp_path / "c16", tmp_path / "r.json"
        for path, channels in ((first, 3), (second, 16)):
            assert main(["synth", "--out", str(path), "--seed", "1", "--set", "n_trials=40",
                         "--set", f"n_channels={channels}", "--set", "fs_hz=64.0"]) == 0
        calls = []
        monkeypatch.setattr(evaluation, "_fold_split", lambda *args: calls.append(args))
        capsys.readouterr()
        assert main(["compare", "--chance", "--set", "shrinkage=0", "--input", str(first),
                     "--input", str(second), "--out", str(out), "--folds", "2",
                     "--repeats", "1"]) == 2
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [
            f"error: {second}: a 48x48 covariance at shrinkage 0 needs at least 49 samples, "
            "got 32"]
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("command, setting, line", [
        (["run", "--method", "benchmark"], "shrinkage=5",
         "error: shrinkage must be in [0, 1), got 5"),
        (["compare"], "shrinkage=1.0", "error: shrinkage must be in [0, 1), got 1.0"),
        (["chance"], "shrinkage=-0.1", "error: shrinkage must be in [0, 1), got -0.1"),
    ], ids=["run-benchmark", "compare", "chance"])
    def test_out_of_range_exits_2_before_reading(self, tmp_path, capsys, monkeypatch, command,
                                                 setting, line):
        """Every command checks the shrinkage, whether riemann runs or not."""
        reads, out = [], tmp_path / "r.json"
        monkeypatch.setattr(io, "read_epoch_container", lambda path: reads.append(path))
        capsys.readouterr()
        assert main([*command, "--set", setting, "--input", str(tmp_path / "missing"),
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [line]
        assert reads == []
        assert not out.exists()


class TestPlanBeforeFolds:
    """An input no fold plan covers exits 2 with one line before any fold runs."""

    @staticmethod
    def exits_2(argv, capsys, monkeypatch, line):
        calls = []
        monkeypatch.setattr(evaluation, "_fold_split", lambda *args: calls.append(args))
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [line]
        assert calls == []

    @pytest.mark.parametrize("command", [["run", "--method", "benchmark"], ["chance"],
                                         ["compare"]], ids=["run-benchmark", "chance", "compare"])
    def test_one_class_input(self, tmp_path, capsys, monkeypatch, command):
        data, out = synth_tiny(tmp_path), tmp_path / "r.json"
        (data / "labels.bin").write_bytes(bytes(40))  # every trial a success
        self.exits_2([*command, "--input", str(data), "--out", str(out)], capsys, monkeypatch,
                     f"error: {data}: labels must hold both classes, got [0]")
        assert not out.exists()

    def test_later_input_too_small_for_k(self, tmp_path, capsys, monkeypatch):
        first, out = synth_tiny(tmp_path, "a"), tmp_path / "r.json"
        second = tmp_path / "b"
        assert main(["synth", "--out", str(second), "--seed", "4", *TINY,
                     "--set", "n_trials=12"]) == 0
        self.exits_2(["compare", "--input", str(first), "--input", str(second), "--folds", "8",
                      "--repeats", "3", "--out", str(out)], capsys, monkeypatch,
                     f"error: {second}: every class needs at least folds=8 epochs, "
                     "got counts {0: 6, 1: 6}")
        assert not out.exists()


class TestUnusableOut:
    """An ``--out`` that cannot be written exits 2 with one line before the
    command reads any input or runs any fold, and a failed write exits 2."""

    CASES = {  # id -> (argv before --out, --out under tmp_path, the error after --out)
        "synth-under-file": (["synth"], "file/x", ": {tmp}/file is not a directory"),
        "preprocess-file": (["preprocess", "--input", "{raw}"], "file",
                            ": {tmp}/file is not a directory"),
        "preprocess-under-file": (["preprocess", "--input", "{raw}"], "file/ep",
                                  ": {tmp}/file is not a directory"),
        "run-dir": (["run", "--method", "benchmark", "--input", "{data}"], "dir",
                    ": {tmp}/dir is a directory"),
        "compare-under-file": (["compare", "--input", "{data}"], "file/r.json",
                               ": {tmp}/file is not a directory"),
        "compare-dir": (["compare", "--input", "{data}"], "dir", ": {tmp}/dir is a directory"),
        "chance-dir": (["chance", "--input", "{data}"], "dir", ": {tmp}/dir is a directory"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exits_2_before_reading(self, tiny_container, tmp_path, capsys, monkeypatch, case):
        head, out, error = self.CASES[case]
        (tmp_path / "file").write_bytes(b"x")
        (tmp_path / "dir").mkdir()
        names = {"tmp": tmp_path, "data": tiny_container, "raw": tmp_path / "raw"}
        if "{raw}" in head:
            make_raw(tmp_path)
        calls = []
        for module, name in ((io, "read_epoch_container"), (io, "read_continuous_container"),
                             (synth, "generate_dataset"), (evaluation, "_fold_split")):
            monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
        capsys.readouterr()
        out = tmp_path / out
        assert main([*(arg.format(**names) for arg in head), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [
            f"error: --out {out}{error.format(**names)}"]
        assert calls == []
        assert (tmp_path / "file").read_bytes() == b"x"
        assert list((tmp_path / "dir").iterdir()) == []

    def test_emit_erp_csv_path_exits_2_before_reading(self, tiny_container, tmp_path, capsys,
                                                      monkeypatch):
        taken = tmp_path / "out" / "r_accuracies.csv"
        taken.mkdir(parents=True)
        calls = []
        monkeypatch.setattr(evaluation, "_fold_split", lambda *args: calls.append(args))
        capsys.readouterr()
        assert main(["compare", "--input", str(tiny_container), "--emit-erp", "--folds", "2",
                     "--repeats", "1", "--out", str(tmp_path / "out" / "r.json")]) == 2
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [
            f"error: --out {taken}: {taken} is a directory"]
        assert calls == []
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []

    def test_failed_write_exits_2_with_one_line(self, tiny_container, tmp_path, capsys,
                                                monkeypatch):
        def write_report(path, report):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(io, "write_report", write_report)
        capsys.readouterr()
        out = tmp_path / "r.json"
        assert main(["run", "--method", "benchmark", "--input", str(tiny_container),
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [
            f"error: [Errno 13] Permission denied: '{out}'"]


class TestWindowSettings:
    """A baseline window that is not one (start, stop) pair, or an analysis
    window key, which is a constant, exits 2 with one line before the input
    is read."""

    @pytest.mark.parametrize("command, setting, line", [
        ("preprocess", "baseline_window_s=[0.1]",
         "error: baseline_window_s must be a (start, stop) pair with start < stop, got [0.1]"),
        ("preprocess", "baseline_window_s=[-0.5, -0.2, 0.0]",
         "error: baseline_window_s must be a (start, stop) pair with start < stop, "
         "got [-0.5, -0.2, 0.0]"),
        ("compare", "riemann_window_s=[0.1]",
         "error: unknown config field 'riemann_window_s' in --set"),
        ("compare", "riemann_window_s=[0.6, 0.1]",
         "error: unknown config field 'riemann_window_s' in --set"),
        ("compare", "benchmark_windows_s=[]",
         "error: unknown config field 'benchmark_windows_s' in --set"),
        ("compare", "benchmark_windows_s=[[0.1, 0.2], [0.3]]",
         "error: unknown config field 'benchmark_windows_s' in --set"),
    ], ids=["baseline-one", "baseline-three", "riemann-one", "riemann-reversed",
            "benchmark-none", "benchmark-one"])
    def test_exits_2_before_reading(self, tmp_path, capsys, command, setting, line):
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, "--input", str(tmp_path / "absent"), "--out", str(out),
                     "--set", setting]) == 2
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [line]
        assert not out.exists()


class TestChanceCommand:
    def test_writes_chance_doc(self, shared_tmp, tiny_container):
        out = shared_tmp / "chance.json"
        assert main(["chance", "--input", str(tiny_container), "--seed", "9",
                     "--folds", "5", "--repeats", "1",
                     "--set", "n_chance_shuffles=10", "--out", str(out)]) == 0
        chance = read_report(out)["datasets"][0]["chance"]
        assert chance["n_shuffles"] == 10
        assert 0.2 <= chance["mean_accuracy"] <= 0.8


class TestOneReport:
    """``run``, ``chance`` and ``compare`` write one schema with shared seeds."""

    @pytest.fixture(scope="class")
    def reports(self, shared_tmp, tiny_container):
        two = synth_tiny(shared_tmp, "one_report_second", seed=22)
        flags = ["--input", str(tiny_container), "--input", str(two), "--seed", "13",
                 "--folds", "4", "--repeats", "2", "--set", "n_chance_shuffles=3"]
        commands = {
            "compare": ["compare", "--chance"],
            "riemann": ["run", "--method", "riemann"],
            "benchmark": ["run", "--method", "benchmark"],
            "chance": ["chance"],
        }
        out = {}
        for name, command in commands.items():
            path = shared_tmp / f"one_report_{name}.json"
            assert main([*command, *flags, "--out", str(path)]) == 0
            out[name] = read_report(path)
        return out

    def test_every_report_is_version_4_with_every_dataset(self, reports):
        for name, rep in reports.items():
            assert rep["format_version"] == REPORT_VERSION == 4
            assert sorted(rep) == REPORT_KEYS
            assert sorted(rep["config"]) == CONFIG_KEYS
            assert rep["config"]["n_chance_shuffles"] == (3 if name in ("compare", "chance")
                                                          else None)
            assert len(rep["datasets"]) == 2

    def test_run_reproduces_compare_method_blocks(self, reports):
        for method in ("riemann", "benchmark"):
            for run, cmp in zip(reports[method]["datasets"], reports["compare"]["datasets"]):
                assert list(run["methods"]) == [method]
                assert run["methods"][method] == cmp["methods"][method]
                assert run["plan"] == cmp["plan"]
                assert run["audit"] == {method: cmp["audit"][method]}
                assert run["t_test"] is None and run["chance"] is None
            assert reports[method]["permutation_test"] is None

    def test_chance_reproduces_compare_chance_block(self, reports):
        for ch, cmp in zip(reports["chance"]["datasets"], reports["compare"]["datasets"]):
            assert ch["chance"] == cmp["chance"]
            assert ch["methods"] == {} and ch["audit"] == {} and ch["t_test"] is None
        assert reports["chance"]["permutation_test"] is None
        assert sorted(reports["compare"]["permutation_test"]) == PERMUTATION_KEYS

    def test_audit_has_no_reference_fit(self, reports):
        audit = reports["compare"]["datasets"][0]["audit"]
        assert sorted(audit["riemann"]) == ["prototype_sha256_failure",
                                            "prototype_sha256_success"]
        assert sorted(audit["benchmark"]) == ["scale"]


@pytest.mark.parametrize("command, benchmark_rows, reads", [
    (["compare", "--chance"], 2, 4), (["chance"], 2, 2), (["run", "--method", "benchmark"], 2, 2),
    (["run", "--method", "riemann"], 0, 4),
], ids=["compare-chance", "chance", "run-benchmark", "run-riemann"])
def test_each_input_is_featurized_once(tiny_container, tmp_path, featurizer_calls, monkeypatch,
                                       command, benchmark_rows, reads):
    """The audit, the chance level and the benchmark folds share one set of
    benchmark rows per input, in this process and in the fold workers.  Each
    input is read once, and once more only for the riemann folds."""
    second = synth_tiny(tmp_path, "second", seed=4)
    paths, original = [], io.read_epoch_container
    monkeypatch.setattr(io, "read_epoch_container",
                        lambda path: paths.append(path) or original(path))
    assert main([*command, "--input", str(tiny_container), "--input", str(second),
                 "--folds", "2", "--repeats", "1", "--set", "n_chance_shuffles=2",
                 "--threads", "2", "--out", str(tmp_path / "r.json")]) == 0
    assert featurizer_calls()["benchmark_features"] == benchmark_rows
    assert len(paths) == reads, paths


def test_compare_holds_one_dataset_at_a_time(tmp_path):
    """Four inputs peak within a fifth of one input's peak (tracemalloc, in
    process), so the inputs are not all held at once."""
    inputs = [tmp_path / f"in{seed}" for seed in range(4)]
    for seed, path in enumerate(inputs):
        assert main(["synth", "--out", str(path), "--seed", str(seed), "--set", "n_trials=120",
                     "--set", "n_channels=16", "--set", "fs_hz=128.0"]) == 0

    def compare(paths):
        return main(["compare", *(arg for path in paths for arg in ("--input", str(path))),
                     "--folds", "2", "--repeats", "1", "--emit-erp",
                     "--out", str(tmp_path / f"r{len(paths)}.json")])

    assert compare(inputs[:1]) == 0  # first-call allocations out of the measurement
    one_code, one = traced_peak(compare, inputs[:1])
    four_code, four = traced_peak(compare, inputs)
    assert one_code == four_code == 0
    assert four <= 1.2 * one, (one, four)


@pytest.mark.parametrize("preset, printed", [(None, "1"), ("3", "3")])
def test_import_pins_blas_threads_unless_set(preset, printed):
    env = _src_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = "import errpkit, os; print(os.environ['OPENBLAS_NUM_THREADS'])"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == printed + "\n"


def _loaded_by_cli_import(module: str) -> bool:
    code = f"import sys, errpkit.cli; sys.exit({module!r} in sys.modules)"
    return subprocess.run([sys.executable, "-c", code], env=_src_env()).returncode != 0


def test_cli_import_leaves_scipy_signal_unloaded():
    assert not _loaded_by_cli_import("scipy.signal")


def test_cli_import_leaves_scipy_optimize_unloaded():
    assert not _loaded_by_cli_import("scipy.optimize")


def test_cli_import_leaves_scipy_special_unloaded():
    assert not _loaded_by_cli_import("scipy.special")


def test_cli_import_leaves_scipy_linalg_unloaded():
    assert not _loaded_by_cli_import("scipy.linalg")


def test_cli_import_leaves_multiprocessing_unloaded():
    assert not _loaded_by_cli_import("multiprocessing")


def test_compare_run_and_chance_load_no_scipy(shared_tmp, tiny_container, tmp_path):
    # two datasets at two workers: the t-test, the permutation test and the
    # forked fold pool all run in the compare; then a recording is
    # preprocessed (its filters designed and run) and its epochs validated
    second = synth_tiny(shared_tmp, "no_scipy_second", seed=21)
    flags = ["--input", str(tiny_container), "--input", str(second), "--seed", "5",
             "--folds", "5", "--repeats", "2", "--set", "n_chance_shuffles=2"]
    commands = [["compare", "--chance", "--threads", "2"], ["run", "--method", "riemann"],
                ["chance"]]
    argvs = [[*command, *flags, "--out", str(shared_tmp / f"no_scipy_{command[0]}.json")]
             for command in commands]
    epochs = tmp_path / "ep"
    argvs += [["preprocess", "--input", str(make_raw(tmp_path)), "--out", str(epochs)],
              ["validate", "--input", str(epochs)]]
    code = ("import json, sys\n"
            "from errpkit.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith('scipy'))]))")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=_src_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0, 0]
    assert scipy_modules == []
    rep = read_report(shared_tmp / "no_scipy_compare.json")
    assert rep["permutation_test"]["z"] != 0.0
    assert all(0.0 < block["t_test"]["p"] < 1.0 for block in rep["datasets"])


def make_raw(tmp_path, n_events=4, fs=2048.0):
    rng = np.random.default_rng(0)
    samples = int(fs * (3 * n_events + 3))
    data = (rng.standard_normal((3, samples)) * 10).astype(np.float32).astype(np.float64)
    events = [(int(fs * (2 + 3 * i)), 1) for i in range(n_events)]
    rec = ContinuousRecording(fs, ["Fz", "Cz", "Pz"], data, events)
    return write_continuous_container(tmp_path / "raw", rec, [i % 2 for i in range(n_events)])


_DROP = object()


def _set_field(path: Path, key, value, index=None):
    doc = json.loads(path.read_text())
    target = doc if index is None else doc[index]
    if value is _DROP:
        del target[key]
    else:
        target[key] = value
    path.write_text(json.dumps(doc))


class TestMalformedContainers:
    """Each malformed container exits 2 with one short ``error:``/``violation:`` line."""

    @pytest.mark.parametrize("kind, name, key, value, index", [
        ("epochs", "manifest.json", "n_trials", "20", None),
        ("epochs", "manifest.json", "fs_hz", "64", None),
        ("epochs", "manifest.json", "channel_names", 3, None),
        ("epochs", "manifest.json", "format_version", "1", None),
        ("epochs", "manifest.json", "label_codes", {"x": "success"}, None),
        ("continuous", "manifest.json", "fs_hz", _DROP, None),
        ("continuous", "events.json", "sample", "5", 0),
        ("epochs", "manifest.json", "format_version", 2, None),
        ("continuous", "manifest.json", "format_version", 2, None),
    ], ids=["n_trials-string", "fs_hz-string", "channel_names-int",
            "format_version-string", "label_codes-word-key", "continuous-no-fs_hz",
            "event-sample-string", "format_version-newer", "continuous-format_version-newer"])
    def test_exits_2_with_one_line(self, tmp_path, capsys, kind, name, key, value, index):
        if kind == "epochs":
            path = synth_tiny(tmp_path, "bad")
            commands = [["validate", "--input", str(path)],
                        ["run", "--input", str(path), "--method", "benchmark",
                         "--out", str(tmp_path / "r.json")]]
        else:
            path = make_raw(tmp_path)
            commands = [["validate", "--input", str(path)],
                        ["preprocess", "--input", str(path), "--out", str(tmp_path / "ep")]]
        _set_field(path / name, key, value, index)
        for command in commands:
            capsys.readouterr()
            assert main(command) == 2
            captured = capsys.readouterr()
            [line] = (captured.out + captured.err).splitlines()
            assert line.startswith(("error: ", "violation: ")) and len(line) < 200, line
            assert repr(key) in line

    @pytest.mark.parametrize("kind, name, spoil, command, line", [
        ("epochs", "labels.bin", lambda raw: raw[:-1], "compare",
         "error: {path}: labels file has 39 bytes, expected 40"),
        ("epochs", "labels.bin", lambda raw: raw[:-1], "validate",
         "violation: labels file has 39 bytes, expected 40"),
        ("epochs", "manifest.json", lambda raw: b"[]", "validate",
         "violation: manifest is not a JSON object"),
        ("continuous", "events.json", lambda raw: b"{}", "preprocess",
         "error: events.json is not a JSON list"),
        ("continuous", "events.json", lambda raw: b"{}", "validate",
         "violation: events.json is not a JSON list"),
    ], ids=["labels-short-compare", "labels-short-validate", "manifest-list-validate",
            "events-object-preprocess", "events-object-validate"])
    def test_wrong_file_contents_exit_2_with_one_line(self, tmp_path, capsys, kind, name, spoil,
                                                      command, line):
        path = synth_tiny(tmp_path, "bad") if kind == "epochs" else make_raw(tmp_path)
        (path / name).write_bytes(spoil((path / name).read_bytes()))
        out = tmp_path / "out"
        argv = [command, "--input", str(path)] + ([] if command == "validate" else
                                                  ["--out", str(out)])
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [line.format(path=path)]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["compare", "chance"])
    def test_far_epoch_start_exits_2_with_one_line(self, tmp_path, capsys, command):
        path = synth_tiny(tmp_path, "far")
        _set_field(path / "manifest.json", "t0_offset_s", -1e308)
        capsys.readouterr()
        assert main([command, "--input", str(path), "--out", str(tmp_path / "r.json")]) == 2
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [
            f"error: {path}: manifest field 't0_offset_s': time 0.0 s from -1e+308 s at 64.0 Hz "
            "gives no finite sample index"]

    @pytest.mark.parametrize("kind, name", [
        ("continuous", "manifest.json"),
        ("continuous", "events.json"),
        ("epochs", "manifest.json"),
    ], ids=["continuous-manifest", "continuous-events", "epochs-manifest"])
    def test_unparsable_json_names_the_file(self, tmp_path, capsys, kind, name):
        path = synth_tiny(tmp_path, "bad") if kind == "epochs" else make_raw(tmp_path)
        commands = [["validate", "--input", str(path)]]
        if kind == "continuous":
            commands.append(["preprocess", "--input", str(path), "--out", str(tmp_path / "ep")])
        (path / name).write_text("[}")
        for command in commands:
            capsys.readouterr()
            assert main(command) == 2
            captured = capsys.readouterr()
            [line] = (captured.out + captured.err).splitlines()
            assert line.startswith((f"error: unreadable {name}: ",
                                    f"violation: unreadable {name}: ")), line
            assert "line 1 column 2" in line and len(line) < 200, line


class TestPreprocess:
    @pytest.mark.parametrize("setting, line", [
        ("epoch_pre_s=-0.5", "error: epoch_pre_s must be nonnegative, got -0.5"),
        ("epoch_post_s=-2", "error: epoch_post_s must be nonnegative, got -2"),
        ("target_fs_hz=0", "error: target_fs_hz must be positive, got 0"),
        ("bandpass_lo_hz=0", "error: bandpass_lo_hz must be positive, got 0"),
        ("bandpass_lo_hz=150",
         "error: bandpass_lo_hz must be below bandpass_hi_hz, got 150 and 100.0"),
        ("notch_hz=[0]", "error: notch_hz must hold positive frequencies only, got [0]"),
    ], ids=["pre-negative", "post-negative", "target-zero", "bandpass-lo-zero",
            "bandpass-lo-above-hi", "notch-zero"])
    def test_bad_setting_exits_2_before_reading(self, tmp_path, capsys, monkeypatch, setting,
                                                line):
        raw, out = make_raw(tmp_path), tmp_path / "ep"
        reads = []
        monkeypatch.setattr(io, "read_continuous_container", lambda path: reads.append(path))
        capsys.readouterr()
        assert main(["preprocess", "--input", str(raw), "--set", setting, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [line]
        assert reads == []
        assert not out.exists()

    @pytest.mark.parametrize("setting, line", [
        ("epoch_pre_s=1e308",
         "error: time 1e+308 s from 0.0 s at 2048.0 Hz gives no finite sample index"),
        ("epoch_post_s=1e307",
         "error: time 1e+307 s from 0.0 s at 2048.0 Hz gives no finite sample index"),
        ("baseline_window_s=[-1e308, 0.0]",
         "error: time -1e+308 s from -0.5 s at 2048.0 Hz gives no finite sample index"),
        ("target_fs_hz=1e-320", "error: fs 2048.0 / target 1e-320 = inf is not a positive integer"),
        ("bandpass_lo_hz=1e-320", "error: filter edge 1e-320 Hz is too low for fs=2048.0"),
        ("notch_hz=[1e-320]", "error: filter edge 1e-320 Hz is too low for fs=2048.0"),
        ("bandpass_lo_hz=1e-300", "error: bandpass [1e-300, 100.0] Hz at fs=2048.0 gives a "
                                  "filter whose initial state is singular"),
        ("notch_hz=[1e-300]",
         "error: notch 1e-300 Hz at fs=2048.0 gives a filter whose initial state is singular"),
        ("target_fs_hz=1.862645149230957e-09",  # fs / 2**40
         "error: anti-alias lowpass at 7.450580596923829e-10 Hz for fs=2048.0 gives a filter "
         "whose initial state is singular"),
        ("target_fs_hz=0.001953125",  # fs / 2**20
         "error: fs 2048.0 / target 0.001953125 = 1048576 leaves no sample of an epoch of "
         "5120 samples"),
    ], ids=["pre-huge", "post-huge", "baseline-huge", "target-tiny", "bandpass-lo-tiny",
            "notch-tiny", "bandpass-lo-singular", "notch-singular", "lowpass-singular",
            "target-no-sample"])
    def test_extreme_setting_exits_2_with_one_line(self, tmp_path, capsys, setting, line):
        raw, out = make_raw(tmp_path), tmp_path / "ep"
        capsys.readouterr()
        assert main(["preprocess", "--input", str(raw), "--set", setting, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [line]
        assert not out.exists()


    @pytest.mark.parametrize("settings, line", [
        (["baseline_window_s=[-1.0, 0.0]"],
         "error: baseline_window_s [-1.0, 0.0] s maps to samples [-1024, 1024) outside the "
         "epoch of 5120 samples (epoch_pre_s 0.5, epoch_post_s 2.0)"),
        (["baseline_window_s=[-1.0, 0.0]", "baseline_before_downsample=false"],
         "error: baseline_window_s [-1.0, 0.0] s maps to samples [-128, 128) outside the "
         "epoch of 640 samples (epoch_pre_s 0.5, epoch_post_s 2.0)"),
        (["baseline_window_s=[-0.5, 1e300]"],
         "error: baseline_window_s [-0.5, 1e+300] s maps to samples [0, 2.048e+303) outside "
         "the epoch of 5120 samples (epoch_pre_s 0.5, epoch_post_s 2.0)"),
    ], ids=["before-downsample", "after-downsample", "huge"])
    def test_baseline_outside_the_epoch_exits_2_naming_it(self, tmp_path, capsys, settings,
                                                          line):
        raw, out = make_raw(tmp_path), tmp_path / "ep"
        capsys.readouterr()
        assert main(["preprocess", "--input", str(raw), *(f"--set={s}" for s in settings),
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [line]
        assert not out.exists()
    def test_full_pipeline_shapes(self, tmp_path):
        raw = make_raw(tmp_path)
        out = tmp_path / "epochs"
        assert main(["preprocess", "--input", str(raw), "--out", str(out)]) == 0
        es = read_epoch_container(out)
        assert es.data.shape == (4, 3, 640)
        assert es.fs_hz == 256.0
        assert es.t0_offset_s == -0.5
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["skipped_events"] == []

    def test_container_records_only_its_own_settings(self, tmp_path):
        raw = make_raw(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["preprocess", "--input", str(raw), "--out", str(a)]) == 0
        assert main(["preprocess", "--input", str(raw), "--set", "folds=3", "--out", str(b)]) == 0
        for name in ("manifest.json", "data.bin", "labels.bin"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        recorded = json.loads((a / "manifest.json").read_text())["preprocess"]
        assert sorted(recorded) == sorted(f.name for f in dataclasses.fields(PreprocessSpec))

    def test_nan_sample_exits_2_with_one_line(self, tmp_path, capsys):
        raw = make_raw(tmp_path)
        data = bytearray((raw / "data.bin").read_bytes())
        data[400:404] = np.array([np.nan], dtype="<f4").tobytes()
        (raw / "data.bin").write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["preprocess", "--input", str(raw), "--out", str(tmp_path / "ep")]) == 2
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [
            "error: data file holds 1 non-finite samples"
        ]
        assert not (tmp_path / "ep").exists()

    @pytest.mark.parametrize("name, key, value, line", [
        ("data.bin", None, None, "error: missing data.bin"),
        ("manifest.json", "fs_hz", 0, "error: fs_hz must be positive"),
        ("manifest.json", "channel_names", ["Fz", "Cz"],
         "error: channel_names has 2 entries, expected 3"),
        ("events.json", "label", 7, "error: event field 'label' contains undeclared codes [7]"),
        ("events.json", "sample", 10**9,
         "error: event 1 field 'sample' is 1000000000, outside recording of 30720 samples"),
    ], ids=["no-data", "fs_hz-0", "channel-count", "event-label", "event-past-the-end"])
    def test_malformed_container_exits_2_before_filtering(self, tmp_path, capsys, monkeypatch,
                                                          name, key, value, line):
        raw = make_raw(tmp_path)
        if key is None:
            (raw / name).unlink()
        else:
            _set_field(raw / name, key, value, index=1 if name == "events.json" else None)
        # counts calls in this process and in forked filter workers alike
        calls = multiprocessing.get_context("fork").Value("i", 0)
        original = preprocessing._filter_rows

        def filter_rows(*args, **kwargs):
            with calls.get_lock():
                calls.value += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(preprocessing, "_filter_rows", filter_rows)
        capsys.readouterr()
        assert main(["preprocess", "--input", str(raw), "--out", str(tmp_path / "ep")]) == 2
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [line]
        assert calls.value == 0
        assert not (tmp_path / "ep").exists()

    def test_one_channel_exits_2_before_filtering(self, tmp_path, capsys, monkeypatch):
        data = np.random.default_rng(0).standard_normal((1, 8192))
        raw = write_continuous_container(
            tmp_path / "raw", ContinuousRecording(2048.0, ["Cz"], data, [(2048, 1)]), [0])

        def filter_rows(*args, **kwargs):
            raise AssertionError("filtered a one-channel recording")

        monkeypatch.setattr(preprocessing, "_filter_rows", filter_rows)
        capsys.readouterr()
        assert main(["preprocess", "--input", str(raw), "--out", str(tmp_path / "ep")]) == 2
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [
            "error: average reference needs at least 2 channels"]
        assert not (tmp_path / "ep").exists()

    @staticmethod
    def two_cpus(monkeypatch, cpus=2):
        """``cpus`` CPUs to run on, blocks of 1 channel (3 row jobs) whose
        epochs are cut 3 events at a time (blocks of 3 and 1), and no lower
        bound on the bytes a pool needs."""
        monkeypatch.setattr(parallel, "n_cpus", lambda: cpus)
        monkeypatch.setattr(parallel, "_BLOCK_BYTES", 1 << 17)
        monkeypatch.setattr(parallel, "_POOL_MIN_BYTES", 0)

    def test_small_recording_stays_in_process_at_two_cpus(self, tmp_path, monkeypatch,
                                                         worker_filter_calls):
        raw = make_raw(tmp_path)
        rec, _ = read_continuous_container(raw)
        assert 8 * rec.data.size < parallel._POOL_MIN_BYTES
        outputs = []
        for cpus in (1, 2):
            monkeypatch.setattr(parallel, "n_cpus", lambda: cpus)
            out = tmp_path / f"ep{cpus}"
            assert main(["preprocess", "--input", str(raw), "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("data.bin", "labels.bin", "manifest.json")])
        assert worker_filter_calls.value == 0
        assert outputs[0] == outputs[1]

    def test_same_bytes_at_one_and_two_cpus(self, tmp_path, monkeypatch, worker_filter_calls):
        raw = make_raw(tmp_path)
        outputs = []
        for cpus in (1, 2):
            self.two_cpus(monkeypatch, cpus=cpus)
            out = tmp_path / f"ep{cpus}"
            assert main(["preprocess", "--input", str(raw), "--out", str(out)]) == 0
            assert multiprocessing.active_children() == []
            outputs.append([(out / name).read_bytes()
                            for name in ("data.bin", "labels.bin", "manifest.json")])
            # in this process at one CPU; on workers at two: 3 row jobs of one
            # cascaded pass and 2 lowpass calls
            assert worker_filter_calls.value == (0 if cpus == 1 else 3 * (1 + 2))
        assert outputs[0] == outputs[1]

    def test_dead_filter_worker_exits_1_with_one_line(self, tmp_path, capsys, monkeypatch):
        parent = os.getpid()

        def zero_phase(*args, **kwargs):
            assert os.getpid() != parent, "the filter ran in the parent"
            os._exit(3)

        monkeypatch.setattr(preprocessing, "_zero_phase", zero_phase)
        self.two_cpus(monkeypatch)
        raw = make_raw(tmp_path)
        capsys.readouterr()
        assert main(["preprocess", "--input", str(raw), "--out", str(tmp_path / "ep")]) == 1
        captured = capsys.readouterr()
        [line] = (captured.out + captured.err).splitlines()
        assert line.startswith("failure: a filter worker process died: ")
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "ep").exists()

    def test_events_of_other_codes_are_skipped(self, tmp_path):
        fs = 512.0
        data = np.random.default_rng(1).standard_normal((3, int(fs * 20)))
        # feedback events (code 1) labelled 1, 0, 1 between markers (code 2) labelled 0
        events = [(int(fs * t), code) for t, code in
                  [(1.0, 2), (2.0, 1), (5.0, 1), (6.5, 2), (9.0, 1)]]
        rec = ContinuousRecording(fs, ["Fz", "Cz", "Pz"], data, events)
        raw = write_continuous_container(tmp_path / "raw", rec, [0, 1, 0, 0, 1])
        out = tmp_path / "ep"
        assert main(["preprocess", "--input", str(raw), "--out", str(out)]) == 0
        assert (out / "labels.bin").read_bytes() == bytes([1, 0, 1])

    def test_no_events_exits_2(self, tmp_path):
        raw = make_raw(tmp_path)
        out = tmp_path / "epochs"
        assert main(["preprocess", "--input", str(raw), "--out", str(out),
                     "--set", "event_code=99"]) == 2
