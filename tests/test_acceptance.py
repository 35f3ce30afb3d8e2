"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy criteria
use fixed seeds, so results are reproducible run to run.
"""
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binomtest

from errpkit import logreg, manifold, preprocessing
from errpkit.cli import main
from errpkit.config import from_config, load_config
from errpkit.evaluation import (
    CVResult,
    Hyperparams,
    chance_level,
    corrected_t_test,
    derive_seed,
    make_fold_plan,
    normal_two_sided_p,
    run_cv,
)
from errpkit.io import canonical_json
from errpkit.preprocessing import ContinuousRecording
from errpkit.synth import (
    ErpTemplateSpec,
    PsychometricModel,
    SynthSpec,
    generate_dataset,
    generate_epochs,
    simulate_labels,
    staircase_run,
)

from conftest import method_rows, one_stage, random_spd
from test_manifold import geodesic_midpoint

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class _report:
    def __init__(self, num, name):
        self.num, self.name = num, name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\nACCEPTANCE {self.num:02d} {self.name}: {status}")
        return False


def test_01_manifold_suite():
    with _report(1, "manifold suite (roundtrip, pair mean, congruence)"):
        t0 = time.monotonic()
        rng = np.random.default_rng(101)
        mats = ([random_spd(rng, 2) for _ in range(50)]
                + [random_spd(rng, 6) for _ in range(40)]
                + [random_spd(rng, 96) for _ in range(14)])
        assert len(mats) >= 100
        for c in mats:
            back = manifold.mat_exp(manifold.mat_log(c))
            assert np.linalg.norm(back - c) < 1e-9 * np.linalg.norm(c)
        for d, n_pairs in ((2, 6), (6, 12), (96, 2)):
            for _ in range(n_pairs):
                a, b = random_spd(rng, d), random_spd(rng, d)
                g = manifold.geometric_mean(np.stack([a, b]), tol=1e-11, max_iter=300).mean
                assert np.linalg.norm(g - geodesic_midpoint(a, b)) < 1e-8
        for _ in range(8):
            sets = np.stack([random_spd(rng, 6) for _ in range(5)])
            w = rng.standard_normal((6, 6)) / np.sqrt(6)
            g = manifold.geometric_mean(sets, tol=1e-11, max_iter=300).mean
            gw = manifold.geometric_mean(w.T @ sets @ w, tol=1e-11, max_iter=300).mean
            assert np.linalg.norm(gw - w.T @ g @ w) < 1e-7
        assert time.monotonic() - t0 < 60.0


def test_02_tangent_isometry():
    with _report(2, "tangent norm equals geodesic distance"):
        rng = np.random.default_rng(202)
        pairs = [(random_spd(rng, 6), random_spd(rng, 6)) for _ in range(80)]
        pairs += [(random_spd(rng, 96), random_spd(rng, 96)) for _ in range(20)]
        for c, g in pairs:
            v = manifold.tangent_project(c, g)
            assert abs(np.linalg.norm(v) - manifold.airm_distance(g, c)) < 1e-8


def test_03_gradient_check():
    with _report(3, "logistic gradient vs central differences"):
        rng = np.random.default_rng(303)
        x = rng.standard_normal((20, 5))
        y = rng.integers(0, 2, 20)
        y[:2] = [0, 1]
        for _ in range(20):
            params = rng.standard_normal(6) * rng.uniform(0.2, 3.0)
            assert logreg.grad_check(params, x, y, reg_c=1.0, h=1e-5) < 1e-5


def test_04_statistics_analytic():
    with _report(4, "analytic statistics reproduction"):
        # two-sided normal tail at the reported z
        assert abs(normal_two_sided_p(4.028) - 5.632e-05) < 1e-7
        # identical inputs under a 10x10 plan: t = 0, p = 1, df = 99
        plan = make_fold_plan(np.arange(300) % 2, k=10, r=10, seed=4)
        acc = np.linspace(0.7, 0.9, 100)
        same = corrected_t_test(
            CVResult("riemann", acc, plan),
            CVResult("benchmark", acc.copy(), plan),
        )
        assert same.t == 0.0 and same.p == 1.0 and same.df == 99
        # variance-correction scaling identity vs the plain paired t
        rng = np.random.default_rng(404)
        d = rng.normal(0.01, 0.03, 100)
        base = rng.uniform(0.6, 0.9, 100)
        res = corrected_t_test(
            CVResult("riemann", base + d, plan),
            CVResult("benchmark", base, plan),
        )
        n = 100
        plain_t = d.mean() / math.sqrt(d.var(ddof=1) / n)
        shrink = math.sqrt((1.0 / n) / (1.0 / n + 1.0 / 9.0))
        assert abs(res.t - plain_t * shrink) < 1e-10


def test_05_null_calibration():
    with _report(5, "null calibration (chance threshold and t-test size)"):
        n_seeds = 50
        below_r = below_b = rejections = 0
        spec = ErpTemplateSpec(frn_amp_uv=0.0, p3a_amp_uv=0.0, noise_rms_uv=8.0)
        labels = np.arange(60) % 2
        for seed in range(n_seeds):
            es = generate_epochs(labels, spec, n_channels=3, fs_hz=64.0,
                                 seed=seed, pre_s=0.25, post_s=0.75)
            plan = make_fold_plan(es.labels, k=10, r=10, seed=derive_seed(seed, 1))
            rows = method_rows(es, "benchmark")
            rr = run_cv(method_rows(es, "riemann"), es.labels, "riemann", plan, n_workers=2)
            rb = run_cv(rows, es.labels, "benchmark", plan, n_workers=2)
            ch = chance_level(rows, es.labels, plan_seed=derive_seed(seed, 2),
                              n_shuffles=50, k=5, r=2, n_workers=2)
            below_r += rr.accuracies.mean() < ch.threshold_97_5
            below_b += rb.accuracies.mean() < ch.threshold_97_5
            rejections += corrected_t_test(rr, rb).p < 0.05
        print(f"\n  below threshold: riemann {below_r}/{n_seeds}, benchmark {below_b}/{n_seeds}; "
              f"t-test rejections {rejections}/{n_seeds}")
        assert below_r >= 0.9 * n_seeds
        assert below_b >= 0.9 * n_seeds
        assert rejections <= 0.1 * n_seeds


def test_06_signal_detection():
    with _report(6, "signal detection at high SNR and zero noise"):
        labels = np.arange(60) % 2
        strong = ErpTemplateSpec(frn_amp_uv=-40.0, p3a_amp_uv=6.0, noise_rms_uv=8.0)
        es = generate_epochs(labels, strong, n_channels=4, fs_hz=64.0, seed=6,
                             pre_s=0.25, post_s=0.75)
        plan = make_fold_plan(es.labels, k=5, r=2, seed=66)
        for method in ("riemann", "benchmark"):
            acc = run_cv(method_rows(es, method), es.labels, method, plan).accuracies.mean()
            assert acc >= 0.95, f"{method} at high SNR: {acc}"
        clean = ErpTemplateSpec(frn_amp_uv=-40.0, p3a_amp_uv=6.0, noise_rms_uv=0.0)
        es0 = generate_epochs(labels, clean, n_channels=4, fs_hz=64.0, seed=7,
                              pre_s=0.25, post_s=0.75)
        plan0 = make_fold_plan(es0.labels, k=5, r=2, seed=67)
        for method in ("riemann", "benchmark"):
            acc = run_cv(method_rows(es0, method), es0.labels, method, plan0).accuracies.mean()
            assert acc >= 0.999, f"{method} at zero noise: {acc}"


def test_07_desk_scale_method_comparison():
    with _report(7, "desk-scale comparison favors the tangent-space method"):
        cfg = load_config(CONFIG_DIR / "desk_benchmark.json")
        assert cfg["frn_amp_uv"] == -cfg["noise_rms_uv"]  # amplitude = 1.0 x noise RMS
        assert cfg["confound_enabled"] is False
        assert cfg["n_trials"] == 300 and cfg["n_channels"] == 32
        hp = from_config(Hyperparams, cfg)
        spec = from_config(SynthSpec, cfg)
        template = from_config(ErpTemplateSpec, cfg)
        wins = losses = 0
        for seed in range(10):
            es = generate_dataset(spec, template, seed)
            plan = make_fold_plan(es.labels, k=cfg["folds"], r=cfg["repeats"],
                                  seed=derive_seed(seed, 1))
            med_r, med_b = (
                float(np.median(run_cv(method_rows(es, method), es.labels, method, plan, hp,
                                       n_workers=2).accuracies))
                for method in ("riemann", "benchmark"))
            wins += med_r > med_b
            losses += med_r < med_b
            print(f"\n  seed {seed}: riemann median {med_r:.4f} vs benchmark {med_b:.4f}")
        p = binomtest(wins, wins + losses, 0.5, alternative="greater").pvalue if wins + losses else 1.0
        print(f"  wins {wins}, losses {losses}, sign-test p = {p:.5f}")
        assert wins > losses
        assert p < 0.05


def test_08_staircase_behavior():
    with _report(8, "staircase convergence and default observer band"):
        step_observer = PsychometricModel(threshold_alpha=0.01, slope_beta=500.0, lapse=0.0)
        run = staircase_run(step_observer, 10_000, start_contrast=0.01,
                            step_factor=1.5, seed=8)
        assert abs(run.percent_correct() - 50.0) <= 3.0
        pcs = [
            100.0 * np.mean(simulate_labels(SynthSpec(), seed=seed)[0] == 0)
            for seed in range(100)
        ]
        mean_pc = float(np.mean(pcs))
        print(f"\n  step observer {run.percent_correct():.2f}%, default observer {mean_pc:.2f}%")
        assert 55.0 <= mean_pc <= 60.0


def test_09_filters():
    with _report(9, "filter attenuation, passband flatness, zero phase"):
        fs = 2048.0
        t = np.arange(int(12 * fs)) / fs

        def rec(x):
            return ContinuousRecording(fs, ["c"], x[None, :])

        def amplitude(x, freq):
            n = x.size
            sl = slice(n // 4, 3 * n // 4)
            ph = np.exp(-2j * np.pi * freq * t[sl])
            return 2.0 * np.abs((x[sl] * ph).mean())

        # notch: >= 40 dB at 50 Hz, within +/- 1 dB at 50 +/- 10 Hz
        x50 = np.sin(2 * np.pi * 50.0 * t)
        y50 = one_stage(rec(x50), preprocessing._notch_stage, 50.0)[0]
        assert amplitude(y50, 50.0) <= 10 ** (-40 / 20)
        for f in (40.0, 60.0):
            xf = np.sin(2 * np.pi * f * t)
            a = amplitude(one_stage(rec(xf), preprocessing._notch_stage, 50.0)[0], f)
            assert 10 ** (-1 / 20) <= a <= 10 ** (1 / 20)
        # bandpass: DC attenuated >= 40 dB, mid-band within +/- 1 dB
        dc = np.full(t.size, 1.0)
        y_dc = one_stage(rec(dc), preprocessing._bandpass_stage, 1.0, 100.0)[0]
        assert np.abs(y_dc[t.size // 4:]).max() <= 0.01
        x10 = np.sin(2 * np.pi * 10.0 * t)
        a10 = amplitude(one_stage(rec(x10), preprocessing._bandpass_stage, 1.0, 100.0)[0], 10.0)
        assert 10 ** (-1 / 20) <= a10 <= 10 ** (1 / 20)
        # zero phase: cross-correlation peak at lag 0 on a mid-band sinusoid
        y = one_stage(rec(x10), preprocessing._bandpass_stage, 1.0, 100.0)[0]
        sl = slice(t.size // 4, 3 * t.size // 4)
        lags = range(-8, 9)
        corr = [np.dot(y[sl], np.roll(x10, lag)[sl]) for lag in lags]
        assert list(lags)[int(np.argmax(corr))] == 0


def test_10_cli_determinism(tmp_path):
    with _report(10, "byte-identical compare reports at any thread count"):
        data = tmp_path / "data"
        overrides = [
            "--set", "n_trials=40", "--set", "n_channels=3", "--set", "fs_hz=64.0",
            "--set", "pre_s=0.25", "--set", "post_s=0.75",
            "--set", "frn_amp_uv=-9.0", "--set", "noise_rms_uv=6.0",
        ]
        assert main(["synth", "--out", str(data), "--seed", "3", *overrides]) == 0

        def run_compare(out, threads):
            code = main([
                "compare", "--input", str(data), "--seed", "5",
                "--folds", "5", "--repeats", "2", "--threads", str(threads),
                "--out", str(out),
            ])
            assert code == 0
            doc = json.loads(Path(out).read_text())
            doc.pop("meta")  # timestamp and wall-clock runtime
            return canonical_json(doc)

        first = run_compare(tmp_path / "r1.json", 1)
        second = run_compare(tmp_path / "r2.json", 2)
        third = run_compare(tmp_path / "r3.json", 4)
        assert first == second == third
