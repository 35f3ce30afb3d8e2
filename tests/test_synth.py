import concurrent.futures.process
import multiprocessing
import warnings

import numpy as np
import pytest

from errpkit import parallel
from errpkit.errors import EmptyInput, InsufficientData, InvalidInput, InvalidWindow
from errpkit.labels import FAILURE, SUCCESS
from errpkit.synth import (
    ErpTemplateSpec,
    PsychometricModel,
    SynthSpec,
    class_templates,
    default_topography,
    estimate_threshold,
    generate_epochs,
    generate_labels,
    simulate_labels,
    staircase_run,
    N_BLOCKS,
    STANDARD_32,
    STEP_FACTOR,
)

DEFAULT = SynthSpec()
ALPHA = PsychometricModel().threshold_alpha
STEPS = dict(start_contrast=ALPHA, step_factor=STEP_FACTOR)


class TestPsychometric:
    def test_monotone_in_contrast(self):
        m = PsychometricModel(threshold_alpha=0.01, slope_beta=3.0, lapse=0.02)
        cs = np.geomspace(1e-4, 0.1, 40)
        ps = [m.p_correct(c) for c in cs]
        assert all(b >= a for a, b in zip(ps, ps[1:]))
        assert ps[0] >= 0.5
        assert ps[-1] <= 1.0 - m.lapse + 1e-12

    def test_lapse_bounds(self):
        with pytest.raises(ValueError):
            PsychometricModel(lapse=0.2)


class TestStaircase:
    def test_one_up_one_down_steps(self):
        m = PsychometricModel(threshold_alpha=0.01)
        run = staircase_run(m, 200, start_contrast=0.02, step_factor=1.3, seed=0)
        for t in range(199):
            if run.correct[t]:
                assert np.isclose(run.contrasts[t + 1], run.contrasts[t] / 1.3)
            else:
                assert np.isclose(run.contrasts[t + 1], run.contrasts[t] * 1.3)
        assert (run.contrasts > 0).all()

    def test_deterministic_given_seed(self):
        m = PsychometricModel()
        r1 = staircase_run(m, 100, **STEPS, seed=42)
        r2 = staircase_run(m, 100, **STEPS, seed=42)
        assert np.array_equal(r1.contrasts, r2.contrasts)
        assert np.array_equal(r1.correct, r2.correct)

    def test_step_function_observer_converges_to_half(self):
        m = PsychometricModel(threshold_alpha=0.01, slope_beta=500.0, lapse=0.0)
        run = staircase_run(m, 10_000, start_contrast=0.01, step_factor=1.5, seed=1)
        assert abs(run.percent_correct() - 50.0) <= 3.0

    def test_default_observer_percent_correct_band(self):
        pcs = []
        for seed in range(30):
            labels, _ = simulate_labels(DEFAULT, seed=seed)
            pcs.append(100.0 * np.mean(labels == SUCCESS))
        assert 55.0 <= np.mean(pcs) <= 60.0


class TestEstimateThreshold:
    def test_constant_reversals(self):
        m = PsychometricModel()
        run = staircase_run(m, 120, **STEPS, seed=2)
        forced = type(run)(run.contrasts, run.correct, np.full(12, 0.01))
        assert np.isclose(estimate_threshold([forced]), 0.01)

    def test_alternating_reversals_geometric_mean(self):
        m = PsychometricModel()
        run = staircase_run(m, 120, **STEPS, seed=3)
        revs = np.array([0.002, 0.008] * 5)
        forced = type(run)(run.contrasts, run.correct, revs)
        assert np.isclose(estimate_threshold([forced]), np.sqrt(0.002 * 0.008))

    def test_too_few_reversals(self):
        m = PsychometricModel()
        run = staircase_run(m, 120, **STEPS, seed=4)
        forced = type(run)(run.contrasts, run.correct, np.full(3, 0.01))
        with pytest.raises(InsufficientData):
            estimate_threshold([forced])

    def test_monte_carlo_hover_ratio(self):
        # One-up/one-down with a 0.5 guessing floor hovers well below the
        # Weibull scale parameter; the band below was frozen from a 100-seed
        # Monte Carlo run of this generator (mean ratio 0.33 +/- 0.08).
        ests = []
        for seed in range(60):
            _, runs = simulate_labels(SynthSpec(n_trials=300), seed=seed)
            ests.append(estimate_threshold(runs))
        ratio = np.mean(ests) / ALPHA
        assert 0.2 <= ratio <= 0.5


class TestTemplates:
    def test_failure_has_early_negativity(self):
        spec = ErpTemplateSpec(frn_amp_uv=-5.0, p3a_amp_uv=0.0)
        succ, fail = class_templates(spec, 4, 256.0, 0.5, 1.0,
                                     ["Fz", "Cz", "PO7", "O1"])
        t_peak = int((0.15 + 0.5) * 256)
        assert fail[0].min() == pytest.approx(-5.0, abs=0.01)  # grid-quantized peak
        assert succ[0, t_peak] == 0.0
        assert abs(fail[2, t_peak]) < abs(fail[0, t_peak])  # weaker off the target sites

    def test_confound_adds_class_correlated_bump(self):
        base = ErpTemplateSpec(frn_amp_uv=0.0, p3a_amp_uv=0.0, confound_enabled=True)
        succ, fail = class_templates(base, 2, 256.0, 0.5, 1.0, ["Fz", "Cz"])
        assert succ[0].min() == pytest.approx(-1.0, abs=0.01)
        assert fail[0].min() == pytest.approx(-2.0, abs=0.01)

    def test_peak_outside_epoch_rejected(self):
        spec = ErpTemplateSpec(p3a_peak_s=2.5)
        with pytest.raises(InvalidWindow):
            class_templates(spec, 2, 256.0, 0.5, 1.0, ["Fz", "Cz"])

    def test_channel_names_must_match_the_channel_count(self):
        with pytest.raises(ValueError, match="^3 channel names do not match 2 channels$"):
            class_templates(ErpTemplateSpec(), 2, 256.0, 0.5, 1.0, ["Fz", "Cz", "Pz"])

    def test_default_topography_concentrates_frontocentral(self):
        gains = default_topography(STANDARD_32)
        byname = dict(zip(STANDARD_32, gains))
        assert byname["Fz"] == byname["Cz"] == 1.0
        assert byname["O1"] < byname["F3"] < byname["Fz"]
        generic = default_topography([f"ch{i}" for i in range(5)])
        assert np.all(generic == 1.0)


class TestGenerateEpochs:
    def test_shapes_labels_and_rate(self):
        labels = np.array([0, 1, 1, 0, 1])
        es = generate_epochs(labels, n_channels=8, fs_hz=128.0, seed=0,
                             pre_s=0.5, post_s=1.5)
        assert es.data.shape == (5, 8, 256)
        assert np.array_equal(es.labels, labels)
        assert es.t0_offset_s == -0.5

    def test_swapped_labels_mirror_templates_exactly(self):
        spec = ErpTemplateSpec(frn_amp_uv=-6.0, p3a_amp_uv=3.0, noise_rms_uv=0.0)
        labels = np.array([0, 1, 0, 1, 1, 0])
        a = generate_epochs(labels, spec, n_channels=4, fs_hz=128.0, seed=5, pre_s=0.5, post_s=2.0)
        b = generate_epochs(1 - labels, spec, n_channels=4, fs_hz=128.0, seed=5,
                            pre_s=0.5, post_s=2.0)
        mean_s_a = a.data[a.labels == SUCCESS].mean(axis=0)
        mean_f_a = a.data[a.labels == FAILURE].mean(axis=0)
        mean_s_b = b.data[b.labels == SUCCESS].mean(axis=0)
        mean_f_b = b.data[b.labels == FAILURE].mean(axis=0)
        assert np.array_equal(mean_s_a, mean_s_b)
        assert np.array_equal(mean_f_a, mean_f_b)

    def test_class_means_converge_to_templates(self):
        spec = ErpTemplateSpec(frn_amp_uv=-8.0, p3a_amp_uv=4.0, noise_rms_uv=5.0)
        labels = np.arange(400) % 2
        es = generate_epochs(labels, spec, n_channels=2, fs_hz=64.0, seed=6,
                             pre_s=0.25, post_s=0.75)
        succ_t, fail_t = class_templates(spec, 2, 64.0, 0.25, 0.75,
                                         ["ch00", "ch01"])
        noise_only = generate_epochs(
            labels, ErpTemplateSpec(frn_amp_uv=0.0, p3a_amp_uv=0.0, noise_rms_uv=5.0),
            n_channels=2, fs_hz=64.0, seed=6, pre_s=0.25, post_s=0.75)
        noise_sd = noise_only.data.std(axis=(0, 2), ddof=1)[:, None]
        for template, cls in ((succ_t, SUCCESS), (fail_t, FAILURE)):
            sel = es.data[es.labels == cls]
            z = (sel.mean(axis=0) - template) * np.sqrt(sel.shape[0]) / noise_sd
            assert (np.abs(z) < 3.0).mean() > 0.98
            assert np.abs(z).max() < 5.0

    def test_generation_is_order_independent_per_epoch(self):
        spec = ErpTemplateSpec(noise_rms_uv=4.0)
        a = generate_epochs(np.array([0, 1, 0]), spec, n_channels=3, fs_hz=64.0,
                            seed=7, pre_s=0.25, post_s=0.75)
        b = generate_epochs(np.array([0, 1, 0, 1]), spec, n_channels=3, fs_hz=64.0,
                            seed=7, pre_s=0.25, post_s=0.75)
        assert np.array_equal(a.data, b.data[:3])

    def test_empty_labels(self):
        with pytest.raises(EmptyInput):
            generate_epochs(np.array([], dtype=int), n_channels=32, fs_hz=256.0,
                            pre_s=0.5, post_s=2.0)

    def test_float32_quantized_for_container_roundtrip(self):
        es = generate_epochs(np.array([0, 1]), n_channels=2, fs_hz=64.0, seed=8,
                             pre_s=0.25, post_s=0.75)
        assert es.data.dtype == np.float32
        assert np.array_equal(es.data, es.data.astype(np.float32).astype(np.float64))


class TestGenerateOnWorkers:
    """Blocks of epochs on forked workers: the pool rule is the one of
    ``parallel.map_blocks``, applied to the float32 bytes of the epochs."""

    SMALL = dict(n_channels=3, fs_hz=64.0, pre_s=0.25, post_s=0.75, seed=9)  # 768 B an epoch

    @staticmethod
    def no_pool(*args, **kwargs):
        raise AssertionError("started a pool")

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(parallel, "n_cpus", lambda: 2)
        monkeypatch.setattr(parallel, "_BLOCK_BYTES", 1600)  # two epochs a block

    @pytest.mark.parametrize("noise", [4.0, 0.0])
    def test_one_and_two_workers_give_the_same_bytes(self, monkeypatch, two_cpus, noise):
        labels = np.array([0, 1, 1, 0, 1, 0, 0])
        spec = ErpTemplateSpec(noise_rms_uv=noise)
        one = generate_epochs(labels, spec, **self.SMALL)
        monkeypatch.setattr(parallel, "_POOL_MIN_BYTES", 0)
        two = generate_epochs(labels, spec, **self.SMALL)
        assert one.data.flags.owndata and not two.data.flags.owndata  # the shared map
        assert two.data.dtype == np.float32
        assert one.data.tobytes() == two.data.tobytes()
        assert multiprocessing.active_children() == []

    def test_the_first_non_finite_epoch_raises_without_a_warning(self, monkeypatch, capfd,
                                                                   two_cpus):
        monkeypatch.setattr(parallel, "_POOL_MIN_BYTES", 0)
        # forked workers inherit the filter, so a warning in a worker fails its
        # job, and the error raised is then not the epoch line
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="^synthetic epoch 0 is not finite as float32"):
                generate_epochs(np.arange(8) % 2, ErpTemplateSpec(noise_rms_uv=1e300),
                                **self.SMALL)
        assert capfd.readouterr().err == ""
        assert multiprocessing.active_children() == []

    def test_a_set_below_the_pool_bound_starts_no_pool(self, monkeypatch, two_cpus):
        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", self.no_pool)
        n = parallel._POOL_MIN_BYTES // 768 - 1
        es = generate_epochs(np.arange(n) % 2, ErpTemplateSpec(noise_rms_uv=0.0), **self.SMALL)
        assert es.data.flags.owndata
        assert es.data.shape == (n, 3, 64)

    def test_a_set_below_the_pool_bound_is_filled_as_one_block(self, monkeypatch, two_cpus):
        """``map_blocks`` in this process would give the same bytes a block at
        a time, and more slowly: between blocks glibc returns the freed
        temporaries to the system and faults them in again."""
        def block_by_block(*args, **kwargs):
            raise AssertionError("filled block by block")

        monkeypatch.setattr(parallel, "map_blocks", block_by_block)
        es = generate_epochs(np.arange(7) % 2, ErpTemplateSpec(noise_rms_uv=4.0), **self.SMALL)
        assert es.data.flags.owndata
        assert es.data.shape == (7, 3, 64)


class TestSynthSpec:
    def test_balanced_labels_are_a_seeded_permutation(self):
        labels = generate_labels(SynthSpec(n_trials=7), seed=4)
        assert sorted(labels.tolist()) == [0, 0, 0, 0, 1, 1, 1]
        assert np.array_equal(labels, generate_labels(SynthSpec(n_trials=7), seed=4))
        assert not np.array_equal(labels, generate_labels(SynthSpec(n_trials=7), seed=5))

    def test_every_staircase_block_starts_at_the_threshold(self):
        spec = SynthSpec(n_trials=50, label_source="staircase")
        _, runs = simulate_labels(spec, seed=3)
        assert len(runs) == N_BLOCKS == 5
        for run in runs:
            assert run.contrasts[0] == ALPHA
            steps = run.contrasts[1:] / run.contrasts[:-1]
            assert np.allclose(steps, np.where(run.correct[:-1], 1 / STEP_FACTOR, STEP_FACTOR))

    def test_staircase_labels_are_simulate_labels(self):
        spec = SynthSpec(n_trials=52, label_source="staircase")
        assert np.array_equal(generate_labels(spec, seed=2), simulate_labels(spec, seed=2)[0])
        sizes = [run.correct.size for run in simulate_labels(spec, seed=2)[1]]
        assert sizes == [11, 11, 10, 10, 10]
