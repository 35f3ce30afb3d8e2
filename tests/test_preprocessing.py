import concurrent.futures.process
import logging
import multiprocessing
import re

import numpy as np
import pytest

from errpkit import parallel, preprocessing
from errpkit.errors import (
    EmptyInput,
    InsufficientChannels,
    InvalidFilterSpec,
    InvalidResampleFactor,
    InvalidWindow,
)
from errpkit.preprocessing import (
    ContinuousRecording,
    EpochSet,
    PreprocessSpec,
    format_count,
    preprocess_recording,
)

from conftest import assert_near_scipy, one_stage, traced_peak, whole_array_reference

FS = 2048.0


def one_channel(x, fs=FS, events=()):
    return ContinuousRecording(fs, ["ch0"], np.asarray(x)[None, :], list(events))


def sinusoid(freq, fs=FS, seconds=12.0):
    t = np.arange(int(seconds * fs)) / fs
    return np.sin(2 * np.pi * freq * t), t


def measured_amplitude(x, freq, fs=FS):
    """Amplitude of the ``freq`` component over the central half (test oracle)."""
    n = x.shape[-1]
    sl = slice(n // 4, 3 * n // 4)
    t = np.arange(n)[sl] / fs
    seg = x[..., sl]
    phase = np.exp(-2j * np.pi * freq * t)
    return 2.0 * np.abs((seg * phase).mean(axis=-1))


class TestBandpass:
    def test_dc_removed(self):
        rec = one_channel(np.full(int(8 * FS), 5.0))
        out = one_stage(rec, preprocessing._bandpass_stage, 1.0, 100.0)
        assert np.abs(out).max() < 0.05  # < 1% of the input amplitude

    def test_midband_passes(self):
        x, _ = sinusoid(10.0)
        out = one_stage(one_channel(x), preprocessing._bandpass_stage, 1.0, 100.0)
        amp = measured_amplitude(out[0], 10.0)
        assert 0.88 <= amp <= 1.12

    def test_subband_attenuated(self):
        x, _ = sinusoid(0.1, seconds=40.0)
        out = one_stage(one_channel(x), preprocessing._bandpass_stage, 1.0, 100.0)
        assert measured_amplitude(out[0], 0.1) < 0.10

    def test_invalid_band(self):
        rec = one_channel(np.zeros(4096))
        with pytest.raises(InvalidFilterSpec):
            preprocessing._bandpass_stage(rec, 100.0, 1.0)
        with pytest.raises(InvalidFilterSpec):
            preprocessing._bandpass_stage(rec, 1.0, 2000.0)


class TestNotch:
    def test_notch_frequency_removed(self):
        x, _ = sinusoid(50.0)
        out = one_stage(one_channel(x), preprocessing._notch_stage, 50.0)
        assert measured_amplitude(out[0], 50.0) <= 0.01

    def test_neighbour_passes(self):
        x, _ = sinusoid(20.0)
        out = one_stage(one_channel(x), preprocessing._notch_stage, 50.0)
        amp = measured_amplitude(out[0], 20.0)
        assert 0.88 <= amp <= 1.12

    def test_zero_in_zero_out(self):
        out = one_stage(one_channel(np.zeros(8192)), preprocessing._notch_stage, 50.0)
        assert np.abs(out).max() == 0.0

    def test_invalid_frequency(self):
        with pytest.raises(InvalidFilterSpec):
            preprocessing._notch_stage(one_channel(np.zeros(4096)), 2000.0)


class TestFilterProperties:
    def test_linearity(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(int(4 * FS))
        y = rng.standard_normal(int(4 * FS))
        a, b = 2.5, -1.25
        fx = one_stage(one_channel(x), preprocessing._bandpass_stage, 1.0, 100.0)
        fy = one_stage(one_channel(y), preprocessing._bandpass_stage, 1.0, 100.0)
        fxy = one_stage(one_channel(a * x + b * y), preprocessing._bandpass_stage, 1.0, 100.0)
        assert np.abs(fxy - (a * fx + b * fy)).max() < 1e-8

    def test_zero_phase_lag(self):
        x, _ = sinusoid(10.0)
        for out in (
            one_stage(one_channel(x), preprocessing._bandpass_stage, 1.0, 100.0),
            one_stage(one_channel(x), preprocessing._notch_stage, 50.0),
        ):
            y = out[0]
            n = x.size
            sl = slice(n // 4, 3 * n // 4)
            lags = range(-5, 6)
            corr = [np.dot(y[sl], np.roll(x, lag)[sl]) for lag in lags]
            assert list(lags)[int(np.argmax(corr))] == 0



def frequency_response(sos, w):
    """The response at ``w`` rad/sample of the second-order sections ``sos``
    (test oracle)."""
    z = np.exp(-1j * w)[:, None] ** np.arange(3)
    return np.prod((z @ sos[:, :3].T) / (z @ sos[:, 3:].T), axis=1)


# Bounds fixed before the first run: on the frequency responses of the
# designs, and on zero-phase filtering relative to max|expected|
RESPONSE_BOUND = 1e-9
FILTFILT_BOUND = 1e-9


class TestZeroPhase:
    """errpkit's numpy filter designs and blocked zero-phase kernel against
    scipy.signal's (an independent oracle), and the kernel's row
    independence."""

    @pytest.mark.parametrize("fs", [64.0, 250.0, 256.0, 1000.0, 1024.0, 2048.0, 4096.0])
    def test_designs_match_scipy_responses(self, fs):
        from scipy import signal

        nyq = fs / 2
        w = np.linspace(0.0, np.pi, 2049)
        edges = [1e-4 * nyq, 0.01, 1.0, 0.1 * nyq, 0.5 * nyq, 0.9 * nyq, 0.999 * nyq]
        for lo in edges:
            ours = preprocessing._butter(8, lo, fs)
            theirs = signal.butter(8, lo, btype="lowpass", fs=fs, output="sos")
            assert ours.shape == theirs.shape
            assert np.abs(frequency_response(ours, w)
                          - frequency_response(theirs, w)).max() <= RESPONSE_BOUND, lo
            ours = preprocessing._notch(lo, fs)
            b, a = signal.iirnotch(lo, preprocessing.NOTCH_Q, fs=fs)
            assert np.abs(frequency_response(ours, w)
                          - frequency_response(np.concatenate((b, a))[None], w)).max() \
                <= RESPONSE_BOUND, lo
            for hi in (h for h in edges if h > lo):
                ours = preprocessing._butter(2, [lo, hi], fs)
                theirs = signal.butter(2, [lo, hi], btype="bandpass", fs=fs, output="sos")
                assert ours.shape == theirs.shape
                assert np.abs(frequency_response(ours, w)
                              - frequency_response(theirs, w)).max() <= RESPONSE_BOUND, (lo, hi)

    @pytest.mark.parametrize("fs, lo_hz", [(256.0, 0.5), (1024.0, 1.0), (4096.0, 0.1)])
    def test_kernel_matches_scipy_sosfiltfilt(self, fs, lo_hz):
        """Edges near z = 1, where the transposed direct form's states would
        carry a hundredfold growth into the block products, and rows shorter
        than, equal to and past a block, up to padding the whole row."""
        from scipy import signal

        rng = np.random.default_rng(31)
        sos = np.concatenate([preprocessing._butter(2, [lo_hz, 100.0], fs),
                              preprocessing._notch(50.0, fs)])
        for n in (1, 2, 63, 64, 65, 3000, int(30 * fs)):
            x = rng.standard_normal((2, n)).cumsum(axis=1) + 40.0
            for padlen in sorted({0, min(n - 1, 5), n - 1, min(n - 1, round(12 * fs / lo_hz))}):
                expected = signal.sosfiltfilt(sos, x, padtype="even", padlen=padlen)
                got = preprocessing._zero_phase(x, preprocessing._ZeroPhase(sos, padlen))
                assert np.abs(got - expected).max() <= FILTFILT_BOUND * np.abs(x).max(), \
                    (n, padlen)

    def test_row_bits_do_not_depend_on_the_rows_filtered_with_it(self):
        rng = np.random.default_rng(32)
        windows = rng.standard_normal((100, 2560)) * 20
        lowpass = preprocessing._ZeroPhase(preprocessing._butter(8, 102.4, 1024.0), 240)
        whole = preprocessing._zero_phase(windows, lowpass)
        for size in range(1, 101):
            for start in range(0, 100, size):
                part = preprocessing._zero_phase(windows[start:start + size], lowpass)
                assert np.array_equal(part, whole[start:start + size]), (size, start)
        rows = rng.standard_normal((5, int(30 * 1024))) * 20
        chain = preprocessing._ZeroPhase(np.concatenate(
            [preprocessing._butter(2, [1.0, 100.0], 1024.0), preprocessing._notch(50.0, 1024.0)]),
            12288)
        whole = preprocessing._zero_phase(rows, chain)
        for i in range(5):
            assert np.array_equal(preprocessing._zero_phase(rows[i:i + 1], chain), whole[i:i + 1])


def random_recording(n_channels, seconds, events, seed, fs=FS):
    rng = np.random.default_rng(seed)
    return ContinuousRecording(fs, [f"c{i}" for i in range(n_channels)],
                               rng.standard_normal((n_channels, int(seconds * fs))) * 20,
                               list(events))


def filter_calls(monkeypatch):
    """The arrays ``preprocess_recording`` passes to ``_filter_rows``, in call order."""
    calls = []
    original = preprocessing._filter_rows

    def spy(data, *args, **kwargs):
        calls.append(np.array(data))
        return original(data, *args, **kwargs)

    monkeypatch.setattr(preprocessing, "_filter_rows", spy)
    return calls


def with_channel_offsets(monkeypatch, rec, offsets, baseline_first):
    """Add a constant per channel where the epochs of ``rec`` reach the
    pipeline's baseline step: to its filtered rows, from which the full-rate
    epochs are cut, or right after the re-reference of the downsampled
    epochs."""
    offsets = np.asarray(offsets)[:, None]
    if baseline_first:
        original = preprocessing._filter_rows

        def filter_then_offset(rows, stage):
            out = original(rows, stage)
            if rows.shape[-1] == rec.n_samples:  # the recording's rows, not epochs
                assert rows.shape == rec.data.shape, "the test needs one block of rows"
                out += offsets
            return out

        monkeypatch.setattr(preprocessing, "_filter_rows", filter_then_offset)
    else:
        original = preprocessing._rereference

        def rereference_then_offset(data):
            original(data)
            data += offsets

        monkeypatch.setattr(preprocessing, "_rereference", rereference_then_offset)


class TestAverageReference:
    def test_already_zero_mean_unchanged(self):
        data = np.array([[1.0] * 10, [-1.0] * 10])
        out = data.copy()
        preprocessing._rereference(out)
        assert np.array_equal(out, data)

    def test_identical_channels_cancel(self):
        rng = np.random.default_rng(2)
        row = rng.standard_normal(int(6 * FS)) * 20
        rec = ContinuousRecording(FS, ["a", "b"], np.stack([row, row]), [(int(2 * FS), 1)])
        es, _ = preprocess_recording(rec, [0])
        assert np.abs(es.data).max() == 0.0

    def test_column_means_vanish(self):
        events = [(int(FS * t), 1) for t in (1.0, 4.0)]
        es, _ = preprocess_recording(random_recording(32, 7.0, events, seed=0), [0, 1])
        assert np.abs(es.data.mean(axis=1)).max() < 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        once = rng.standard_normal((8, 256)) * 50
        preprocessing._rereference(once)
        twice = once.copy()
        preprocessing._rereference(twice)
        assert np.abs(twice - once).max() < 1e-10

    def test_single_channel_rejected(self):
        rec = one_channel(np.zeros(int(4 * FS)), events=[(int(FS), 1)])
        with pytest.raises(InsufficientChannels):
            preprocess_recording(rec, [0])
        with pytest.raises(InsufficientChannels):
            preprocessing._rereference(np.zeros((1, 10)))


class TestEpochExtract:
    def test_index_arithmetic(self):
        rec = ContinuousRecording(FS, ["a", "b"], np.zeros((2, 20480)), [(10240, 1)])
        starts, length, labels, skipped = preprocessing._event_windows(rec, 1, 0.5, 2.0, [0])
        assert (starts, length, list(labels), skipped) == ([9216], 5120, [0], [])

    def test_edge_event_skipped_and_reported(self):
        rec = random_recording(2, 4.0, [(100, 1), (4096, 1)], seed=3)
        es, skipped = preprocess_recording(rec, [0, 1], PreprocessSpec(epoch_post_s=1.0))
        assert skipped == [0]
        assert len(es) == 1
        assert list(es.labels) == [1]

    def test_three_hundred_events_three_hundred_epochs(self):
        fs = 256.0
        n = 300
        rec = random_recording(2, n + 2, [(int(fs * (i + 1)), 1) for i in range(n)],
                               seed=4, fs=fs)
        es, skipped = preprocess_recording(rec, [i % 2 for i in range(n)],
                                           PreprocessSpec(epoch_post_s=0.5))
        assert len(es) == 300
        assert skipped == []

    def test_no_matching_events(self):
        rec = one_channel(np.zeros(100), events=[(50, 2)])
        with pytest.raises(EmptyInput, match="no events with code 1"):
            preprocess_recording(rec, [])


class TestBaseline:
    EVENTS = [(int(FS * t), 1) for t in (1.0, 4.0, 7.0)]
    OFFSETS = [3.0, -2.0, 10.0]

    def run(self, rec, baseline_first):
        es, _ = preprocess_recording(rec, [0, 1, 0],
                                     PreprocessSpec(baseline_before_downsample=baseline_first))
        return es.data

    def test_constant_channel_zeroed(self, monkeypatch):
        rec = ContinuousRecording(FS, ["a", "b", "c"], np.zeros((3, int(10 * FS))), self.EVENTS)
        for baseline_first in (True, False):
            with monkeypatch.context() as patch:
                with_channel_offsets(patch, rec, [7.5, -7.5, 0.0], baseline_first)
                assert np.abs(self.run(rec, baseline_first)).max() < 1e-12

    def test_only_offset_changes(self, monkeypatch):
        rec = random_recording(3, 10.0, self.EVENTS, seed=4)
        for baseline_first in (True, False):
            plain = self.run(rec, baseline_first)
            with monkeypatch.context() as patch:
                with_channel_offsets(patch, rec, self.OFFSETS, baseline_first)
                assert np.abs(self.run(rec, baseline_first) - plain).max() < 1e-10

    def test_window_mean_vanishes(self, monkeypatch):
        rec = random_recording(4, 10.0, self.EVENTS, seed=5)
        calls = filter_calls(monkeypatch)
        self.run(rec, baseline_first=True)
        # the lowpass takes each channel's full-rate epochs, 5,120 samples long
        epoch_blocks = [block for block in calls if block.shape[-1] == 5120]
        assert sum(len(block) for block in epoch_blocks) == 3 * 4
        for block in epoch_blocks:  # the baseline is [-0.5, 0) s: samples [0, 1024) at 2048 Hz
            assert np.abs(block[..., :1024].mean(axis=-1)).max() < 1e-10
        out = self.run(rec, baseline_first=False)  # samples [0, 128) at 256 Hz
        assert np.abs(out[..., :128].mean(axis=-1)).max() < 1e-10

    def test_window_outside_epoch(self, monkeypatch):
        calls = filter_calls(monkeypatch)
        rec = random_recording(2, 6.0, [(int(2 * FS), 1)], seed=6)
        for baseline_first in (True, False):
            spec = PreprocessSpec(baseline_window_s=(-1.0, 0.0),
                                  baseline_before_downsample=baseline_first)
            with pytest.raises(InvalidWindow):
                preprocess_recording(rec, [0], spec)
        assert calls == []


@pytest.mark.parametrize("n, text", [
    (0, "0"), (2 ** 53, "9007199254740992"), (-2 ** 53, "-9007199254740992"),
    (2 ** 53 + 1, "9.00719e+15"), (25 * 10 ** 299, "2.5e+300"), (-10 ** 300, "-1e+300"),
], ids=["zero", "2**53", "-2**53", "2**53+1", "2.5e300", "-1e300"])
def test_format_count_prints_counts_past_2_53_compactly(n, text):
    assert format_count(n) == text


def sinusoid_epoch(freq):
    """One 10 s epoch of a sinusoid, 2,048 Hz in and 256 Hz out.

    The channels are +x and -x, so the average reference is 0, and the
    bandpass edges lie far from 5 and 120 Hz with no notch, so only the
    anti-alias lowpass shapes those components.
    """
    x, _ = sinusoid(freq, seconds=12.0)
    rec = ContinuousRecording(FS, ["a", "b"], np.stack([x, -x]), [(int(1.0 * FS), 1)])
    spec = PreprocessSpec(bandpass_hi_hz=1000.0, notch_hz=(), epoch_post_s=9.5)
    es, _ = preprocess_recording(rec, [0], spec)
    return es.data[0, 0]


class TestDownsample:
    def test_length_2048_to_256(self):
        rec = random_recording(2, 4.0, [(int(1.0 * FS), 1)], seed=7)
        es, _ = preprocess_recording(rec, [0])
        assert es.data.shape == (1, 2, 640)
        assert es.fs_hz == 256.0
        assert es.t0_offset_s == -0.5

    def test_slow_component_survives(self):
        amp = measured_amplitude(sinusoid_epoch(5.0), 5.0, fs=256.0)
        assert 0.88 <= amp <= 1.12

    def test_above_cutoff_attenuated(self):
        assert measured_amplitude(sinusoid_epoch(120.0), 120.0, fs=256.0) < 0.10

    def test_non_integer_factor(self):
        rec = random_recording(2, 4.0, [(int(1.0 * FS), 1)], seed=8)
        with pytest.raises(InvalidResampleFactor):
            preprocess_recording(rec, [0], PreprocessSpec(target_fs_hz=300.0))


@pytest.mark.parametrize("setting, error", [
    ({"epoch_pre_s": -0.5}, InvalidWindow),
    ({"epoch_post_s": -1.0}, InvalidWindow),
    ({"target_fs_hz": 0.0}, InvalidResampleFactor),
    ({"target_fs_hz": -256.0}, InvalidResampleFactor),
], ids=["pre-negative", "post-negative", "target-zero", "target-negative"])
def test_spec_rejects_a_negative_epoch_or_rate(setting, error):
    [key] = setting
    with pytest.raises(error, match=f"^{key} must be"):
        PreprocessSpec(**setting)


@pytest.mark.parametrize("setting, key", [
    ({"bandpass_lo_hz": 0.0}, "bandpass_lo_hz"),
    ({"bandpass_lo_hz": -1.0}, "bandpass_lo_hz"),
    ({"bandpass_lo_hz": 100.0}, "bandpass_lo_hz"),
    ({"bandpass_lo_hz": 30.0, "bandpass_hi_hz": 20.0}, "bandpass_lo_hz"),
    ({"notch_hz": (50.0, 0.0)}, "notch_hz"),
], ids=["lo-zero", "lo-negative", "lo-at-hi", "lo-above-hi", "notch-zero"])
def test_spec_rejects_a_filter_setting_without_a_rate(setting, key):
    with pytest.raises(InvalidFilterSpec, match=f"^{key} must "):
        PreprocessSpec(**setting)


class TestPipeline:
    def test_end_to_end_shapes(self):
        fs = 2048.0
        rng = np.random.default_rng(6)
        n_events = 6
        samples = int(fs * (n_events * 3 + 2))
        events = [(int(fs * (2 + 3 * i)), 1) for i in range(n_events)]
        rec = ContinuousRecording(
            fs, [f"c{i}" for i in range(4)],
            rng.standard_normal((4, samples)) * 20, events,
        )
        labels = [i % 2 for i in range(n_events)]
        es, skipped = preprocess_recording(rec, labels, PreprocessSpec(target_fs_hz=256.0))
        assert skipped == []
        assert es.data.shape == (n_events, 4, 640)
        assert es.fs_hz == 256.0
        assert es.t0_offset_s == -0.5
        assert list(es.labels) == labels

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_logs_the_seconds_of_each_phase_once(self, monkeypatch, caplog, n_workers):
        monkeypatch.setattr(parallel, "_BLOCK_BYTES", 4096)  # a job per channel
        monkeypatch.setattr(parallel, "_POOL_MIN_BYTES", 0)
        monkeypatch.setattr(parallel, "n_cpus", lambda: n_workers)
        rec = random_recording(3, 6.0, [(int(2 * FS), 1)], seed=9)
        with caplog.at_level(logging.INFO, logger="errpkit"):
            preprocess_recording(rec, [0])
        [line] = [record.getMessage() for record in caplog.records
                  if record.getMessage().startswith("filtered and epoched")]
        assert re.fullmatch(rf"filtered and epoched 3 channels in \d+\.\d{{3}} s on {n_workers} "
                            r"worker\(s\), re-referenced in \d+\.\d{3} s", line), line
        assert all(record.levelno < logging.WARNING for record in caplog.records)


class TestBlockwisePipeline:
    FS = 1024.0
    N_CHANNELS = 5
    N_SAMPLES = int(18 * 1024)

    def recording(self, dtype):
        rng = np.random.default_rng(21)
        data = (rng.standard_normal((self.N_CHANNELS, self.N_SAMPLES)) * 20).astype(dtype)
        # 7 kept events, one too early, one too late, one with another code
        events = [(int(self.FS * t), 1) for t in (1.0, 3.0, 4.5, 6.0, 8.0, 11.0, 13.5)]
        events += [(int(self.FS * 0.2), 1), (int(self.FS * 17.0), 1), (int(self.FS * 9.0), 2)]
        labels = [0, 1, 1, 0, 1, 0, 0, 1, 0]
        rec = ContinuousRecording(self.FS, [f"c{i}" for i in range(self.N_CHANNELS)], data,
                                  events)
        return rec, labels

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("baseline_first", [True, False])
    def test_equals_whole_array_filtering(self, monkeypatch, dtype, baseline_first):
        # blocks of 1 of the 5 channels and 3 of the 7 kept epochs
        block = 64 * 1024
        assert block // (8 * self.N_SAMPLES) == 0
        assert block // (8 * int(2.5 * self.FS)) == 3
        monkeypatch.setattr(parallel, "_BLOCK_BYTES", block)
        rec, labels = self.recording(dtype)
        assert rec.data.dtype == dtype
        spec = PreprocessSpec(baseline_before_downsample=baseline_first)
        es, skipped = preprocess_recording(rec, labels, spec)
        expected, kept_labels = whole_array_reference(rec, labels, spec)
        assert skipped == [7, 8]
        assert list(es.labels) == kept_labels
        assert es.data.dtype == np.float64
        assert np.array_equal(es.data, expected)
        assert_near_scipy(es.data, rec, labels, spec)
        assert (es.fs_hz, es.t0_offset_s) == (256.0, -0.5)

    def test_pooled_equals_whole_array_filtering(self, monkeypatch, worker_filter_calls):
        # five row jobs of one channel each, on two forked workers of one pool
        # per call; each job cuts its channel's epochs in blocks of 3, 3 and 1
        monkeypatch.setattr(parallel, "_BLOCK_BYTES", 64 * 1024)
        monkeypatch.setattr(parallel, "_POOL_MIN_BYTES", 0)
        monkeypatch.setattr(parallel, "n_cpus", lambda: 2)
        pools = []
        pool_class = concurrent.futures.process.ProcessPoolExecutor

        def counted_pool(*args, **kwargs):
            pools.append(args)
            return pool_class(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", counted_pool)
        rec, labels = self.recording(np.float32)
        for baseline_first in (True, False):
            spec = PreprocessSpec(baseline_before_downsample=baseline_first)
            es, skipped = preprocess_recording(rec, labels, spec)
            expected, kept_labels = whole_array_reference(rec, labels, spec)
            assert skipped == [7, 8]
            assert list(es.labels) == kept_labels
            assert np.array_equal(es.data, expected)
            assert_near_scipy(es.data, rec, labels, spec)
            assert multiprocessing.active_children() == []
        assert len(pools) == 2
        # per baseline order: 5 row jobs of one cascaded pass and 3 lowpass calls
        assert worker_filter_calls.value == 2 * 5 * (1 + 3)

    def test_the_cpu_count_picks_the_workers(self, monkeypatch, worker_filter_calls):
        """Past the pool bound the rows are filtered on forked workers at 2
        CPUs and in this process at 1, to the same bytes."""
        monkeypatch.setattr(parallel, "_POOL_MIN_BYTES", 0)
        rec, labels = self.recording(np.float32)
        monkeypatch.setattr(parallel, "n_cpus", lambda: 2)
        pooled, _ = preprocess_recording(rec, labels)
        assert worker_filter_calls.value > 0
        worker_filter_calls.value = 0
        monkeypatch.setattr(parallel, "n_cpus", lambda: 1)
        alone, _ = preprocess_recording(rec, labels)
        assert worker_filter_calls.value == 0
        assert pooled.data.tobytes() == alone.data.tobytes()

    # event times in s of layouts whose 2.5 s windows overlap, repeat, come
    # unsorted or touch (the windows at 1.0 to 8.5 s of "touching" start
    # 2,560 samples apart)
    LAYOUTS = {
        "overlapping": [1.0, 2.0, 2.5, 6.0, 7.0, 13.5],
        "unsorted": [8.0, 1.0, 13.5, 4.5, 11.0, 0.2, 3.0],
        "one-sample": [3.0, 3.0, 9.0, 3.0, 17.0],
        "touching": [1.0, 3.5, 6.0, 8.5, 12.0],
    }

    def layout_recording(self, layout):
        rec, _ = self.recording(np.float32)
        rec.events = [(int(self.FS * t), 1) for t in self.LAYOUTS[layout]]
        return rec, [i % 2 for i in range(len(rec.events))]

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_event_layouts_equal_whole_array_filtering(self, monkeypatch, layout, n_workers):
        monkeypatch.setattr(parallel, "_BLOCK_BYTES", 64 * 1024)
        monkeypatch.setattr(parallel, "_POOL_MIN_BYTES", 0)
        monkeypatch.setattr(parallel, "n_cpus", lambda: n_workers)
        rec, labels = self.layout_recording(layout)
        for baseline_first in (True, False):
            spec = PreprocessSpec(baseline_before_downsample=baseline_first)
            es, _ = preprocess_recording(rec, labels, spec)
            expected, kept_labels = whole_array_reference(rec, labels, spec)
            assert list(es.labels) == kept_labels
            assert np.array_equal(es.data, expected)
            assert_near_scipy(es.data, rec, labels, spec)
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_reference_after_downsampling_matches_reference_first(self, layout):
        """The average reference commutes with the epoching, the baseline and
        the lowpass, so subtracting it from the downsampled epochs moves them
        from the order that re-referenced the filtered recording by rounding
        only."""
        rec, labels = self.layout_recording(layout)
        for baseline_first in (True, False):
            spec = PreprocessSpec(baseline_before_downsample=baseline_first)
            es, _ = preprocess_recording(rec, labels, spec)
            expected, kept_labels = whole_array_reference(rec, labels, spec,
                                                          reference_first=True)
            assert list(es.labels) == kept_labels
            assert np.abs(es.data - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_cascade_matches_one_pass_per_stage_away_from_the_edges(self):
        """One pass of the cascaded bandpass and notches has the zero-phase
        response of one pass per stage; only the start-up transients at the
        recording's edges differ.  Epochs at least ``3 * 4 / bandpass_lo_hz``
        s, the bandpass's padding, from both edges agree within rounding."""
        fs, n_channels, seconds = 512.0, 4, 40
        rng = np.random.default_rng(27)
        data = (rng.standard_normal((n_channels, int(seconds * fs))) * 20).astype(np.float32)
        times = np.arange(1.0, seconds - 2.5, 1.5)
        rec = ContinuousRecording(fs, [f"c{i}" for i in range(n_channels)], data,
                                  [(int(fs * t), 1) for t in times])
        labels = [i % 2 for i in range(len(times))]
        for baseline_first in (True, False):
            spec = PreprocessSpec(baseline_before_downsample=baseline_first)
            edge_s = 3 * 4 / spec.bandpass_lo_hz
            interior = ((times - spec.epoch_pre_s >= edge_s)
                        & (times + spec.epoch_post_s <= seconds - edge_s))
            assert interior.sum() == 9
            es, skipped = preprocess_recording(rec, labels, spec)
            staged, kept_labels = whole_array_reference(rec, labels, spec, staged=True)
            assert skipped == []
            assert list(es.labels) == kept_labels
            assert not np.array_equal(es.data, staged)
            scale = np.abs(es.data[interior]).max()
            assert np.abs(es.data[interior] - staged[interior]).max() <= 1e-12 * scale

    def dense_recording(self):
        """8 channels of 60 s at 512 Hz, with an event every 0.5 s: the kept
        2.5 s windows overlap and hold 4.75 times the recording's samples."""
        fs, n_channels = 512.0, 8
        rng = np.random.default_rng(25)
        data = (rng.standard_normal((n_channels, int(60 * fs))) * 20).astype(np.float32)
        events = [(int(fs * (1 + 0.5 * i)), 1) for i in range(114)]
        rec = ContinuousRecording(fs, [f"c{i}" for i in range(n_channels)], data, events)
        return rec, [i % 2 for i in range(len(events))]

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_dense_events_equal_whole_array_filtering(self, monkeypatch, n_workers):
        monkeypatch.setattr(parallel, "_BLOCK_BYTES", 128 * 1024)  # blocks of 1 row, 12 events
        monkeypatch.setattr(parallel, "_POOL_MIN_BYTES", 0)
        monkeypatch.setattr(parallel, "n_cpus", lambda: n_workers)
        rec, labels = self.dense_recording()
        for baseline_first in (True, False):
            spec = PreprocessSpec(baseline_before_downsample=baseline_first)
            es, skipped = preprocess_recording(rec, labels, spec)
            expected, kept_labels = whole_array_reference(rec, labels, spec)
            assert skipped == []
            assert len(kept_labels) * int(2.5 * rec.fs_hz) >= 4 * rec.n_samples
            assert list(es.labels) == kept_labels
            assert np.array_equal(es.data, expected)
            assert_near_scipy(es.data, rec, labels, spec)
            assert multiprocessing.active_children() == []

    def test_dense_events_are_cut_a_block_at_a_time(self, monkeypatch):
        """At one worker the peak is the float64 epochs plus at most 10 rows of
        the float64 recording, though the windows hold 4.75 rows per channel:
        each channel's windows are cut, baselined and lowpassed a block of
        12 events (half a row) at a time."""
        monkeypatch.setattr(parallel, "_BLOCK_BYTES", 128 * 1024)  # blocks of 1 row, 12 events
        rec, labels = self.dense_recording()
        preprocess_recording(  # first-call set-up outside the measurement
            ContinuousRecording(rec.fs_hz, ["a", "b"], rec.data[:2, :4096], [(1024, 1)]), [0])
        (es, _), peak = traced_peak(preprocess_recording, rec, labels)
        assert es.data.flags.owndata
        row_bytes = 8 * rec.n_samples
        assert peak <= es.data.nbytes + 10 * row_bytes, (peak - es.data.nbytes) / row_bytes

    def test_peak_memory_is_bounded_by_four_times_float32_input(self):
        fs, n_channels = 512.0, 16
        rng = np.random.default_rng(22)
        data = (rng.standard_normal((n_channels, int(120 * fs))) * 20).astype(np.float32)
        events = [(int(fs * (2 + 3 * i)), 1) for i in range(39)]
        rec = ContinuousRecording(fs, [f"c{i}" for i in range(n_channels)], data, events)
        labels = [i % 2 for i in range(len(events))]
        preprocess_recording(  # first-call set-up outside the measurement
            ContinuousRecording(fs, ["a", "b"], data[:2, :4096], [(1024, 1)]), [0])
        (es, _), peak = traced_peak(preprocess_recording, rec, labels)
        assert es.data.shape == (39, n_channels, 640)
        # below the pool bound, so in process: plain arrays that tracemalloc sees
        assert es.data.flags.owndata
        assert peak <= 4 * data.nbytes, peak / data.nbytes

    def test_sparse_events_store_only_their_windows(self):
        # 12 epochs of 2.5 s, 10 s apart, cover a quarter of the recording
        fs, n_channels = 512.0, 16
        rng = np.random.default_rng(24)
        data = (rng.standard_normal((n_channels, int(120 * fs))) * 20).astype(np.float32)
        events = [(int(fs * (2 + 10 * i)), 1) for i in range(12)]
        rec = ContinuousRecording(fs, [f"c{i}" for i in range(n_channels)], data, events)
        preprocess_recording(  # first-call set-up outside the measurement
            ContinuousRecording(fs, ["a", "b"], data[:2, :4096], [(1024, 1)]), [0])
        (es, _), peak = traced_peak(preprocess_recording, rec, [i % 2 for i in range(12)])
        assert es.data.shape == (12, n_channels, 640)
        assert peak <= 1.6 * data.nbytes, peak / data.nbytes


class TestSampleStorage:
    def test_float32_storage_other_dtypes_float64(self):
        assert ContinuousRecording(FS, ["a"], np.zeros((1, 4), np.float32)).data.dtype == np.float32
        assert ContinuousRecording(FS, ["a"], np.zeros((1, 4), np.int16)).data.dtype == np.float64
        assert ContinuousRecording(FS, ["a"], [[1, 2, 3]]).data.dtype == np.float64

    def test_epoch_sets_hold_samples_as_recordings_do(self):
        def epochs(data):
            return EpochSet(data, [0], FS, 0.0, ["a"])

        stored = np.zeros((1, 1, 4), np.float32)
        assert epochs(stored).data is stored
        assert epochs(np.zeros((1, 1, 4), np.int16)).data.dtype == np.float64
        assert epochs([[[1, 2, 3]]]).data.dtype == np.float64

    def test_float32_filters_compute_in_float64(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal(4096).astype(np.float32)
        out32 = one_stage(one_channel(x), preprocessing._bandpass_stage, 1.0, 100.0)
        out64 = one_stage(one_channel(x.astype(np.float64)), preprocessing._bandpass_stage,
                          1.0, 100.0)
        assert out32.dtype == np.float64
        assert np.array_equal(out32, out64)

    @pytest.mark.parametrize("mode", ["r", "c"])
    def test_dropping_mapped_pages_changes_no_value(self, tmp_path, mode):
        """Pages of a read-only map are dropped and read again from the file;
        a copy-on-write map is left as it is, since its pages may hold writes
        that the file does not."""
        path = tmp_path / "x.bin"
        np.arange(3 * 5000, dtype="<f4").tofile(path)
        data = np.asarray(np.memmap(path, dtype="<f4", mode=mode, shape=(3, 5000)))
        if mode == "c":
            data[1, 7] = -1.0
        expected = np.array(data)
        parallel.drop_pages(data[1:2])
        assert np.array_equal(data, expected)
