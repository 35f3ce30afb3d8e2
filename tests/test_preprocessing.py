import multiprocessing
import tracemalloc

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
    bandpass,
    notch,
    preprocess_recording,
)

from conftest import whole_array_reference

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
        out = bandpass(rec, 1.0, 100.0)
        assert np.abs(out.data).max() < 0.05  # < 1% of the input amplitude

    def test_midband_passes(self):
        x, _ = sinusoid(10.0)
        out = bandpass(one_channel(x), 1.0, 100.0)
        amp = measured_amplitude(out.data[0], 10.0)
        assert 0.88 <= amp <= 1.12

    def test_subband_attenuated(self):
        x, _ = sinusoid(0.1, seconds=40.0)
        out = bandpass(one_channel(x), 1.0, 100.0)
        assert measured_amplitude(out.data[0], 0.1) < 0.10

    def test_invalid_band(self):
        rec = one_channel(np.zeros(4096))
        with pytest.raises(InvalidFilterSpec):
            bandpass(rec, 100.0, 1.0)
        with pytest.raises(InvalidFilterSpec):
            bandpass(rec, 1.0, 2000.0)


class TestNotch:
    def test_notch_frequency_removed(self):
        x, _ = sinusoid(50.0)
        out = notch(one_channel(x), 50.0)
        assert measured_amplitude(out.data[0], 50.0) <= 0.01

    def test_neighbour_passes(self):
        x, _ = sinusoid(20.0)
        out = notch(one_channel(x), 50.0)
        amp = measured_amplitude(out.data[0], 20.0)
        assert 0.88 <= amp <= 1.12

    def test_zero_in_zero_out(self):
        out = notch(one_channel(np.zeros(8192)), 50.0)
        assert np.abs(out.data).max() == 0.0

    def test_invalid_frequency(self):
        with pytest.raises(InvalidFilterSpec):
            notch(one_channel(np.zeros(4096)), 2000.0)


class TestFilterProperties:
    def test_linearity(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(int(4 * FS))
        y = rng.standard_normal(int(4 * FS))
        a, b = 2.5, -1.25
        fx = bandpass(one_channel(x), 1.0, 100.0).data
        fy = bandpass(one_channel(y), 1.0, 100.0).data
        fxy = bandpass(one_channel(a * x + b * y), 1.0, 100.0).data
        assert np.abs(fxy - (a * fx + b * fy)).max() < 1e-8

    def test_zero_phase_lag(self):
        x, _ = sinusoid(10.0)
        for out in (
            bandpass(one_channel(x), 1.0, 100.0),
            notch(one_channel(x), 50.0),
        ):
            y = out.data[0]
            n = x.size
            sl = slice(n // 4, 3 * n // 4)
            lags = range(-5, 6)
            corr = [np.dot(y[sl], np.roll(x, lag)[sl]) for lag in lags]
            assert list(lags)[int(np.argmax(corr))] == 0


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


def with_channel_offsets(monkeypatch, offsets):
    """Add a constant per channel right after the pipeline's re-reference, so
    the epochs reach the baseline step with those offsets."""
    original = preprocessing._rereference

    def rereference_then_offset(data):
        original(data)
        data += np.asarray(offsets)[:, None]

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
        with_channel_offsets(monkeypatch, [7.5, -7.5, 0.0])
        rec = ContinuousRecording(FS, ["a", "b", "c"], np.zeros((3, int(10 * FS))), self.EVENTS)
        for baseline_first in (True, False):
            assert np.abs(self.run(rec, baseline_first)).max() < 1e-12

    def test_only_offset_changes(self, monkeypatch):
        rec = random_recording(3, 10.0, self.EVENTS, seed=4)
        plain = [self.run(rec, baseline_first) for baseline_first in (True, False)]
        with_channel_offsets(monkeypatch, self.OFFSETS)
        for baseline_first, expected in zip((True, False), plain):
            assert np.abs(self.run(rec, baseline_first) - expected).max() < 1e-10

    def test_window_mean_vanishes(self, monkeypatch):
        rec = random_recording(4, 10.0, self.EVENTS, seed=5)
        calls = filter_calls(monkeypatch)
        self.run(rec, baseline_first=True)
        epoch_blocks = [block for block in calls if block.ndim == 3]  # full-rate epochs
        assert sum(len(block) for block in epoch_blocks) == 3
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
        # blocks of 2 of the 5 channels and 3 of the 7 kept epochs
        block = 300 * 1024
        assert block // (8 * self.N_SAMPLES) == 2
        assert block // (8 * self.N_CHANNELS * int(2.5 * self.FS)) == 3
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
        assert (es.fs_hz, es.t0_offset_s) == (256.0, -0.5)

    def test_pooled_equals_whole_array_filtering(self, monkeypatch, worker_filter_calls):
        # three row jobs (2, 2 and 1 channels) and three event jobs (3, 3 and 1
        # epochs) on two forked workers
        monkeypatch.setattr(parallel, "_BLOCK_BYTES", 300 * 1024)
        monkeypatch.setattr(parallel, "_POOL_MIN_BYTES", 0)
        monkeypatch.setattr(parallel, "n_cpus", lambda: 2)
        rec, labels = self.recording(np.float32)
        for baseline_first in (True, False):
            spec = PreprocessSpec(baseline_before_downsample=baseline_first)
            es, skipped = preprocess_recording(rec, labels, spec, n_workers=2)
            expected, kept_labels = whole_array_reference(rec, labels, spec)
            assert skipped == [7, 8]
            assert list(es.labels) == kept_labels
            assert np.array_equal(es.data, expected)
            assert multiprocessing.active_children() == []
        # per baseline order: 3 row jobs of 3 stages, 3 event jobs of one lowpass
        assert worker_filter_calls.value == 2 * (3 * 3 + 3)

    # event times in s of layouts whose 2.5 s windows the store merges; the
    # windows at 1.0 to 8.5 s of "touching" start 2,560 samples apart and
    # make one segment
    LAYOUTS = {
        "overlapping": [1.0, 2.0, 2.5, 6.0, 7.0, 13.5],
        "unsorted": [8.0, 1.0, 13.5, 4.5, 11.0, 0.2, 3.0],
        "one-sample": [3.0, 3.0, 9.0, 3.0, 17.0],
        "touching": [1.0, 3.5, 6.0, 8.5, 12.0],
    }

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_merged_windows_equal_whole_array_filtering(self, monkeypatch, layout, n_workers):
        monkeypatch.setattr(parallel, "_BLOCK_BYTES", 300 * 1024)
        monkeypatch.setattr(parallel, "_POOL_MIN_BYTES", 0)
        monkeypatch.setattr(parallel, "n_cpus", lambda: 2)
        rec, _ = self.recording(np.float32)
        rec.events = [(int(self.FS * t), 1) for t in self.LAYOUTS[layout]]
        labels = [i % 2 for i in range(len(rec.events))]
        stored = []
        original = preprocessing._filter_rows

        def spy(data, *args, **kwargs):
            out = original(data, *args, **kwargs)
            stored.append(out.shape[-1])
            return out

        monkeypatch.setattr(preprocessing, "_filter_rows", spy)
        for baseline_first in (True, False):
            spec = PreprocessSpec(baseline_before_downsample=baseline_first)
            es, _ = preprocess_recording(rec, labels, spec, n_workers=n_workers)
            expected, kept_labels = whole_array_reference(rec, labels, spec)
            assert list(es.labels) == kept_labels
            assert np.array_equal(es.data, expected)
            assert multiprocessing.active_children() == []
        windows = set().union(*(range(s - 512, s + 2048) for s, _ in rec.events
                                if 512 <= s <= self.N_SAMPLES - 2048))
        assert stored[0] == len(windows) < self.N_SAMPLES

    def test_peak_memory_is_bounded_by_four_times_float32_input(self):
        fs, n_channels = 512.0, 16
        rng = np.random.default_rng(22)
        data = (rng.standard_normal((n_channels, int(120 * fs))) * 20).astype(np.float32)
        events = [(int(fs * (2 + 3 * i)), 1) for i in range(39)]
        rec = ContinuousRecording(fs, [f"c{i}" for i in range(n_channels)], data, events)
        labels = [i % 2 for i in range(len(events))]
        preprocess_recording(  # loads scipy.signal outside the measurement
            ContinuousRecording(fs, ["a", "b"], data[:2, :4096], [(1024, 1)]), [0])
        tracemalloc.start()
        try:
            es, _ = preprocess_recording(rec, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert es.data.shape == (39, n_channels, 640)
        # one worker by default: plain arrays that tracemalloc sees, no shared memory
        assert es.data.flags.owndata
        assert peak <= 4 * data.nbytes, peak / data.nbytes

    def test_sparse_events_store_only_their_windows(self):
        # 12 epochs of 2.5 s, 10 s apart, cover a quarter of the recording
        fs, n_channels = 512.0, 16
        rng = np.random.default_rng(24)
        data = (rng.standard_normal((n_channels, int(120 * fs))) * 20).astype(np.float32)
        events = [(int(fs * (2 + 10 * i)), 1) for i in range(12)]
        rec = ContinuousRecording(fs, [f"c{i}" for i in range(n_channels)], data, events)
        preprocess_recording(  # loads scipy.signal outside the measurement
            ContinuousRecording(fs, ["a", "b"], data[:2, :4096], [(1024, 1)]), [0])
        tracemalloc.start()
        try:
            es, _ = preprocess_recording(rec, [i % 2 for i in range(12)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
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
        out32 = bandpass(one_channel(x), 1.0, 100.0).data
        out64 = bandpass(one_channel(x.astype(np.float64)), 1.0, 100.0).data
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
        preprocessing._drop_mapped_pages(data[1:2])
        assert np.array_equal(data, expected)
