import tracemalloc

import numpy as np
import pytest

from errpkit import preprocessing
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
    average_reference,
    bandpass,
    baseline_subtract_set,
    downsample_set,
    epoch_extract,
    notch,
    preprocess_recording,
)

FS = 2048.0


def one_channel(x, fs=FS, events=()):
    return ContinuousRecording(fs, ["ch0"], np.asarray(x)[None, :], list(events))


def one_epoch(fs, data, t0):
    """A single (n_channels, n_samples) epoch as an EpochSet of length 1."""
    data = np.asarray(data)
    return EpochSet(data[None], [0], fs, t0, [f"ch{i}" for i in range(data.shape[0])])


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


class TestAverageReference:
    def test_already_zero_mean_unchanged(self):
        rec = ContinuousRecording(FS, ["a", "b"], np.array([[1.0] * 10, [-1.0] * 10]))
        out = average_reference(rec)
        assert np.allclose(out.data, rec.data)

    def test_identical_channels_cancel(self):
        rec = ContinuousRecording(FS, ["a", "b", "c"], np.ones((3, 50)))
        assert np.abs(average_reference(rec).data).max() == 0.0

    def test_column_means_vanish(self):
        rng = np.random.default_rng(0)
        rec = ContinuousRecording(FS, [f"c{i}" for i in range(32)],
                                  rng.standard_normal((32, 1000)))
        out = average_reference(rec)
        assert np.abs(out.data.mean(axis=0)).max() < 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        rec = ContinuousRecording(FS, [f"c{i}" for i in range(8)],
                                  rng.standard_normal((8, 256)) * 50)
        once = average_reference(rec)
        twice = average_reference(once)
        assert np.abs(twice.data - once.data).max() < 1e-10

    def test_single_channel_rejected(self):
        with pytest.raises(InsufficientChannels):
            average_reference(one_channel(np.zeros(10)))


class TestEpochExtract:
    def test_index_arithmetic(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((2, 20480))
        rec = ContinuousRecording(FS, ["a", "b"], data, [(10240, 1)])
        es, skipped = epoch_extract(rec, 1, 0.5, 2.0, [0])
        assert skipped == []
        assert es.n_samples == 5120
        assert es.t0_offset_s == -0.5
        assert np.array_equal(es.data[0], data[:, 9216:14336])

    def test_edge_event_skipped_and_reported(self):
        data = np.zeros((2, 8192))
        rec = ContinuousRecording(FS, ["a", "b"], data, [(100, 1), (4096, 1)])
        es, skipped = epoch_extract(rec, 1, 0.5, 1.0, [0, 1])
        assert skipped == [0]
        assert len(es) == 1

    def test_three_hundred_events_three_hundred_epochs(self):
        fs = 256.0
        n = 300
        samples = int(fs * (n + 2) * 1.0)
        rec = ContinuousRecording(
            fs, ["a", "b"], np.zeros((2, samples)),
            [(int(fs * (i + 1)), 1) for i in range(n)],
        )
        es, skipped = epoch_extract(rec, 1, 0.5, 0.5, [i % 2 for i in range(n)])
        assert len(es) == 300
        assert skipped == []

    def test_no_matching_events(self):
        rec = one_channel(np.zeros(100), events=[(50, 2)])
        with pytest.raises(EmptyInput):
            epoch_extract(rec, 1, 0.0, 0.01, [])


class TestBaseline:
    def test_constant_channel_zeroed(self):
        e = one_epoch(256.0, np.full((1, 640), 7.5), -0.5)
        out = baseline_subtract_set(e, (-0.5, 0.0))
        assert np.abs(out.data).max() < 1e-12

    def test_only_offset_changes(self):
        rng = np.random.default_rng(4)
        base = rng.standard_normal((3, 640))
        e1 = one_epoch(256.0, base, -0.5)
        e2 = one_epoch(256.0, base + np.array([[3.0], [-2.0], [10.0]]), -0.5)
        o1 = baseline_subtract_set(e1)
        o2 = baseline_subtract_set(e2)
        assert np.abs(o1.data - o2.data).max() < 1e-10

    def test_window_mean_vanishes(self):
        rng = np.random.default_rng(5)
        e = one_epoch(256.0, rng.standard_normal((4, 640)) * 30, -0.5)
        out = baseline_subtract_set(e, (-0.5, 0.0))
        sl = slice(0, 128)
        assert np.abs(out.data[0, :, sl].mean(axis=1)).max() < 1e-10

    def test_window_outside_epoch(self):
        e = one_epoch(256.0, np.zeros((1, 640)), -0.5)
        with pytest.raises(InvalidWindow):
            baseline_subtract_set(e, (-1.0, 0.0))


class TestDownsample:
    def test_length_2048_to_256(self):
        e = one_epoch(2048.0, np.zeros((2, 5120)), -0.5)
        out = downsample_set(e, 256.0)
        assert out.data.shape == (1, 2, 640)
        assert out.fs_hz == 256.0
        assert out.t0_offset_s == -0.5

    def test_slow_component_survives(self):
        x, _ = sinusoid(5.0, fs=2048.0, seconds=10.0)
        e = one_epoch(2048.0, x[None, :], 0.0)
        out = downsample_set(e, 256.0)
        amp = measured_amplitude(out.data[0, 0], 5.0, fs=256.0)
        assert 0.88 <= amp <= 1.12

    def test_above_cutoff_attenuated(self):
        x, _ = sinusoid(120.0, fs=2048.0, seconds=10.0)
        e = one_epoch(2048.0, x[None, :], 0.0)
        out = downsample_set(e, 256.0)
        assert measured_amplitude(out.data[0, 0], 120.0, fs=256.0) < 0.10

    def test_non_integer_factor(self):
        e = one_epoch(2048.0, np.zeros((1, 4096)), 0.0)
        with pytest.raises(InvalidResampleFactor):
            downsample_set(e, 300.0)


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


def whole_array_reference(rec, labels, spec):
    """The pipeline from whole-array ``sosfiltfilt`` calls (test oracle)."""
    from scipy import signal

    fs, n = rec.fs_hz, rec.n_samples

    def filtfilt(sos, x, order, lo_hz, length):
        padlen = int(min(length - 1, round(3.0 * order * fs / lo_hz)))
        return signal.sosfiltfilt(sos, x, axis=-1, padtype="even", padlen=padlen)

    lo, hi = spec.bandpass_lo_hz, spec.bandpass_hi_hz
    x = filtfilt(signal.butter(2, [lo, hi], btype="bandpass", fs=fs, output="sos"),
                 rec.data.astype(np.float64), 4, lo, n)
    for f0 in spec.notch_hz:
        x = filtfilt(signal.tf2sos(*signal.iirnotch(f0, 35.0, fs=fs)), x, 2, f0, n)
    x = x - x.mean(axis=0, keepdims=True)
    n_pre, n_post = round(spec.epoch_pre_s * fs), round(spec.epoch_post_s * fs)
    kept = [(s, lab) for (s, _), lab in zip(rec.events, labels)
            if s - n_pre >= 0 and s + n_post <= n]
    epochs = np.stack([x[:, s - n_pre:s + n_post] for s, _ in kept])

    def baseline(e, rate):
        a, b = (round((t + spec.epoch_pre_s) * rate) for t in spec.baseline_window_s)
        return e - e[..., a:b].mean(axis=-1, keepdims=True)

    factor = round(fs / spec.target_fs_hz)
    cutoff = 0.4 * spec.target_fs_hz
    lowpass = signal.butter(8, cutoff, btype="lowpass", fs=fs, output="sos")
    n_out = epochs.shape[-1] // factor

    def downsample(e):
        return filtfilt(lowpass, e, 8, cutoff, e.shape[-1])[..., : n_out * factor : factor]

    if spec.baseline_before_downsample:
        epochs = downsample(baseline(epochs, fs))
    else:
        epochs = baseline(downsample(epochs), spec.target_fs_hz)
    return epochs, [lab for _, lab in kept]


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
        monkeypatch.setattr(preprocessing, "_BLOCK_BYTES", block)
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
        assert peak <= 4 * data.nbytes, peak / data.nbytes


class TestSampleStorage:
    def test_float32_storage_other_dtypes_float64(self):
        assert ContinuousRecording(FS, ["a"], np.zeros((1, 4), np.float32)).data.dtype == np.float32
        assert ContinuousRecording(FS, ["a"], np.zeros((1, 4), np.int16)).data.dtype == np.float64
        assert ContinuousRecording(FS, ["a"], [[1, 2, 3]]).data.dtype == np.float64

    def test_float32_filters_compute_in_float64(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal(4096).astype(np.float32)
        out32 = bandpass(one_channel(x), 1.0, 100.0).data
        out64 = bandpass(one_channel(x.astype(np.float64)), 1.0, 100.0).data
        assert out32.dtype == np.float64
        assert np.array_equal(out32, out64)
