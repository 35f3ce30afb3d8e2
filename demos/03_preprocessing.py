"""From a raw continuous recording to clean epochs.

Builds a 2048-samples/s multi-channel recording contaminated with drift
and 50 Hz mains interference, plants a feedback-locked deflection at each
event, then runs the whole chain in one call: bandpass and notches (one
zero-phase pass of their cascaded sections), epoching, baseline
subtraction, downsampling to 256/s, average reference.  The mains hum and
the drift differ from electrode to electrode, so the average reference
alone cannot remove them.

Run:  python3 demos/03_preprocessing.py
"""
import numpy as np

from errpkit.preprocessing import ContinuousRecording, PreprocessSpec, preprocess_recording

rng = np.random.default_rng(3)
fs = 2048.0
n_events = 8
duration = 3.0 * n_events + 4.0
n = int(fs * duration)
t = np.arange(n) / fs
channels = ["Fz", "Cz", "Pz", "Oz"]

# brain-ish broadband activity + slow drift + strong mains hum
data = rng.standard_normal((4, n)) * 8.0
pickup = np.array([1.0, 0.8, 0.6, 0.4])[:, None]     # per-electrode coupling
data += pickup * 40.0 * np.sin(2 * np.pi * 0.05 * t)  # electrode drift
data += pickup * 15.0 * np.sin(2 * np.pi * 50.0 * t)  # mains interference
events = [(int(fs * (2.0 + 3.0 * i)), 1) for i in range(n_events)]
for sample, _ in events:                              # feedback-locked bump
    width = int(0.1 * fs)
    bump = -12.0 * np.exp(-0.5 * ((np.arange(2 * width) - width) / (0.03 * fs)) ** 2)
    data[0, sample + width // 2 : sample + width // 2 + 2 * width] += bump

rec = ContinuousRecording(fs, channels, data, events)
print(f"raw recording: {rec.n_channels} channels x {rec.n_samples} samples at {fs:.0f}/s")

# one call for the whole chain; labels alternate success/failure
labels = [i % 2 for i in range(n_events)]
epochs, skipped = preprocess_recording(rec, labels, PreprocessSpec(target_fs_hz=256.0))
print(f"epochs: {epochs.data.shape} at {epochs.fs_hz:.0f}/s, "
      f"t0 = {epochs.t0_offset_s} s, skipped events: {skipped}")


def amplitude(windows, times, freq):
    """Amplitude of the ``freq`` component of ``windows`` whose samples lie
    at ``times`` s of the recording: a least-squares cosine and sine fit."""
    phase = 2 * np.pi * freq * times.ravel()
    basis = np.stack([np.cos(phase), np.sin(phase)], axis=1)
    coef = np.linalg.lstsq(basis, windows.ravel(), rcond=None)[0]
    return float(np.hypot(*coef))


# Fz in each event's window, raw at 2048/s against the preprocessed epochs
onsets = np.array([sample for sample, _ in events])
windows = onsets[:, None] + np.arange(int(-0.5 * fs), int(2.0 * fs))
epoch_times = windows[:, :: int(fs / epochs.fs_hz)] / fs
for what, freq in (("mains (50 Hz)", 50.0), ("drift (0.05 Hz)", 0.05)):
    print(f"{what} on Fz, raw windows -> epochs: "
          f"{amplitude(rec.data[0, windows], windows / fs, freq):.2f} -> "
          f"{amplitude(epochs.data[:, 0], epoch_times, freq):.4f} uV")
print("cross-channel means after average reference:",
      float(np.abs(epochs.data.mean(axis=1)).max()))

# the default order subtracts the baseline at 2048/s and then runs the
# anti-alias lowpass, so the 256/s window means are small but not 0;
# subtracting it after downsampling makes them 0 to rounding
baseline = epochs.data[:, :, : int(0.5 * 256)]
print("baseline-window channel means, lowpass after the baseline (default):",
      float(np.abs(baseline.mean(axis=2)).max()))
late, _ = preprocess_recording(
    rec, labels, PreprocessSpec(target_fs_hz=256.0, baseline_before_downsample=False))
print("baseline-window channel means, baseline after downsampling:",
      float(np.abs(late.data[:, :, : int(0.5 * 256)].mean(axis=2)).max()))

# the planted deflection survives at the right latency
fz_mean = epochs.data[:, 0].mean(axis=0)
t_epoch = np.arange(epochs.n_samples) / epochs.fs_hz + epochs.t0_offset_s
print(f"planted deflection recovered at "
      f"{t_epoch[np.argmin(fz_mean)] * 1000:.0f} ms on Fz "
      f"({fz_mean.min():.1f} uV)")

# events too close to the recording edges are skipped and reported
rec_short = ContinuousRecording(fs, channels, data[:, : events[-1][0] + 100], events)
short, clipped = preprocess_recording(rec_short, labels, PreprocessSpec(target_fs_hz=256.0))
print(f"with a truncated recording the last event is clipped: {clipped} "
      f"({len(short)} of {n_events} epochs kept)")
