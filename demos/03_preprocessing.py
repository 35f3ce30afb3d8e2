"""From a raw continuous recording to clean epochs.

Builds a 2048-samples/s multi-channel recording contaminated with drift
and 50 Hz mains interference, plants a feedback-locked deflection at each
event, then shows two filter stages alone and runs the whole chain in
one call: bandpass, notches, average reference, epoching, baseline
subtraction, downsampling to 256/s.

Run:  python3 demos/03_preprocessing.py
"""
import errpkit  # noqa: F401  # first: it pins BLAS to one thread before numpy loads

import numpy as np

from errpkit.preprocessing import (
    ContinuousRecording,
    PreprocessSpec,
    bandpass,
    notch,
    preprocess_recording,
)

rng = np.random.default_rng(3)
fs = 2048.0
n_events = 8
duration = 3.0 * n_events + 4.0
n = int(fs * duration)
t = np.arange(n) / fs
channels = ["Fz", "Cz", "Pz", "Oz"]

# brain-ish broadband activity + slow drift + strong mains hum
data = rng.standard_normal((4, n)) * 8.0
data += 40.0 * np.sin(2 * np.pi * 0.05 * t)          # electrode drift
data += 15.0 * np.sin(2 * np.pi * 50.0 * t)          # mains interference
events = [(int(fs * (2.0 + 3.0 * i)), 1) for i in range(n_events)]
for sample, _ in events:                              # feedback-locked bump
    width = int(0.1 * fs)
    bump = -12.0 * np.exp(-0.5 * ((np.arange(2 * width) - width) / (0.03 * fs)) ** 2)
    data[0, sample + width // 2 : sample + width // 2 + 2 * width] += bump

rec = ContinuousRecording(fs, channels, data, events)
print(f"raw recording: {rec.n_channels} channels x {rec.n_samples} samples at {fs:.0f}/s")


def power_at(x, freq):
    ph = np.exp(-2j * np.pi * freq * t[: x.size])
    return 2.0 * np.abs((x * ph).mean())


print(f"50 Hz amplitude before/after notch: "
      f"{power_at(rec.data[0], 50.0):.2f} -> "
      f"{power_at(notch(rec, 50.0).data[0], 50.0):.4f} uV")

filtered = bandpass(rec, 1.0, 100.0)
print(f"drift (0.05 Hz) before/after bandpass: "
      f"{power_at(rec.data[0], 0.05):.1f} -> {power_at(filtered.data[0], 0.05):.3f} uV")

# one call for the whole chain; labels alternate success/failure
labels = [i % 2 for i in range(n_events)]
epochs, skipped = preprocess_recording(rec, labels, PreprocessSpec(target_fs_hz=256.0))
print(f"\nepochs: {epochs.data.shape} at {epochs.fs_hz:.0f}/s, "
      f"t0 = {epochs.t0_offset_s} s, skipped events: {skipped}")
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
