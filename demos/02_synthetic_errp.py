"""Fabricating a feedback-ERP dataset: staircase behavior plus epochs.

A one-up/one-down staircase drives a simulated observer through a
two-alternative discrimination task, producing a realistic stream of
success/failure outcomes.  Failure feedback evokes an early frontocentral
negativity followed by a stronger late positivity; both are planted in
1/f noise, and the class-conditional averages recover them.

Run:  python3 demos/02_synthetic_errp.py
"""
import errpkit  # noqa: F401  # first: it pins BLAS to one thread before numpy loads

import numpy as np

from errpkit.labels import FAILURE, SUCCESS
from errpkit.synth import (
    ErpTemplateSpec,
    PsychometricModel,
    SynthSpec,
    estimate_threshold,
    generate_epochs,
    simulate_labels,
)

# ---------------------------------------------------------------------------
# Behavior: the staircase holds the task near threshold, so the observer
# is wrong on a substantial fraction of trials - exactly what an
# error-detection dataset needs.
# ---------------------------------------------------------------------------
behavior = SynthSpec(n_trials=300, label_source="staircase")
labels, blocks = simulate_labels(behavior, seed=1)
pc = 100.0 * np.mean(labels == SUCCESS)
print(f"observer: {pc:.1f}% correct over 300 trials "
      f"({np.sum(labels == FAILURE)} failure trials)")
print(f"reversal-based threshold estimate: {estimate_threshold(blocks):.5f} "
      f"(Weibull scale parameter was {PsychometricModel().threshold_alpha})")

# ---------------------------------------------------------------------------
# Epochs: 32 channels at 256 samples/s, from 0.5 s before feedback to
# 2 s after.  The failure-only negativity peaks at 150 ms, the shared
# positivity at 300 ms with a failure-weighted amplitude.
# ---------------------------------------------------------------------------
template = ErpTemplateSpec(frn_amp_uv=-8.0, p3a_amp_uv=6.0, noise_rms_uv=9.0)
epochs = generate_epochs(labels, template, n_channels=32, fs_hz=256.0, seed=1,
                         pre_s=0.5, post_s=2.0)
print(f"epochs: {epochs.data.shape} (trials x channels x samples), "
      f"t0 = {epochs.t0_offset_s} s")

fz = epochs.channels.index("Fz")
t = np.arange(epochs.n_samples) / epochs.fs_hz + epochs.t0_offset_s
succ = epochs.data[epochs.labels == SUCCESS, fz].mean(axis=0, dtype=np.float64)
fail = epochs.data[epochs.labels == FAILURE, fz].mean(axis=0, dtype=np.float64)
diff = fail - succ

peak_neg = t[np.argmin(diff)]
peak_pos = t[np.argmax(diff)]
print(f"difference wave at Fz: most negative at {peak_neg * 1000:.0f} ms "
      f"({diff.min():.2f} uV), most positive at {peak_pos * 1000:.0f} ms "
      f"({diff.max():.2f} uV)")

print("\nfailure-minus-success at Fz, 0 to 500 ms:")
for ms in range(0, 501, 50):
    idx = int((ms / 1000.0 - epochs.t0_offset_s) * epochs.fs_hz)
    bar = "#" * int(abs(diff[idx]) * 4)
    sign = "-" if diff[idx] < 0 else "+"
    print(f"  {ms:4d} ms  {diff[idx]:+6.2f} uV  {sign}{bar}")
