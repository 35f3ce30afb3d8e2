"""Build a continuous container for the ``preprocess_recording`` workload.

``errpkit synth`` writes epoch containers only, so this script lays
``synth.generate_epochs`` output end to end: each labelled trial becomes
one ``PRE_S + POST_S`` stretch of the recording with its event at
``PRE_S``.  Every event lies far enough from the edges for the default
epoch window (0.5 s before, 2.0 s after), so none is skipped.

    PYTHONPATH=src python3 bench/recording.py --n-channels 32 --fs-hz 1024 \
        --n-events 300 --seed 3 --out DIR
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from errpkit import io, synth
from errpkit.preprocessing import ContinuousRecording

EVENT_CODE = 1
PRE_S = 0.75  # seconds of each 3 s stretch before its event
POST_S = 2.25


def build(n_channels: int, fs_hz: float, n_events: int, seed: int):
    """The recording and its per-event labels, fully determined by the arguments."""
    labels = np.random.default_rng([seed, 0x5EC]).permutation(np.arange(n_events) % 2)
    spec = synth.ErpTemplateSpec(frn_amp_uv=-8.0, p3a_amp_uv=3.0, noise_rms_uv=8.0)
    es = synth.generate_epochs(labels, spec, n_channels=n_channels, fs_hz=fs_hz,
                               seed=seed, pre_s=PRE_S, post_s=POST_S)
    data = es.data.transpose(1, 0, 2).reshape(n_channels, -1)
    onset = int(round(PRE_S * fs_hz))
    events = [(i * es.n_samples + onset, EVENT_CODE) for i in range(n_events)]
    rec = ContinuousRecording(fs_hz, list(es.channels), data, events)
    return rec, es.labels.tolist()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-channels", type=int, required=True)
    parser.add_argument("--fs-hz", type=float, required=True)
    parser.add_argument("--n-events", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    rec, labels = build(args.n_channels, args.fs_hz, args.n_events, args.seed)
    io.write_continuous_container(args.out, rec, labels)
    return 0


if __name__ == "__main__":
    sys.exit(main())
