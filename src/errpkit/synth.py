"""Desk-scale data fabrication.

A one-up/one-down staircase driving a simulated Weibull observer produces
realistic success/failure label streams, and an epoch generator plants
class-dependent frontocentral components (an early negativity on failure
trials and a later positivity with a class amplitude difference) in 1/f
noise, with an optional tone-frequency confound bump of fixed shape.  The
staircase runs :data:`N_BLOCKS` blocks of the default
:class:`PsychometricModel`, each starting at its threshold and stepping by
:data:`STEP_FACTOR`; channel gains come from :func:`default_topography`.
:class:`SynthSpec` sets a dataset's size, epoch shape and label source, and
:func:`generate_dataset` builds the dataset ``errpkit synth`` writes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, InsufficientData, InvalidInput, InvalidWindow
from .evaluation import derive_seed
from .labels import FAILURE, SUCCESS
from .preprocessing import EpochSet, sample_index

# 32-channel montage used when no names are given (frontal/central/parietal/occipital rows)
STANDARD_32 = [
    "Fp1", "AF3", "F7", "F3", "FC1", "FC5", "T7", "C3", "CP1", "CP5", "PO7",
    "P3", "POz", "PO3", "O1", "Oz", "O2", "PO4", "P4", "PO8", "CP6", "CP2",
    "C4", "T8", "FC6", "FC2", "F4", "F8", "AF4", "Fp2", "Fz", "Cz",
]

FRONTOCENTRAL = {"Fz", "FC1", "FC2", "Cz"}
_NEAR_FRONTOCENTRAL = {"F3", "F4", "C3", "C4", "AF3", "AF4", "CP1", "CP2"}

STEP_FACTOR = 1.15  # the staircase's contrast ratio between consecutive trials
N_BLOCKS = 5  # staircase blocks that simulate_labels splits its trials into
_N_LAST_REVERSALS = 10  # reversals per block that estimate_threshold averages
# the confound bump: peak and width (s), and amplitude (uV) on success and failure trials
_CONFOUND_PEAK_S, _CONFOUND_WIDTH_S = 0.1375, 0.03
_CONFOUND_AMP_UV = {SUCCESS: -1.0, FAILURE: -2.0}


@dataclass(frozen=True)
class PsychometricModel:
    """2AFC observer: P(correct | c) = guess + (1 - guess - lapse) * Weibull(c)."""

    threshold_alpha: float = 0.004
    slope_beta: float = 3.5
    lapse: float = 0.02
    guess: float = 0.5

    def __post_init__(self):
        if self.threshold_alpha <= 0 or self.slope_beta <= 0:
            raise ValueError("threshold and slope must be positive")
        if not 0.0 <= self.lapse <= 0.1:
            raise ValueError("lapse must lie in [0, 0.1]")

    def p_correct(self, contrast: float) -> float:
        f = 1.0 - np.exp(-((contrast / self.threshold_alpha) ** self.slope_beta))
        return float(self.guess + (1.0 - self.guess - self.lapse) * f)


@dataclass(frozen=True)
class SynthSpec:
    """Size, epoch shape and label stream of a synthetic dataset.

    ``label_source`` is ``"balanced"`` (equal classes in a seeded random
    order) or ``"staircase"`` (:func:`simulate_labels`).  Field names are
    config keys: ``config.DEFAULTS`` takes its entries for them from these
    defaults.
    """

    n_trials: int = 300
    n_channels: int = 32
    fs_hz: float = 256.0
    pre_s: float = 0.5
    post_s: float = 2.0
    label_source: str = "balanced"

    def __post_init__(self):
        for key in ("n_trials", "n_channels"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1, got {getattr(self, key)}")
        if not self.fs_hz > 0:
            raise ValueError(f"fs_hz must be positive, got {self.fs_hz}")
        n_samples = sample_index(self.post_s, -self.pre_s, self.fs_hz)
        if n_samples < 1:
            raise ValueError(f"fs_hz must give at least one sample per epoch, got {self.fs_hz}")
        # numpy makes no array of more bytes than intp counts: neither the
        # float32 epochs nor one float64 epoch, which holds the time axis
        if 4 * max(self.n_trials, 2) * self.n_channels * n_samples > np.iinfo(np.intp).max:
            raise self._too_large()
        if self.label_source not in ("balanced", "staircase"):
            raise ValueError(
                f"label_source must be 'balanced' or 'staircase', got {self.label_source!r}")

    def _too_large(self) -> ValueError:
        n_samples = sample_index(self.post_s, -self.pre_s, self.fs_hz)
        return ValueError(
            f"cannot allocate {self.n_trials} epochs of {self.n_channels} channels x {n_samples} "
            f"samples (the epoch length of fs_hz {self.fs_hz}, pre_s {self.pre_s} and "
            f"post_s {self.post_s})")


@dataclass(frozen=True)
class StaircaseRun:
    """One block's trajectory: presented contrasts, correctness, reversal contrasts."""

    contrasts: np.ndarray
    correct: np.ndarray
    reversals: np.ndarray

    def percent_correct(self) -> float:
        return float(100.0 * self.correct.mean())


def staircase_run(
    model: PsychometricModel,
    n_trials: int,
    start_contrast: float,
    step_factor: float,
    seed: int = 0,
) -> StaircaseRun:
    """One-up/one-down staircase: divide the contrast by ``step_factor``
    after a correct response, multiply after an incorrect one."""
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    if step_factor <= 1.0:
        raise ValueError("step_factor must exceed 1")
    rng = np.random.default_rng(seed)
    contrasts = np.empty(n_trials)
    correct = np.zeros(n_trials, dtype=bool)
    reversals = []
    c = float(start_contrast)
    prev_dir = 0
    for t in range(n_trials):
        contrasts[t] = c
        ok = rng.random() < model.p_correct(c)
        correct[t] = ok
        direction = -1 if ok else 1
        if prev_dir != 0 and direction != prev_dir:
            reversals.append(c)
        prev_dir = direction
        c = c / step_factor if ok else c * step_factor
    return StaircaseRun(contrasts, correct, np.asarray(reversals))


def estimate_threshold(blocks) -> float:
    """Average the last ``_N_LAST_REVERSALS`` reversal contrasts of each block
    in log space, then transform the grand log-mean back to a plain contrast."""
    blocks = list(blocks)
    if not blocks:
        raise InsufficientData("no staircase blocks given")
    block_means = []
    for i, blk in enumerate(blocks):
        if blk.reversals.size < _N_LAST_REVERSALS:
            raise InsufficientData(
                f"block {i} has {blk.reversals.size} reversals, need {_N_LAST_REVERSALS}"
            )
        block_means.append(np.log(blk.reversals[-_N_LAST_REVERSALS:]).mean())
    return float(np.exp(np.mean(block_means)))


def simulate_labels(spec: SynthSpec, seed: int = 0) -> tuple[np.ndarray, list[StaircaseRun]]:
    """Success/failure stream (failure = incorrect) of ``spec.n_trials``
    staircase trials of the default :class:`PsychometricModel`, split as
    evenly as possible into :data:`N_BLOCKS` blocks that each start at its
    threshold; ``spec.label_source`` is not read."""
    model = PsychometricModel()
    per_block = [spec.n_trials // N_BLOCKS] * N_BLOCKS
    for i in range(spec.n_trials % N_BLOCKS):
        per_block[i] += 1
    runs = [
        staircase_run(model, nb, model.threshold_alpha, STEP_FACTOR, seed=derive_seed(seed, b))
        for b, nb in enumerate(per_block) if nb > 0
    ]
    labels = np.concatenate([
        np.where(run.correct, SUCCESS, FAILURE) for run in runs
    ])
    return labels, runs


@dataclass(frozen=True)
class ErpTemplateSpec:
    """Shapes, amplitudes and noise for the synthetic epochs.

    Component shapes are Gaussian bumps, scaled on each channel by
    :func:`default_topography`.  The early negativity rides on failure
    trials only; the later positivity appears in both classes with amplitude
    ``p3a_amp_uv`` on failure and ``p3a_amp_uv * p3a_success_scale`` on
    success.  When ``confound_enabled``, an extra early bump of fixed shape
    and per-class amplitude mimics tone-frequency differences in the
    auditory response.  Field names are config keys: ``config.DEFAULTS``
    takes its entries for them from these defaults.
    """

    frn_peak_s: float = 0.15
    frn_width_s: float = 0.05
    frn_amp_uv: float = -10.0
    p3a_peak_s: float = 0.30
    p3a_width_s: float = 0.08
    p3a_amp_uv: float = 4.0
    p3a_success_scale: float = 0.5
    noise_rms_uv: float = 10.0
    noise_exponent: float = 1.0
    confound_enabled: bool = False

    def __post_init__(self):
        if self.noise_rms_uv < 0:
            raise ValueError("noise RMS cannot be negative")
        if self.frn_width_s <= 0 or self.p3a_width_s <= 0:
            raise ValueError("component widths must be positive")


def default_channel_names(n_channels: int) -> list[str]:
    if n_channels == len(STANDARD_32):
        return list(STANDARD_32)
    return [f"ch{i:02d}" for i in range(n_channels)]


def default_topography(channel_names) -> np.ndarray:
    """Gains concentrated on the frontocentral sites; uniform for generic names."""
    names = list(channel_names)
    if not any(n in FRONTOCENTRAL for n in names):
        return np.ones(len(names))
    gains = []
    for n in names:
        if n in FRONTOCENTRAL:
            gains.append(1.0)
        elif n in _NEAR_FRONTOCENTRAL:
            gains.append(0.5)
        else:
            gains.append(0.1)
    return np.asarray(gains)


def _bump(t: np.ndarray, peak: float, width: float, amp: float) -> np.ndarray:
    return amp * np.exp(-0.5 * ((t - peak) / width) ** 2)


def class_templates(
    spec: ErpTemplateSpec,
    n_channels: int,
    fs_hz: float,
    pre_s: float,
    post_s: float,
    channel_names=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Noise-free per-class mean epochs (success, failure), (n_channels, n_samples)."""
    names = list(channel_names) if channel_names is not None else default_channel_names(n_channels)
    if len(names) != n_channels:
        raise ValueError(f"{len(names)} channel names do not match {n_channels} channels")
    gains = default_topography(names)
    n_samples = sample_index(post_s, -pre_s, fs_hz)
    t = np.arange(n_samples) / fs_hz - pre_s
    for peak in (spec.frn_peak_s, spec.p3a_peak_s):
        if not (-pre_s <= peak <= post_s):
            raise InvalidWindow(f"component peak {peak}s is outside the epoch [{-pre_s}, {post_s}]s")

    success_wave = _bump(t, spec.p3a_peak_s, spec.p3a_width_s,
                         spec.p3a_amp_uv * spec.p3a_success_scale)
    failure_wave = (_bump(t, spec.frn_peak_s, spec.frn_width_s, spec.frn_amp_uv)
                    + _bump(t, spec.p3a_peak_s, spec.p3a_width_s, spec.p3a_amp_uv))
    if spec.confound_enabled:
        success_wave = success_wave + _bump(t, _CONFOUND_PEAK_S, _CONFOUND_WIDTH_S,
                                            _CONFOUND_AMP_UV[SUCCESS])
        failure_wave = failure_wave + _bump(t, _CONFOUND_PEAK_S, _CONFOUND_WIDTH_S,
                                            _CONFOUND_AMP_UV[FAILURE])
    return gains[:, None] * success_wave, gains[:, None] * failure_wave


def _pink_noise(rng: np.random.Generator, n_channels: int, n_samples: int,
                exponent: float, fs_hz: float) -> np.ndarray:
    """Unit-RMS rows of 1/f^exponent noise."""
    white = rng.standard_normal((n_channels, n_samples))
    spec = np.fft.rfft(white, axis=-1)
    freqs = np.fft.rfftfreq(n_samples, d=1.0 / fs_hz)
    shape = np.zeros_like(freqs)
    shape[1:] = freqs[1:] ** (-exponent / 2.0)
    spec *= shape
    x = np.fft.irfft(spec, n=n_samples, axis=-1)
    rms = np.sqrt((x ** 2).mean(axis=-1, keepdims=True))
    rms[rms == 0.0] = 1.0
    return x / rms


def _mixing_matrix(rng: np.random.Generator, n_channels: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n_channels, n_channels)))
    return q


def generate_epochs(
    labels,
    spec: ErpTemplateSpec | None = None,
    *,
    n_channels: int,
    fs_hz: float,
    pre_s: float,
    post_s: float,
    seed: int = 0,
) -> EpochSet:
    """Template-plus-noise epochs, one per label.

    Noise for epoch ``i`` comes from its own stream keyed by
    ``(seed, i)``, so generation order (or parallelism) cannot change the
    output.  Source channels carry a fixed RMS profile and are mixed by a
    random orthonormal matrix, giving correlated channels.  Each epoch is
    computed in float64 and stored as float32, the samples of an epoch
    container, so container round-trips are bit-exact.  An epoch that is not
    finite as float32 raises :class:`InvalidInput`.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise EmptyInput("no labels given")
    spec = spec or ErpTemplateSpec()
    names = default_channel_names(n_channels)
    # a setting too large for float64 or float32 overflows here without a
    # warning, and the epoch it reaches raises below
    with np.errstate(all="ignore"):
        success_t, failure_t = class_templates(spec, n_channels, fs_hz, pre_s, post_s, names)
        n_samples = success_t.shape[1]
        data = np.empty((labels.size, n_channels, n_samples), dtype=np.float32)
        templates = {SUCCESS: success_t, FAILURE: failure_t}

        if spec.noise_rms_uv > 0.0:
            master = np.random.default_rng([int(seed)])
            mix = _mixing_matrix(master, n_channels)
            # unequal source strengths, so the orthonormal mix yields spatially
            # correlated channels rather than an isotropic covariance
            profile = np.geomspace(0.4, 2.5, n_channels)
            profile *= 1.0 / np.sqrt((profile ** 2).mean())
            source_rms = spec.noise_rms_uv * profile
        for i, lab in enumerate(labels):
            if spec.noise_rms_uv > 0.0:
                rng = np.random.default_rng([int(seed), i])
                noise = _pink_noise(rng, n_channels, n_samples, spec.noise_exponent, fs_hz)
                data[i] = templates[int(lab)] + mix @ (source_rms[:, None] * noise)
            else:
                data[i] = templates[int(lab)]
            if not np.isfinite(data[i]).all():
                raise InvalidInput(
                    f"synthetic epoch {i} is not finite as float32: an amplitude, "
                    f"noise_rms_uv or noise_exponent setting is too large")
    return EpochSet(data, labels, fs_hz, -pre_s, names)


def generate_labels(spec: SynthSpec, seed: int) -> np.ndarray:
    """The label stream that ``spec.label_source`` names."""
    if spec.label_source == "staircase":
        return simulate_labels(spec, seed)[0]
    n = spec.n_trials
    labels = np.array([SUCCESS, FAILURE] * (n // 2) + [SUCCESS] * (n % 2))
    return np.random.default_rng([seed, 0xBA1A]).permutation(labels)


def generate_dataset(spec: SynthSpec, template: ErpTemplateSpec, seed: int) -> EpochSet:
    """What ``errpkit synth`` writes: :func:`generate_labels` and their epochs.
    Epochs too large to allocate raise ``ValueError`` with the line that
    :class:`SynthSpec` gives for those too large to index."""
    try:
        return generate_epochs(generate_labels(spec, seed), template, n_channels=spec.n_channels,
                               fs_hz=spec.fs_hz, pre_s=spec.pre_s, post_s=spec.post_s, seed=seed)
    except MemoryError:
        raise spec._too_large() from None
