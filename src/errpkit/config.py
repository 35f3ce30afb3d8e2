"""Flat key-value experiment configuration (JSON) with command-line overrides.

Every entry of :data:`DEFAULTS` except ``seed`` and the three CV settings
is a field default of :class:`synth.SynthSpec`, :class:`synth.ErpTemplateSpec`,
:class:`preprocessing.PreprocessSpec` or :class:`evaluation.Hyperparams`,
and :func:`from_config` builds any of these dataclasses back from a config.
The CV settings ``folds``, ``repeats`` and ``n_chance_shuffles`` have the
paper's protocol as their defaults here only: the evaluation functions that
take them have none.

Every command accepts every key and reads only those it uses, so one file
can serve ``synth``, ``preprocess`` and the evaluation commands.  What a
command writes records only the settings that ran: a container's manifest
its generator or preprocessing settings, and a report's ``config`` the
resolved ``seed``, ``folds``, ``repeats`` and ``n_chance_shuffles`` (null
without the chance level) and the :class:`evaluation.Hyperparams` fields.
"""
from __future__ import annotations

import json
import math
from dataclasses import fields
from pathlib import Path

from .errors import InvalidInput
from .evaluation import Hyperparams
from .preprocessing import PreprocessSpec
from .synth import ErpTemplateSpec, SynthSpec


class ConfigError(InvalidInput):
    """Bad configuration file or override."""


def _field_defaults(cls) -> dict:
    return {f.name: f.default for f in fields(cls)}


DEFAULTS: dict = {
    # dataset generation
    **_field_defaults(SynthSpec),
    "seed": 0,
    # templates and noise
    **_field_defaults(ErpTemplateSpec),
    # preprocessing
    **_field_defaults(PreprocessSpec),
    # evaluation
    "folds": 10,
    "repeats": 10,
    **_field_defaults(Hyperparams),
    "n_chance_shuffles": 100,
}


def _matches(value, default) -> bool:
    """Whether a JSON value has the type of a default.

    An int passes for a float and a list for a tuple, list elements are held
    to the default's first element, and a bool never passes for a number.
    """
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(default, bool) and isinstance(value, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, (list, tuple)):
        return isinstance(value, list) and all(_matches(v, default[0]) for v in value)
    return type(value) is type(default)


def _finite(value) -> bool:
    """Whether every number in a JSON value, at any depth, is finite: ``json``
    parses ``NaN``, ``Infinity`` and ``-Infinity``."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, list):
        return all(map(_finite, value))
    return True


def _checked(key: str, value, source: str):
    if key not in DEFAULTS:
        raise ConfigError(f"unknown config field {key!r} in {source}")
    if not _finite(value):
        raise ConfigError(
            f"config field {key!r} in {source} must hold finite numbers only, "
            f"got {json.dumps(value)}"
        )
    if not _matches(value, DEFAULTS[key]):
        raise ConfigError(
            f"config field {key!r} in {source} must have the type of its default "
            f"{json.dumps(DEFAULTS[key])}, got {json.dumps(value)}"
        )
    return value


def load_config(path: str | Path | None = None, overrides: list[str] | None = None) -> dict:
    """Defaults, optionally updated from a JSON file and ``key=value`` overrides.

    Raises :class:`ConfigError` for an unknown key or a value whose type
    differs from its default's.
    """
    cfg = dict(DEFAULTS)
    if path is not None:
        try:
            loaded = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {path} must be a JSON object")
        for key, value in loaded.items():
            cfg[key] = _checked(key, value, str(path))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        cfg[key] = _checked(key, value, "--set")
    return cfg


def _frozen(value):
    return tuple(_frozen(v) for v in value) if isinstance(value, (list, tuple)) else value


def from_config(cls, cfg: dict):
    """Build ``SynthSpec``, ``ErpTemplateSpec``, ``PreprocessSpec`` or
    ``Hyperparams`` from the config entries named like its fields, with lists
    turned into tuples."""
    return cls(**{f.name: _frozen(cfg[f.name]) for f in fields(cls)})
