from dataclasses import fields
from pathlib import Path

import pytest

from errpkit.config import DEFAULTS, ConfigError, from_config, load_config
from errpkit.evaluation import Hyperparams
from errpkit.preprocessing import PreprocessSpec
from errpkit.synth import ErpTemplateSpec, SynthSpec

ROOT = Path(__file__).resolve().parent.parent
COMMITTED = sorted([*ROOT.glob("configs/*.json"), *ROOT.glob("bench/configs/*.json")])


class TestTypeCheck:
    def test_compatible_values_accepted(self):
        cfg = load_config(overrides=[
            "reg_c=2",  # int for a float
            "baseline_window_s=[-0.2, 0]",  # list for a tuple, int for a float
            "label_source=staircase",  # raw string fallback
            "notch_hz=[]",
        ])
        assert cfg["reg_c"] == 2
        assert cfg["baseline_window_s"] == [-0.2, 0]
        assert cfg["label_source"] == "staircase"

    @pytest.mark.parametrize("item", [
        "folds=abc", 'reg_c="x"', "folds=true", "reg_c=false", "confound_enabled=1",
        "folds=10.0", "baseline_window_s=0.1", 'notch_hz=[50, "x"]', "notch_hz=null",
        "reg_c=NaN", "mean_tol=Infinity", "epoch_post_s=-Infinity", "notch_hz=[50, NaN]",
    ])
    def test_mismatched_values_rejected(self, item):
        key, _, value = item.partition("=")
        problem = ("must hold finite numbers only" if "NaN" in value or "Infinity" in value
                   else "must have the type of its default")
        with pytest.raises(ConfigError, match=f"^config field '{key}' in --set {problem}"):
            load_config(overrides=[item])

    def test_file_values_checked(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"folds": "10"}')
        with pytest.raises(ConfigError, match=r"'folds' in .*cfg.json"):
            load_config(path)


class TestFromConfig:
    def test_defaults_round_trip(self):
        assert from_config(Hyperparams, DEFAULTS) == Hyperparams()
        assert from_config(ErpTemplateSpec, DEFAULTS) == ErpTemplateSpec()
        assert from_config(PreprocessSpec, DEFAULTS) == PreprocessSpec()
        assert from_config(SynthSpec, DEFAULTS) == SynthSpec()

    def test_every_default_but_the_protocol_counts_is_a_spec_field(self):
        spec_keys = {f.name for cls in (SynthSpec, ErpTemplateSpec, PreprocessSpec, Hyperparams)
                     for f in fields(cls)}
        assert set(DEFAULTS) - spec_keys == {
            "seed", "folds", "repeats", "n_chance_shuffles"}

    @pytest.mark.parametrize("path", COMMITTED, ids=lambda p: str(p.relative_to(ROOT)))
    def test_committed_configs_build_every_spec(self, path):
        # a key a committed config names cannot be removed without this failing
        cfg = load_config(path)
        for cls in (SynthSpec, ErpTemplateSpec, PreprocessSpec, Hyperparams):
            from_config(cls, cfg)

    def test_lists_become_tuples(self):
        cfg = load_config(overrides=["baseline_window_s=[-0.3, 0.0]", "notch_hz=[50, 100]"])
        spec = from_config(PreprocessSpec, cfg)
        assert spec.baseline_window_s == (-0.3, 0.0)
        assert spec.notch_hz == (50, 100)
