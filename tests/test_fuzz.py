"""Property-based fuzz of the command line.

Each property runs :func:`cli.main` in this process on settings drawn by
``hypothesis`` from every finite double plus edge values, with a fixed
derandomized example sequence and no example database, so it is the same
test on every run.  A command exits 0 or 2; on 2 it prints exactly one
``error:`` line; it raises no Python warning; and a container it writes
passes ``validate``.
"""
import contextlib
import io
import math
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from errpkit.cli import main
from errpkit.synth import ErpTemplateSpec

# An epoch of more samples than this is made only where the settings are
# rejected before anything is allocated; 40 epochs of 5 channels at the cap
# take 3.3 MB.
MAX_SAMPLES = 4096
INTP_MAX = 2 ** 63 - 1

EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e-16, 0.5, 1.0, -1.0,
         1e16, 1e18, 1e300, 1.7976931348623157e308, -1.7976931348623157e308]
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGES))


def settings_of(typical: st.SearchStrategy, odd: st.SearchStrategy = FLOATS) -> st.SearchStrategy:
    """A ``typical`` value three times in four, so that many examples make a
    dataset, else an ``odd`` one: by default a finite double or an edge value."""
    usual = st.sampled_from([False, True, True, True])
    return usual.flatmap(lambda is_usual: typical if is_usual else odd)


def run(argv: list[str]) -> tuple[int, list[str], list]:
    """Exit code, printed lines and raised warnings of one ``main`` call."""
    out = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue().splitlines(), caught


def epoch_samples(fs_hz: float, pre_s: float, post_s: float) -> float:
    """The epoch's sample count as ``synth`` rounds it, or NaN where it is not finite."""
    x = (post_s + pre_s) * fs_hz
    return math.floor(x + 0.5) if math.isfinite(x) else math.nan


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(n_trials=st.integers(1, 40), n_channels=st.integers(1, 5),
       fs_hz=settings_of(st.floats(4.0, 128.0)), pre_s=settings_of(st.floats(0.0, 1.0)),
       post_s=settings_of(st.floats(0.1, 2.0)),
       label_source=settings_of(st.sampled_from(["balanced", "staircase"]),
                                FLOATS | st.text(max_size=6)),
       erp_key=st.sampled_from([f.name for f in fields(ErpTemplateSpec) if isinstance(f.default, float)]),
       erp_value=settings_of(st.floats(0.01, 1.0)))
def test_synth_exits_0_or_2_with_one_line(n_trials, n_channels, fs_hz, pre_s, post_s,
                                          label_source, erp_key, erp_value):
    n = epoch_samples(fs_hz, pre_s, post_s)
    # cap the shape: a longer epoch runs only where it is too large to index
    assume(not n > MAX_SAMPLES or 4 * max(n_trials, 2) * n_channels * n > INTP_MAX)
    values = {"n_trials": n_trials, "n_channels": n_channels, "fs_hz": fs_hz, "pre_s": pre_s,
              "post_s": post_s, erp_key: erp_value, "label_source": label_source}
    sets = [arg for key, value in values.items()
            for arg in ("--set", f"{key}={value if isinstance(value, str) else repr(value)}")]
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "x")
        code, lines, caught = run(["synth", "--out", out, "--seed", "0", *sets])
        assert caught == []
        assert code in (0, 2), lines
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert not Path(out).exists()
        else:
            assert run(["validate", "--input", out]) == (0, ["ok"], [])
