"""The command line's boundary: every input ends in a clean run or one
``error:`` line.

A run exits 0 with nothing on stderr, or exits 2 with a single ``error:``
line; it never prints a traceback or a warning.  The suite turns every
``RuntimeWarning`` into an error (``filterwarnings`` in ``pyproject.toml``),
so a floating-point fault inside a run fails these tests too.
"""

import contextlib
import io
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vccsim.cli import SCENARIO_KEYS, main
from vccsim.experiments import NOISE_POWER_MAX_W, SNR_MAX_DB
from vccsim.recipes import RECIPES

# Edge values every key is tried with: zero, negatives, NaN, infinities, a
# huge number, an empty list, and fractions of 1 or more.
EDGES = ("0", "-1", "nan", "inf", "-inf", "1e300", "", "1", "1.5", "3/2", "2")
# Values a key also takes, so that some draws run.  L and the served-user
# counts stay small, so that each draw runs in well under 0.2 s at 1x1.
USUAL = {
    "geometry": ("macro", "micro", "none"),
    "L": ("8", "16", "64"),
    "Lambda": ("3", "5"),
    "gamma": ("1/2", "2/3", "4/5"),
    "M": ("2", "4"),
    "Q": ("optimize", "3"),
    "Qprime": ("optimize", "4"),
    "ptot_dbm": ("30,40", "-3000", "1030", "4000"),
    "T": ("10", "1920"),
    "Theta": ("10", "200"),
    "noise_power": ("1e-13", "1e100", "1e101"),
    "csit_error_var": ("0.01", "0.99"),
    "csir_error_vars": ("0.01,0.001", "0.01,0.01", "1e300"),
    "users_per_state": ("optimize", "3"),
}
assert set(USUAL) == set(SCENARIO_KEYS)


def run_cli(recipe: str, sets: list[str]) -> tuple[int, str]:
    """Exit code and stderr of one in-process run at 1x1."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        argv = ["--recipe", recipe, "--locations", "1", "--fadings", "1",
                "--out", os.path.join(out, "x.csv")]
        for item in sets:
            argv += ["--set", item]
        code = main(argv)
    return code, err.getvalue()


def assert_clean(code: int, err: str) -> None:
    if code == 0:
        assert err == ""
    else:
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err


@st.composite
def settings_draw(draw):
    keys = draw(st.lists(st.sampled_from(sorted(SCENARIO_KEYS)), min_size=1,
                         max_size=3, unique=True))
    return [f"{k}={draw(st.sampled_from(EDGES + USUAL[k]))}" for k in keys]


class TestBoundaryFuzz:
    @settings(max_examples=300, deadline=None)
    @given(recipe=st.sampled_from(sorted(RECIPES)), sets=settings_draw())
    def test_run_exits_cleanly(self, recipe, sets):
        assert_clean(*run_cli(recipe, sets))


class TestPowerRange:
    """Noise powers and SNRs past the accepted range are rejected before
    sampling; at its corners every recipe runs without a floating-point
    fault."""

    @pytest.mark.parametrize("recipe, setting, field", [
        # n0 * j * sum(1 / gain) in the max-min-fair bracket overflowed
        ("fig3", "noise_power=1e300", "noise_power"),
        ("fig7", f"noise_power={NOISE_POWER_MAX_W * 10}", "noise_power"),
        # p / (n0 * j * sum(1 / gain)) overflowed in fig8's bracket
        ("fig8", "ptot_dbm=3100", "ptot_dbm"),
        ("fig8", f"ptot_dbm={SNR_MAX_DB + 31}", "ptot_dbm"),
    ])
    def test_out_of_range_rejected(self, recipe, setting, field):
        code, err = run_cli(recipe, [setting])
        assert code == 2 and err.startswith("error:") and field in err

    @pytest.mark.parametrize("recipe", sorted(RECIPES))
    @pytest.mark.parametrize("noise_power, snr_db", [
        (NOISE_POWER_MAX_W, SNR_MAX_DB),
        (NOISE_POWER_MAX_W, -50.0),
        (1.0, SNR_MAX_DB),
        (1e-300, SNR_MAX_DB),
    ])
    def test_range_corners_run_clean(self, recipe, noise_power, snr_db):
        ptot_dbm = round(10.0 * math.log10(noise_power) + 30.0 + snr_db, 9)
        code, err = run_cli(recipe, [f"noise_power={noise_power!r}", f"ptot_dbm={ptot_dbm!r}"])
        assert (code, err) == (0, "")
