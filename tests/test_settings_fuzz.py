"""Fuzz the settings grammar with random text.

Any value text, for any key, either validates or is rejected with a
ScenarioError whose message names that key; through the CLI the same
input exits 0 or 1 and never ends in a traceback.  Nothing is run, so
the values that validate may be as large as the grammar allows.
"""

from __future__ import annotations

import dataclasses
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dartsim.cli import main
from dartsim.scenario import Scenario, ScenarioError, apply_setting, validate

KEYS = sorted(f.name for f in dataclasses.fields(Scenario))

# number-like text near every bound the grammar and validate() test
NUMBERS = st.one_of(
    st.integers(min_value=-3, max_value=2_001).map(str),
    st.integers().map(str),
    st.floats().map(repr),
    st.floats(min_value=0.0, max_value=1.0).map(str),
    # 0.01 and 0.02 fall either side of the record cap for interval_s
    st.sampled_from(["0", "-0", "-0.0", "1e-6", "5e-324", "1e308", "1e999",
                     "nan", "inf", "-inf", "Infinity", "1_000", " 7 ",
                     "0x10", "1" * 5000, "٣", "0.01", "0.02"]))
WORDS = st.sampled_from(["", "none", "auto", "uniform", "grid", "explicit"])
ITEMS = st.one_of(NUMBERS, WORDS, st.text(max_size=6))
LISTS = st.lists(ITEMS, max_size=5).map(",".join)
POINTS = st.lists(st.lists(ITEMS, max_size=3).map(",".join),
                  max_size=5).map("; ".join)
VALUES = st.one_of(st.text(), NUMBERS, WORDS, LISTS, POINTS)


def names(key, message):
    return re.search(rf"\b{re.escape(key)}\b", message) is not None


@pytest.mark.parametrize("key", KEYS)
@given(raw=VALUES)
@settings(max_examples=60, deadline=None)
def test_any_text_for_a_key_validates_or_is_rejected_naming_it(key, raw):
    sc = Scenario()
    try:
        apply_setting(sc, key, raw)
        validate(sc)
    except ScenarioError as exc:
        assert names(key, str(exc)), str(exc)


@given(key=st.one_of(st.sampled_from(KEYS), st.text(max_size=12)),
       raw=VALUES)
# each example reads capsys out, so it may share it
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_validate_set_exits_0_or_1_without_a_traceback(key, raw, capsys):
    code = main(["validate", "--set", f"{key}={raw}"])
    out, err = capsys.readouterr()
    # an exception escaping main fails the test; main's own output opens
    # with the settings or with its one message, never with a traceback
    if code == 0:
        assert out.startswith("nodes = ") and not err
    else:
        assert code == 1 and not out, err
        assert err.startswith(("error: ", "usage: ")), err
