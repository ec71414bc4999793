"""Scenario defaults, file grammar, and validation diagnostics."""

import dataclasses
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dartsim.scenario import (MAX_EXCHANGES, MAX_NODE_PAIRS, MAX_RECORDS,
                              Scenario, ScenarioError, apply_overrides,
                              apply_setting, describe, load_scenario,
                              validate)
from dartsim.simkernel import Simulation

DEFAULTS = {f.name: f.default for f in dataclasses.fields(Scenario)}


def write(tmp_path, text, name="scenario.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_defaults_describe_the_standard_environment():
    sc = Scenario()
    assert sc.nodes == 50
    assert (sc.area_width, sc.area_height) == (600.0, 400.0)
    assert sc.tx_range == 250.0
    assert sc.sink == 0
    assert sc.cbr_count == 5
    assert sc.interval_s == 1.0
    assert sc.deadline_ms == 6.0
    assert sc.sim_time == 100.0
    validate(sc)


def test_derived_values():
    sc = Scenario()
    assert sc.t_set() == pytest.approx(0.006, abs=0)
    assert sc.cbr_stop() == 100.0
    sc.cbr_stop_s = 42.0
    assert sc.cbr_stop() == 42.0


def test_file_parsing_with_comments_and_blanks(tmp_path):
    path = write(tmp_path, """
# a comment
nodes = 10

deadline_ms = 8.5   # inline comment
placement = grid
cbr_sources = 1, 2
cbr_stop_s = none
""")
    sc = load_scenario(path)
    assert sc.nodes == 10
    assert sc.deadline_ms == 8.5
    assert sc.placement == "grid"
    assert sc.cbr_sources == [1, 2]
    assert sc.cbr_stop_s is None


def test_unknown_key_is_named_with_line_number(tmp_path):
    path = write(tmp_path, "nodes = 10\nfrobnicate = 3\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert "frobnicate" in str(err.value)
    assert ":2:" in str(err.value)


def test_bad_number_is_diagnosed(tmp_path):
    path = write(tmp_path, "nodes = ten\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert "nodes" in str(err.value)
    assert ":1:" in str(err.value)


def test_missing_equals_sign_is_diagnosed(tmp_path):
    path = write(tmp_path, "nodes 10\n")
    with pytest.raises(ScenarioError, match="key = value"):
        load_scenario(path)


def test_negative_node_count_is_rejected(tmp_path):
    path = write(tmp_path, "nodes = -1\n")
    with pytest.raises(ScenarioError, match="nodes"):
        load_scenario(path)


def test_positions_grammar(tmp_path):
    path = write(tmp_path, """
nodes = 2
placement = explicit
positions = 0,0; 10.5,20
tx_range = 50
""")
    sc = load_scenario(path)
    assert sc.positions == [(0.0, 0.0), (10.5, 20.0)]


def test_explicit_placement_requires_matching_positions():
    sc = Scenario()
    sc.placement = "explicit"
    with pytest.raises(ScenarioError, match="positions"):
        validate(sc)
    sc.positions = [(0.0, 0.0)]
    with pytest.raises(ScenarioError, match="positions"):
        validate(sc)


def test_sink_must_be_a_valid_node():
    sc = Scenario()
    sc.sink = 50
    with pytest.raises(ScenarioError, match="sink"):
        validate(sc)


def test_cbr_sources_must_exclude_the_sink():
    sc = Scenario()
    sc.cbr_sources = [0]
    with pytest.raises(ScenarioError, match="sink"):
        validate(sc)
    sc.cbr_sources = [99]
    with pytest.raises(ScenarioError, match="out of range"):
        validate(sc)


def test_numeric_range_checks():
    sc = Scenario()
    sc.loss = 1.0
    with pytest.raises(ScenarioError, match="loss"):
        validate(sc)
    sc = Scenario()
    sc.echo_alpha = 0.0
    with pytest.raises(ScenarioError, match="echo_alpha"):
        validate(sc)
    sc = Scenario()
    sc.interval_s = 0.0
    with pytest.raises(ScenarioError, match="interval_s"):
        validate(sc)


POSITIVE = ["area_width", "area_height", "tx_range", "sim_time",
            "interval_s", "deadline_ms", "queue_service_rate",
            "hello_period_s", "echo_period_s", "bootstrap_spread_s",
            "bootstrap_gap_s"]
NON_NEGATIVE = ["cbr_count", "max_retries", "cbr_start_s", "jitter_ms",
                "base_mac_delay_ms", "tx_delay_ms", "contention_coeff_ms",
                "ctl_window_s", "flow_window_s", "queue_window_s"]
PERIODS = ["interval_s", "hello_period_s", "echo_period_s"]


def rejection(key, value):
    """validate's message for a Scenario that differs only at key."""
    sc = Scenario()
    setattr(sc, key, type(getattr(sc, key))(value))
    with pytest.raises(ScenarioError) as caught:
        validate(sc)
    return str(caught.value)


@pytest.mark.parametrize("key", POSITIVE)
def test_each_positive_key_rejects_zero_by_name(key):
    assert rejection(key, 0) == f"{key} must be finite and > 0.0, got 0.0"


@pytest.mark.parametrize("key", NON_NEGATIVE)
def test_each_non_negative_key_rejects_minus_one_by_name(key):
    value = type(getattr(Scenario(), key))(-1)
    assert rejection(key, -1) == (f"{key} must be finite and >= 0, "
                                  f"got {value}")


# 2e6 events of one chain in sim_time: the first chain over a cap is named
OVER_BUDGET = {
    "interval_s": "interval_s, cbr_count, sim_time and nodes need 0 "
                  "exchanges in a chain and 1.02e+09 records",
    "hello_period_s": "hello_period_s, bootstrap_rounds, sim_time and nodes "
                      "need 4.9e+09 exchanges in a chain and 1e+08 records",
    "echo_period_s": "echo_period_s, bootstrap_rounds, sim_time and nodes "
                     "need 4.9e+09 exchanges in a chain and 2e+08 records"}


@pytest.mark.parametrize("key", PERIODS)
def test_each_period_rejects_more_than_max_periods_by_name(key):
    period = Scenario().sim_time / 2e6
    assert rejection(key, period) == (f"{OVER_BUDGET[key]}; the caps are "
                                      f"{MAX_EXCHANGES} and {MAX_RECORDS}")


def test_nodes_beyond_the_pair_bound_are_rejected_by_name():
    largest = 2000                  # 2000 * 1999 pairs: the bound itself
    assert largest * (largest - 1) == MAX_NODE_PAIRS
    validate(Scenario(nodes=largest))
    assert rejection("nodes", largest + 1) == (
        f"nodes must keep nodes * (nodes - 1) <= {MAX_NODE_PAIRS}, "
        f"got {largest + 1}")


NON_FINITE = [("sim_time", "nan"), ("sim_time", "inf"), ("deadline_ms", "nan"),
              ("tx_range", "nan"), ("interval_s", "inf"), ("loss", "-inf"),
              ("area_width", "1e999"), ("cbr_stop_s", "NaN"),
              ("sink_pos", "nan,0"), ("positions", "0,0; 10,Infinity")]


@pytest.mark.parametrize("key,raw", NON_FINITE)
def test_non_finite_numbers_are_rejected_by_name(key, raw):
    with pytest.raises(ScenarioError, match=f"--set {key}=.*{key} expects "
                                            f"a finite number"):
        apply_overrides(Scenario(), [(key, raw)])


def test_non_finite_number_in_a_file_names_key_and_line(tmp_path):
    path = write(tmp_path, "nodes = 10\ndeadline_ms = nan\n")
    with pytest.raises(ScenarioError, match=r":2: deadline_ms"):
        load_scenario(path)


@pytest.mark.parametrize("key", ["sim_time", "interval_s", "deadline_ms",
                                 "tx_range", "jitter_ms", "cbr_stop_s"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_validate_rejects_non_finite_values_set_in_code(key, value):
    sc = Scenario()
    setattr(sc, key, value)
    with pytest.raises(ScenarioError, match=f"{key} must be finite"):
        validate(sc)


def test_overrides_win_over_file(tmp_path):
    path = write(tmp_path, "nodes = 10\ndeadline_ms = 8\n")
    sc = load_scenario(path, overrides=[("deadline_ms", "9.5")])
    assert sc.nodes == 10
    assert sc.deadline_ms == 9.5


def test_override_errors_mention_the_flag():
    sc = Scenario()
    with pytest.raises(ScenarioError, match="--set"):
        apply_overrides(sc, [("bogus", "1")])


def _numbers(low, high):
    """Finite floats in [low, high], and ints, which a float key takes."""
    return st.floats(low, high) | st.integers(math.ceil(low), int(high))


@st.composite
def valid_scenarios(draw):
    """Scenarios that validate, each key drawn from what its type and
    bound allow: sink, sources and explicit points fit the node count, and
    interval_s, each period and the bootstrap gap fit at most `rounds` of
    their events in sim_time, which keeps every chain's exchanges under a
    tenth of MAX_EXCHANGES and the run's records under MAX_RECORDS."""
    sc = Scenario()
    sc.nodes = n = draw(st.integers(2, 40))
    coordinate = st.floats(-1e9, 1e9) | st.integers(-10**9, 10**9)
    point = st.tuples(coordinate, coordinate)
    sc.placement = draw(st.sampled_from(["uniform", "grid", "explicit"]))
    sc.positions = draw(st.lists(point, min_size=n, max_size=n)
                        if sc.placement == "explicit" else st.none())
    sc.sink = draw(st.integers(0, n - 1))
    # grid and explicit placement refuse any sink_pos but the default
    sc.sink_pos = draw(point) if sc.placement == "uniform" else (0.0, 0.0)
    sc.sim_time = draw(_numbers(1e-3, 1e9))
    sc.seed = draw(st.integers())
    others = [i for i in range(n) if i != sc.sink]
    sc.cbr_sources = draw(st.none() | st.lists(st.sampled_from(others),
                                                min_size=1, unique=True))
    for key in ("area_width", "area_height", "tx_range", "deadline_ms",
                "queue_service_rate", "bootstrap_spread_s"):
        setattr(sc, key, draw(_numbers(1e-300, 1e12)))
    # up to 3n(2 rounds + 2) control and 2n^2(rounds + 1) data records
    rounds = min(1e5, MAX_EXCHANGES / 10 / (n * (n - 1)),
                 MAX_RECORDS / 10 / n**2)
    for key in ("interval_s", "hello_period_s", "echo_period_s",
                "bootstrap_gap_s"):
        setattr(sc, key, draw(_numbers(sc.sim_time / rounds, 1e12)))
    for key in ("cbr_count", "max_retries"):
        setattr(sc, key, draw(st.integers(0, 10**6)))
    for key in ("cbr_start_s", "base_mac_delay_ms", "tx_delay_ms",
                "contention_coeff_ms", "jitter_ms", "ctl_window_s",
                "flow_window_s", "queue_window_s"):
        setattr(sc, key, draw(_numbers(0.0, 1e12)))
    sc.cbr_stop_s = draw(st.none() | _numbers(sc.cbr_start_s, 2e12))
    sc.loss = draw(st.floats(0.0, 1.0, exclude_max=True) | st.just(0))
    sc.echo_alpha = draw(st.floats(0.0, 1.0, exclude_min=True) | st.just(1))
    sc.bootstrap_rounds = draw(st.integers(1, 10**6))
    validate(sc)
    return sc


@given(valid_scenarios())
@settings(max_examples=150, deadline=None)
def test_describe_round_trips_through_the_parser(original):
    rebuilt = Scenario()
    for line in describe(original).splitlines():
        key, _, raw = line.partition("=")
        apply_setting(rebuilt, key.strip(), raw.strip())
    assert rebuilt == original


def _wrong(keys, values):
    return st.tuples(st.sampled_from(keys), values)


POINT_3D = st.tuples(*[st.floats(-1e3, 1e3)] * 3)
WRONG_TYPED = st.one_of(
    _wrong([k for k, v in DEFAULTS.items() if type(v) is int], st.floats()),
    _wrong(["cbr_sources"], st.lists(st.floats(), min_size=1, max_size=3)),
    _wrong(list(DEFAULTS), st.booleans()),
    _wrong([k for k in DEFAULTS if k != "placement"],
           st.text("0123456789.,; -e", max_size=8)),
    _wrong([k for k, v in DEFAULTS.items() if v is not None], st.none()),
    _wrong([k for k in DEFAULTS if k != "positions"], POINT_3D),
    _wrong(["positions"], st.lists(POINT_3D, min_size=1, max_size=3)))


@given(WRONG_TYPED)
@settings(max_examples=200, deadline=None)
def test_a_wrong_typed_value_is_rejected_naming_only_its_key(wrong):
    key, value = wrong
    with pytest.raises(ScenarioError) as caught:
        Simulation(Scenario(**{key: value}))
    message = str(caught.value)
    named = [k for k in DEFAULTS if re.search(rf"\b{k}\b", message)]
    assert named == [key], message
