"""Scenario defaults, file grammar, and validation diagnostics."""

import math

import pytest

from dartsim.scenario import (Scenario, ScenarioError, apply_overrides,
                              apply_setting, describe, load_scenario,
                              validate)


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


def test_base_seed_survives_unless_file_sets_it(tmp_path):
    base = Scenario()
    base.seed = 777
    sc = load_scenario(write(tmp_path, "nodes = 10\n"), base=base)
    assert sc.seed == 777
    sc = load_scenario(write(tmp_path, "seed = 5\n", name="b.txt"), base=base)
    assert sc.seed == 5


def test_describe_round_trips_through_the_parser():
    original = Scenario()
    original.placement = "explicit"
    original.nodes = 2
    original.positions = [(0.0, 0.0), (30.0, 40.0)]
    original.cbr_sources = [1]
    original.cbr_stop_s = None
    rebuilt = Scenario()
    for line in describe(original).splitlines():
        key, _, raw = line.partition("=")
        apply_setting(rebuilt, key.strip(), raw.strip())
    assert rebuilt == original
