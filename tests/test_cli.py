"""Command line interface tests."""

import pytest

from dartsim.cli import main
from dartsim.metrics import RUN_CSV_COLUMNS

LINE_SCENARIO = """
nodes = 3
placement = explicit
positions = 0,0; 250,0; 500,0
sink = 0
cbr_sources = 2
sim_time = 8
cbr_start_s = 5
interval_s = 10
loss = 0
jitter_ms = 0
contention_coeff_ms = 0
base_mac_delay_ms = 0.74
tx_delay_ms = 0.26
"""


@pytest.fixture
def line_file(tmp_path):
    path = tmp_path / "line.txt"
    path.write_text(LINE_SCENARIO)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_prints_header_and_row(line_file, capsys):
    code, out, err = run_cli(capsys, "run", "--scenario", line_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(RUN_CSV_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "3"                       # nodes
    assert float(cells[5]) == pytest.approx(2.0, abs=1e-6)   # avg ms
    assert cells[6] == "1.0"                     # pdr


def test_run_set_overrides_scenario_file(line_file, capsys):
    code, out, _ = run_cli(capsys, "run", "--scenario", line_file,
                           "--set", "deadline_ms=1.2")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[2] == "1.2"
    assert row[6] == "0.0"                       # undeliverable deadline
    assert row[8] == "1"                         # one no-route drop


def test_unknown_set_key_fails_with_code_1(line_file, capsys):
    code, _, err = run_cli(capsys, "run", "--scenario", line_file,
                           "--set", "bogus=1")
    assert code == 1
    assert "bogus" in err


@pytest.mark.parametrize("setting", ["sim_time=nan", "sim_time=inf",
                                     "deadline_ms=nan", "tx_range=nan",
                                     "interval_s=inf"])
def test_validate_rejects_non_finite_numbers(setting, capsys):
    code, out, err = run_cli(capsys, "validate", "--set", setting)
    assert code == 1
    assert out == ""
    assert f"{setting.partition('=')[0]} expects a finite number" in err


def test_run_rejects_nan_deadline_instead_of_running(capsys):
    # sim_time=inf is not tried here: unchecked, that run never ends
    code, out, err = run_cli(capsys, "run", "--set", "deadline_ms=nan",
                             "--set", "sim_time=20")
    assert code == 1
    assert out == ""
    assert "deadline_ms" in err


def test_bad_scenario_file_names_the_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("nodes = 5\nloss = lots\n")
    code, _, err = run_cli(capsys, "run", "--scenario", str(path))
    assert code == 1
    assert "bad.txt:2:" in err
    assert "loss" in err


def test_missing_scenario_file_fails_cleanly(capsys):
    code, _, err = run_cli(capsys, "run", "--scenario", "/nonexistent.txt")
    assert code == 1
    assert "error" in err


def test_trace_and_replay_round_trip(line_file, tmp_path, capsys):
    trace = str(tmp_path / "trace.csv")
    code, run_out, _ = run_cli(capsys, "run", "--scenario", line_file,
                               "--trace", trace)
    assert code == 0
    code, replay_out, _ = run_cli(capsys, "replay", trace)
    assert code == 0
    assert replay_out == run_out                 # byte-identical rows


def test_replay_missing_trace_fails_with_code_1(capsys):
    code, _, err = run_cli(capsys, "replay", "/nonexistent-trace.csv")
    assert code == 1


def test_replay_malformed_trace_fails_with_code_1(tmp_path, capsys):
    path = tmp_path / "garbage.csv"
    path.write_text("time,kind,node,event_id,detail\nnot-a-number,X,0,0,\n")
    code, _, err = run_cli(capsys, "replay", str(path))
    assert code == 1
    assert "garbage.csv:2" in err


def test_validate_prints_normalized_settings(line_file, capsys):
    code, out, _ = run_cli(capsys, "validate", "--scenario", line_file,
                           "--set", "seed=9")
    assert code == 0
    settings = dict(line.split(" = ", 1) for line in out.splitlines())
    assert settings["nodes"] == "3"
    assert settings["seed"] == "9"
    assert settings["positions"] == "0.0,0.0; 250.0,0.0; 500.0,0.0"


def test_dart_seed_env_sets_the_default(line_file, capsys, monkeypatch):
    monkeypatch.setenv("DART_SEED", "123")
    code, out, _ = run_cli(capsys, "run", "--scenario", line_file)
    assert code == 0
    assert out.splitlines()[1].split(",")[4] == "123"
    # explicit --set still wins
    code, out, _ = run_cli(capsys, "run", "--scenario", line_file,
                           "--set", "seed=7")
    assert out.splitlines()[1].split(",")[4] == "7"


def test_bad_dart_seed_fails_with_code_1(line_file, capsys, monkeypatch):
    monkeypatch.setenv("DART_SEED", "abc")
    code, _, err = run_cli(capsys, "run", "--scenario", line_file)
    assert code == 1
    assert "DART_SEED" in err


def test_sweep_writes_csv_files(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "sweep",
                           "--set", "nodes=8", "--set", "sim_time=10",
                           "--axis", "deadline_ms=6,8",
                           "--seeds", "4,5", "--out", str(out_dir))
    assert code == 0
    runs = (out_dir / "runs.csv").read_text().splitlines()
    assert len(runs) == 5
    agg = (out_dir / "aggregate.csv").read_text().splitlines()
    assert len(agg) == 3
    assert "runs.csv" in out and "aggregate.csv" in out


def test_sweep_bad_axis_fails_with_code_1(tmp_path, capsys):
    code, _, err = run_cli(capsys, "sweep", "--axis", "bogus=1,2",
                           "--seeds", "1", "--out", str(tmp_path / "o"))
    assert code == 1
    assert "bogus" in err


def test_sweep_bad_seeds_fail_with_code_1(tmp_path, capsys):
    code, _, err = run_cli(capsys, "sweep", "--axis", "deadline_ms=6",
                           "--seeds", "one", "--out", str(tmp_path / "o"))
    assert code == 1
    assert "--seeds" in err


def test_sweep_runtime_failure_exits_2(tmp_path, capsys, monkeypatch):
    import dartsim.experiments as experiments

    def boom(scenario):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(experiments, "_run_point", boom)
    out_dir = tmp_path / "out"
    code, _, err = run_cli(capsys, "sweep",
                           "--set", "nodes=8", "--set", "sim_time=10",
                           "--axis", "deadline_ms=6",
                           "--seeds", "1", "--out", str(out_dir))
    assert code == 2
    assert "failed" in err
    assert "# incomplete" in (out_dir / "runs.csv").read_text()
