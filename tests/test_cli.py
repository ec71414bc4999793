"""Command line interface tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dartsim
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


def test_validate_rejects_negative_initial_energy(capsys):
    code, out, err = run_cli(capsys, "validate", "--set", "initial_energy_j=-5")
    assert code == 1
    assert out == ""
    assert "initial_energy_j" in err


def test_run_rejects_a_repeated_cbr_source(capsys):
    # unchecked, node 3 would emit two packet streams
    code, out, err = run_cli(capsys, "run", "--set", "nodes=10",
                             "--set", "cbr_sources=3,3", "--set", "sim_time=5")
    assert code == 1
    assert out == ""
    assert "cbr_sources" in err


def test_run_rejects_nan_deadline_instead_of_running(capsys):
    # sim_time=inf is not tried here: unchecked, that run never ends
    code, out, err = run_cli(capsys, "run", "--set", "deadline_ms=nan",
                             "--set", "sim_time=20")
    assert code == 1
    assert out == ""
    assert "deadline_ms" in err


@pytest.mark.parametrize("setting", ["snapshot_period_s=1e-9",
                                     "interval_s=1e-9",
                                     "hello_period_s=1e-9",
                                     "echo_period_s=1e-9"])
def test_run_rejects_a_period_too_short_for_the_horizon(setting, capsys):
    # unchecked, the run would handle 1e11 events of one chain in a row
    code, out, err = run_cli(capsys, "run", "--set", setting,
                             "--set", "nodes=5")
    assert code == 1
    assert out == ""
    assert f"{setting.partition('=')[0]} must be >= sim_time /" in err


def test_bootstrap_rounds_past_the_horizon_are_not_looped_over():
    # about 5 rounds per node fit in 10 s; the other 1e9 must cost nothing
    env = dict(os.environ,
               PYTHONPATH=str(Path(dartsim.__file__).resolve().parent.parent))
    env.pop("DART_SEED", None)
    done = subprocess.run(
        [sys.executable, "-m", "dartsim.cli", "run",
         "--set", "bootstrap_rounds=1000000000", "--set", "nodes=5",
         "--set", "sim_time=10"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[1].startswith("5,10.0,")


@pytest.mark.parametrize("rounds, code", [("2000000", 1), ("1000000", 0)])
def test_validate_bounds_the_bootstrap_rounds_within_sim_time(rounds, code,
                                                              capsys):
    # 1e7 rounds of 1 us would fit in 10 s; the run schedules each up front
    got, out, err = run_cli(capsys, "validate",
                            "--set", f"bootstrap_rounds={rounds}",
                            "--set", "bootstrap_gap_s=1e-6",
                            "--set", "sim_time=10")
    assert got == code
    if code:
        assert out == ""
        assert "bootstrap_rounds must fit at most 1000000 rounds" in err
    else:
        assert f"bootstrap_rounds = {rounds}" in out


@pytest.mark.parametrize("setting", ["placement=ring", "sink_pos=1",
                                     "positions=;", "cbr_sources=a,b",
                                     "bootstrap_rounds=0"])
def test_validate_rejects_a_bad_value_naming_its_key(setting, capsys):
    code, out, err = run_cli(capsys, "validate", "--set", setting)
    assert code == 1
    assert out == ""
    assert setting.partition("=")[0] in err


@pytest.mark.parametrize("command", ["run", "replay"])
@pytest.mark.parametrize("kind", ["directory", "binary"])
def test_unreadable_input_fails_with_code_1_naming_the_path(command, kind,
                                                            tmp_path, capsys):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe\x00nodes = 5\n")
    argv = ([command, "--scenario", str(path)] if command == "run"
            else [command, str(path)])
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot read ")
    assert str(path) in err


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


@pytest.mark.parametrize("detail", ["-", "tset=abc"])
def test_replay_cbr_emit_without_numeric_tset_fails_with_code_1(
        detail, tmp_path, capsys):
    path = tmp_path / "bad_emit.csv"
    path.write_text("time,kind,node,event_id,detail\n"
                    f"0.5,CBR_EMIT,2,17,{detail}\n")
    code, out, err = run_cli(capsys, "replay", str(path))
    assert code == 1
    assert out == ""
    assert "CBR_EMIT" in err and "17" in err


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


def test_sweep_over_a_key_outside_the_run_meta_keeps_its_points_apart(
        tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(capsys, "sweep",
                         "--set", "nodes=10", "--set", "sim_time=20",
                         "--axis", "loss=0.0,0.5",
                         "--seeds", "1,2", "--out", str(out_dir))
    assert code == 0
    runs = [line.split(",")
            for line in (out_dir / "runs.csv").read_text().splitlines()]
    assert runs[0] == RUN_CSV_COLUMNS[:5] + ["loss"] + RUN_CSV_COLUMNS[5:]
    assert [row[5] for row in runs[1:]] == ["0.0", "0.0", "0.5", "0.5"]
    agg = [line.split(",")
           for line in (out_dir / "aggregate.csv").read_text().splitlines()]
    assert agg[0][:5] == ["nodes", "sim_time", "deadline_ms", "interval_s",
                          "loss"]
    assert [row[4] for row in agg[1:]] == ["0.0", "0.5"]
    pdr, pdr_mean = runs[0].index("pdr"), agg[0].index("pdr_mean")
    for row in agg[1:]:                  # each mean is over its own loss only
        own = [float(run[pdr]) for run in runs[1:] if run[5] == row[4]]
        assert float(row[pdr_mean]) == sum(own) / len(own)


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_jobs_below_one(jobs, tmp_path, capsys):
    out_dir = tmp_path / "o"
    code, _, err = run_cli(capsys, "sweep", "--axis", "deadline_ms=6",
                           "--seeds", "1", "--jobs", jobs, "--out",
                           str(out_dir))
    assert code == 1
    assert "--jobs" in err
    assert not out_dir.exists()


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


def test_sweep_rejects_a_repeated_seed(tmp_path, capsys):
    # unchecked, the same run is written twice and its std reads 0.0
    out_dir = tmp_path / "o"
    code, out, err = run_cli(capsys, "sweep", "--set", "nodes=10",
                             "--set", "sim_time=5", "--seeds", "1,1",
                             "--out", str(out_dir))
    assert code == 1
    assert out == ""
    assert "--seeds" in err
    assert not out_dir.exists()


def test_sweep_rejects_a_repeated_axis_key(tmp_path, capsys):
    # unchecked, the last axis wins and the first one's points are lost
    out_dir = tmp_path / "o"
    code, out, err = run_cli(capsys, "sweep", "--set", "nodes=10",
                             "--set", "sim_time=5", "--axis", "loss=0.1",
                             "--axis", "loss=0.3", "--seeds", "1",
                             "--out", str(out_dir))
    assert code == 1
    assert out == ""
    assert "--axis loss" in err
    assert not out_dir.exists()


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
