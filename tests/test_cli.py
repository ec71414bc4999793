"""Command line interface tests."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dartsim
import dartsim.experiments as experiments
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


@pytest.mark.parametrize("argv", [["validate", "--set", "-x=1"], [],
                                  ["sweep", "--out", "o", "--jobs", "two"]])
def test_a_usage_error_is_bad_input_with_code_1(argv, capsys):
    # argparse alone would exit 2, the code of a runtime failure
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "error: " in err


def test_help_exits_0(capsys):
    code, out, _ = run_cli(capsys, "validate", "--help")
    assert code == 0
    assert "--set KEY=VALUE" in out


@pytest.mark.parametrize("setting", ["sim_time=nan", "sim_time=inf",
                                     "deadline_ms=nan", "tx_range=nan",
                                     "interval_s=inf"])
def test_validate_rejects_non_finite_numbers(setting, capsys):
    code, out, err = run_cli(capsys, "validate", "--set", setting)
    assert code == 1
    assert out == ""
    assert f"{setting.partition('=')[0]} expects a finite number" in err


def test_run_rejects_a_repeated_cbr_source(capsys):
    # unchecked, node 3 would emit two packet streams
    code, out, err = run_cli(capsys, "run", "--set", "nodes=10",
                             "--set", "cbr_sources=3,3", "--set", "sim_time=5")
    assert code == 1
    assert out == ""
    assert "cbr_sources" in err


def test_run_rejects_an_empty_cbr_source_list(capsys):
    # unchecked, the run has no traffic and prints blank ratio cells
    code, out, err = run_cli(capsys, "run", "--set", "cbr_sources=",
                             "--set", "sim_time=5")
    assert code == 1
    assert out == ""
    assert "cbr_sources is empty; use cbr_count = 0" in err


def test_run_rejects_nan_deadline_instead_of_running(capsys):
    # sim_time=inf is not tried here: unchecked, that run never ends
    code, out, err = run_cli(capsys, "run", "--set", "deadline_ms=nan",
                             "--set", "sim_time=20")
    assert code == 1
    assert out == ""
    assert "deadline_ms" in err


@pytest.mark.parametrize("setting", ["interval_s=1e-9",
                                     "hello_period_s=1e-9",
                                     "echo_period_s=1e-9"])
def test_run_rejects_a_period_too_short_for_the_horizon(setting, capsys):
    # unchecked, the run would handle 1e11 events of one chain in a row
    code, out, err = run_cli(capsys, "run", "--set", setting,
                             "--set", "nodes=5")
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {setting.partition('=')[0]}, ")
    assert ", sim_time and nodes need " in err


@pytest.mark.parametrize("where", ["--set", "file"])
def test_the_deleted_snapshot_key_is_refused_by_name(where, tmp_path, capsys):
    # snapshots restated counts of records the trace already holds
    if where == "file":
        path = tmp_path / "old.scn"
        path.write_text("snapshot_period_s = 1\n")
        argv = ["--scenario", str(path)]
    else:
        argv = ["--set", "snapshot_period_s=1"]
    code, out, err = run_cli(capsys, "run", *argv, "--set", "sim_time=5")
    assert code == 1
    assert out == ""
    assert "unknown key 'snapshot_period_s'" in err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_an_oversized_network_is_rejected_at_once(command, monkeypatch,
                                                  capsys):
    # 20,000 nodes would take minutes and GBs to build; never build it
    def unbounded(scenario):
        raise AssertionError(f"a {scenario.nodes}-node run got past validate")
    monkeypatch.setattr(experiments, "Simulation", unbounded)
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, command, "--set", "nodes=20000")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert out == ""
    assert "nodes must keep nodes * (nodes - 1) <=" in err


def test_bootstrap_rounds_past_the_horizon_are_not_looped_over():
    # about 5 rounds per node fit in 10 s; the other 1e9 must cost nothing
    env = dict(os.environ,
               PYTHONPATH=str(Path(dartsim.__file__).resolve().parent.parent))
    done = subprocess.run(
        [sys.executable, "-m", "dartsim.cli", "run",
         "--set", "bootstrap_rounds=1000000000", "--set", "nodes=5",
         "--set", "sim_time=10"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[1].startswith("5,10.0,")


@pytest.mark.parametrize("settings, key", [
    (["nodes=2000", "hello_period_s=0.0001"], "hello_period_s"),
    (["nodes=150", "echo_period_s=0.0001"], "echo_period_s"),
    (["nodes=50", "sim_time=1000000"], "hello_period_s"),
    (["nodes=50", "bootstrap_rounds=100000", "bootstrap_gap_s=0.001",
      "sim_time=1000"], "bootstrap_rounds"),
    # under the exchange cap, over the record cap: 6.6e6 and 8e12 records
    (["nodes=2", "sim_time=1000000"], "interval_s"),
    (["nodes=2000", "cbr_count=1999", "interval_s=0.0001"], "interval_s")],
    ids=["hello", "echo", "long-run", "bootstrap", "long-pair",
         "every-source"])
def test_validate_bounds_the_neighbour_exchanges_of_each_control_chain(
        settings, key, capsys):
    # unchecked, each validated and its run went on for minutes or more,
    # or held more records than memory
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "validate",
                             *[arg for s in settings for arg in ("--set", s)])
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (1, "")
    assert all(name in err for name in (key, "sim_time", "nodes")), err


@pytest.mark.parametrize("rounds, code", [("2000000", 1), ("666000", 0)])
def test_validate_bounds_the_bootstrap_rounds_within_sim_time(rounds, code,
                                                              capsys):
    # 1e7 rounds of 1 us would fit in 10 s.  Two nodes keep the rounds'
    # exchanges under their cap; each round of both nodes writes a HELLO,
    # a probe and a reply, so 666,000 rounds ask for just under 4e6
    # records and 2e6 for 1.2e7
    got, out, err = run_cli(capsys, "validate", "--set", "nodes=2",
                            "--set", f"bootstrap_rounds={rounds}",
                            "--set", "bootstrap_gap_s=1e-6",
                            "--set", "sim_time=10")
    assert got == code
    if code:
        assert out == ""
        assert "bootstrap_rounds, sim_time and nodes need " in err
        assert "records; the caps are" in err
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


@pytest.mark.parametrize("placement", ["uniform", "grid"])
def test_run_rejects_positions_its_placement_would_ignore(placement, capsys):
    # unchecked, the nodes are placed by the placement and the run exits 0
    code, out, err = run_cli(capsys, "run", "--set", "nodes=3",
                             "--set", f"placement={placement}",
                             "--set", "positions=0,0; 100,0; 200,0")
    assert code == 1
    assert out == ""
    assert "positions is read only when placement = explicit" in err


@pytest.mark.parametrize("placement, setting", [
    ("grid", "sim_time=5"), ("explicit", "positions=0,0; 100,0; 200,0")])
def test_run_rejects_a_sink_pos_its_placement_would_ignore(placement, setting,
                                                           capsys):
    # unchecked, the sink sits where the placement puts it and the run exits 0
    code, out, err = run_cli(capsys, "run", "--set", "nodes=3",
                             "--set", f"placement={placement}",
                             "--set", setting, "--set", "sink_pos=300,200")
    assert code == 1
    assert out == ""
    assert "sink_pos is read only when placement = uniform" in err


@pytest.mark.parametrize("kind", ["directory", "missing-parent"])
def test_run_to_a_trace_path_it_cannot_write_runs_nothing(kind, tmp_path,
                                                         capsys, monkeypatch):
    # unchecked, the whole run went first: a directory then exited 2 with a
    # bare IsADirectoryError, and a missing parent directory exited 1
    calls = []
    monkeypatch.setattr(experiments.Simulation, "run",
                        lambda sim: calls.append(sim))
    trace = tmp_path / "taken" if kind == "directory" else tmp_path / "no" / "t"
    if kind == "directory":
        trace.mkdir()
    code, out, err = run_cli(capsys, "run", "--set", "nodes=3",
                             "--set", "sim_time=2", "--trace", str(trace))
    assert (code, out, calls) == (1, "", [])
    assert err.startswith(f"error: cannot write {trace}: ")


def test_an_interrupted_run_leaves_no_trace_file_it_made(tmp_path,
                                                        monkeypatch):
    # unchecked, the path check left an empty file that replayed with exit 0
    def interrupted(sim):
        raise KeyboardInterrupt
    monkeypatch.setattr(experiments.Simulation, "run", interrupted)
    made, kept = tmp_path / "made.trace", tmp_path / "kept.trace"
    kept.write_text("an older trace")
    for trace in (made, kept):
        with pytest.raises(KeyboardInterrupt):
            main(["run", "--set", "nodes=3", "--trace", str(trace)])
    assert not made.exists()
    assert kept.read_text() == "an older trace"


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


@pytest.mark.parametrize("line, named", [
    ("0.5,PACKET_ARRIVAL,0,7,delay=0.001 tl=0.0 dup=0 hops=1", "event 7"),
    ("0.5,DROP,3,7,reason=no_route dup=0", "event 7"),
    ("0.5,DROP,3,0,reason=bogus dup=0", "event 0"),
    ("0.001,PACKET_ARIVAL,0,0,delay=0.001 tl=0.0 dup=0 hops=1",
     "impossible.csv:3: unknown record kind 'PACKET_ARIVAL'"),
    # unchecked, these replayed with exit 0: a nan delay, a negative one
    ("nan,PACKET_ARRIVAL,0,0,delay=0.001 tl=0.0 dup=0 hops=1",
     "impossible.csv:3: time nan is not finite or runs backwards"),
    ("-0.5,PACKET_ARRIVAL,0,0,delay=0.001 tl=0.0 dup=0 hops=1",
     "impossible.csv:3: time -0.5 is not finite or runs backwards"),
    # and this one to the row `,nan,,,,,,,0,0`
    ("# meta sim_time=nan",
     "impossible.csv:3: bad meta value 'sim_time=nan'"),
    ("# meta deadline_ms=-inf",
     "impossible.csv:3: bad meta value 'deadline_ms=-inf'")],
    ids=["arrival-never-emitted", "drop-never-emitted", "unknown-reason",
         "unknown-kind", "nan-time", "backward-time", "nan-meta",
         "infinite-meta"])
def test_replay_impossible_trace_fails_with_code_1(line, named, tmp_path,
                                                    capsys):
    path = tmp_path / "impossible.csv"
    path.write_text("time,kind,node,event_id,detail\n"
                    "0.0,CBR_EMIT,2,0,tset=0.006\n" + line + "\n")
    code, out, err = run_cli(capsys, "replay", str(path))
    assert code == 1
    assert out == ""
    assert named in err


def test_replay_refuses_an_event_emitted_twice(tmp_path, capsys):
    # unchecked, the arrival was timed from the second emission: -4999 ms
    path = tmp_path / "twice.csv"
    path.write_text("time,kind,node,event_id,detail\n"
                    "0.0,CBR_EMIT,2,0,tset=0.006\n"
                    "0.001,PACKET_ARRIVAL,0,0,delay=0.001 tl=0.005 dup=0 "
                    "hops=1\n"
                    "5.0,CBR_EMIT,2,0,tset=0.006\n")
    code, out, err = run_cli(capsys, "replay", str(path))
    assert (code, out) == (1, "")
    assert "CBR_EMIT of event 0 is repeated" in err


def test_validate_prints_normalized_settings(line_file, capsys):
    code, out, _ = run_cli(capsys, "validate", "--scenario", line_file,
                           "--set", "seed=9")
    assert code == 0
    settings = dict(line.split(" = ", 1) for line in out.splitlines())
    assert settings["nodes"] == "3"
    assert settings["seed"] == "9"
    assert settings["positions"] == "0.0,0.0; 250.0,0.0; 500.0,0.0"


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


def test_sweep_names_the_repeated_seed(tmp_path, capsys):
    out_dir = tmp_path / "o"
    code, out, err = run_cli(capsys, "sweep", "--set", "nodes=10",
                             "--set", "sim_time=5", "--seeds", "3,2,7,+2",
                             "--out", str(out_dir))
    assert code == 1
    assert out == ""
    assert "--seeds lists the seed 2 more than once" in err
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


@pytest.mark.parametrize("axis, named", [
    ("seed=1,2", "--axis seed"),      # else two identical seed-5 rows
    ("loss=0.1,0.10", "--axis loss lists the value 0.10"),  # else std 0.0
    ("loss=,", "--axis loss has no values"),  # else header-only files
], ids=["seed-axis", "repeated-value", "empty-axis"])
def test_sweep_rejects_an_axis_that_drops_or_repeats_points(axis, named,
                                                            tmp_path, capsys):
    out_dir = tmp_path / "o"
    code, out, err = run_cli(capsys, "sweep", "--set", "nodes=10",
                             "--set", "sim_time=5", "--axis", axis,
                             "--seeds", "5", "--out", str(out_dir))
    assert code == 1
    assert out == ""
    assert named in err
    assert not out_dir.exists()


@pytest.mark.parametrize("axis", ["cbr_sources=1,2", "sink_pos=10,20",
                                  "positions=0,0"])
def test_sweep_refuses_an_axis_whose_values_hold_commas(axis, tmp_path, capsys):
    # unchecked, cbr_sources=1,2 ran two single-source points and the
    # others exited 1 blaming the value: `sink_pos expects 'x,y', got '10'`
    key = axis.split("=")[0]
    out_dir = tmp_path / "o"
    code, out, err = run_cli(capsys, "sweep", "--set", "nodes=8",
                             "--set", "sim_time=5", "--axis", axis,
                             "--seeds", "1", "--out", str(out_dir))
    assert (code, out) == (1, "")
    assert err == (f"error: --axis {key} cannot list values that hold "
                   f"commas; use dartsim.experiments.run_sweep\n")
    assert not out_dir.exists()


def test_sweep_to_an_out_path_that_cannot_be_a_directory_runs_nothing(
        tmp_path, capsys, monkeypatch):
    # unchecked, every point runs before the directory fails to be made
    calls = []
    monkeypatch.setattr(experiments, "_run_point", calls.append)
    out_file = tmp_path / "taken"
    out_file.write_text("")
    code, out, err = run_cli(capsys, "sweep", "--set", "nodes=8",
                             "--set", "sim_time=2", "--axis", "deadline_ms=6",
                             "--seeds", "1,2", "--out", str(out_file))
    assert (code, out, calls) == (1, "", [])
    assert err.startswith(f"error: cannot make {out_file}: ")
    assert out_file.read_text() == ""


def test_sweep_to_an_unwritable_csv_runs_nothing(tmp_path, capsys,
                                                 monkeypatch):
    # unchecked, every point ran and then its row was lost with exit 2.
    # A directory stands in the CSV's way: root ignores permission bits
    calls = []
    monkeypatch.setattr(experiments, "_run_point", calls.append)
    out_dir = tmp_path / "out"
    (out_dir / "runs.csv").mkdir(parents=True)
    code, out, err = run_cli(capsys, "sweep", "--set", "nodes=20",
                             "--set", "sim_time=5", "--axis", "deadline_ms=6,8",
                             "--seeds", "1,2", "--out", str(out_dir))
    assert (code, out, calls) == (1, "", [])
    assert err == f"error: cannot write {out_dir / 'runs.csv'}: Is a directory\n"
    assert sorted(p.name for p in out_dir.iterdir()) == ["runs.csv"]


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
