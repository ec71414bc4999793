"""The benchmark's own checks: tiny workloads end to end, and the gate.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on the path first)
import gate  # noqa: E402
import layers  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload_runs_end_to_end(name, trace):
    tiny = dataclasses.replace(run.WORKLOADS[name], seeds=1,
                               overrides=(("sim_time", "20"),))
    result = run.run_one(name, tiny, seed=3, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_gate_catches_a_forward_removed_from_the_trace(tmp_path):
    ds = run.import_dartsim()
    scenario = ds.scenario.Scenario(nodes=40, sim_time=10.0, seed=5)
    ds.scenario.validate(scenario)
    records, metrics = ds.simkernel.Simulation(scenario).run()
    meta = ds.metrics.run_meta(scenario)
    path = tmp_path / "run.trace"
    ds.metrics.write_trace(path, meta, records)
    assert gate.check_run(meta, records, metrics,
                          ds.experiments.replay_trace(path), scenario.sink) == []

    lines = path.read_text().splitlines(keepends=True)
    forward = next(i for i, line in enumerate(lines) if ",FORWARD," in line)
    path.write_text("".join(lines[:forward] + lines[forward + 1:]))
    replayed = ds.experiments.replay_trace(path)
    assert replayed[3] == ds.metrics.format_run_row(meta, metrics)
    problems = gate.trace_invariants(replayed[1], scenario.sink)
    assert any("reached 0 times, 1 outcomes" in p for p in problems)
    assert gate.check_run(meta, records, metrics, replayed, scenario.sink)


def test_missing_hook_targets_are_reported_not_raised():
    run.import_dartsim()
    tracer = layers.Tracer()
    tracer.install((("dartsim.simkernel", "no_such_function", "x", True),))
    tracer.attach(object())
    tracer.uninstall()
    assert "dartsim.simkernel.no_such_function" in tracer.missing
    assert "Simulation._on_hello_round" in tracer.missing
    assert "Simulation.heap" in tracer.missing
