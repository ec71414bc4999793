"""Property test over whole simulated runs on randomized scenarios.

Every generated run must keep the trace invariants of acceptance
criterion 8 and per-copy conservation, record no control event past
sim_time, replay from its trace file to the same CSV row, and write the
same bytes when run again.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from dartsim.experiments import replay_trace, run_scenario
from dartsim.metrics import (CBR_EMIT, ECHO_PROBE, ECHO_REPLY, HELLO_ROUND,
                             format_run_row, run_meta, write_trace)
from dartsim.scenario import Scenario, validate
from dartsim.simkernel import Simulation
from trace_invariants import criterion_8_violations, gate


# record kinds that the simulator never handles after sim_time
HORIZON_KINDS = (HELLO_ROUND, ECHO_PROBE, ECHO_REPLY, CBR_EMIT)


def _floats(low, high):
    return st.floats(min_value=low, max_value=high, allow_nan=False)


@st.composite
def scenarios(draw):
    """3-30 nodes, placed by seed or point by point, lossy, up to 30 s."""
    sc = Scenario()
    sc.nodes = n = draw(st.integers(min_value=3, max_value=30))
    sc.area_width = draw(_floats(100.0, 800.0))
    sc.area_height = draw(_floats(100.0, 800.0))
    sc.placement = draw(st.sampled_from(["uniform", "explicit"]))
    if sc.placement == "explicit":
        point = st.tuples(_floats(0.0, sc.area_width),
                          _floats(0.0, sc.area_height))
        sc.positions = draw(st.lists(point, min_size=n, max_size=n))
    sc.tx_range = draw(_floats(100.0, 400.0))
    sc.sink = draw(st.integers(min_value=0, max_value=n - 1))
    sc.seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    sc.sim_time = draw(_floats(1.0, 30.0))
    sc.cbr_count = draw(st.integers(min_value=1, max_value=min(5, n - 1)))
    sc.interval_s = draw(_floats(0.1, 5.0))
    sc.deadline_ms = draw(_floats(1.0, 50.0))
    sc.loss = draw(_floats(0.0, 0.6))
    sc.max_retries = draw(st.integers(min_value=0, max_value=6))
    sc.ctl_window_s = draw(_floats(0.0, 1.0))
    sc.flow_window_s = draw(_floats(0.0, 1.0))
    sc.queue_window_s = draw(_floats(0.0, 0.1))
    sc.hello_period_s = draw(_floats(1.0, 15.0))
    sc.echo_period_s = draw(_floats(1.0, 15.0))
    validate(sc)
    return sc


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_random_whole_runs_keep_invariants_replay_and_repeat(sc):
    sim = Simulation(sc)
    records, metrics = sim.run()
    _, violations = criterion_8_violations(records)
    assert violations == []
    assert gate.trace_invariants(records, sc.sink) == []
    assert [rec for rec in records if rec.time > sc.sim_time
            and rec.kind in HORIZON_KINDS] == []

    # rows are updated in place, so no two tables may hold the same one
    rows = [entry for state in sim.states
            for entry in state.forwarding_table.values()]
    assert len({id(entry) for entry in rows}) == len(rows)
    # each row holds what its radio neighbour's HELLO or ACK advertised
    for i, state in enumerate(sim.states):
        for nid, entry in state.forwarding_table.items():
            assert nid in sim.neighbors[i]
            assert entry.dist_to_sink == sim.states[nid].dist_to_sink

    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.trace"), Path(tmp, "b.trace")
        meta = run_meta(sc)
        write_trace(first, meta, records)
        assert replay_trace(first)[3] == format_run_row(meta, metrics)
        run_scenario(sc, trace_path=second)
        assert second.read_bytes() == first.read_bytes()
