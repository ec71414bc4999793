"""Property test over whole simulated runs on scenarios that Hypothesis
draws through the corpus generator, so it shrinks a failing one.

Every generated run must keep the trace invariants of acceptance
criterion 8 and per-copy conservation, record its events in time order
and no control event past sim_time, replay from its trace file to the
same records, metrics and CSV row, and write the same bytes when run
again.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from dartsim.experiments import replay_trace, run_scenario
from dartsim.metrics import (CBR_EMIT, ECHO_PROBE, ECHO_REPLY, HELLO_ROUND,
                             format_run_row, run_meta, write_trace)
from dartsim.simkernel import Simulation
from corpus import corpus_scenario
from trace_invariants import criterion_8_violations, gate


# record kinds that the simulator never handles after sim_time
HORIZON_KINDS = (HELLO_ROUND, ECHO_PROBE, ECHO_REPLY, CBR_EMIT)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_random_whole_runs_keep_invariants_replay_and_repeat(rng):
    sc = corpus_scenario(rng)
    sim = Simulation(sc)
    records, metrics = sim.run()
    _, violations = criterion_8_violations(records)
    assert violations == []
    assert gate.trace_invariants(records, sc.sink) == []
    assert [rec for rec in records if rec.time > sc.sim_time
            and rec.kind in HORIZON_KINDS] == []
    assert [rec.time for rec in records] == sorted(rec.time for rec in records)

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
        assert replay_trace(first) == (meta, records, metrics,
                                       format_run_row(meta, metrics))
        run_scenario(sc, trace_path=second)
        assert second.read_bytes() == first.read_bytes()
