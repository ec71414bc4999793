"""Property test of the trace file format: write then read is the identity.

Records are drawn in time order with any finite float time (the extremes
included), negative node and event ids, every known kind, and details that may hold
',', '=' and every line break but '\n' and '\r' (which text mode reads
as '\n').  Reading the file back must give records
equal to the input, and metrics (or the TraceError) identical to the
ones computed from the input.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from dartsim.metrics import (CBR_EMIT, DROP, DUPLICATE, ECHO_PROBE,
                             ECHO_REPLY, FORWARD, HELLO_ROUND, METRIC_SNAPSHOT,
                             PACKET_ARRIVAL, RUN_END, TraceError, TraceRecord,
                             compute_run_metrics, read_trace, write_trace)

KINDS = [HELLO_ROUND, ECHO_PROBE, ECHO_REPLY, PACKET_ARRIVAL, CBR_EMIT,
         METRIC_SNAPSHOT, RUN_END, FORWARD, DUPLICATE, DROP]
# the line breaks a trace line cannot hold: read_trace splits at "\n" only
LINE_BREAKS = "\n\r"

finite = st.sampled_from([-0.0, 5e-324, 1e308]) | st.floats(
    allow_nan=False, allow_infinity=False)
text = st.text(st.characters(max_codepoint=0x2FF, blacklist_categories=("Cs",),
                             blacklist_characters=LINE_BREAKS), max_size=20)
tset = finite.map(lambda t: f"tset={t!r}")
# details a replay understands, so some drawn traces have defined metrics
detail = text | tset | st.sampled_from([
    "reason=loss dup=0", "reason=no_route dup=1", "reason=no_budget dup=0",
    "delay=0.1 hops=2"])
node = st.integers(-2**40, 2**40)
event = st.integers(-3, 3) | st.integers(-2**63, 2**63)
records = st.lists(
    st.builds(TraceRecord, finite, st.sampled_from(KINDS), node, event, detail)
    | st.builds(TraceRecord, finite, st.just(CBR_EMIT), node, event, tset),
    max_size=12).map(lambda trace: sorted(trace, key=lambda rec: rec.time))


def outcome(trace):
    try:
        return compute_run_metrics(trace)
    except TraceError as exc:
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(records)
def test_write_then_read_returns_the_records_and_their_metrics(trace):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "t.trace")
        write_trace(path, {"nodes": 3, "seed": -1}, trace)
        meta, back = read_trace(path)
    assert meta == {"nodes": 3, "seed": -1}
    assert back == trace
    assert [type(v) for rec in back for v in rec] == [
        type(v) for rec in trace for v in rec]
    assert outcome(back) == outcome(trace)
