"""Correctness gate and behaviour fingerprint for one simulated run.

Everything here runs outside the timed regions.  A run passes the gate
when its trace file replays to the same records and the same CSV row
as the in-process run, and the replayed trace keeps the copy and
conservation invariants of acceptance criterion 8.
"""

from __future__ import annotations

from collections import Counter

from dartsim.metrics import (CBR_EMIT, DROP, DUPLICATE, ECHO_PROBE, ECHO_REPLY,
                             FORWARD, HELLO_ROUND, METRIC_SNAPSHOT,
                             PACKET_ARRIVAL, RUN_END, detail_fields,
                             format_run_row)

# Record kinds that stand for one handled simulator event.  Each FORWARD
# schedules exactly one PACKET_ARRIVAL, so it counts the arrival event.
EVENT_KINDS = (HELLO_ROUND, ECHO_PROBE, ECHO_REPLY, CBR_EMIT, FORWARD,
               METRIC_SNAPSHOT, RUN_END)


def trace_invariants(records, sink):
    """Problems with a trace's copy bound and packet accounting.

    Every copy of an event is identified by (event_id, dup flag).  Each
    node a copy reaches leaves exactly one outcome record for it: a
    FORWARD, a DROP or, at the sink, a PACKET_ARRIVAL.  A copy reaches
    its source by emission (the duplicate only when a DUPLICATE record
    says so) and any other node only by a FORWARD addressed to it.
    """
    problems = []
    source = {}
    duplicates = Counter()
    outcomes = Counter()
    expected = Counter()
    for rec in records:
        kind = rec.kind
        if kind == CBR_EMIT:
            source[rec.event_id] = rec.node
            expected[(rec.event_id, "0", rec.node)] += 1
        elif kind == DUPLICATE:
            duplicates[rec.event_id] += 1
            if rec.node != source.get(rec.event_id):
                problems.append(f"duplicate away from the source: {rec}")
            expected[(rec.event_id, "1", rec.node)] += 1
        elif kind in (FORWARD, DROP, PACKET_ARRIVAL):
            fields = detail_fields(rec.detail)
            outcomes[(rec.event_id, fields["dup"], rec.node)] += 1
            if kind == FORWARD:
                expected[(rec.event_id, fields["dup"], int(fields["to"]))] += 1
            elif kind == PACKET_ARRIVAL and rec.node != sink:
                problems.append(f"arrival away from the sink: {rec}")
    for eid, extra in duplicates.items():
        if 1 + extra > 2:
            problems.append(f"event {eid}: {1 + extra} copies")
    for key in expected.keys() | outcomes.keys():
        if expected[key] != 1 or outcomes[key] != 1:
            problems.append(f"copy (event, dup, node) {key}: reached "
                            f"{expected[key]} times, {outcomes[key]} outcomes")
    return problems


def check_run(meta, records, metrics, replayed, sink):
    """Problems found comparing an in-process run with its replayed trace.

    replayed is the (meta, records, metrics, row) tuple of replay_trace.
    """
    meta2, records2, _, row2 = replayed
    problems = []
    row = format_run_row(meta, metrics)
    if row2 != row:
        problems.append(f"replayed row {row2} != in-process row {row}")
    if meta2 != meta:
        problems.append(f"replayed meta {meta2} != {meta}")
    if records2 != records:
        problems.append(f"replayed trace has {len(records2)} records, "
                        f"differing from the {len(records)} in memory")
    problems.extend(trace_invariants(records2, sink))
    return problems


def simulated_counts(records):
    """Counts that describe what was simulated, not how fast."""
    kinds = Counter(rec.kind for rec in records)
    drops = Counter(detail_fields(rec.detail)["reason"]
                    for rec in records if rec.kind == DROP)
    out = {f"records.{kind}": n for kind, n in sorted(kinds.items())}
    out.update({f"drops.{reason}": n for reason, n in sorted(drops.items())})
    out["events"] = sum(kinds[kind] for kind in EVENT_KINDS)
    out["emitted"] = kinds[CBR_EMIT]
    out["arrivals"] = kinds[PACKET_ARRIVAL]
    return out


def echo_counts(records):
    """(neighbours probed, measurements applied) summed over echo rounds."""
    probed = applied = 0
    for rec in records:
        if rec.kind == ECHO_PROBE:
            probed += int(detail_fields(rec.detail)["neighbors"])
        elif rec.kind == ECHO_REPLY:
            applied += int(detail_fields(rec.detail)["measured"])
    return probed, applied
