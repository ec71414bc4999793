"""Metric definitions checked against small hand-built traces."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from dartsim.metrics import (
    CBR_EMIT,
    DROP,
    HELLO_ROUND,
    PACKET_ARRIVAL,
    RUN_CSV_COLUMNS,
    TRACE_HEADER,
    RunMetrics,
    TraceError,
    TraceRecord,
    aggregate_runs,
    compute_run_metrics,
    format_run_row,
    read_trace,
    run_meta,
    write_trace,
)
from dartsim.scenario import Scenario


def emit(t, eid, tset=0.006, node=5):
    return TraceRecord(t, CBR_EMIT, node, eid, f"tset={tset!r}")


def arrive(t, eid, dup=0):
    return TraceRecord(t, PACKET_ARRIVAL, 0, eid, f"delay=0.0 tl=0.0 dup={dup} hops=2")


def drop(t, eid, reason, dup=0):
    return TraceRecord(t, DROP, 3, eid, f"reason={reason} dup={dup}")


def test_average_delay_over_unique_events():
    trace = [emit(0.0, 1), emit(1.0, 2),
             arrive(0.002, 1), arrive(1.004, 2)]
    assert compute_run_metrics(trace).avg_e2e_delay == pytest.approx(
        0.003, rel=1e-12)


def test_average_delay_uses_first_copy_only():
    trace = [emit(0.0, 1), arrive(0.002, 1), arrive(0.010, 1, dup=1)]
    assert compute_run_metrics(trace).avg_e2e_delay == pytest.approx(
        0.002, rel=1e-12)


def test_average_delay_undefined_when_nothing_received():
    trace = [emit(0.0, 1), drop(0.001, 1, "no_route")]
    assert compute_run_metrics(trace).avg_e2e_delay is None


def test_pdr_counts_unique_events_both_sides():
    trace = [emit(float(i), i) for i in range(10)]
    trace += [arrive(float(i) + 0.002, i) for i in range(8)]
    trace += [arrive(float(i) + 0.003, i, dup=1) for i in range(8)]
    assert compute_run_metrics(trace).pdr == pytest.approx(0.8, rel=1e-12)


def test_pdr_undefined_with_zero_sent():
    assert compute_run_metrics([]).pdr is None


def test_miss_ratio_counts_late_and_lost():
    trace = [emit(0.0, 1), emit(1.0, 2), emit(2.0, 3), emit(3.0, 4),
             arrive(0.004, 1),            # on time
             arrive(1.009, 2),            # late: 9 ms > 6 ms
             arrive(3.006, 4)]            # 5.99...9783 ms in floats: on time
    # event 3 never arrives
    assert compute_run_metrics(trace).deadline_miss_ratio == pytest.approx(
        0.5, rel=1e-12)


def test_an_arrival_exactly_at_the_deadline_is_not_a_miss():
    # exact binary values: the delay 0.25 equals t_set, which is on time
    trace = [emit(1.0, 1, tset=0.25), arrive(1.25, 1)]
    assert compute_run_metrics(trace).deadline_miss_ratio == 0.0


def test_miss_ratio_at_least_loss_share():
    trace = [emit(0.0, 1), emit(1.0, 2), arrive(1.002, 2)]
    rm = compute_run_metrics(trace)
    assert rm.deadline_miss_ratio >= 1.0 - rm.pdr


def test_late_packet_still_counts_for_delivery():
    trace = [emit(0.0, 1), arrive(0.05, 1)]
    rm = compute_run_metrics(trace)
    assert rm.pdr == 1.0
    assert rm.deadline_miss_ratio == 1.0


def test_compute_run_metrics_counts_drop_reasons():
    trace = [emit(0.0, 1), emit(1.0, 2), emit(2.0, 3),
             drop(0.001, 1, "no_route"),
             drop(1.001, 2, "no_budget"),
             drop(2.001, 3, "loss", dup=0),
             drop(2.002, 3, "loss", dup=1)]
    rm = compute_run_metrics(trace)
    assert rm.sent_events == 3
    assert rm.received_events == 0
    assert rm.no_route_drops == 2
    assert rm.loss_drops == 2
    assert rm.pdr == 0.0
    assert rm.deadline_miss_ratio == 1.0
    assert rm.avg_e2e_delay is None


@pytest.mark.parametrize("bad, event", [
    (arrive(0.002, 7), "event 7"),
    (drop(0.002, 7, "no_route"), "event 7"),
    (drop(0.002, 0, "bogus"), "event 0"),
    (TraceRecord(0.002, DROP, 3, 0, "dup=0"), "event 0")],
    ids=["arrival-never-emitted", "drop-never-emitted", "unknown-reason",
         "no-reason"])
def test_impossible_trace_is_rejected_naming_the_event(bad, event):
    trace = [emit(0.0, 0), arrive(0.001, 0), bad]
    with pytest.raises(TraceError, match=event):
        compute_run_metrics(trace)


def test_zero_cbr_metrics_are_undefined_not_zero():
    rm = compute_run_metrics([])
    assert rm.sent_events == 0
    assert rm.pdr is None
    assert rm.deadline_miss_ratio is None
    assert rm.avg_e2e_delay is None
    row = format_run_row({}, rm)
    assert row[5] == "" and row[6] == "" and row[7] == ""


def test_aggregate_mean_and_sample_std():
    rows = [(["g"], RunMetrics(10, 8, None, 0.9, 0.2, 1, 0)),
            (["g"], RunMetrics(10, 7, None, 0.7, 0.4, 3, 0))]
    out = aggregate_runs(rows)
    assert len(out) == 1
    row = out[0]
    assert row[0] == "g" and len(row) == 1 + 2 * 5
    assert float(row[5]) == pytest.approx(0.30000000000000004, rel=1e-15)
    assert float(row[6]) == pytest.approx(0.14142135623730953, rel=1e-12)
    assert row[1:3] == ["", ""]                 # no delay defined: no cells
    # integer drop counts aggregate as floats: 2.0, not 2
    assert row[-4:] == ["2.0", repr(2.0 ** 0.5), "0.0", "0.0"]


def test_aggregate_single_run_has_no_std():
    out = aggregate_runs([(["g"], RunMetrics(1, 1, 0.001, 1.0, 0.0, 0, 0))])
    assert out[0][3:5] == ["1.0", ""]           # pdr's mean, empty std


def test_run_row_matches_schema_width():
    meta = {"nodes": 50, "sim_time": 100.0, "deadline_ms": 6.0,
            "interval_s": 1.0, "seed": 7}
    rm = RunMetrics(10, 9, 0.0031, 0.9, 0.1, 1, 0)
    row = format_run_row(meta, rm)
    assert len(row) == len(RUN_CSV_COLUMNS)
    assert row[0] == "50"
    assert row[5] == repr(0.0031 * 1000.0)


def test_trace_round_trip(tmp_path):
    path = tmp_path / "trace.txt"
    meta = {"nodes": 3, "sim_time": 10.0, "deadline_ms": 6.0,
            "interval_s": 1.0, "seed": 1}
    records = [emit(0.0, 1), arrive(0.30000000000000004, 1)]
    write_trace(path, meta, records)
    meta2, records2 = read_trace(path)
    assert meta2 == meta
    assert records2 == records


def test_metrics_equal_after_round_trip(tmp_path):
    path = tmp_path / "trace.txt"
    records = [emit(0.0, 1), arrive(0.0041, 1), emit(1.0, 2),
               drop(1.001, 2, "loss")]
    write_trace(path, {"nodes": 2, "seed": 0}, records)
    _, records2 = read_trace(path)
    assert compute_run_metrics(records2) == compute_run_metrics(records)


def test_empty_trace_is_replayable(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    meta, records = read_trace(path)
    assert meta == {} and records == []
    rm = compute_run_metrics(records)
    assert rm.pdr is None


def test_malformed_trace_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# meta nodes=2\ntime,kind,node,event_id,detail\n"
                    "0.0,CBR_EMIT,5,1,tset=0.006\nnot a record\n")
    with pytest.raises(TraceError, match=r":4:"):
        read_trace(path)


def test_bad_meta_value_reports_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# meta nodes=abc\ntime,kind,node,event_id,detail\n")
    with pytest.raises(TraceError, match=r":1: bad meta value 'nodes=abc'"):
        read_trace(path)


def test_unknown_meta_key_is_read_back_as_text(tmp_path):
    path = tmp_path / "trace.txt"
    write_trace(path, {"nodes": 4, "note": "7"}, [])
    meta, _ = read_trace(path)
    assert meta == {"nodes": 4, "note": "7"}


def test_run_meta_keeps_its_types_through_a_trace(tmp_path):
    path = tmp_path / "trace.txt"
    meta = run_meta(Scenario(nodes=20, sim_time=30, deadline_ms=7,
                             interval_s=2, seed=5))
    write_trace(path, meta, [])
    meta2, _ = read_trace(path)
    assert meta2 == meta
    assert {k: type(v) for k, v in meta2.items()} == {
        "nodes": int, "sim_time": float, "deadline_ms": float,
        "interval_s": float, "seed": int}


def test_bad_header_reports_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("time;kind\n")
    with pytest.raises(TraceError, match=r":1:"):
        read_trace(path)


def body_of(tmp_path, *lines, newline="\n"):
    """A trace file whose body is lines, after a meta line and the header."""
    path = tmp_path / "trace.txt"
    text = newline.join(["# meta nodes=2", TRACE_HEADER, *lines, ""])
    path.write_bytes(text.encode())
    return path


def test_comment_and_blank_body_lines_are_skipped(tmp_path):
    path = body_of(tmp_path, "0.0,CBR_EMIT,5,1,tset=0.006", "# a note",
                   "   \t", "", "0.002,PACKET_ARRIVAL,0,1,delay=0.002")
    _, records = read_trace(path)
    assert [rec.kind for rec in records] == [CBR_EMIT, PACKET_ARRIVAL]


def test_meta_line_after_the_header_is_still_read(tmp_path):
    path = body_of(tmp_path, "0.0,CBR_EMIT,5,1,tset=0.006",
                   "# meta seed=9 note=x")
    meta, records = read_trace(path)
    assert meta == {"nodes": 2, "seed": 9, "note": "x"}
    assert len(records) == 1


def test_detail_holding_commas_round_trips(tmp_path):
    path = tmp_path / "trace.txt"
    records = [TraceRecord(0.5, HELLO_ROUND, 1, -1, "a=1,b=2,,c=3,")]
    write_trace(path, {}, records)
    assert read_trace(path)[1] == records


@pytest.mark.parametrize("brk", ["\x0c", "\u2028"])
def test_detail_holding_a_line_break_other_than_newline_round_trips(
        tmp_path, brk):
    """str.splitlines() would break a line at these; read_trace splits at
    '\n' alone, so a detail holding one reads back whole."""
    path = tmp_path / "trace.txt"
    records = [TraceRecord(0.5, HELLO_ROUND, 1, -1, f"a{brk}b"),
               TraceRecord(0.75, HELLO_ROUND, 2, -1, "acks=0")]
    write_trace(path, {"seed": 3}, records)
    assert read_trace(path) == ({"seed": 3}, records)


@pytest.mark.parametrize("record, error", [
    (TraceRecord(0.5, HELLO_ROUND, 1, -1, "a\rb"), "record 1 holds a line"),
    (TraceRecord(0.5, HELLO_ROUND, 1, -1, "a\nb"), "record 1 holds a line"),
    (TraceRecord(0.5, HELLO_ROUND, 1, -1, "a\r\n"), "record 1 holds a line"),
    (TraceRecord(0.5, "HELLO", 1, -1, "acks=0"),
     "record 1 has the unknown kind 'HELLO'"),
], ids=["cr", "lf", "crlf", "unknown-kind"])
def test_a_record_read_trace_would_refuse_is_not_written(tmp_path, record,
                                                         error):
    """read_trace splits at line breaks and checks kinds, so write_trace
    refuses such a record by its index and writes no file."""
    path = tmp_path / "trace.txt"
    good = TraceRecord(0.25, HELLO_ROUND, 2, -1, "acks=0")
    with pytest.raises(ValueError, match=re.escape(error)):
        write_trace(path, {"seed": 3}, [good, record, good])
    assert not path.exists()


@pytest.mark.parametrize("value", ["a b", "a\tb", "a\nb", "a=b", " ",
                                   "a\u2028"])
def test_a_meta_value_the_line_cannot_carry_is_refused_by_key(tmp_path,
                                                              value):
    path = tmp_path / "trace.txt"
    with pytest.raises(ValueError, match="'note'"):
        write_trace(path, {"seed": 3, "note": value}, [])
    assert not path.exists()


@pytest.mark.parametrize("meta, pair", [
    ({"nodes": None, "seed": "x"}, "'nodes='"),
    ({"seed": "x"}, "'seed=x'"),
    ({"seed": 3, "sim_time": float("nan")}, "'sim_time=nan'"),
    ({"deadline_ms": -float("inf")}, "'deadline_ms=-inf'")],
    ids=["none", "not-an-int", "nan", "infinite"])
def test_a_meta_value_read_trace_would_refuse_is_not_written(tmp_path, meta,
                                                             pair):
    """A run-meta key's value must read back as its type, and a float
    as a finite one: write_trace refuses it by key and writes no file."""
    path = tmp_path / "trace.txt"
    with pytest.raises(ValueError, match=re.escape(pair)):
        write_trace(path, meta, [])
    assert not path.exists()


@pytest.mark.parametrize("key", ["a b", "a=b", " a", "a\x0c"])
def test_a_meta_key_the_line_cannot_carry_is_refused(tmp_path, key):
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        write_trace(tmp_path / "trace.txt", {key: 1}, [])


def test_crlf_trace_reads_the_same_records(tmp_path):
    lines = ("0.0,CBR_EMIT,5,1,tset=0.006", "0.25,DROP,3,1,reason=loss dup=0")
    lf = read_trace(body_of(tmp_path, *lines))
    crlf = read_trace(body_of(tmp_path, *lines, newline="\r\n"))
    assert crlf == lf
    assert crlf[1][1].detail == "reason=loss dup=0"


def test_short_line_reports_its_field_count_and_line(tmp_path):
    path = body_of(tmp_path, "0.0,CBR_EMIT,5,1,tset=0.006", "0.1,DROP,3")
    with pytest.raises(TraceError, match=r":4: expected 5 fields, got 3$"):
        read_trace(path)
    path = body_of(tmp_path, "0.1,DROP,3,1")
    with pytest.raises(TraceError, match=r":3: expected 5 fields, got 4$"):
        read_trace(path)


def test_non_numeric_node_reports_the_value_error_and_line(tmp_path):
    path = body_of(tmp_path, "0.0,CBR_EMIT,5,1,tset=0.006",
                   "0.1,DROP,x,1,reason=loss")
    with pytest.raises(TraceError, match=r":4: invalid literal for int\(\) "
                                         r"with base 10: 'x'$"):
        read_trace(path)


# Records written by one handler call share its time object, so
# write_trace renders a time once per run of identical objects and
# read_trace parses a time or event-id text once per run of equal texts.

@pytest.mark.parametrize("first, second", [(0.0, -0.0), (1, 1.0)],
                         ids=["signed-zero", "int-and-float"])
def test_equal_but_distinct_times_each_render_their_own_text(tmp_path,
                                                             first, second):
    """Kills a write memo that tests == instead of identity: it would
    write the second time with the first one's text."""
    path = tmp_path / "trace.txt"
    records = [TraceRecord(first, HELLO_ROUND, 1, -1, "acks=0"),
               TraceRecord(second, HELLO_ROUND, 2, -1, "acks=0")]
    write_trace(path, {}, records)
    assert path.read_text().splitlines()[2:] == [
        f"{first!r},HELLO_ROUND,1,-1,acks=0",
        f"{second!r},HELLO_ROUND,2,-1,acks=0"]


def test_one_time_object_at_two_non_adjacent_records(tmp_path):
    """Kills a memo, on either side, that compares each record with the
    first time object or event-id text it saw instead of the previous
    one: the last record would take the middle one's time or event id.
    The middle time is -0.0, equal to 0.0 but written apart, so the
    times never run backwards."""
    path = tmp_path / "trace.txt"
    now, between = 0.0, -0.0
    records = [emit(now, 1), emit(between, 2), arrive(now, 1)]
    write_trace(path, {"seed": 3}, records)
    assert [line.split(",")[:4] for line in path.read_text().splitlines()[2:]] \
        == [["0.0", CBR_EMIT, "5", "1"], ["-0.0", CBR_EMIT, "5", "2"],
            ["0.0", PACKET_ARRIVAL, "0", "1"]]
    meta, back = read_trace(path)
    assert (meta, back) == ({"seed": 3}, records)
    assert [repr(rec.time) for rec in back] == ["0.0", "-0.0", "0.0"]


def test_rewriting_a_read_trace_reproduces_its_bytes(tmp_path):
    """Kills a read memo that parses the previous line's time text
    instead of this line's: the rewritten file would differ."""
    original = Path(__file__).parent / "data" / "snapshots-v1.trace"
    path = tmp_path / "trace.txt"
    write_trace(path, *read_trace(original))
    assert path.read_bytes() == original.read_bytes()


@pytest.mark.parametrize("lines, lineno", [
    (["time,DROP,3,1,reason=loss", "time,DROP,3,1,reason=loss"], 3),
    (["0.0,CBR_EMIT,5,1,tset=0.006", "x,DROP,3,1,reason=loss",
      "x,DROP,3,1,reason=loss"], 4),
], ids=["header-text", "after-a-record"])
def test_a_repeated_bad_time_reports_the_first_bad_line(tmp_path, lines,
                                                        lineno):
    """Kills a read memo that records a time text before float() accepts
    it: the header's 'time' would then pass on the next line."""
    path = body_of(tmp_path, *lines)
    bad = lines[-1].split(",")[0]
    with pytest.raises(TraceError, match=rf":{lineno}: could not convert "
                                         rf"string to float: '{bad}'$"):
        read_trace(path)
