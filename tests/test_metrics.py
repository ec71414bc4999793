"""Metric definitions checked against small hand-built traces."""

from __future__ import annotations

import pytest

from dartsim.metrics import (
    CBR_EMIT,
    DROP,
    PACKET_ARRIVAL,
    RUN_CSV_COLUMNS,
    RunMetrics,
    TraceError,
    TraceRecord,
    aggregate_runs,
    compute_run_metrics,
    format_aggregate_row,
    format_run_row,
    read_trace,
    write_trace,
)


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
             arrive(3.006, 4)]            # exactly at the deadline: on time
    # event 3 never arrives
    assert compute_run_metrics(trace).deadline_miss_ratio == pytest.approx(
        0.5, rel=1e-12)


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


def test_zero_cbr_metrics_are_undefined_not_zero():
    rm = compute_run_metrics([])
    assert rm.sent_events == 0
    assert rm.pdr is None
    assert rm.deadline_miss_ratio is None
    assert rm.avg_e2e_delay is None
    row = format_run_row({}, rm)
    assert row[5] == "" and row[6] == "" and row[7] == ""


def test_aggregate_mean_and_sample_std():
    rows = [(("g",), RunMetrics(10, 8, None, 0.9, 0.2, 1, 0)),
            (("g",), RunMetrics(10, 7, None, 0.7, 0.4, 3, 0))]
    out = aggregate_runs(rows)
    assert len(out) == 1
    key, metrics = out[0]
    assert key == ("g",)
    mean, std = metrics["deadline_miss_ratio"]
    assert mean == pytest.approx(0.30000000000000004, rel=1e-15)
    assert std == pytest.approx(0.14142135623730953, rel=1e-12)
    assert metrics["avg_e2e_delay_ms"] == (None, None)
    # integer drop counts aggregate as floats: 2.0, not 2
    assert metrics["no_route_drops"][0] == 2.0
    row = format_aggregate_row(key, metrics)
    assert row[-4:] == ["2.0", repr(2.0 ** 0.5), "0.0", "0.0"]


def test_aggregate_single_run_has_no_std():
    out = aggregate_runs([(("g",), RunMetrics(1, 1, 0.001, 1.0, 0.0, 0, 0))])
    mean, std = out[0][1]["pdr"]
    assert mean == 1.0
    assert std is None


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
    records = [emit(0.0, 1), emit(1.0, 2), arrive(0.0041, 1),
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


def test_bad_header_reports_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("time;kind\n")
    with pytest.raises(TraceError, match=r":1:"):
        read_trace(path)
