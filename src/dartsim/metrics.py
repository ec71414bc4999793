"""Run metrics, computed from traces, and their CSV/trace file formats.

A trace is an ordered list of TraceRecord rows.  The same records drive
both the in-process metrics at the end of a run and offline replay from
a trace file, so the two can never disagree.  Floats are serialized
with repr() and therefore round-trip exactly.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import NamedTuple, Optional

# record kinds
HELLO_ROUND = "HELLO_ROUND"
ECHO_PROBE = "ECHO_PROBE"
ECHO_REPLY = "ECHO_REPLY"
PACKET_ARRIVAL = "PACKET_ARRIVAL"
CBR_EMIT = "CBR_EMIT"
METRIC_SNAPSHOT = "METRIC_SNAPSHOT"
RUN_END = "RUN_END"
# kinds recorded while forwarding
FORWARD = "FORWARD"
DUPLICATE = "DUPLICATE"
DROP = "DROP"

# drop reasons appearing in DROP record details
REASON_NO_ROUTE = "no_route"
REASON_NO_BUDGET = "no_budget"
REASON_LOSS = "loss"

TRACE_HEADER = "time,kind,node,event_id,detail"

# the identifying scenario fields of one run, with their types: the
# trace's meta line and the first columns of the per-run CSV
RUN_META = {"nodes": int, "sim_time": float, "deadline_ms": float,
            "interval_s": float, "seed": int}
# per-run CSV schema; metric cells are empty when a metric is undefined
RUN_CSV_COLUMNS = list(RUN_META) + [
    "avg_e2e_delay_ms", "pdr", "deadline_miss_ratio",
    "no_route_drops", "loss_drops",
]
GROUP_KEY_COLUMNS = RUN_CSV_COLUMNS[:4]
METRIC_COLUMNS = RUN_CSV_COLUMNS[len(RUN_META):]
AGGREGATE_CSV_COLUMNS = GROUP_KEY_COLUMNS + [
    f"{m}_{suffix}" for m in METRIC_COLUMNS for suffix in ("mean", "std")
]


class TraceRecord(NamedTuple):
    time: float
    kind: str
    node: int
    event_id: int
    detail: str


class TraceError(Exception):
    """A trace file could not be parsed."""


@dataclass(frozen=True)
class RunMetrics:
    """End-of-run summary; ratio fields are None when nothing was sent."""

    sent_events: int
    received_events: int
    avg_e2e_delay: Optional[float]
    pdr: Optional[float]
    deadline_miss_ratio: Optional[float]
    no_route_drops: int
    loss_drops: int


def detail_fields(detail: str) -> dict[str, str]:
    """Split a record's space-separated key=value detail string."""
    out = {}
    for part in detail.split():
        if "=" in part:
            key, _, value = part.partition("=")
            out[key] = value
    return out


def _scan(records):
    """One pass over a trace: emissions, first arrivals and drop counts.

    An arrival or drop of an event not emitted before it, or a drop with
    an unknown reason, is a TraceError naming the event.
    """
    created = {}        # event_id -> (created_at, t_set)
    first_arrival = {}  # event_id -> arrival time
    no_route = 0
    loss = 0
    for rec in records:
        if rec.kind == CBR_EMIT:
            try:
                t_set = float(detail_fields(rec.detail)["tset"])
            except (KeyError, ValueError):
                raise TraceError(f"CBR_EMIT of event {rec.event_id} has no "
                                 f"numeric tset in {rec.detail!r}") from None
            created[rec.event_id] = (rec.time, t_set)
        elif rec.kind in (PACKET_ARRIVAL, DROP):
            if rec.event_id not in created:
                raise TraceError(f"{rec.kind} of event {rec.event_id} comes "
                                 f"before any CBR_EMIT of it")
            if rec.kind == DROP:
                reason = detail_fields(rec.detail).get("reason")
                if reason == REASON_LOSS:
                    loss += 1
                elif reason in (REASON_NO_ROUTE, REASON_NO_BUDGET):
                    no_route += 1     # routing-layer drops: voids and budgets
                else:
                    raise TraceError(f"DROP of event {rec.event_id} has the "
                                     f"unknown reason {reason!r}")
            elif rec.event_id not in first_arrival:
                first_arrival[rec.event_id] = rec.time
    return created, first_arrival, no_route, loss


def compute_run_metrics(records) -> RunMetrics:
    """All per-run metrics in one pass over the trace."""
    created, first_arrival, no_route, loss = _scan(records)
    sent = len(created)
    received = len(first_arrival)
    if sent == 0:
        pdr = miss = None
    else:
        pdr = received / sent
        missed = 0
        for eid, (created_at, t_set) in created.items():
            arrival = first_arrival.get(eid)
            if arrival is None or (arrival - created_at) > t_set:
                missed += 1
        miss = missed / sent
    delays = [t - created[eid][0] for eid, t in first_arrival.items()]
    avg = sum(delays) / len(delays) if delays else None
    return RunMetrics(sent_events=sent, received_events=received,
                      avg_e2e_delay=avg, pdr=pdr, deadline_miss_ratio=miss,
                      no_route_drops=no_route, loss_drops=loss)


def _metric_values(rm: RunMetrics) -> tuple:
    """rm's values in METRIC_COLUMNS order, with the delay in ms."""
    avg_ms = None if rm.avg_e2e_delay is None else rm.avg_e2e_delay * 1000.0
    return (avg_ms, rm.pdr, rm.deadline_miss_ratio, rm.no_route_drops,
            rm.loss_drops)


# ------------------------------------------------------------- aggregation

def aggregate_runs(rows):
    """Per-group mean and sample standard deviation of each metric.

    rows is a list of (group_key, RunMetrics); group order follows first
    appearance.  Undefined metric values are left out of the statistics;
    a group with fewer than two defined values has no deviation.
    Returns a list of (group_key, {metric_column: (mean, std)}).
    """
    groups: dict = {}
    for key, rm in rows:
        groups.setdefault(key, []).append(rm)
    out = []
    for key, members in groups.items():
        metrics = {}
        columns = zip(*(_metric_values(rm) for rm in members))
        for column, cells in zip(METRIC_COLUMNS, columns):
            # float(): equal integer drop counts average to 2.0, not 2
            values = [float(v) for v in cells if v is not None]
            mean = statistics.mean(values) if values else None
            std = statistics.stdev(values) if len(values) >= 2 else None
            metrics[column] = (mean, std)
        out.append((key, metrics))
    return out


# ------------------------------------------------------------ CSV shaping

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def run_meta(scenario_like) -> dict:
    """The identifying columns of one run, from any scenario-shaped object."""
    return {key: kind(getattr(scenario_like, key))
            for key, kind in RUN_META.items()}


def format_run_row(meta: dict, rm: RunMetrics) -> list[str]:
    """One runs-CSV row; meta keys missing (e.g. empty trace) yield blanks."""
    return ([_cell(meta.get(key)) for key in RUN_META]
            + [_cell(value) for value in _metric_values(rm)])


def format_aggregate_row(key, metrics: dict) -> list[str]:
    row = [_cell(v) for v in key]
    for column in METRIC_COLUMNS:
        mean, std = metrics[column]
        row.append(_cell(mean))
        row.append(_cell(std))
    return row


# -------------------------------------------------------------- trace I/O

def write_trace(path, meta: dict, records) -> None:
    """Write a run trace: a meta comment, the header, then one row per record."""
    with open(path, "w") as fh:
        fh.write("# meta " + " ".join(f"{k}={_cell(v)}" for k, v in meta.items())
                 + "\n")
        fh.write(TRACE_HEADER + "\n")
        for rec in records:
            fh.write(f"{rec.time!r},{rec.kind},{rec.node},{rec.event_id},"
                     f"{rec.detail}\n")


def read_trace(path):
    """Parse a trace file back into (meta, records).

    Raises TraceError with the offending line number on malformed input.
    An empty file is a valid, empty trace.
    """
    meta: dict = {}
    records = []
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from None
    body_started = False
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if line.startswith("# meta "):
                for part in line[len("# meta "):].split():
                    key, _, value = part.partition("=")
                    try:
                        meta[key] = RUN_META.get(key, str)(value)
                    except ValueError:
                        raise TraceError(
                            f"{path}:{lineno}: bad meta value {part!r}") from None
            continue
        if not body_started:
            if line != TRACE_HEADER:
                raise TraceError(f"{path}:{lineno}: expected header "
                                 f"{TRACE_HEADER!r}, got {line!r}")
            body_started = True
            continue
        parts = line.split(",", 4)
        if len(parts) != 5:
            raise TraceError(f"{path}:{lineno}: expected 5 fields, "
                             f"got {len(parts)}")
        try:
            records.append(TraceRecord(float(parts[0]), parts[1],
                                       int(parts[2]), int(parts[3]), parts[4]))
        except ValueError as exc:
            raise TraceError(f"{path}:{lineno}: {exc}") from None
    return meta, records
