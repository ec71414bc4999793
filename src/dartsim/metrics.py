"""Run metrics, computed from traces, and their CSV/trace file formats.

A trace is an ordered list of TraceRecord rows.  The same records drive
both the in-process metrics at the end of a run and offline replay from
a trace file, so the two can never disagree.  Floats are serialized
with repr() and therefore round-trip exactly.  Writing renders a time
once for consecutive records holding the same float object, and reading
parses a time or event-id text once for consecutive lines holding the
same text.  Reading interns each record's kind as its module constant
and rejects an unknown kind.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import NamedTuple, Optional

# record kinds
HELLO_ROUND = "HELLO_ROUND"
ECHO_PROBE = "ECHO_PROBE"
ECHO_REPLY = "ECHO_REPLY"
PACKET_ARRIVAL = "PACKET_ARRIVAL"
CBR_EMIT = "CBR_EMIT"
# no run writes it; kept for older traces and perfbench/gate.py's import
METRIC_SNAPSHOT = "METRIC_SNAPSHOT"
RUN_END = "RUN_END"
# kinds recorded while forwarding
FORWARD = "FORWARD"
DUPLICATE = "DUPLICATE"
DROP = "DROP"
# each kind a trace may hold, mapped to itself: reading interns and checks it
_KINDS = {kind: kind for kind in (
    HELLO_ROUND, ECHO_PROBE, ECHO_REPLY, PACKET_ARRIVAL, CBR_EMIT,
    METRIC_SNAPSHOT, RUN_END, FORWARD, DUPLICATE, DROP)}

# drop reasons appearing in DROP record details
REASON_NO_ROUTE = "no_route"
REASON_NO_BUDGET = "no_budget"
REASON_LOSS = "loss"

TRACE_HEADER = "time,kind,node,event_id,detail"

# the identifying scenario fields of one run, with their types, the seed
# last: the trace's meta line and the first columns of the per-run CSV
RUN_META = {"nodes": int, "sim_time": float, "deadline_ms": float,
            "interval_s": float, "seed": int}
# per-run CSV schema; metric cells are empty when a metric is undefined
RUN_CSV_COLUMNS = list(RUN_META) + [
    "avg_e2e_delay_ms", "pdr", "deadline_miss_ratio",
    "no_route_drops", "loss_drops",
]
METRIC_COLUMNS = RUN_CSV_COLUMNS[len(RUN_META):]
# aggregate CSV schema: the run meta columns but the seed, then statistics
AGGREGATE_CSV_COLUMNS = RUN_CSV_COLUMNS[:len(RUN_META) - 1] + [
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


def compute_run_metrics(records) -> RunMetrics:
    """All per-run metrics in one pass over the trace.

    A repeated CBR_EMIT, an arrival or drop not emitted before, or a drop
    with an unknown reason, is a TraceError naming the event.
    """
    created = {}        # event_id -> (created_at, t_set)
    arrived = set()     # events whose first arrival is counted
    tsets, is_loss = {}, {}   # each detail text, parsed once: t_set / loss?
    no_route = loss = late = 0
    # delays added one by one in first-arrival order, not by sum(), whose
    # compensated sum since CPython 3.12 can change the mean's last bit
    total = 0.0
    for time, kind, _, event_id, detail in records:
        if kind == CBR_EMIT:
            if event_id in created:
                raise TraceError(f"CBR_EMIT of event {event_id} is repeated")
            t_set = tsets.get(detail)
            if t_set is None:
                try:
                    t_set = tsets[detail] = float(detail_fields(detail)["tset"])
                except (KeyError, ValueError):
                    raise TraceError(f"CBR_EMIT of event {event_id} has no "
                                     f"numeric tset in {detail!r}") from None
            created[event_id] = (time, t_set)
        elif kind == PACKET_ARRIVAL or kind == DROP:
            if event_id not in created:
                raise TraceError(f"{kind} of event {event_id} comes "
                                 f"before any CBR_EMIT of it")
            if kind == DROP:
                lost = is_loss.get(detail)
                if lost is None:
                    reason = detail_fields(detail).get("reason")
                    if reason not in (REASON_LOSS, REASON_NO_ROUTE,
                                      REASON_NO_BUDGET):
                        raise TraceError(f"DROP of event {event_id} has the "
                                         f"unknown reason {reason!r}")
                    lost = is_loss[detail] = reason == REASON_LOSS
                if lost:
                    loss += 1
                else:
                    no_route += 1     # routing-layer drops: voids and budgets
            elif event_id not in arrived:
                arrived.add(event_id)
                created_at, t_set = created[event_id]
                total += time - created_at
                late += (time - created_at) > t_set
    sent, received = len(created), len(arrived)
    pdr = received / sent if sent else None
    # a miss never arrived, or arrived late
    miss = (sent - received + late) / sent if sent else None
    avg = total / received if received else None
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

    rows is a list of (key cells, RunMetrics); group order follows first
    appearance.  Returns one row of cells per group: its key cells, then
    each metric's mean and std in METRIC_COLUMNS order.  Undefined metric
    values are left out of the statistics; a group with fewer than two
    defined values has an empty std.
    """
    groups: dict = {}
    for key, rm in rows:
        groups.setdefault(tuple(key), []).append(_metric_values(rm))
    out = []
    for key, members in groups.items():
        row = list(key)
        for cells in zip(*members):
            # float(): equal integer drop counts average to 2.0, not 2
            values = [float(v) for v in cells if v is not None]
            row.append(_cell(statistics.mean(values) if values else None))
            row.append(_cell(statistics.stdev(values) if len(values) >= 2
                             else None))
        out.append(row)
    return out


# ------------------------------------------------------------ CSV shaping

def _cell(value) -> str:
    return "" if value is None else str(value)


def run_meta(scenario_like) -> dict:
    """The identifying columns of one run, from any scenario-shaped object."""
    return {key: kind(getattr(scenario_like, key))
            for key, kind in RUN_META.items()}


def format_run_row(meta: dict, rm: RunMetrics) -> list[str]:
    """One runs-CSV row; meta keys missing (e.g. empty trace) yield blanks."""
    return ([_cell(meta.get(key)) for key in RUN_META]
            + [_cell(value) for value in _metric_values(rm)])


# -------------------------------------------------------------- trace I/O

def _meta_value(key: str, text: str):
    """A meta text as RUN_META types key (else str); None unless finite."""
    try:
        value = RUN_META.get(key, str)(text)
    except ValueError:
        return None
    return value if key not in RUN_META or math.isfinite(value) else None


def write_trace(path, meta: dict, records) -> None:
    """Write a run trace: a meta comment, the header, then one row per record.

    A meta pair read_trace would misread or refuse, an unknown kind or a
    detail holding '\\r' or '\\n' raises ValueError; no file is written.
    """
    cells = {k: _cell(v) for k, v in meta.items()}
    for k, text in cells.items():
        pair = f"{k}={text}"
        if pair.count("=") > 1 or pair.split() != [pair]:
            raise ValueError(f"meta key {k!r} or its value {text!r} holds "
                             "whitespace or '='")
        if _meta_value(k, text) is None:
            raise ValueError(f"bad meta value {pair!r}")
    rows, kinds, last = [], _KINDS, object()
    try:
        for time, kind, node, event_id, detail in records:
            if time is not last:        # not ==: 0.0 and -0.0 render apart
                text, last = repr(time), time
            rows.append(f"{text},{kinds[kind]},{node},{event_id},{detail}\n")
    except KeyError:
        raise ValueError(f"record {len(rows)} has the unknown kind "
                         f"{kind!r}") from None
    body = "".join(rows)
    if "\r" in body or body.count("\n") != len(rows):
        n = next(n for n, row in enumerate(rows)
                 if "\r" in row or row.count("\n") > 1)
        raise ValueError(f"record {n} holds a line break: {rows[n]!r}")
    with open(path, "w") as fh:
        fh.write("# meta " + " ".join(f"{k}={v}" for k, v in cells.items())
                 + "\n" + TRACE_HEADER + "\n")
        fh.write(body)


def read_trace(path):
    """Parse a trace file back into (meta, records).

    Raises TraceError with the line number of malformed input, an unknown
    kind or a non-finite or backward time.  An empty file is an empty trace.
    """
    meta: dict = {}
    records = []
    try:
        with open(path) as fh:
            lines = fh.read().split("\n")   # a detail may hold other breaks
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from None
    append, new, isfinite = records.append, tuple.__new__, math.isfinite
    kinds, now = {}, -math.inf  # no record before the header, nor back in time
    last_time = last_id = None  # the texts that now and eid were parsed from
    for lineno, line in enumerate(lines, start=1):
        try:
            time, kind, node, event_id, detail = line.split(",", 4)
            if time != last_time:
                if not (isfinite(t := float(time)) and t >= now):
                    raise ValueError(f"time {time} is not finite or runs backwards")
                now, last_time = t, time
            append(new(TraceRecord, (now, kinds[kind], int(node), eid
                                     if event_id == last_id
                                     else (eid := int(event_id)), detail)))
            last_id = event_id
        except (KeyError, ValueError) as exc:
            # only a line that is not a record is looked at again
            if line.startswith("# meta "):
                for part in line[len("# meta "):].split():
                    key, _, value = part.partition("=")
                    meta[key] = _meta_value(key, value)
                    if meta[key] is None:
                        raise TraceError(f"{path}:{lineno}: bad meta value "
                                         f"{part!r}") from None
            elif line.startswith("#") or not line.strip():
                pass
            elif not kinds:
                if line != TRACE_HEADER:
                    raise TraceError(f"{path}:{lineno}: expected header "
                                     f"{TRACE_HEADER!r}, got {line!r}") from None
                kinds = _KINDS
            elif isinstance(exc, KeyError):
                raise TraceError(f"{path}:{lineno}: unknown record kind "
                                 f"{kind!r}") from None
            else:
                fields = line.count(",") + 1
                raise TraceError(f"{path}:{lineno}: " + (
                    str(exc) if fields >= 5
                    else f"expected 5 fields, got {fields}")) from None
    return meta, records
