"""Discrete-event simulator for the delay-aware routing protocol.

Event loop design: one heap event per node round (hello or echo), with
the per-neighbor exchanges processed inline so the heap stays small.
Heap entries are (fire_at, seq, handler, args) tuples and run() calls
handler(now, *args).  Each push takes a fresh seq, so ties fire in
scheduling order.  _schedule is the one horizon test: an event due after
sim_time is dropped before it takes a seq; only packet arrivals, pushed
directly, land past it.  A node's protocol state is its NodeState,
channel state one list per field.  All randomness comes from a single
random.Random(seed) stream, and neighbors are always visited in
ascending id order, so a scenario replays byte-identically.

Load model: contention at a node is the count of control rounds
started in its closed neighborhood within ctl_window_s, plus the count
of data packet transmissions there within flow_window_s, so data
contention scales with the packet rate.  Rounds and data transmissions
go to two simulation-wide (time, node) logs, and recent[node] counts
the node's entries still in them; since time never runs backwards, a
load query expires old entries from the log fronts and sums the counts
of the neighborhood, whatever its size.  Queue wait is the node's own
transmissions within queue_window_s divided by the service rate.  Load
and occupancy are always taken before the current transmission is
recorded, so a packet never waits on itself.

Draws: channel() binds the MAC and queue constants once per run.  An
echo probe and a forward each take one load snapshot and build one delay
closure from it with hop_delay(load, now): the one home of the MAC delay
(its jitter is CPython's expovariate body, written out), the queue-window
expiry and the per-attempt delay.  A unicast draws its first try inline
as random() >= loss and calls the run's one retry() from retries() only
when that try fails; its one-way delay is the per-attempt delay times
the try that got through.  Order, fixed for replay: a receiver's
broadcast loss, the hop's jitter, its tries.  An ACK draws tries only
and a broadcast draws jitter only; an echo reply draws nothing and folds
its samples in one record_echo_rtts call.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
import random
from collections import deque

from .metrics import (CBR_EMIT, DROP, DUPLICATE, ECHO_PROBE, ECHO_REPLY,
                      FORWARD, HELLO_ROUND, PACKET_ARRIVAL, REASON_LOSS,
                      REASON_NO_BUDGET, REASON_NO_ROUTE, RUN_END, TraceRecord,
                      compute_run_metrics)
from .protocol import (SPENT, DataPacket, ForwardingEntry, NodeState,
                       decide_forward, on_data_arrival_update,
                       record_echo_rtts)
from .scenario import validate

log = logging.getLogger(__name__)


def channel(sc, rng):
    """Bind a run's MAC and queue constants; returns hop_delay(load, now).

    hop_delay gives delay(q), one attempt's delay under that load snapshot
    from a sender whose transmission times are the deque q: it expires q to
    the queue window and draws the MAC jitter.  The caller appends `now`.
    """
    random, _log = rng.random, math.log
    base = sc.base_mac_delay_ms / 1000.0
    coeff = sc.contention_coeff_ms / 1000.0
    jitter, tx_delay = sc.jitter_ms / 1000.0, sc.tx_delay_ms / 1000.0
    lambd = 1.0 / jitter if jitter > 0.0 else math.inf
    rate, window = sc.queue_service_rate, sc.queue_window_s

    def hop_delay(load: float, now: float):
        contention, cut = base + coeff * load, now - window
        def delay(q):
            while q and q[0] <= cut:
                q.popleft()
            mac_delay = (contention - _log(1.0 - random()) / lambd
                         if jitter > 0.0 else contention)
            return mac_delay + len(q) / rate + tx_delay
        return delay
    return hop_delay


def retries(sc, rng):
    """Bind a unicast's retries; returns retry().

    The caller draws the first try as random() >= sc.loss.  Only when it
    fails, retry() draws tries 2 to max_retries + 1 and returns the try
    that got through, or 0 when every one failed.
    """
    random, loss, tries = rng.random, sc.loss, range(2, sc.max_retries + 2)

    def retry():
        for n in tries:
            if random() >= loss:
                return n
        return 0
    return retry


def build_topology(scenario, rng) -> tuple:
    """Place nodes and compute the radio adjacency.

    Returns (positions, adjacency): an (x, y) tuple per node id, and a
    sorted neighbor id list per node id.  uniform: independent draws from
    rng in the area, with the sink pinned to sink_pos.  grid: near-square
    lattice filling the area, node 0 at the origin.  explicit: positions
    taken verbatim from the scenario.
    """
    n = scenario.nodes
    if scenario.placement == "uniform":
        positions = [(rng.uniform(0.0, scenario.area_width),
                      rng.uniform(0.0, scenario.area_height))
                     for _ in range(n)]
        positions[scenario.sink] = scenario.sink_pos
    elif scenario.placement == "grid":
        cols = math.ceil(math.sqrt(n))
        rows = math.ceil(n / cols)
        sx = scenario.area_width / (cols - 1)      # nodes >= 2: cols >= 2
        sy = scenario.area_height / (rows - 1) if rows > 1 else 0.0
        positions = [((k % cols) * sx, (k // cols) * sy) for k in range(n)]
    else:
        positions = list(scenario.positions)

    dist, tx_range = math.dist, scenario.tx_range
    adjacency = [[] for _ in range(n)]
    for i in range(n):
        here, near = positions[i], adjacency[i]
        for j in range(i + 1, n):
            if dist(here, positions[j]) <= tx_range:
                near.append(j)
                adjacency[j].append(i)
    return positions, adjacency


def select_sources(scenario, dist_to_sink) -> list:
    """Pick CBR source ids: explicit list, or the farthest-from-sink nodes."""
    if scenario.cbr_sources is not None:
        return list(scenario.cbr_sources)
    candidates = [i for i in range(scenario.nodes) if i != scenario.sink]
    candidates.sort(key=lambda i: (-dist_to_sink[i], i))
    return sorted(candidates[:scenario.cbr_count])


def _reachable_from(adjacency, start) -> set:
    seen = {start}
    frontier = [start]
    while frontier:
        here = frontier.pop()
        for nxt in adjacency[here]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


class Simulation:
    """One scenario run.  Build, then call run() once."""

    def __init__(self, scenario):
        validate(scenario)
        self.scenario = scenario
        self.sink = sink = scenario.sink
        self.rng = random.Random(scenario.seed)
        self.retry = retries(scenario, self.rng)
        self.hop_delay = channel(scenario, self.rng)
        positions, adjacency = build_topology(scenario, self.rng)
        dists = [math.dist(p, positions[sink]) for p in positions]
        self.states = [NodeState(i, d) for i, d in enumerate(dists)]
        self.neighbors = adjacency
        self.queues = [deque() for _ in adjacency]  # own transmission times
        self.dist_texts = [repr(d) for d in dists]  # FORWARD's d=
        self.sources = select_sources(scenario, dists)
        reachable = _reachable_from(adjacency, sink)
        for s in self.sources:
            if s not in reachable:
                log.warning(f"source {s} has no path to sink {sink}; "
                            f"its packets will all be dropped")
        self.recent = [0] * scenario.nodes  # each node's entries in the logs
        self.round_log = deque()            # (time, node) per control round
        self.data_log = deque()             # (time, node) per data packet sent
        self.windows = ((self.round_log, scenario.ctl_window_s),
                        (self.data_log, scenario.flow_window_s))
        self.t_set = scenario.t_set()
        self.emit_detail = f"tset={self.t_set!r}"
        self.end = scenario.sim_time
        self.cbr_end = scenario.cbr_stop()
        self.records = []
        self.heap = []
        self.seq = itertools.count(1)
        self.next_event_id = 0
        self._ran = False

    # -- scheduling ---------------------------------------------------

    def _schedule(self, fire_at, handler, args=()):
        if fire_at <= self.end:
            heapq.heappush(self.heap, (fire_at, next(self.seq), handler, args))

    def _schedule_all(self):
        sc = self.scenario
        end = self.end
        self._schedule(end, self._on_run_end)
        n = sc.nodes
        for i in range(n):
            # dense bootstrap rounds fill tables quickly after power-on
            offset = (i + 1) / (n + 1) * sc.bootstrap_spread_s
            for k in range(sc.bootstrap_rounds):
                t_hello = offset + k * sc.bootstrap_gap_s
                if t_hello > end:
                    # no later round fits: t_echo >= t_hello, both grow with k
                    break
                self._schedule(t_hello, self._on_hello_round, (i, False))
                t_echo = offset + sc.bootstrap_spread_s + k * sc.bootstrap_gap_s
                self._schedule(t_echo, self._on_echo_probe, (i, False))
            # steady refresh rounds, staggered so nodes never align
            stagger = (i + 0.5) / n
            self._schedule(sc.hello_period_s * (1.0 + stagger),
                           self._on_hello_round, (i, True))
            self._schedule(sc.echo_period_s * (0.5 + stagger),
                           self._on_echo_probe, (i, True))
        for idx, s in enumerate(self.sources):
            # sources interleave their emissions across the interval
            first = sc.cbr_start_s + idx / len(self.sources) * sc.interval_s
            if first <= self.cbr_end:
                self._schedule(first, self._on_cbr_emit, (s,))

    # -- load accounting ----------------------------------------------

    def _neighborhood_load(self, i, now) -> float:
        """Recent control rounds + data transmissions near node i."""
        recent = self.recent
        for entries, window in self.windows:
            cut = now - window
            while entries and entries[0][0] <= cut:
                recent[entries.popleft()[1]] -= 1
        return float(recent[i] + sum(map(recent.__getitem__,
                                         self.neighbors[i])))

    def _record(self, *fields):         # time, kind, node, event_id, detail
        self.records.append(tuple.__new__(TraceRecord, fields))

    # -- handlers -------------------------------------------------------

    def _on_hello_round(self, now, i, steady):
        states, queues = self.states, self.queues
        table, dist = states[i].forwarding_table, states[i].dist_to_sink
        self.round_log.append((now, i))
        self.recent[i] += 1
        queues[i].append(now)
        p, random, retry = self.scenario.loss, self.rng.random, self.retry
        acks = 0
        for j in self.neighbors[i]:
            if random() < p:
                continue                      # broadcast lost at j
            peer = states[j]
            if i not in peer.forwarding_table:
                peer.forwarding_table[i] = ForwardingEntry(dist)
            queues[j].append(now)             # the ACK transmission
            if random() >= p or retry():
                if j not in table:
                    table[j] = ForwardingEntry(peer.dist_to_sink)
                acks += 1
        self._record(now, HELLO_ROUND, i, -1, f"acks={acks}")
        if steady:
            self._schedule(now + self.scenario.hello_period_s,
                           self._on_hello_round, (i, True))

    def _on_echo_probe(self, now, i, steady):
        neighbors, own = self.neighbors[i], self.queues[i]
        load = self._neighborhood_load(i, now)
        self.round_log.append((now, i))
        self.recent[i] += 1
        # reply legs share the prober's snapshot: both ends of an echo
        # share one contention region to first order
        delay_of = self.hop_delay(load, now)
        probe_delay = delay_of(own)
        own.append(now)
        self.states[i].pending.update(neighbors)
        p, random, retry = self.scenario.loss, self.rng.random, self.retry
        queues, measurements, longest = self.queues, [], 0.0
        for j in neighbors:
            if random() < p:
                continue                      # probe lost at j
            q = queues[j]
            delay = delay_of(q)               # jitter, then tries
            q.append(now)                     # the reply transmission
            n = 1 if random() >= p else retry()
            if n:
                rtt = probe_delay + delay * n
                measurements.append((j, rtt))
                if rtt > longest:
                    longest = rtt
        self._record(now, ECHO_PROBE, i, -1,
                     f"neighbors={len(neighbors)} replies={len(measurements)}")
        if measurements:
            self._schedule(now + longest, self._on_echo_reply,
                           (i, measurements))
        if steady:
            self._schedule(now + self.scenario.echo_period_s,
                           self._on_echo_probe, (i, True))

    def _on_echo_reply(self, now, i, measurements):
        applied = record_echo_rtts(self.states[i], measurements,
                                   self.scenario.echo_alpha)
        self._record(now, ECHO_REPLY, i, -1, f"measured={applied}")

    def _on_cbr_emit(self, now, nid):
        eid = self.next_event_id
        self.next_event_id += 1
        self._record(now, CBR_EMIT, nid, eid, self.emit_detail)
        self._forward_from(nid, DataPacket(eid, nid, self.t_set, now), now)
        nxt = now + self.scenario.interval_s
        if nxt <= self.cbr_end:
            self._schedule(nxt, self._on_cbr_emit, (nid,))

    def _forward_from(self, i, pkt, now):
        decision = decide_forward(self.states[i], pkt)
        primary, duplicate, _ = decision
        if primary is None:
            reason = REASON_NO_BUDGET if decision is SPENT else REASON_NO_ROUTE
            self._record(now, DROP, i, pkt.event_id,
                         f"reason={reason} dup={pkt.is_duplicate:d}")
            return
        load = self._neighborhood_load(i, now)
        targets = ((primary, pkt),)
        if duplicate is not None:
            self._record(now, DUPLICATE, i, pkt.event_id, f"to={duplicate}")
            targets += ((duplicate, DataPacket(*pkt[:5], True)),)
        dist_text = self.dist_texts[i]
        own, delay_of = self.queues[i], self.hop_delay(load, now)
        for j, copy in targets:
            self.data_log.append((now, i))
            self.recent[i] += 1
            delay = delay_of(own)
            n = 1 if self.rng.random() >= self.scenario.loss else self.retry()
            if not n:
                self._record(now, DROP, i, copy.event_id,
                             f"reason={REASON_LOSS} dup={copy.is_duplicate:d}")
                continue
            self._record(now, FORWARD, i, copy.event_id,
                         f"to={j} dup={copy.is_duplicate:d} "
                         f"d={dist_text} tl={copy.t_l!r}")
            delay *= n                    # arrivals may land past sim_time
            heapq.heappush(self.heap, (now + delay, next(self.seq),
                                       self._on_packet_arrival,
                                       (j, copy, delay)))
        own.extend([now] * len(targets))  # after both sends

    def _on_packet_arrival(self, now, j, pkt, link_delay):
        updated = on_data_arrival_update(pkt, link_delay)
        if j == self.sink:
            e2e = now - updated.created_at
            self._record(now, PACKET_ARRIVAL, j, updated.event_id,
                         f"delay={e2e!r} tl={updated.t_l!r} "
                         f"dup={updated.is_duplicate:d} "
                         f"hops={updated.hop_count}")
        else:
            self._forward_from(j, updated, now)

    def _on_run_end(self, now):
        self._record(now, RUN_END, -1, -1, "-")

    # -- main loop ------------------------------------------------------

    def run(self):
        """Execute the scenario; returns (records, RunMetrics)."""
        if self._ran:
            raise RuntimeError("a Simulation can only run once")
        self._ran = True
        # handlers bind here so wrappers set on the instance see every event
        self._schedule_all()
        heap = self.heap
        while heap:
            now, _, handler, args = heapq.heappop(heap)
            handler(now, *args)
        return self.records, compute_run_metrics(self.records)
