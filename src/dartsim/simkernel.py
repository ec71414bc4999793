"""Discrete-event simulator for the delay-aware routing protocol.

Event loop design: one heap event per node round (hello or echo), with
the per-neighbor exchanges processed inline so the heap stays small.
Heap entries are (fire_at, seq, handler, args) tuples and run() calls
handler(now, *args).  Pending entries never share a seq, so ties fire
in scheduling order.  Only packet arrivals are scheduled past sim_time.
All randomness comes from a single random.Random(seed) stream, and
neighbors are always visited in ascending id order, so a scenario
replays byte-identically.

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

Draws: an echo probe and a forward each take one load snapshot and
build one hop_delay closure from it, the one home of the MAC delay (its
jitter is CPython's expovariate body, written out), the queue-window
expiry and the per-attempt delay.  A unicast's attempts come from the
run's one attempt_counts generator; its one-way delay is the per-attempt
delay times the attempts.  Order, fixed for replay: a receiver's
broadcast loss (drawn by the caller), the hop's jitter, its attempts.
An ACK draws attempts only and a broadcast draws jitter only; an echo
reply draws nothing and folds its samples in one record_echo_rtts call.
"""

from __future__ import annotations

import heapq
import logging
import math
import random
from collections import deque
from dataclasses import dataclass, field

from .metrics import (CBR_EMIT, DROP, DUPLICATE, ECHO_PROBE, ECHO_REPLY,
                      FORWARD, HELLO_ROUND, METRIC_SNAPSHOT, PACKET_ARRIVAL,
                      REASON_LOSS, REASON_NO_BUDGET, REASON_NO_ROUTE, RUN_END,
                      TraceRecord, compute_run_metrics)
from .protocol import (SPENT, DataPacket, NodeState, decide_forward,
                       learn_neighbor, make_beacon, on_data_arrival_update,
                       record_echo_rtts)
from .scenario import validate

log = logging.getLogger(__name__)


# A closure per load snapshot needs no priming; a live generator's next()
# beats a call, so every unicast's attempts come from one per-run generator.
def hop_delay(sc, load: float, now: float, rng):
    """The delay of one attempt from a sender, under one load snapshot.

    Returns delay(q), where q is the deque of the sender's transmission
    times: it expires q to the queue window and draws the MAC jitter.
    The caller appends `now` to q after the send.
    """
    random, _log = rng.random, math.log
    contention = (sc.base_mac_delay_ms / 1000.0
                  + sc.contention_coeff_ms / 1000.0 * load)
    jitter, tx_delay = sc.jitter_ms / 1000.0, sc.tx_delay_ms / 1000.0
    lambd = 1.0 / jitter if jitter > 0.0 else math.inf
    rate, cut = sc.queue_service_rate, now - sc.queue_window_s

    def delay(q):
        while q and q[0] <= cut:
            q.popleft()
        mac_delay = contention
        if jitter > 0.0:
            mac_delay += -_log(1.0 - random()) / lambd
        return mac_delay + len(q) / rate + tx_delay
    return delay


def attempt_counts(sc, rng):
    """Yield the attempts of one unicast per next(), 0 when it gives up.

    Each attempt fails with probability sc.loss; max_retries + 1
    failures give up.
    """
    random, loss, retries = rng.random, sc.loss, range(2, sc.max_retries + 2)
    while True:
        if random() >= loss:              # most unicasts need one try
            yield 1
        else:                             # the first retry through, or 0
            yield next((n for n in retries if random() >= loss), 0)


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
        positions[scenario.sink] = tuple(scenario.sink_pos)
    elif scenario.placement == "grid":
        cols = math.ceil(math.sqrt(n))
        rows = math.ceil(n / cols)
        sx = scenario.area_width / (cols - 1) if cols > 1 else 0.0
        sy = scenario.area_height / (rows - 1) if rows > 1 else 0.0
        positions = [((k % cols) * sx, (k // cols) * sy) for k in range(n)]
    else:
        positions = [(x, y) for x, y in scenario.positions]

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


@dataclass(slots=True)
class _SimNode:
    state: NodeState
    neighbors: list
    beacon: object                       # HELLO and ACK: nodes never move
    own_tx_times: deque = field(default_factory=deque)
    probes: set = field(default_factory=set)  # neighbors with an echo pending


class Simulation:
    """One scenario run.  Build, then call run() once."""

    def __init__(self, scenario):
        validate(scenario)
        self.scenario = scenario
        self.rng = random.Random(scenario.seed)
        self.attempts = attempt_counts(scenario, self.rng)
        positions, adjacency = build_topology(scenario, self.rng)
        sink = scenario.sink
        dist_to_sink = [math.dist(p, positions[sink]) for p in positions]
        self.nodes = []
        for i, d in enumerate(dist_to_sink):
            state = NodeState(i, d)
            self.nodes.append(_SimNode(state=state, neighbors=adjacency[i],
                                       beacon=make_beacon(state)))
        self.sources = select_sources(scenario, dist_to_sink)
        self.warnings = []
        reachable = _reachable_from(adjacency, sink)
        for s in self.sources:
            if s not in reachable:
                msg = (f"source {s} has no path to sink {sink}; "
                       f"its packets will all be dropped")
                self.warnings.append(msg)
                log.warning(msg)
        self.recent = [0] * scenario.nodes  # each node's entries in the logs
        self.round_log = deque()            # (time, node) per control round
        self.data_log = deque()             # (time, node) per data packet sent
        self.records = []
        self.heap = []
        self.seq = 0
        self.next_event_id = 0
        self.arrived = 0
        self.dropped = 0
        self._ran = False

    # -- scheduling ---------------------------------------------------

    def _schedule(self, fire_at, handler, args=()):
        self.seq += 1
        heapq.heappush(self.heap, (fire_at, self.seq, handler, args))

    def _schedule_all(self):
        sc = self.scenario
        end = sc.sim_time
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
                if t_echo <= end:
                    self._schedule(t_echo, self._on_echo_probe, (i, False))
            # steady refresh rounds, staggered so nodes never align
            stagger = (i + 0.5) / n
            t_hello = sc.hello_period_s * (1.0 + stagger)
            if t_hello <= end:
                self._schedule(t_hello, self._on_hello_round, (i, True))
            t_echo = sc.echo_period_s * (0.5 + stagger)
            if t_echo <= end:
                self._schedule(t_echo, self._on_echo_probe, (i, True))
        t_set = sc.t_set()
        stop = min(sc.cbr_stop(), end)
        for idx, s in enumerate(self.sources):
            # sources interleave their emissions across the interval
            first = sc.cbr_start_s + idx / len(self.sources) * sc.interval_s
            if first <= stop:
                self._schedule(first, self._on_cbr_emit, (s, t_set))
        if 0 < sc.snapshot_period_s <= end:
            # every snapshot keeps the next seq, so each sorts after set-up
            # events and before run-time events that fire at its time
            self._schedule(sc.snapshot_period_s, self._on_snapshot,
                           (self.seq + 1,))

    # -- load accounting ----------------------------------------------

    def _neighborhood_load(self, i, now) -> float:
        """Recent control rounds + data transmissions near node i."""
        sc = self.scenario
        recent = self.recent
        for entries, cut in ((self.round_log, now - sc.ctl_window_s),
                             (self.data_log, now - sc.flow_window_s)):
            while entries and entries[0][0] <= cut:
                recent[entries.popleft()[1]] -= 1
        return float(recent[i] + sum(map(recent.__getitem__,
                                         self.nodes[i].neighbors)))

    def _record(self, time, kind, node, event_id, detail):
        self.records.append(TraceRecord(time, kind, node, event_id, detail))

    # -- handlers -------------------------------------------------------

    def _on_hello_round(self, now, i, steady):
        node = self.nodes[i]
        table = node.state.forwarding_table
        self.round_log.append((now, i))
        self.recent[i] += 1
        node.own_tx_times.append(now)
        p = self.scenario.loss
        attempts, random, nodes = self.attempts, self.rng.random, self.nodes
        acks = 0
        for j in node.neighbors:
            if random() < p:
                continue                      # broadcast lost at j
            peer = nodes[j]
            if i not in peer.state.forwarding_table:
                learn_neighbor(peer.state, node.beacon)
            peer.own_tx_times.append(now)     # the ACK transmission
            if next(attempts):
                if j not in table:
                    learn_neighbor(node.state, peer.beacon)
                acks += 1
        self._record(now, HELLO_ROUND, i, -1,
                     f"acks={acks} energy={self.scenario.initial_energy_j!r}")
        if steady:
            nxt = now + self.scenario.hello_period_s
            if nxt <= self.scenario.sim_time:
                self._schedule(nxt, self._on_hello_round, (i, True))

    def _on_echo_probe(self, now, i, steady):
        node = self.nodes[i]
        load = self._neighborhood_load(i, now)
        self.round_log.append((now, i))
        self.recent[i] += 1
        p = self.scenario.loss
        # reply legs share the prober's snapshot: both ends of an echo
        # share one contention region to first order
        delay_of = hop_delay(self.scenario, load, now, self.rng)
        probe_delay = delay_of(node.own_tx_times)
        node.own_tx_times.append(now)
        node.probes.update(node.neighbors)
        attempts, random, nodes = self.attempts, self.rng.random, self.nodes
        measurements, longest = [], 0.0
        for j in node.neighbors:
            if random() < p:
                continue                      # probe lost at j
            q = nodes[j].own_tx_times
            delay, n = delay_of(q), next(attempts)   # jitter, then attempts
            q.append(now)                     # the reply transmission
            if n:
                rtt = probe_delay + delay * n
                measurements.append((j, rtt))
                if rtt > longest:
                    longest = rtt
        self._record(now, ECHO_PROBE, i, -1,
                     f"neighbors={len(node.neighbors)} replies={len(measurements)}")
        reply_at = now + longest
        if measurements and reply_at <= self.scenario.sim_time:
            self._schedule(reply_at, self._on_echo_reply, (i, measurements))
        if steady:
            nxt = now + self.scenario.echo_period_s
            if nxt <= self.scenario.sim_time:
                self._schedule(nxt, self._on_echo_probe, (i, True))

    def _on_echo_reply(self, now, i, measurements):
        node = self.nodes[i]
        applied = record_echo_rtts(node.state, node.probes, measurements,
                                   self.scenario.echo_alpha)
        self._record(now, ECHO_REPLY, i, -1, f"measured={applied}")

    def _on_cbr_emit(self, now, nid, t_set):
        eid = self.next_event_id
        self.next_event_id += 1
        pkt = DataPacket(event_id=eid, source_id=nid, t_l=t_set,
                         created_at=now)
        self._record(now, CBR_EMIT, nid, eid, f"tset={t_set!r}")
        self._forward_from(nid, pkt, now)
        sc = self.scenario
        nxt = now + sc.interval_s
        if nxt <= min(sc.cbr_stop(), sc.sim_time):
            self._schedule(nxt, self._on_cbr_emit, (nid, t_set))

    def _forward_from(self, i, pkt, now):
        node = self.nodes[i]
        st = node.state
        decision = decide_forward(st, pkt)
        if decision.primary_next_hop is None:
            reason = REASON_NO_BUDGET if decision is SPENT else REASON_NO_ROUTE
            self.dropped += 1
            self._record(now, DROP, i, pkt.event_id,
                         f"reason={reason} dup={int(pkt.is_duplicate)}")
            return
        load = self._neighborhood_load(i, now)
        d_here = st.dist_to_sink
        targets = [(decision.primary_next_hop, pkt)]
        if decision.duplicate_next_hop is not None:
            self._record(now, DUPLICATE, i, pkt.event_id,
                         f"to={decision.duplicate_next_hop}")
            targets.append((decision.duplicate_next_hop,
                            pkt._replace(is_duplicate=True)))
        delay_of = hop_delay(self.scenario, load, now, self.rng)
        for j, copy in targets:
            self.data_log.append((now, i))
            self.recent[i] += 1
            delay, n = delay_of(node.own_tx_times), next(self.attempts)
            if not n:
                self.dropped += 1
                self._record(now, DROP, i, copy.event_id,
                             f"reason={REASON_LOSS} dup={int(copy.is_duplicate)}")
                continue
            self._record(now, FORWARD, i, copy.event_id,
                         f"to={j} dup={int(copy.is_duplicate)} "
                         f"d={d_here!r} tl={copy.t_l!r}")
            delay *= n
            self._schedule(now + delay, self._on_packet_arrival,
                           (j, copy, delay))
        node.own_tx_times.extend([now] * len(targets))  # after both sends

    def _on_packet_arrival(self, now, j, pkt, link_delay):
        updated = on_data_arrival_update(pkt, link_delay)
        if j == self.scenario.sink:
            self.arrived += 1
            e2e = now - updated.created_at
            self._record(now, PACKET_ARRIVAL, j, updated.event_id,
                         f"delay={e2e!r} tl={updated.t_l!r} "
                         f"dup={int(updated.is_duplicate)} "
                         f"hops={updated.hop_count}")
        else:
            self._forward_from(j, updated, now)

    def _on_snapshot(self, now, seq):
        self._record(now, METRIC_SNAPSHOT, -1, -1,
                     f"emitted={self.next_event_id} arrived={self.arrived} "
                     f"dropped={self.dropped}")
        nxt = now + self.scenario.snapshot_period_s
        if nxt <= self.scenario.sim_time:
            # only one snapshot is ever pending, so its seq stays unique
            heapq.heappush(self.heap, (nxt, seq, self._on_snapshot, (seq,)))

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
