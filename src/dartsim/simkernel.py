"""Discrete-event simulator for the delay-aware routing protocol.

Event loop design: one heap event per node round (hello or echo), with
the per-neighbor exchanges processed inline so the heap stays small.
Heap entries are (fire_at, seq, kind, payload) tuples; seq is unique,
so ties fire in scheduling order and payloads are never compared.
All randomness comes from a single random.Random(seed) stream, and
neighbors are always visited in ascending id order, so a scenario
replays byte-identically.

Load model: each node keeps short deques of recent transmissions.
Contention at a node is the count of control rounds started in its
closed neighborhood within ctl_window_s, plus the count of data packet
transmissions there within flow_window_s, so data contention scales
with the packet rate.  Queue wait is the node's own transmissions
within queue_window_s divided by the service rate.  Load and occupancy
are always snapshotted before the current transmission is recorded, so
a packet never waits on itself.
"""

from __future__ import annotations

import heapq
import logging
import math
import random
from collections import deque
from dataclasses import dataclass, replace, field

from .core import DataPacket, LinkDelayComponents, NodePos, distance
from .metrics import (CBR_EMIT, DROP, DUPLICATE, ECHO_PROBE, ECHO_REPLY,
                      FORWARD, HELLO_ROUND, METRIC_SNAPSHOT, PACKET_ARRIVAL,
                      REASON_LOSS, REASON_NO_BUDGET, REASON_NO_ROUTE, RUN_END,
                      TraceRecord, compute_run_metrics)
from .protocol import (NodeState, decide_forward, make_hello, on_ack,
                       on_data_arrival_update, on_hello, record_echo_rtt,
                       synthesize_one_way_delay)

log = logging.getLogger(__name__)


@dataclass(slots=True)
class MacDelayModel:
    """Per-hop delay knobs, all in seconds."""
    base_mac_delay: float = 0.0003
    queue_service_rate: float = 4000.0
    tx_delay: float = 0.00026
    contention_coeff: float = 0.0001
    max_retries: int = 4
    jitter_mean: float = 0.00005


def sample_tx_count(loss_probability: float, max_retries: int, rng) -> tuple:
    """Draw how many transmission attempts a unicast takes.

    Returns (attempts, delivered).  Each attempt independently fails
    with loss_probability; after 1 + max_retries failures the packet is
    given up on, so attempts never exceeds max_retries + 1.
    """
    for attempt in range(1, max_retries + 2):
        if rng.random() >= loss_probability:
            return attempt, True
    return max_retries + 1, False


def sample_mac_delay(mac: MacDelayModel, local_load: float, rng) -> float:
    """Channel access delay: base plus contention, plus exponential jitter."""
    mac_delay = mac.base_mac_delay + mac.contention_coeff * local_load
    if mac.jitter_mean > 0.0:
        mac_delay += rng.expovariate(1.0 / mac.jitter_mean)
    return mac_delay


def sample_link_delay(mac: MacDelayModel, loss_probability: float,
                      local_load: float, queue_occupancy: int, rng) -> tuple:
    """Draw one hop's delay components under the current load.

    Returns (LinkDelayComponents, delivered).  The components are
    reported even when delivery fails, since the channel time was spent
    either way.
    """
    mac_delay = sample_mac_delay(mac, local_load, rng)
    queue_delay = queue_occupancy / mac.queue_service_rate
    attempts, delivered = sample_tx_count(loss_probability, mac.max_retries, rng)
    comps = LinkDelayComponents(mac_delay=mac_delay, queue_delay=queue_delay,
                                tx_delay=mac.tx_delay, tx_count=attempts)
    return comps, delivered


@dataclass
class Topology:
    positions: list            # NodePos per node id
    adjacency: list            # sorted neighbor id list per node id


def build_topology(scenario, rng=None) -> Topology:
    """Place nodes and compute the radio adjacency.

    uniform: independent draws in the area, with the sink pinned to
    sink_pos.  grid: near-square lattice filling the area, node 0 at the
    origin.  explicit: positions taken verbatim from the scenario.
    """
    n = scenario.nodes
    if scenario.placement == "uniform":
        if rng is None:
            rng = random.Random(scenario.seed)
        positions = [NodePos(rng.uniform(0.0, scenario.area_width),
                             rng.uniform(0.0, scenario.area_height))
                     for _ in range(n)]
        positions[scenario.sink] = NodePos(*scenario.sink_pos)
    elif scenario.placement == "grid":
        cols = math.ceil(math.sqrt(n))
        rows = math.ceil(n / cols)
        sx = scenario.area_width / (cols - 1) if cols > 1 else 0.0
        sy = scenario.area_height / (rows - 1) if rows > 1 else 0.0
        positions = [NodePos((k % cols) * sx, (k // cols) * sy)
                     for k in range(n)]
    else:
        positions = [NodePos(x, y) for x, y in scenario.positions]

    adjacency = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if distance(positions[i], positions[j]) <= scenario.tx_range:
                adjacency[i].append(j)
                adjacency[j].append(i)
    return Topology(positions=positions, adjacency=adjacency)


def select_sources(scenario, positions) -> list:
    """Pick CBR source ids: explicit list, or the farthest-from-sink nodes."""
    if scenario.cbr_sources is not None:
        return list(scenario.cbr_sources)
    sink_pos = positions[scenario.sink]
    candidates = [i for i in range(scenario.nodes) if i != scenario.sink]
    candidates.sort(key=lambda i: (-distance(positions[i], sink_pos), i))
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
    nbhd: list                           # [own id] + neighbors
    round_times: deque = field(default_factory=deque)
    own_tx_times: deque = field(default_factory=deque)
    data_tx_times: deque = field(default_factory=deque)
    probes: set = field(default_factory=set)  # neighbors with an echo pending


class Simulation:
    """One scenario run.  Build, then call run() once."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.rng = random.Random(scenario.seed)
        self.topology = build_topology(scenario, self.rng)
        self.mac = MacDelayModel(
            base_mac_delay=scenario.base_mac_delay_ms / 1000.0,
            queue_service_rate=scenario.queue_service_rate,
            tx_delay=scenario.tx_delay_ms / 1000.0,
            contention_coeff=scenario.contention_coeff_ms / 1000.0,
            max_retries=scenario.max_retries,
            jitter_mean=scenario.jitter_ms / 1000.0)
        self.sink_id = scenario.sink
        sink_pos = self.topology.positions[self.sink_id]
        self.nodes = []
        for i in range(scenario.nodes):
            state = NodeState(my_id=i, my_pos=self.topology.positions[i],
                              sink_id=self.sink_id, sink_pos=sink_pos,
                              residual_energy=scenario.initial_energy_j)
            nbrs = self.topology.adjacency[i]
            self.nodes.append(_SimNode(state=state, neighbors=nbrs,
                                       nbhd=[i] + list(nbrs)))
        self.sources = select_sources(scenario, self.topology.positions)
        self.warnings = []
        reachable = _reachable_from(self.topology.adjacency, self.sink_id)
        for s in self.sources:
            if s not in reachable:
                msg = (f"source {s} has no path to sink {self.sink_id}; "
                       f"its packets will all be dropped")
                self.warnings.append(msg)
                log.warning(msg)
        self.records = []
        self.heap = []
        self.seq = 0
        self.next_event_id = 0
        self.emitted = 0
        self.arrived = 0
        self.dropped = 0
        self._ran = False

    # -- scheduling ---------------------------------------------------

    def _schedule(self, fire_at, kind, payload=None):
        self.seq += 1
        heapq.heappush(self.heap, (fire_at, self.seq, kind, payload))

    def _schedule_all(self):
        sc = self.scenario
        end = sc.sim_time
        self._schedule(end, RUN_END)
        n = sc.nodes
        for i in range(n):
            # dense bootstrap rounds fill tables quickly after power-on
            offset = (i + 1) / (n + 1) * sc.bootstrap_spread_s
            for k in range(sc.bootstrap_rounds):
                t_hello = offset + k * sc.bootstrap_gap_s
                if t_hello <= end:
                    self._schedule(t_hello, HELLO_ROUND, (i, False))
                t_echo = offset + sc.bootstrap_spread_s + k * sc.bootstrap_gap_s
                if t_echo <= end:
                    self._schedule(t_echo, ECHO_PROBE, (i, False))
            # steady refresh rounds, staggered so nodes never align
            stagger = (i + 0.5) / n
            t_hello = sc.hello_period_s * (1.0 + stagger)
            if t_hello <= end:
                self._schedule(t_hello, HELLO_ROUND, (i, True))
            t_echo = sc.echo_period_s * (0.5 + stagger)
            if t_echo <= end:
                self._schedule(t_echo, ECHO_PROBE, (i, True))
        t_set = sc.t_set()
        stop = min(sc.cbr_stop(), end)
        for idx, s in enumerate(self.sources):
            # sources interleave their emissions across the interval
            first = sc.cbr_start_s + idx / len(self.sources) * sc.interval_s
            if first <= stop:
                self._schedule(first, CBR_EMIT, (s, t_set))
        if sc.snapshot_period_s > 0:
            t = sc.snapshot_period_s
            while t <= end:
                self._schedule(t, METRIC_SNAPSHOT)
                t += sc.snapshot_period_s

    # -- load accounting ----------------------------------------------

    def _neighborhood_load(self, i, now) -> float:
        """Recent control rounds + data transmissions near node i."""
        sc = self.scenario
        ctl_cut = now - sc.ctl_window_s
        flow_cut = now - sc.flow_window_s
        rounds = 0
        data = 0
        for m in self.nodes[i].nbhd:
            other = self.nodes[m]
            rt = other.round_times
            while rt and rt[0] <= ctl_cut:
                rt.popleft()
            rounds += len(rt)
            dt = other.data_tx_times
            while dt and dt[0] <= flow_cut:
                dt.popleft()
            data += len(dt)
        return float(rounds + data)

    def _occupancy(self, i, now) -> int:
        """Node i's own transmissions still inside the queue window."""
        q = self.nodes[i].own_tx_times
        cut = now - self.scenario.queue_window_s
        while q and q[0] <= cut:
            q.popleft()
        return len(q)

    def _record(self, time, kind, node, event_id, detail):
        self.records.append(TraceRecord(time, kind, node, event_id, detail))

    # -- handlers -------------------------------------------------------

    def _on_hello_round(self, i, now, steady):
        node = self.nodes[i]
        st = node.state
        node.round_times.append(now)
        node.own_tx_times.append(now)
        hello = make_hello(st)
        p = self.scenario.loss
        acks = 0
        for j in node.neighbors:
            if self.rng.random() < p:
                continue                      # broadcast lost at j
            peer = self.nodes[j]
            ack = on_hello(peer.state, hello)
            peer.own_tx_times.append(now)     # the ACK transmission
            _, delivered = sample_tx_count(p, self.mac.max_retries, self.rng)
            if delivered:
                on_ack(st, ack)
                acks += 1
        self._record(now, HELLO_ROUND, i, -1,
                     f"acks={acks} energy={st.residual_energy!r}")
        if steady:
            nxt = now + self.scenario.hello_period_s
            if nxt <= self.scenario.sim_time:
                self._schedule(nxt, HELLO_ROUND, (i, True))

    def _on_echo_probe(self, i, now, steady):
        node = self.nodes[i]
        load = self._neighborhood_load(i, now)
        occ = self._occupancy(i, now)
        node.round_times.append(now)
        node.own_tx_times.append(now)
        # probe broadcast: one attempt, no retries
        probe_delay = (sample_mac_delay(self.mac, load, self.rng)
                       + occ / self.mac.queue_service_rate + self.mac.tx_delay)
        p = self.scenario.loss
        measurements = []
        max_rtt = 0.0
        for j in node.neighbors:
            node.probes.add(j)
            if self.rng.random() < p:
                continue                      # probe lost at j
            peer = self.nodes[j]
            occ_j = self._occupancy(j, now)
            peer.own_tx_times.append(now)     # the reply transmission
            # reply leg reuses the prober's load snapshot: both ends of
            # an echo share one contention region to first order
            comps, delivered = sample_link_delay(
                self.mac, p, load, occ_j, self.rng)
            if not delivered:
                continue
            rtt = probe_delay + synthesize_one_way_delay(comps)
            measurements.append((j, rtt))
            if rtt > max_rtt:
                max_rtt = rtt
        self._record(now, ECHO_PROBE, i, -1,
                     f"neighbors={len(node.neighbors)} replies={len(measurements)}")
        if measurements:
            self._schedule(now + max_rtt, ECHO_REPLY, (i, measurements))
        if steady:
            nxt = now + self.scenario.echo_period_s
            if nxt <= self.scenario.sim_time:
                self._schedule(nxt, ECHO_PROBE, (i, True))

    def _on_echo_reply(self, i, now, measurements):
        node = self.nodes[i]
        applied = 0
        for j, rtt in measurements:
            if j not in node.probes:
                continue
            node.probes.remove(j)
            record_echo_rtt(node.state, j, rtt, self.scenario.echo_alpha)
            applied += 1
        self._record(now, ECHO_REPLY, i, -1, f"measured={applied}")

    def _on_cbr_emit(self, nid, now, t_set):
        eid = self.next_event_id
        self.next_event_id += 1
        pkt = DataPacket(event_id=eid, source_id=nid, sink_id=self.sink_id,
                         t_set=t_set, t_l=t_set, created_at=now)
        self.emitted += 1
        self._record(now, CBR_EMIT, nid, eid, f"tset={t_set!r}")
        self._forward_from(nid, pkt, now)
        sc = self.scenario
        nxt = now + sc.interval_s
        if nxt <= min(sc.cbr_stop(), sc.sim_time):
            self._schedule(nxt, CBR_EMIT, (nid, t_set))

    def _forward_from(self, i, pkt, now):
        node = self.nodes[i]
        st = node.state
        decision = decide_forward(st, pkt)
        if decision.primary_next_hop is None:
            reason = REASON_NO_BUDGET if pkt.t_l <= 0.0 else REASON_NO_ROUTE
            self.dropped += 1
            self._record(now, DROP, i, pkt.event_id,
                         f"reason={reason} dup={int(pkt.is_duplicate)}")
            return
        load = self._neighborhood_load(i, now)
        occ = self._occupancy(i, now)
        d_here = distance(st.my_pos, st.sink_pos)
        targets = [(decision.primary_next_hop, pkt)]
        if decision.duplicate_next_hop is not None:
            self._record(now, DUPLICATE, i, pkt.event_id,
                         f"to={decision.duplicate_next_hop}")
            targets.append((decision.duplicate_next_hop,
                            replace(pkt, is_duplicate=True)))
        p = self.scenario.loss
        for j, copy in targets:
            node.own_tx_times.append(now)
            node.data_tx_times.append(now)
            comps, delivered = sample_link_delay(self.mac, p, load, occ,
                                                 self.rng)
            if not delivered:
                self.dropped += 1
                self._record(now, DROP, i, copy.event_id,
                             f"reason={REASON_LOSS} dup={int(copy.is_duplicate)}")
                continue
            delay = synthesize_one_way_delay(comps)
            self._record(now, FORWARD, i, copy.event_id,
                         f"to={j} dup={int(copy.is_duplicate)} "
                         f"d={d_here!r} tl={copy.t_l!r}")
            self._schedule(now + delay, PACKET_ARRIVAL, (j, copy, delay))

    def _on_packet_arrival(self, j, pkt, link_delay, now):
        updated = on_data_arrival_update(pkt, link_delay)
        if j == self.sink_id:
            self.arrived += 1
            e2e = now - updated.created_at
            self._record(now, PACKET_ARRIVAL, j, updated.event_id,
                         f"delay={e2e!r} tl={updated.t_l!r} "
                         f"dup={int(updated.is_duplicate)} "
                         f"hops={updated.hop_count}")
        else:
            self._forward_from(j, updated, now)

    # -- main loop ------------------------------------------------------

    def run(self):
        """Execute the scenario; returns (records, RunMetrics)."""
        if self._ran:
            raise RuntimeError("a Simulation can only run once")
        self._ran = True
        self._schedule_all()
        end = self.scenario.sim_time
        heap = self.heap
        while heap:
            now, _, kind, payload = heapq.heappop(heap)
            if now > end and kind != PACKET_ARRIVAL:
                # in-flight packets drain past the horizon, control stops
                continue
            if kind == HELLO_ROUND:
                i, steady = payload
                self._on_hello_round(i, now, steady)
            elif kind == ECHO_PROBE:
                i, steady = payload
                self._on_echo_probe(i, now, steady)
            elif kind == ECHO_REPLY:
                i, measurements = payload
                self._on_echo_reply(i, now, measurements)
            elif kind == CBR_EMIT:
                nid, t_set = payload
                self._on_cbr_emit(nid, now, t_set)
            elif kind == PACKET_ARRIVAL:
                j, pkt, link_delay = payload
                self._on_packet_arrival(j, pkt, link_delay, now)
            elif kind == METRIC_SNAPSHOT:
                self._record(now, METRIC_SNAPSHOT, -1, -1,
                             f"emitted={self.emitted} arrived={self.arrived} "
                             f"dropped={self.dropped}")
            elif kind == RUN_END:
                self._record(now, RUN_END, -1, -1, "-")
        return self.records, compute_run_metrics(self.records)
