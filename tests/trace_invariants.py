"""Trace invariants every run must keep, shared by the tests that check
them: acceptance criterion 8 on one 100-node run, and the property test
over randomized whole runs.  Per-copy conservation is the benchmark's own
check, gate.trace_invariants, loaded from perfbench/gate.py.
"""

import importlib.util
from collections import defaultdict
from pathlib import Path

from dartsim.metrics import (CBR_EMIT, DROP, DUPLICATE, FORWARD,
                             PACKET_ARRIVAL, detail_fields)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """perfbench/<name>.py as a fresh module: perfbench is not a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = load_perfbench("gate")


def criterion_8_violations(records):
    """Returns (events emitted, violations) for criterion 8.

    Each event has at most two copies, and its arrivals plus drops equal
    its copies.  Along each copy's forwarding chain the distance to the
    sink strictly falls (loop freedom) and the budget never grows.
    """
    emitted_by = {}
    duplicates = defaultdict(int)
    arrivals = defaultdict(int)
    drops = defaultdict(int)
    chains = defaultdict(list)          # (event, dup flag) -> forward rows
    violations = []
    for rec in records:
        if rec.kind == CBR_EMIT:
            emitted_by[rec.event_id] = rec.node
        elif rec.kind == DUPLICATE:
            duplicates[rec.event_id] += 1
            if rec.node != emitted_by.get(rec.event_id):
                violations.append(f"duplicate away from source: {rec}")
        elif rec.kind == PACKET_ARRIVAL:
            arrivals[rec.event_id] += 1
        elif rec.kind == DROP:
            drops[rec.event_id] += 1
        elif rec.kind == FORWARD:
            f = detail_fields(rec.detail)
            chains[(rec.event_id, f["dup"])].append(
                (float(f["d"]), float(f["tl"])))
    for eid in emitted_by:
        copies = 1 + duplicates[eid]
        if copies > 2:
            violations.append(f"event {eid}: {copies} copies")
        if arrivals[eid] + drops[eid] != copies:
            violations.append(f"event {eid}: {arrivals[eid]} arrivals + "
                              f"{drops[eid]} drops != {copies} copies")
    for key, hops in chains.items():
        dists = [d for d, _ in hops]
        budgets = [tl for _, tl in hops]
        if any(b >= a for a, b in zip(dists, dists[1:])):
            violations.append(f"copy {key}: distance not strictly falling")
        if any(b > a for a, b in zip(budgets, budgets[1:])):
            violations.append(f"copy {key}: budget increased")
    return len(emitted_by), violations
