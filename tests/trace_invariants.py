"""Trace invariants every run must keep, shared by the tests that check
them: acceptance criterion 8 on one 100-node run, and the property test
over randomized whole runs.  The copy bound and per-copy conservation
are the benchmark's own check, gate.trace_invariants, loaded from
perfbench/gate.py.
"""

import importlib.util
from collections import defaultdict
from pathlib import Path

from dartsim.metrics import CBR_EMIT, FORWARD, detail_fields

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
    """Returns (events emitted, violations) for criterion 8's own checks.

    Along each copy's forwarding chain the distance to the sink strictly
    falls (loop freedom) and the budget never grows.  The copy bound and
    conservation are gate.trace_invariants' checks.
    """
    emitted = set()
    chains = defaultdict(list)          # (event, dup flag) -> forward rows
    for rec in records:
        if rec.kind == CBR_EMIT:
            emitted.add(rec.event_id)
        elif rec.kind == FORWARD:
            f = detail_fields(rec.detail)
            chains[(rec.event_id, f["dup"])].append(
                (float(f["d"]), float(f["tl"])))
    violations = []
    for key, hops in chains.items():
        dists = [d for d, _ in hops]
        budgets = [tl for _, tl in hops]
        if any(b >= a for a, b in zip(dists, dists[1:])):
            violations.append(f"copy {key}: distance not strictly falling")
        if any(b > a for a, b in zip(budgets, budgets[1:])):
            violations.append(f"copy {key}: budget increased")
    return len(emitted), violations
