"""Per-layer tracing of dartsim from outside the package.

Nothing under src/ knows about this module.  A Tracer wraps callables
by rebinding names: handler methods on one Simulation instance become
spans (one per handled event, with parent span and run id), and module
level functions, rebound in the module that imports and calls them,
become per-call counters with time accumulators.  Spans stay in memory
until the caller writes them out.  A hook whose target no longer exists
is recorded as missing instead of failing the run.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Simulation handler method -> span name.
HANDLERS = {
    "_on_hello_round": "hello_round",
    "_on_echo_probe": "echo_probe",
    "_on_echo_reply": "echo_reply",
    "_on_cbr_emit": "cbr_emit",
    "_forward_from": "forward",
    "_on_packet_arrival": "packet_arrival",
}
CONTROL_PLANE = ("hello_round", "echo_probe", "echo_reply")
DATA_PATH = ("cbr_emit", "forward", "packet_arrival")

# (module, attribute, metric prefix, timed): names rebound around one
# in-process run.  Untimed hooks only count calls, which is all the
# report needs from them, and skip two clock reads per call.
RUN_HOOKS = (
    ("dartsim.simkernel", "on_hello", "protocol.on_hello", True),
    ("dartsim.simkernel", "on_ack", "protocol.on_ack", True),
    ("dartsim.simkernel", "record_echo_rtt", "protocol.record_echo_rtt", True),
    ("dartsim.simkernel", "decide_forward", "protocol.decide_forward", True),
    ("dartsim.simkernel", "on_data_arrival_update",
     "protocol.on_data_arrival_update", True),
    ("dartsim.simkernel", "make_hello", "protocol.make_hello", False),
    ("dartsim.simkernel", "synthesize_one_way_delay",
     "protocol.synthesize_one_way_delay", False),
    ("dartsim.protocol", "replace", "protocol.replace", False),
    ("dartsim.simkernel", "sample_link_delay", "simkernel.sample_link_delay",
     True),
    ("dartsim.simkernel", "sample_tx_count", "simkernel.sample_tx_count", True),
    ("dartsim.simkernel", "build_topology", "simkernel.build_topology", True),
    ("dartsim.simkernel", "compute_run_metrics", "metrics.compute_run_metrics",
     True),
    ("dartsim.metrics", "write_trace", "metrics.write_trace", True),
    ("dartsim.experiments", "read_trace", "metrics.read_trace", True),
)
# Names rebound around scenario loading and the sweep.  Sweep workers
# are forked while only these are installed, so they run unwrapped code.
BATCH_HOOKS = (
    ("dartsim.scenario", "load_scenario", "scenario.load", True),
    ("dartsim.experiments", "expand_sweep", "experiments.expand_sweep", True),
    ("dartsim.experiments", "run_sweep", "experiments.run_sweep", True),
    ("dartsim.experiments", "aggregate_runs", "metrics.aggregate_runs", True),
)


class Tracer:
    """Spans and counters for the traced runs of one benchmark process."""

    def __init__(self):
        self.spans = []          # (run_id, span_id, parent_id, name, t0, t1)
        self.calls = Counter()
        self.secs = defaultdict(float)
        self.routed = 0
        self.duplicated = 0
        self.heap_peak = 0
        self.missing = set()
        self.run_id = -1
        self._stack = []
        self._restore = []

    # -- installing hooks ----------------------------------------------

    def install(self, hooks):
        """Rebind each hooked module attribute to a counting wrapper."""
        for module_name, attr, metric, timed in hooks:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.add(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(metric, original, timed))

    def uninstall(self):
        """Put every rebound name back."""
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def _wrap(self, metric, fn, timed):
        calls = self.calls
        if not timed:
            def counted(*args, **kwargs):
                calls[metric] += 1
                return fn(*args, **kwargs)
            return counted
        secs = self.secs
        observe = metric == "protocol.decide_forward"

        def timed_call(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            secs[metric] += perf_counter() - t0
            calls[metric] += 1
            if observe:
                if getattr(result, "primary_next_hop", None) is not None:
                    self.routed += 1
                if getattr(result, "duplicate_next_hop", None) is not None:
                    self.duplicated += 1
            return result
        return timed_call

    def attach(self, sim):
        """Turn the handler methods of one Simulation into spans."""
        self.run_id += 1
        heap = getattr(sim, "heap", None)
        if heap is None:
            self.missing.add("Simulation.heap")
        for method, name in HANDLERS.items():
            bound = getattr(sim, method, None)
            if bound is None:
                self.missing.add(f"Simulation.{method}")
                continue
            setattr(sim, method, self._span(name, bound, heap))

    def _span(self, name, fn, heap):
        spans = self.spans
        stack = self._stack

        def handler(*args):
            if heap is not None and len(heap) > self.heap_peak:
                self.heap_peak = len(heap)
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[span_id] = (self.run_id, span_id, parent, name, t0, t1)
        return handler

    # -- results ---------------------------------------------------------

    def self_times(self):
        """(self seconds per span name, events per span name, top-level s).

        Self time is a span's duration minus its child spans' durations.
        """
        self_s = defaultdict(float)
        events = Counter()
        top = 0.0
        for _, _, parent, name, t0, t1 in self.spans:
            d = t1 - t0
            self_s[name] += d
            events[name] += 1
            if parent < 0:
                top += d
            else:
                self_s[self.spans[parent][3]] -= d
        return self_s, events, top

    def write_spans(self, path):
        """Write the spans as JSON lines, one per handled event."""
        keys = ("run_id", "span_id", "parent_id", "name", "start", "end")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
