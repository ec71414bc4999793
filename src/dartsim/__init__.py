"""Deadline-driven geographic routing for sensor networks, plus a simulator."""

from .core import (
    Beacon,
    DataPacket,
    ForwardingEntry,
    LinkDelayComponents,
    NodeId,
    NodePos,
    distance,
)
from .experiments import replay_trace, run_scenario, run_sweep
from .metrics import RunMetrics, TraceError, TraceRecord, compute_run_metrics
from .protocol import (
    ForwardDecision,
    NoBudget,
    NodeState,
    decide_forward,
    estimate_link_delay,
    learn_neighbor,
    make_beacon,
    on_data_arrival_update,
    provided_speed,
    required_speed,
    synthesize_one_way_delay,
)
from .scenario import Scenario, ScenarioError, load_scenario
from .simkernel import Simulation, build_topology

__all__ = [
    "Beacon",
    "DataPacket",
    "ForwardDecision",
    "ForwardingEntry",
    "LinkDelayComponents",
    "NoBudget",
    "NodeId",
    "NodePos",
    "NodeState",
    "RunMetrics",
    "Scenario",
    "ScenarioError",
    "Simulation",
    "TraceError",
    "TraceRecord",
    "build_topology",
    "compute_run_metrics",
    "decide_forward",
    "distance",
    "estimate_link_delay",
    "learn_neighbor",
    "load_scenario",
    "make_beacon",
    "on_data_arrival_update",
    "provided_speed",
    "replay_trace",
    "required_speed",
    "run_scenario",
    "run_sweep",
    "synthesize_one_way_delay",
]
