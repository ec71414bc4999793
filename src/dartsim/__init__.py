"""Deadline-driven geographic routing for sensor networks, plus a simulator."""

from .core import (
    Beacon,
    DataPacket,
    ForwardingEntry,
    NodeId,
    NodePos,
    distance,
)
from .experiments import replay_trace, run_scenario, run_sweep
from .metrics import RunMetrics, TraceError, TraceRecord, compute_run_metrics
from .protocol import (
    ForwardDecision,
    NodeState,
    decide_forward,
    learn_neighbor,
    make_beacon,
    on_data_arrival_update,
)
from .scenario import Scenario, ScenarioError, load_scenario
from .simkernel import Simulation, build_topology

__all__ = [
    "Beacon",
    "DataPacket",
    "ForwardDecision",
    "ForwardingEntry",
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
    "learn_neighbor",
    "load_scenario",
    "make_beacon",
    "on_data_arrival_update",
    "replay_trace",
    "run_scenario",
    "run_sweep",
]
