"""Deadline-driven geographic routing for sensor networks, plus a simulator."""

from .experiments import replay_trace, run_scenario, run_sweep
from .metrics import RunMetrics, TraceError, TraceRecord, compute_run_metrics
from .protocol import (
    DataPacket,
    ForwardDecision,
    ForwardingEntry,
    NodeId,
    NodeState,
    decide_forward,
    on_data_arrival_update,
)
from .scenario import Scenario, ScenarioError, load_scenario
from .simkernel import Simulation, build_topology

__all__ = [
    "DataPacket",
    "ForwardDecision",
    "ForwardingEntry",
    "NodeId",
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
    "load_scenario",
    "on_data_arrival_update",
    "replay_trace",
    "run_scenario",
    "run_sweep",
]
