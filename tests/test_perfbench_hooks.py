"""The benchmark's per-layer hooks still find what they rebind.

perfbench/layers.py rebinds simulator names from outside the package and
records a hook whose target is gone as missing instead of failing, so a
renamed handler or module global would silently zero a per-layer metric.
This test loads that file by path, installs every hook, attaches to a
Simulation and checks that nothing beyond the known dead names is missing.
"""

import dartsim
from dartsim import simkernel
from dartsim.scenario import Scenario
from trace_invariants import load_perfbench

# hooked names the simulator no longer has; their metrics read zero
DEAD = {"dartsim.protocol.replace"} | {
    f"dartsim.simkernel.{name}" for name in (
        "make_hello", "on_ack", "on_hello", "record_echo_rtt",
        "sample_link_delay", "sample_tx_count", "synthesize_one_way_delay")}


def test_every_live_hook_finds_its_target():
    layers = load_perfbench("layers")
    tracer = layers.Tracer()
    originals = {name: getattr(simkernel, name)
                 for name in ("decide_forward", "build_topology")}
    tracer.install(layers.RUN_HOOKS + layers.BATCH_HOOKS)
    try:
        sim = dartsim.Simulation(Scenario(nodes=20, sim_time=4.0, seed=3))
        tracer.attach(sim)
        sim.run()
    finally:
        tracer.uninstall()
    assert tracer.missing <= DEAD
    assert all(getattr(simkernel, name) is fn
               for name, fn in originals.items())
    # spans and counters saw the run, so the kernel calls what was rebound
    _, events, _ = tracer.self_times()
    assert set(events) == set(layers.HANDLERS.values())
    for metric in ("protocol.decide_forward", "simkernel.build_topology",
                   "metrics.compute_run_metrics"):
        assert tracer.calls[metric] > 0
