"""Golden digests: pinned trace bytes and CSV output of short runs.

Each scenario is built from `key = value` text through the normal
parser, run once, and its trace file hashed with sha256; the metrics
row is pinned as text.  A refactor that changes the order of random
draws, a float's rounding, a record's wording or a parsed type changes
a digest here.  Digests were taken once and are never edited to make a
change pass: a PR that means to change behaviour says why in CHANGES.md
and adds new pins.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import dartsim
from dartsim import protocol, simkernel
from dartsim.experiments import run_scenario, run_sweep
from dartsim.metrics import ECHO_REPLY, format_run_row, run_meta
from dartsim.scenario import Scenario, apply_overrides, validate

LINE = (("nodes", "3"), ("placement", "explicit"),
        ("positions", "0,0; 250,0; 500,0"), ("sink", "0"),
        ("cbr_sources", "2"), ("sim_time", "30"), ("cbr_start_s", "5"),
        ("interval_s", "2"), ("loss", "0"), ("jitter_ms", "0"),
        ("contention_coeff_ms", "0"), ("base_mac_delay_ms", "0.74"),
        ("tx_delay_ms", "0.26"))

# name -> (settings, sha256 of the trace file, runs-CSV row)
GOLDEN = {
    "default-50": (
        (("sim_time", "30"), ("seed", "1")),
        "289ed3d3c73a4071b6ec7ca4766133740d48665d7d91a58083ccc82f70b93b60",
        "50,30.0,6.0,1.0,1,4.827902146685068,0.8741721854304636,0.17218543046357615,78,0"),
    "dense-150": (
        (("nodes", "150"), ("sim_time", "20"), ("seed", "2")),
        "1da6a98ff4011173128253bd294aabfa0ee0bcf0cdcd924e08e495cfafa76b30",
        "150,20.0,6.0,1.0,2,4.154926518407856,0.16831683168316833,0.8316831683168316,108,0"),
    "grid-49": (
        (("nodes", "49"), ("placement", "grid"), ("sim_time", "30"),
         ("seed", "3")),
        "afecf5af9559210eba5e5547db9cc1666d044c00cad627599e455735764c0bee",
        "49,30.0,6.0,1.0,3,4.4551081819886,0.847682119205298,0.1986754966887417,50,0"),
    "line-3": (
        LINE,
        "7854edd9ab15b11a0aebd0a0291c470b85ce7e5668191587bd60ece3bf80623b",
        "3,30.0,6.0,2.0,0,2.0769230769239755,1.0,0.0,0,0"),
    "lossy-retries": (
        (("loss", "0.3"), ("max_retries", "6"), ("sim_time", "30"),
         ("seed", "4")),
        "c8098b8eb31d79268e140af4a636270480053538943832cd7ca9e37fddab60a1",
        "50,30.0,6.0,1.0,4,4.620248062373727,0.5231788079470199,0.5231788079470199,124,0"),
    "snapshots": (
        (("snapshot_period_s", "2.5"), ("cbr_stop_s", "20"),
         ("sim_time", "30"), ("seed", "5")),
        "780e609e11863e71b871624067eb6ee6e6583fb8bd6d08df4da562119dddf336",
        "50,30.0,6.0,1.0,5,4.601154425208418,0.5643564356435643,0.49504950495049505,72,0"),
    # fast lossy CBR: the data-transmission window stays busy
    "data-heavy-100": (
        (("nodes", "100"), ("cbr_count", "10"), ("interval_s", "0.1"),
         ("deadline_ms", "50"), ("loss", "0.2"), ("max_retries", "3"),
         ("sim_time", "5"), ("seed", "6")),
        "9968581abd7891262a0fa9c1381f7b1bcf002c52e1dab88eb0c8b4faf850d939",
        "100,5.0,50.0,0.1,6,48.68692203178766,0.35528942115768464,0.844311377245509,574,2"),
    # zero-width load windows: the contention load is always 0
    "zero-windows": (
        (("ctl_window_s", "0"), ("flow_window_s", "0"), ("sim_time", "30"),
         ("seed", "7")),
        "8643454c05bc7dbb7bcdb39d6e3d57d38866e93abd54b30077afb3a982de5e83",
        "50,30.0,6.0,1.0,7,2.0501120187034574,0.9337748344370861,0.06622516556291391,10,0"),
}

SWEEP_BASE = (("nodes", "30"), ("sim_time", "10"), ("loss", "0.4"),
              ("max_retries", "2"))
SWEEP_AXES = [("deadline_ms", ["6", "8"])]
SWEEP_SEEDS = [1, 2]
SWEEP_RUNS_SHA = "04dda59b02346068757b12055a380cfd4d499b9cc6aa311691631fa96d32ccf2"
SWEEP_AGGREGATE_SHA = "9593c925d1ffe271434be3bda531eb090d84f743bd5e61a89da864f2be55aa0a"


def scenario_from(settings) -> Scenario:
    sc = Scenario()
    apply_overrides(sc, settings)
    validate(sc)
    return sc


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_digest(name, tmp_path):
    settings, trace_sha, row = GOLDEN[name]
    path = tmp_path / "run.trace"
    meta, _, metrics = run_scenario(scenario_from(settings), trace_path=path)
    assert ",".join(format_run_row(meta, metrics)) == row
    assert sha256_of(path) == trace_sha


def test_sweep_digest(tmp_path):
    runs, aggregate, failures = run_sweep(scenario_from(SWEEP_BASE),
                                          SWEEP_AXES, SWEEP_SEEDS, tmp_path,
                                          jobs=1)
    assert failures == []
    assert sha256_of(runs) == SWEEP_RUNS_SHA
    assert sha256_of(aggregate) == SWEEP_AGGREGATE_SHA


def interpreters():
    """This interpreter, then each other CPython 3.X (X >= 10) on PATH.

    A name that does not run (a pyenv shim for a version that is not
    selected, say) is skipped, and each version is kept once.
    """
    found = {f"Python {platform.python_version()}": sys.executable}
    for minor in range(10, 20):
        exe = shutil.which(f"python3.{minor}")
        if exe is None:
            continue
        done = subprocess.run([exe, "--version"], capture_output=True,
                              text=True)
        if done.returncode == 0:
            found.setdefault(done.stdout.strip(), exe)
    return found


def test_digest_holds_in_a_fresh_process_with_another_hash_seed(tmp_path):
    """The CLI in a new interpreter, with string hashing salted
    differently, writes the same bytes as the pinned in-process run,
    under every installed CPython: the trace draws its jitter with its
    own expression, not through the stdlib's."""
    settings, trace_sha, row = GOLDEN["default-50"]
    env = dict(os.environ, PYTHONHASHSEED="4242",
               PYTHONPATH=str(Path(dartsim.__file__).resolve().parent.parent))
    env.pop("DART_SEED", None)
    for n, (version, exe) in enumerate(interpreters().items()):
        path = tmp_path / f"run{n}.trace"
        argv = [exe, "-m", "dartsim.cli", "run", "--trace", str(path)]
        for key, raw in settings:
            argv += ["--set", f"{key}={raw}"]
        out = subprocess.run(argv, env=env, capture_output=True, text=True,
                             check=True).stdout
        assert out.splitlines()[1] == row, version
        assert sha256_of(path) == trace_sha, version


def test_the_data_path_computes_no_distance(monkeypatch):
    """Nodes never move, so every distance is worked out while the
    Simulation is built; running the busiest golden run calls none."""
    settings, _, row = GOLDEN["data-heavy-100"]
    scenario = scenario_from(settings)
    sim = simkernel.Simulation(scenario)
    calls = Counter()
    dist = math.dist

    def counted(a, b):
        calls["dist"] += 1
        return dist(a, b)
    monkeypatch.setattr(math, "dist", counted)
    _, metrics = sim.run()
    assert ",".join(format_run_row(run_meta(scenario), metrics)) == row
    assert calls == Counter()
    # the protocol holds only distances, so it has no distance() to call
    assert not hasattr(protocol, "distance")


class ScanCountingTable(dict):
    """A forwarding table that counts the scans made of it."""

    scans = 0

    def items(self):
        self.scans += 1
        return super().items()


def test_each_node_ranks_its_table_once_per_echo_reply(monkeypatch):
    """A link delay changes only when an echo reply is folded in, so the
    busiest golden run scans a table at most once per node and reply."""
    settings, _, row = GOLDEN["data-heavy-100"]
    scenario = scenario_from(settings)
    sim = simkernel.Simulation(scenario)
    for node in sim.nodes:
        node.state.forwarding_table = ScanCountingTable()
    calls = Counter()

    def counted(state, pkt):
        calls["decide_forward"] += 1
        return protocol.decide_forward(state, pkt)
    monkeypatch.setattr(simkernel, "decide_forward", counted)
    records, metrics = sim.run()
    assert ",".join(format_run_row(run_meta(scenario), metrics)) == row
    scans = sum(node.state.forwarding_table.scans for node in sim.nodes)
    replies = sum(r.kind == ECHO_REPLY for r in records)
    # scanning once per decision would pass neither bound
    assert 0 < scans <= scenario.nodes + replies < calls["decide_forward"]
