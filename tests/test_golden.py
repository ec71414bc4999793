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
import json
import logging
import math
import os
import platform
import random
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from itertools import zip_longest
from pathlib import Path

import pytest

import dartsim
from dartsim import experiments, protocol, simkernel
from dartsim.experiments import run_scenario, run_sweep
from dartsim.metrics import (CBR_EMIT, ECHO_PROBE, ECHO_REPLY, HELLO_ROUND,
                             format_run_row, run_meta)
from dartsim.scenario import Scenario, describe, load_scenario, work_bounds
from corpus import corpus_scenario

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
        "6e6fdad8e0c3585e0dbf75c0e96ea83f7ed41486e38beed5bb86c238167f9955",
        "50,30.0,6.0,1.0,1,4.827902146685068,0.8741721854304636,0.17218543046357615,78,0"),
    "dense-150": (
        (("nodes", "150"), ("sim_time", "20"), ("seed", "2")),
        "7dadb719cdbcce833c85446c79fdc8af567e54a11c3fea10bdf42859040739b7",
        "150,20.0,6.0,1.0,2,4.154926518407856,0.16831683168316833,0.8316831683168316,108,0"),
    "grid-49": (
        (("nodes", "49"), ("placement", "grid"), ("sim_time", "30"),
         ("seed", "3")),
        "1dcc587f09abf99dd9367847ab86aed7821899517f1dcf1aeba3c3b25c66e6db",
        "49,30.0,6.0,1.0,3,4.4551081819886,0.847682119205298,0.1986754966887417,50,0"),
    "line-3": (
        LINE,
        "65a867f465f294f7146bc8dcda07614886f37363a813bc5f48b2f5b8d67b5118",
        "3,30.0,6.0,2.0,0,2.0769230769239755,1.0,0.0,0,0"),
    "lossy-retries": (
        (("loss", "0.3"), ("max_retries", "6"), ("sim_time", "30"),
         ("seed", "4")),
        "27bbc93c285f1487709470da76cf71bc92764ae19e144e51ea4090ca0e06f6be",
        "50,30.0,6.0,1.0,4,4.620248062373727,0.5231788079470199,0.5231788079470199,124,0"),
    # CBR stops 10 s before the horizon; the control plane runs on
    "cbr-stop": (
        (("cbr_stop_s", "20"), ("sim_time", "30"), ("seed", "5")),
        "3ab43be48f174b3bdb56e38144672cc2036e134b0cb50dc155fbe6f8624f0686",
        "50,30.0,6.0,1.0,5,4.601154425208418,0.5643564356435643,0.49504950495049505,72,0"),
    # fast lossy CBR: the data-transmission window stays busy
    "data-heavy-100": (
        (("nodes", "100"), ("cbr_count", "10"), ("interval_s", "0.1"),
         ("deadline_ms", "50"), ("loss", "0.2"), ("max_retries", "3"),
         ("sim_time", "5"), ("seed", "6")),
        "cf0c9d4471cc2dd09dfbecb01ae43e25e4a06f14259f8c2df604c1096a757854",
        "100,5.0,50.0,0.1,6,48.68692203178766,0.35528942115768464,0.844311377245509,574,2"),
    # zero-width load windows: the contention load is always 0
    "zero-windows": (
        (("ctl_window_s", "0"), ("flow_window_s", "0"), ("sim_time", "30"),
         ("seed", "7")),
        "82e5987fb9737d5481b2548bf4ae34e4ee7f7db71d432160b4b8090160e083a2",
        "50,30.0,6.0,1.0,7,2.0501120187034574,0.9337748344370861,0.06622516556291391,10,0"),
}

# sha256 over the trace bytes of CORPUS_SIZE scenarios drawn by
# corpus_scenario from random.Random(CORPUS_SEED)
CORPUS_SEED = 14
CORPUS_SIZE = 300
CORPUS_SHA = "09f01b0c8795c325a694f9b70916b39350c3203b8c1d485c085c44bceb2e5114"

SWEEP_BASE = (("nodes", "30"), ("sim_time", "10"), ("loss", "0.4"),
              ("max_retries", "2"))
SWEEP_SEEDS = [1, 2]
# name -> (axes, settings of the points that raise instead of running,
#          sha256 of runs.csv, sha256 of aggregate.csv)
SWEEPS = {
    # an axis the run meta names: no column of its own
    "deadline": (
        [("deadline_ms", ["6", "8"])], {},
        "04dda59b02346068757b12055a380cfd4d499b9cc6aa311691631fa96d32ccf2",
        "9593c925d1ffe271434be3bda531eb090d84f743bd5e61a89da864f2be55aa0a"),
    # columns of their own, one quoted for its comma and one holding
    # `none`; two points fail, so both files end `# incomplete` and one
    # group averages a single run
    "failed-points": (
        [("loss", ["0", "0.3"]), ("sink_pos", ["0,0", "10,20"]),
         ("cbr_stop_s", ["none", "6"])],
        {"seed": 2, "sink_pos": (10.0, 20.0), "cbr_stop_s": None},
        "7602083f16059b4da5b15114dcb35224044b3046cec64f02b1ff05fbdc728ac1",
        "205b0e9c1b748fa24907a2aae805bb2df47a190df074dd3d538396ad42f2aa61"),
}

# One sha256 per corpus trace and per BLOCK lines of each golden trace, so
# a failing digest names the scenarios or the stretch of a run that
# changed, and one per acceptance grid point's runs row (checked in
# tests/test_acceptance.py).  After a deliberate change, `PYTHONPATH=src
# python tests/test_golden.py` rewrites them and prints the digests and
# rows to pin above.
DIGESTS = Path(__file__).parent / "data" / "digests.json"
BLOCK = 100


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_of(path) -> str:
    return sha256(Path(path).read_bytes())


def golden_run(settings, path):
    """(scenario, records, CSV row, trace bytes) of one golden run, traced
    to path."""
    sc = load_scenario(None, settings)
    meta, records, metrics = run_scenario(sc, trace_path=path)
    row = ",".join(format_run_row(meta, metrics))
    return sc, records, row, path.read_bytes()


def sweep_run(name, out_dir):
    """(runs.csv bytes, aggregate.csv bytes, failures) of SWEEPS[name],
    run at jobs=1 into out_dir with its failing points raising."""
    axes, failing, _, _ = SWEEPS[name]
    real = experiments._run_point

    def flaky(scenario):
        if failing and all(getattr(scenario, key) == value
                           for key, value in failing.items()):
            raise RuntimeError("injected failure")
        return real(scenario)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "_run_point", flaky)
        runs, aggregate, failures = run_sweep(
            load_scenario(None, SWEEP_BASE), axes, SWEEP_SEEDS, out_dir,
            jobs=1)
    return runs.read_bytes(), aggregate.read_bytes(), failures


def corpus_runs(path):
    """(scenario, records, trace bytes) of each corpus run, traced to
    path."""
    rng = random.Random(CORPUS_SEED)
    for _ in range(CORPUS_SIZE):
        sc = corpus_scenario(rng)
        _, records, _ = run_scenario(sc, trace_path=path)
        yield sc, records, path.read_bytes()


def over_work_bounds(sc, records) -> str:
    """'' when a run's rounds, probes, replies, emissions and records stay
    within the bounds work_bounds gives before it, which validate refuses
    runs by; else each count above its bound, then describe(sc)."""
    kinds = Counter(record.kind for record in records)
    hello, echo, data = work_bounds(sc)         # (keys, events, _, records)
    over = [f"{name} {count} > {bound:g}" for name, count, bound in [
        (HELLO_ROUND, kinds[HELLO_ROUND], hello[1]),
        (ECHO_PROBE, kinds[ECHO_PROBE], echo[1]),
        (ECHO_REPLY, kinds[ECHO_REPLY], echo[1]),
        (CBR_EMIT, kinds[CBR_EMIT], data[1]),
        ("records", len(records), 1 + hello[3] + echo[3] + data[3])]
        if count > bound]
    return f"{', '.join(over)} in the run\n{describe(sc)}" if over else ""


def block_shas(lines) -> list:
    """The sha256 of each BLOCK lines of a trace."""
    return [sha256("".join(lines[i:i + BLOCK]).encode())
            for i in range(0, len(lines), BLOCK)]


def changed_block(trace: bytes, pinned: list) -> str:
    """'' when trace's blocks hash to pinned, else the first block that
    differs: its lines and the time span of its records."""
    lines = trace.decode().splitlines(keepends=True)
    k = next((k for k, (got, want) in enumerate(
        zip_longest(block_shas(lines), pinned)) if got != want), None)
    if k is None:
        return ""
    block = lines[k * BLOCK:(k + 1) * BLOCK]
    if not block:
        return f"the trace ends at line {len(lines)}, before pinned block {k}"
    # a record's line starts with its time; the meta and header lines do not
    times = [line.split(",", 1)[0] for line in block if line[:1].isdigit()]
    span = f"t = {times[0]}-{times[-1]} s" if times else "no records"
    return (f"block {k} of {len(pinned)} pinned, lines {k * BLOCK + 1}-"
            f"{k * BLOCK + len(block)}, {span}, is the first that differs")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_digest(name, tmp_path):
    settings, trace_sha, row = GOLDEN[name]
    sc, records, got, trace = golden_run(settings, tmp_path / "run.trace")
    blocks = json.loads(DIGESTS.read_text())["blocks"][name]
    where = changed_block(trace, blocks)
    assert not where, f"{name}: {where}"
    assert sha256(trace) == trace_sha
    assert got == row
    over = over_work_bounds(sc, records)
    assert not over, f"{name}: {over}"


def test_sweep_digest(tmp_path):
    for name, (_, failing, runs_sha, aggregate_sha) in SWEEPS.items():
        runs, aggregate, failures = sweep_run(name, tmp_path / name)
        assert bool(failures) == bool(failing), name
        assert sha256(runs) == runs_sha, name
        assert sha256(aggregate) == aggregate_sha, name


def test_corpus_digest(tmp_path):
    """Ties in time and the rarer settings show here, not in the goldens:
    the order in which events due at one time fire is pinned too."""
    digest, changed, over = hashlib.sha256(), [], []
    pinned = json.loads(DIGESTS.read_text())["corpus"]
    defaults = describe(Scenario()).splitlines()
    runs = corpus_runs(tmp_path / "run.trace")
    for i, (sc, records, trace) in enumerate(runs):
        digest.update(trace)
        if sha256(trace) != pinned[i]:
            changed.append(f"{i}: " + "; ".join(
                line for line in describe(sc).splitlines()
                if line not in defaults))
        if where := over_work_bounds(sc, records):
            over.append(f"corpus run {i}: {where}")
    assert not changed, (f"{len(changed)} of {CORPUS_SIZE} corpus traces "
                         f"changed:\n" + "\n".join(changed))
    assert digest.hexdigest() == CORPUS_SHA
    assert not over, (f"{len(over)} of {CORPUS_SIZE} corpus runs exceed "
                      f"their work bounds; the first:\n{over[0]}")


def interpreters():
    """This interpreter, then each other CPython 3.X (X >= 11) on PATH
    or installed by pyenv under $PYENV_ROOT (default ~/.pyenv).

    A name that does not run (a pyenv shim for a version that is not
    selected, say) is skipped, and each version is kept once.
    """
    found = {f"Python {platform.python_version()}": sys.executable}
    pyenv = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    candidates = [shutil.which(f"python3.{minor}") for minor in range(11, 20)]
    candidates += sorted(map(str, pyenv.glob("versions/*/bin/python3")))
    for exe in filter(None, candidates):
        done = subprocess.run([exe, "--version"], capture_output=True,
                              text=True)
        version = done.stdout.strip()
        if (done.returncode == 0 and version.startswith("Python 3.")
                and int(version.split(".")[1]) >= 11):
            found.setdefault(version, exe)
    return found


# calls the CLI once per argv list given as JSON; exits nonzero if any
# call did
CLI_RUNS = """
import json, sys
from dartsim.cli import main
sys.exit(max([main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_digest_holds_in_a_fresh_process_with_another_hash_seed(tmp_path):
    """The CLI in a new interpreter, with string hashing salted
    differently, writes the same bytes and rows as every pinned
    in-process run, under every installed CPython: the trace draws its
    jitter with its own expression, not through the stdlib's, and the
    mean delay adds in a fixed order, not through sum()."""
    env = dict(os.environ, PYTHONHASHSEED="4242",
               PYTHONPATH=str(Path(dartsim.__file__).resolve().parent.parent))
    for n, (version, exe) in enumerate(interpreters().items()):
        traces = {name: tmp_path / f"{n}-{name}.trace" for name in GOLDEN}
        runs = [["run", "--trace", str(traces[name])]
                + [f"--set={key}={raw}" for key, raw in settings]
                for name, (settings, _, _) in GOLDEN.items()]
        done = subprocess.run([exe, "-c", CLI_RUNS, json.dumps(runs)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, f"{version}: {done.stderr}"
        rows = iter(done.stdout.splitlines()[1::2])  # a header, then a row
        for name, (_, trace_sha, row) in GOLDEN.items():
            where = f"{name} on {version}"
            assert next(rows, None) == row, where
            assert sha256_of(traces[name]) == trace_sha, where


def test_the_data_path_computes_no_distance(monkeypatch):
    """Nodes never move, so every distance is worked out while the
    Simulation is built; running the busiest golden run calls none."""
    settings, _, row = GOLDEN["data-heavy-100"]
    scenario = load_scenario(None, settings)
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


def test_the_data_path_rebuilds_packets_without_replace(monkeypatch,
                                                       tmp_path):
    """Each hop builds its packet positionally, so the busiest golden run
    writes its pinned bytes with DataPacket._replace out of reach."""
    settings, trace_sha, row = GOLDEN["data-heavy-100"]

    def refused(*args, **kwargs):
        raise AssertionError("DataPacket._replace called on the data path")
    monkeypatch.setattr(protocol.DataPacket, "_replace", refused)
    path = tmp_path / "run.trace"
    meta, _, metrics = run_scenario(load_scenario(None, settings),
                                    trace_path=path)
    assert ",".join(format_run_row(meta, metrics)) == row
    assert sha256_of(path) == trace_sha


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
    scenario = load_scenario(None, settings)
    sim = simkernel.Simulation(scenario)
    for state in sim.states:
        state.forwarding_table = ScanCountingTable()
    calls = Counter()

    def counted(state, pkt):
        calls["decide_forward"] += 1
        return protocol.decide_forward(state, pkt)
    monkeypatch.setattr(simkernel, "decide_forward", counted)
    records, metrics = sim.run()
    assert ",".join(format_run_row(run_meta(scenario), metrics)) == row
    scans = sum(state.forwarding_table.scans for state in sim.states)
    replies = sum(r.kind == ECHO_REPLY for r in records)
    # scanning once per decision would pass neither bound
    assert 0 < scans <= scenario.nodes + replies < calls["decide_forward"]


if __name__ == "__main__":
    # a deliberate re-pin: rewrite the lists, print what to pin above
    from test_acceptance import GRIDS, grid_points, row_texts
    logging.disable()               # runs whose sources reach no sink
    points = grid_points(GRIDS)
    rows = row_texts(points, experiments.run_points(list(points.values()),
                                                     len(points)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "run.trace")
        traces = [trace for _, _, trace in corpus_runs(path)]
        runs = {name: golden_run(settings, path)[2:]
                for name, (settings, _, _) in sorted(GOLDEN.items())}
        sweeps = {name: sweep_run(name, Path(tmp, name)) for name in SWEEPS}
    for name, (row, trace) in runs.items():
        print(f"{name}: {sha256(trace)}\n    {row}")
    print(f"CORPUS_SHA: {sha256(b''.join(traces))}")
    for name, (runs_csv, aggregate, _) in sweeps.items():
        print(f"sweep {name}: runs.csv {sha256(runs_csv)}\n"
              f"    aggregate.csv {sha256(aggregate)}")
    DIGESTS.write_text(json.dumps({
        "corpus": list(map(sha256, traces)),
        "blocks": {name: block_shas(trace.decode().splitlines(keepends=True))
                   for name, (_, trace) in runs.items()},
        "acceptance": {
            "points": {key: sha256(rows[key].encode()) for key in sorted(rows)},
            "all": sha256("\n".join(rows[key] for key in sorted(rows))
                          .encode())}}, indent=1) + "\n")
    print(f"wrote {DIGESTS}")
