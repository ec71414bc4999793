"""Scenario configuration: defaults, file grammar and validation.

A scenario file is flat `key = value` text.  Blank lines and `#`
comments are skipped; inline `# ...` trailers are stripped.  Unknown
keys are rejected by name, and errors carry the offending line number.
The defaults describe the standard benchmark environment: 50 nodes in a
600 x 400 m field, 250 m radio range, a corner sink, and five constant
bit rate sources at the far side of the field.

Each key is declared once, on its `Scenario` field: its type gives its
grammar and type check, bounds in its `Annotated` type give its range.
"""

import math
from dataclasses import dataclass, fields
from typing import Annotated, Callable, Literal, NamedTuple, Optional, get_args


# most ordered node pairs: every run builds its topology before its first
# event, whatever sim_time is.  That took 0.11 s and 30 MB at 1,000 nodes,
# 0.63 s and 66 MB at 2,000 and 2.28 s and 210 MB at 4,000 on 2 vCPUs.
MAX_NODE_PAIRS = 2_000 * 1_999
# most neighbour exchanges one HELLO or echo chain may ask for
MAX_EXCHANGES = 100_000_000
# most records a run may hold: about 1 GB at 244 B per record held
MAX_RECORDS = 4_000_000


class ScenarioError(Exception):
    """A scenario key, value or combination is invalid."""


# A bound is the text completing "KEY must ..."; _HOLDS tests it.  It is
# text, not a function: typing's Annotated cache would keep its module alive
POSITIVE, NON_NEGATIVE = "be finite and > 0.0", "be finite and >= 0"
PROBABILITY, WEIGHT, AT_LEAST_ONE = "be in [0, 1)", "be in (0, 1]", "be >= 1"
NODES, PAIRS = "be at least 2", f"keep nodes * (nodes - 1) <= {MAX_NODE_PAIRS}"
_HOLDS = {
    POSITIVE: lambda v: 0.0 < v < math.inf,
    NON_NEGATIVE: lambda v: 0 <= v < math.inf,
    PROBABILITY: lambda v: 0.0 <= v < 1.0,
    WEIGHT: lambda v: 0.0 < v <= 1.0,
    AT_LEAST_ONE: lambda v: v >= 1,
    NODES: lambda v: v >= 2,
    PAIRS: lambda v: v * (v - 1) <= MAX_NODE_PAIRS,
}

Point = tuple[float, float]
Placement = Literal["uniform", "grid", "explicit"]


@dataclass
class Scenario:
    # topology
    nodes: Annotated[int, NODES, PAIRS] = 50
    area_width: Annotated[float, POSITIVE] = 600.0
    area_height: Annotated[float, POSITIVE] = 400.0
    tx_range: Annotated[float, POSITIVE] = 250.0
    placement: Placement = "uniform"
    positions: Optional[list[Point]] = None   # one per node when explicit
    sink: int = 0
    sink_pos: Point = (0.0, 0.0)        # pins the sink node (uniform placement)
    # run horizon
    sim_time: Annotated[float, POSITIVE] = 100.0
    seed: int = 0
    # traffic
    cbr_sources: Optional[list[int]] = None   # explicit source ids, or auto
    cbr_count: Annotated[int, NON_NEGATIVE] = 5
    interval_s: Annotated[float, POSITIVE] = 1.0
    deadline_ms: Annotated[float, POSITIVE] = 6.0
    cbr_start_s: Annotated[float, NON_NEGATIVE] = 0.0
    cbr_stop_s: Optional[float] = None  # None = run until sim_time
    # radio and MAC abstraction
    loss: Annotated[float, PROBABILITY] = 0.05
    base_mac_delay_ms: Annotated[float, NON_NEGATIVE] = 0.3
    tx_delay_ms: Annotated[float, NON_NEGATIVE] = 0.26
    contention_coeff_ms: Annotated[float, NON_NEGATIVE] = 0.1
    queue_service_rate: Annotated[float, POSITIVE] = 4000.0
    max_retries: Annotated[int, NON_NEGATIVE] = 4
    jitter_ms: Annotated[float, NON_NEGATIVE] = 0.05
    # control plane cadence
    hello_period_s: Annotated[float, POSITIVE] = 10.0
    echo_period_s: Annotated[float, POSITIVE] = 10.0
    echo_alpha: Annotated[float, WEIGHT] = 0.5
    bootstrap_rounds: Annotated[int, AT_LEAST_ONE] = 2
    bootstrap_spread_s: Annotated[float, POSITIVE] = 1.0
    bootstrap_gap_s: Annotated[float, POSITIVE] = 2.0
    # load accounting windows
    ctl_window_s: Annotated[float, NON_NEGATIVE] = 0.25
    flow_window_s: Annotated[float, NON_NEGATIVE] = 0.5
    queue_window_s: Annotated[float, NON_NEGATIVE] = 0.05

    def t_set(self) -> float:
        """The per-packet deadline in seconds."""
        return self.deadline_ms / 1000.0

    def cbr_stop(self) -> float:
        return self.sim_time if self.cbr_stop_s is None else self.cbr_stop_s


class _Grammar(NamedTuple):
    """One declared type: its text form and its type test."""
    parse: Callable                     # (key, text) -> value or ScenarioError
    format: Callable                    # value -> the text parse reads back
    accepts: Callable                   # value -> whether it has this type
    expects: str                        # what the type is, for messages


def _is_int(value):
    return isinstance(value, int) and type(value) is not bool


def _is_number(value):
    return isinstance(value, float) or _is_int(value)


def _is_point(value):
    return (isinstance(value, tuple) and len(value) == 2
            and all(map(_is_number, value)) and all(map(math.isfinite, value)))


def _plain(convert, fmt, accepts, expects):
    """A grammar whose bad text and wrong type are both reported as expects."""
    def parse(key, raw):
        try:
            value = convert(raw)
        except ValueError:
            value = None                # accepted by no plain grammar
        if not accepts(value):
            raise ScenarioError(f"{key} {expects}, got {raw!r}")
        return value
    return _Grammar(parse, fmt, accepts, expects)


def _optional(word, grammar):
    """grammar's values and None, which reads and prints as word."""
    parse, fmt, accepts, _ = grammar
    return grammar._replace(
        parse=lambda key, raw: None if raw == word else parse(key, raw),
        format=lambda value: word if value is None else fmt(value),
        accepts=lambda value: value is None or accepts(value))


def _parse_float(key, raw):
    try:
        value = float(raw)
    except ValueError:
        raise ScenarioError(f"{key} expects a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ScenarioError(f"{key} expects a finite number, got {raw!r}")
    return value


def _parse_pair(key, raw):
    parts = raw.split(",")
    if len(parts) != 2:
        raise ScenarioError(f"{key} expects 'x,y', got {raw!r}")
    return (_parse_float(key, parts[0].strip()),
            _parse_float(key, parts[1].strip()))


def _parse_points(key, raw):
    points = [_parse_pair(key, chunk.strip())
              for chunk in raw.split(";") if chunk.strip()]
    if not points:
        raise ScenarioError(f"{key} expects 'x,y; x,y; ...', got {raw!r}")
    return points


_FLOAT = _Grammar(_parse_float, str, _is_number, "expects a number")
_POINT = _Grammar(_parse_pair, lambda p: f"{p[0]},{p[1]}", _is_point,
                  "expects finite (x, y) points")
# The grammar of every type a Scenario key may be declared with
_GRAMMARS = {
    int: _plain(int, str, _is_int, "expects an integer"),
    float: _FLOAT,
    Optional[float]: _optional("none", _FLOAT),
    Point: _POINT,
    Optional[list[Point]]: _optional("none", _POINT._replace(
        parse=_parse_points,
        format=lambda points: "; ".join(map(_POINT.format, points)),
        accepts=lambda ps: isinstance(ps, list) and all(map(_is_point, ps)))),
    Optional[list[int]]: _optional("auto", _plain(
        lambda raw: [int(part) for part in raw.split(",") if part.strip()],
        lambda ids: ",".join(map(str, ids)),
        lambda ids: isinstance(ids, list) and all(map(_is_int, ids)),
        "expects 'auto' or a comma-separated id list")),
    Placement: _plain(str, str, get_args(Placement).__contains__,
                      "must be uniform, grid or explicit"),
}


def _declared(hint):
    """(grammar, bound texts) of one declared type."""
    base, *bounds = get_args(hint) if hasattr(hint, "__metadata__") else [hint]
    return _GRAMMARS[base], bounds


# each key's grammar and checks, in declaration order, built once
_KEYS = {f.name: _declared(f.type) for f in fields(Scenario)}
# keys whose values are written with commas, so a comma list cannot hold them
COMMA_KEYS = {f.name for f in fields(Scenario) if f.type in
              (Point, Optional[list[Point]], Optional[list[int]])}


def apply_setting(scenario: Scenario, key: str, raw: str) -> None:
    """Set one key from its textual value, as found in files or --set."""
    if key not in _KEYS:
        raise ScenarioError(f"unknown key {key!r}")
    setattr(scenario, key, _KEYS[key][0].parse(key, raw))


def format_setting(key: str, value) -> str:
    """A key's value as the text apply_setting parses back to it."""
    return _KEYS[key][0].format(value)


def validate(scenario: Scenario) -> None:
    """Check every key's type and range, the rules across keys, the budget."""
    sc = scenario
    for key, (grammar, bounds) in _KEYS.items():
        value = getattr(sc, key)
        if not grammar.accepts(value):
            raise ScenarioError(f"{key} {grammar.expects}, got {value!r}")
        for text in bounds:
            if not _HOLDS[text](value):
                raise ScenarioError(f"{key} must {text}, got {value}")
    if not (0 <= sc.sink < sc.nodes):
        raise ScenarioError(f"sink must be a node id in [0, {sc.nodes}), "
                            f"got {sc.sink}")
    if sc.placement == "explicit":
        if sc.positions is None:
            raise ScenarioError("positions is required when placement = explicit")
        if len(sc.positions) != sc.nodes:
            raise ScenarioError(f"positions lists {len(sc.positions)} points "
                                f"but nodes = {sc.nodes}")
    elif sc.positions is not None:
        raise ScenarioError("positions is read only when placement = explicit")
    if sc.sink_pos != (0.0, 0.0) and sc.placement != "uniform":
        raise ScenarioError("sink_pos is read only when placement = uniform")
    if sc.cbr_sources is not None:
        if not sc.cbr_sources:
            raise ScenarioError("cbr_sources is empty; use cbr_count = 0")
        if sc.cbr_count != Scenario.cbr_count:
            raise ScenarioError("cbr_count is read only when cbr_sources = auto")
        for nid in sc.cbr_sources:
            if not (0 <= nid < sc.nodes):
                raise ScenarioError(f"cbr_sources id {nid} out of range")
            if nid == sc.sink:
                raise ScenarioError("cbr_sources must not include the sink")
        if len(set(sc.cbr_sources)) < len(sc.cbr_sources):
            raise ScenarioError("cbr_sources lists a node id more than once")
    stop = sc.cbr_stop_s
    if stop is not None and not sc.cbr_start_s <= stop < math.inf:
        raise ScenarioError(f"cbr_stop_s must be finite and >= cbr_start_s, "
                            f"got {stop}")
    chains = work_bounds(sc)
    records = 1 + sum(chain[3] for chain in chains)     # and RUN_END
    keys, _, exchanges, _ = next((c for c in chains if c[2] > MAX_EXCHANGES),
                                 max(chains, key=lambda c: c[3]))
    if exchanges > MAX_EXCHANGES or records > MAX_RECORDS:
        raise ScenarioError(f"{keys}, sim_time and nodes need {exchanges:.3g} "
                            f"exchanges in a chain and {records:.3g} records; "
                            f"the caps are {MAX_EXCHANGES} and {MAX_RECORDS}")


def work_bounds(sc: Scenario) -> list:
    """Each event chain's (keys, events, neighbour exchanges, records),
    bounded before the run.  A round meets up to nodes - 1 neighbours, a
    probe writes one reply at most, and an emission CBR_EMIT, DUPLICATE
    and per copy up to nodes records, as each hop nears the sink."""
    n, horizon = sc.nodes, sc.sim_time
    bootstrap = min(sc.bootstrap_rounds, horizon / sc.bootstrap_gap_s + 1)
    hello = n * (bootstrap + horizon / sc.hello_period_s + 1)
    echo = n * (bootstrap + horizon / sc.echo_period_s + 1)
    sources = (min(sc.cbr_count, n - 1) if sc.cbr_sources is None
               else len(sc.cbr_sources))
    span = max(0.0, min(sc.cbr_stop(), horizon) - sc.cbr_start_s)
    sent = sources * span / sc.interval_s + sources  # no nan at 0 sources
    return [("hello_period_s, bootstrap_rounds", hello, hello * (n - 1), hello),
            ("echo_period_s, bootstrap_rounds", echo, echo * (n - 1), 2 * echo),
            ("interval_s, cbr_count", sent, 0, sent * 2 * (n + 1))]


def load_scenario(path=None, overrides=None) -> Scenario:
    """Build a Scenario from an optional file's lines, then (key, value)
    overrides.  An error names its setting's origin: 'path:line: message'
    or '--set key=value: message'."""
    scenario, lines = Scenario(), []
    if path is not None:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise ScenarioError(f"cannot read scenario {path}: {exc}") from None
    settings = [(f"{path}:{n}", line) for n, line in enumerate(lines, start=1)
                if line.split("#", 1)[0].strip()]
    settings += [(f"--set {key}={raw}", (key, raw))
                 for key, raw in overrides or []]
    for origin, setting in settings:
        try:
            if isinstance(setting, str):            # a file line
                key, sep, raw = setting.split("#", 1)[0].partition("=")
                if not sep:
                    raise ScenarioError(f"expected 'key = value', "
                                        f"got {setting.strip()!r}")
                setting = key.strip(), raw.strip()
            apply_setting(scenario, *setting)
        except ScenarioError as exc:
            raise ScenarioError(f"{origin}: {exc}") from None
    validate(scenario)
    return scenario


def describe(scenario: Scenario) -> str:
    """Normalized `key = value` text for every setting, for `validate`."""
    return "\n".join(
        f"{f.name} = {format_setting(f.name, getattr(scenario, f.name))}"
        for f in fields(scenario))
