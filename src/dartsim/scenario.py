"""Scenario configuration: defaults, file grammar and validation.

A scenario file is flat `key = value` text.  Blank lines and `#`
comments are skipped; inline `# ...` trailers are stripped.  Unknown
keys are rejected by name, and errors carry the offending line number.
The defaults describe the standard benchmark environment: 50 nodes in a
600 x 400 m field, 250 m radio range, a corner sink, and five constant
bit rate sources at the far side of the field.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, fields
from typing import Optional, get_type_hints


# most events one periodic chain may schedule in a run
MAX_PERIODS = 1_000_000


class ScenarioError(Exception):
    """A scenario key, value or combination is invalid."""


@dataclass
class Scenario:
    # topology
    nodes: int = 50
    area_width: float = 600.0
    area_height: float = 400.0
    tx_range: float = 250.0
    placement: str = "uniform"          # uniform | grid | explicit
    positions: Optional[list] = None    # [(x, y), ...] when explicit
    sink: int = 0
    sink_pos: tuple = (0.0, 0.0)        # pins the sink node (uniform placement)
    # run horizon
    sim_time: float = 100.0
    seed: int = 0
    # traffic
    cbr_sources: Optional[list] = None  # explicit source ids, or None = auto
    cbr_count: int = 5
    interval_s: float = 1.0
    deadline_ms: float = 6.0
    cbr_start_s: float = 0.0
    cbr_stop_s: Optional[float] = None  # None = run until sim_time
    # radio and MAC abstraction
    loss: float = 0.05
    base_mac_delay_ms: float = 0.3
    tx_delay_ms: float = 0.26
    contention_coeff_ms: float = 0.1
    queue_service_rate: float = 4000.0
    max_retries: int = 4
    jitter_ms: float = 0.05
    # control plane cadence
    hello_period_s: float = 10.0
    echo_period_s: float = 10.0
    echo_alpha: float = 0.5
    bootstrap_rounds: int = 2
    bootstrap_spread_s: float = 1.0
    bootstrap_gap_s: float = 2.0
    # load accounting windows
    ctl_window_s: float = 0.25
    flow_window_s: float = 0.5
    queue_window_s: float = 0.05
    # misc
    initial_energy_j: float = 100.0     # reported in HELLO_ROUND records only
    snapshot_period_s: float = 0.0      # 0 disables periodic snapshots

    def t_set(self) -> float:
        """The per-packet deadline in seconds."""
        return self.deadline_ms / 1000.0

    def cbr_stop(self) -> float:
        return self.sim_time if self.cbr_stop_s is None else self.cbr_stop_s


def _parse_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ScenarioError(f"{key} expects an integer, got {raw!r}") from None


def _parse_float(key, raw):
    try:
        value = float(raw)
    except ValueError:
        raise ScenarioError(f"{key} expects a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ScenarioError(f"{key} expects a finite number, got {raw!r}")
    return value


def _parse_placement(key, raw):
    if raw not in ("uniform", "grid", "explicit"):
        raise ScenarioError(f"{key} must be uniform, grid or explicit, "
                            f"got {raw!r}")
    return raw


def _parse_pair(key, raw):
    parts = raw.split(",")
    if len(parts) != 2:
        raise ScenarioError(f"{key} expects 'x,y', got {raw!r}")
    return (_parse_float(key, parts[0].strip()),
            _parse_float(key, parts[1].strip()))


def _format_pair(value):
    return f"{value[0]},{value[1]}"


def _parse_positions(key, raw):
    if raw == "none":
        return None
    out = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if chunk:
            out.append(_parse_pair(key, chunk))
    if not out:
        raise ScenarioError(f"{key} expects 'x,y; x,y; ...', got {raw!r}")
    return out


def _format_positions(value):
    return "none" if value is None else "; ".join(map(_format_pair, value))


def _parse_ids(key, raw):
    if raw == "auto":
        return None
    try:
        return [int(part.strip()) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ScenarioError(f"{key} expects 'auto' or a comma-separated "
                            f"id list, got {raw!r}") from None


def _format_ids(value):
    return "auto" if value is None else ",".join(map(str, value))


def _parse_optional_float(key, raw):
    if raw == "none":
        return None
    return _parse_float(key, raw)


def _format_optional_float(value):
    return "none" if value is None else str(value)


# Keys with their own grammar; every other key is a plain int or float,
# parsed by its type in Scenario.
_PARSERS = {
    "placement": _parse_placement,
    "positions": _parse_positions,
    "sink_pos": _parse_pair,
    "cbr_sources": _parse_ids,
    "cbr_stop_s": _parse_optional_float,
}
_PARSERS.update((key, {int: _parse_int, float: _parse_float}[hint])
                for key, hint in get_type_hints(Scenario).items()
                if key not in _PARSERS)
# The text form of those keys; every other value prints as str()
_FORMATTERS = {
    "positions": _format_positions,
    "sink_pos": _format_pair,
    "cbr_sources": _format_ids,
    "cbr_stop_s": _format_optional_float,
}


def apply_setting(scenario: Scenario, key: str, raw: str) -> None:
    """Set one key from its textual value, as found in files or --set."""
    parser = _PARSERS.get(key)
    if parser is None:
        raise ScenarioError(f"unknown key {key!r}")
    setattr(scenario, key, parser(key, raw))


def format_setting(key: str, value) -> str:
    """A key's value as the text apply_setting parses back to it."""
    return _FORMATTERS.get(key, str)(value)


def validate(scenario: Scenario) -> None:
    """Cross-field validation; raises ScenarioError naming the bad key."""
    sc = scenario
    if sc.nodes < 2:
        raise ScenarioError(f"nodes must be at least 2, got {sc.nodes}")
    if not (0 <= sc.sink < sc.nodes):
        raise ScenarioError(f"sink must be a node id in [0, {sc.nodes}), "
                            f"got {sc.sink}")
    if sc.placement == "explicit":
        if sc.positions is None:
            raise ScenarioError("positions is required when placement = explicit")
        if len(sc.positions) != sc.nodes:
            raise ScenarioError(f"positions lists {len(sc.positions)} points "
                                f"but nodes = {sc.nodes}")
    if sc.cbr_sources is not None:
        for nid in sc.cbr_sources:
            if not (0 <= nid < sc.nodes):
                raise ScenarioError(f"cbr_sources id {nid} out of range")
            if nid == sc.sink:
                raise ScenarioError("cbr_sources must not include the sink")
        if len(set(sc.cbr_sources)) < len(sc.cbr_sources):
            raise ScenarioError("cbr_sources lists a node id more than once")
    for key, value, low in (("area_width", sc.area_width, 0.0),
                            ("area_height", sc.area_height, 0.0),
                            ("tx_range", sc.tx_range, 0.0),
                            ("sim_time", sc.sim_time, 0.0),
                            ("interval_s", sc.interval_s, 0.0),
                            ("deadline_ms", sc.deadline_ms, 0.0),
                            ("queue_service_rate", sc.queue_service_rate, 0.0),
                            ("hello_period_s", sc.hello_period_s, 0.0),
                            ("echo_period_s", sc.echo_period_s, 0.0),
                            ("bootstrap_spread_s", sc.bootstrap_spread_s, 0.0),
                            ("bootstrap_gap_s", sc.bootstrap_gap_s, 0.0)):
        if not low < value < math.inf:
            raise ScenarioError(f"{key} must be finite and > {low}, "
                                f"got {value}")
    for key, value in (("cbr_count", sc.cbr_count),
                       ("max_retries", sc.max_retries),
                       ("cbr_start_s", sc.cbr_start_s),
                       ("jitter_ms", sc.jitter_ms),
                       ("base_mac_delay_ms", sc.base_mac_delay_ms),
                       ("tx_delay_ms", sc.tx_delay_ms),
                       ("contention_coeff_ms", sc.contention_coeff_ms),
                       ("ctl_window_s", sc.ctl_window_s),
                       ("flow_window_s", sc.flow_window_s),
                       ("queue_window_s", sc.queue_window_s),
                       ("snapshot_period_s", sc.snapshot_period_s),
                       ("initial_energy_j", sc.initial_energy_j)):
        if not 0 <= value < math.inf:
            raise ScenarioError(f"{key} must be finite and >= 0, got {value}")
    # each period is a chain of sim_time / period events, run one by one
    for key, period in (("interval_s", sc.interval_s),
                        ("hello_period_s", sc.hello_period_s),
                        ("echo_period_s", sc.echo_period_s),
                        ("snapshot_period_s", sc.snapshot_period_s)):
        if period > 0 and sc.sim_time / period > MAX_PERIODS:
            raise ScenarioError(f"{key} must be >= sim_time / {MAX_PERIODS}, "
                                f"got {period}")
    if not (0.0 <= sc.loss < 1.0):
        raise ScenarioError(f"loss must be in [0, 1), got {sc.loss}")
    if not (0.0 < sc.echo_alpha <= 1.0):
        raise ScenarioError(f"echo_alpha must be in (0, 1], got {sc.echo_alpha}")
    if sc.bootstrap_rounds < 1:
        raise ScenarioError(f"bootstrap_rounds must be >= 1, "
                            f"got {sc.bootstrap_rounds}")
    # every bootstrap round that fits in sim_time is scheduled up front
    if min(sc.bootstrap_rounds, sc.sim_time / sc.bootstrap_gap_s) > MAX_PERIODS:
        raise ScenarioError(f"bootstrap_rounds must fit at most {MAX_PERIODS} "
                            f"rounds in sim_time, got {sc.bootstrap_rounds}")
    stop = sc.cbr_stop_s
    if stop is not None and not sc.cbr_start_s <= stop < math.inf:
        raise ScenarioError(f"cbr_stop_s must be finite and >= cbr_start_s, "
                            f"got {stop}")


def load_scenario(path, overrides=None, base=None) -> Scenario:
    """Build a Scenario from a file plus (key, value) override pairs.

    File errors are reported as 'path:line: message'.  Overrides are
    applied after the file and report the bad pair instead.  When base
    is given its settings are the starting defaults.
    """
    scenario = copy.deepcopy(base) if base is not None else Scenario()
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ScenarioError(f"{path}:{lineno}: expected 'key = value', "
                                f"got {line.strip()!r}")
        key, _, raw = stripped.partition("=")
        try:
            apply_setting(scenario, key.strip(), raw.strip())
        except ScenarioError as exc:
            raise ScenarioError(f"{path}:{lineno}: {exc}") from None
    apply_overrides(scenario, overrides or [])
    validate(scenario)
    return scenario


def apply_overrides(scenario: Scenario, pairs) -> None:
    """Apply (key, value) pairs, e.g. from repeated --set flags."""
    for key, raw in pairs:
        try:
            apply_setting(scenario, key, raw)
        except ScenarioError as exc:
            raise ScenarioError(f"--set {key}={raw}: {exc}") from None


def describe(scenario: Scenario) -> str:
    """Normalized `key = value` text for every setting, for `validate`."""
    return "\n".join(
        f"{f.name} = {format_setting(f.name, getattr(scenario, f.name))}"
        for f in fields(scenario))
