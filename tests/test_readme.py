"""README examples run as written: the scenario file and the library use.
The key-groups table lists every scenario key once."""

import contextlib
import dataclasses
import io
import re
from pathlib import Path

from dartsim import Scenario
from dartsim.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_block(first_line):
    """The body of the README code block whose first line is given."""
    for body in re.findall(r"^```[a-z]*\n(.*?)^```", README, re.M | re.S):
        if body.startswith(first_line + "\n"):
            return body
    raise AssertionError(f"README has no code block starting {first_line!r}")


def test_dense_scn_example_validates(tmp_path, capsys):
    path = tmp_path / "dense.scn"
    path.write_text(fenced_block("# dense.scn"))
    assert main(["validate", "--scenario", str(path)]) == 0, \
        capsys.readouterr().err
    out = capsys.readouterr().out
    assert "nodes = 150" in out
    assert "area_width = 600.0" in out and "area_height = 400.0" in out


def test_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(fenced_block("from dartsim import Scenario, run_scenario"), {})
    pdr, delay = out.getvalue().split()
    assert 0.0 <= float(pdr) <= 1.0
    assert 0.0 < float(delay) < 1.0          # seconds, not milliseconds


def test_key_groups_table_lists_each_scenario_key_once():
    table = README.split("| group | keys |", 1)[1].split("\n\n", 1)[0]
    rows = [line for line in table.splitlines() if line.startswith("| ")]
    # a key opens its cell or follows ", "; `auto` and the like do not
    keys = [key for row in rows
            for key in re.findall(r"(?:^|, )`(\w+)`", row.split(" | ")[1])]
    assert sorted(keys) == sorted(f.name for f in dataclasses.fields(Scenario))
