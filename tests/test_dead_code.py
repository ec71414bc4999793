"""Every top-level function, class and module-level name in the package
is used by the package.

A name referenced only from its own body or assignment, from __init__.py
or from the tests is code no run executes; an equation oracle belongs in
the tests, written inline.  Likewise every Scenario key is read by a run, not only
checked by validate.
"""

import ast
from collections import Counter
from dataclasses import fields
from pathlib import Path

import dartsim
from dartsim.scenario import Scenario

PACKAGE = Path(dartsim.__file__).parent


def _names(tree) -> Counter:
    """How often each name is read, as a bare name or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def _defined(node) -> list:
    """The names a top-level statement binds: its def or class, or the
    names its assignment targets (not a comprehension's variables)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name)]


def unreferenced_definitions() -> list:
    """'module.name' of each top-level def, class or module-level name
    used nowhere else."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            unused += [f"{module}.{name}" for name in _defined(node)
                       if used[name] == _names(node)[name]]
    return unused


def test_every_definition_is_referenced_outside_itself():
    assert unreferenced_definitions() == []


def unread_scenario_keys() -> list:
    """Each Scenario key that no package module but scenario.py, and no
    Scenario method, reads as an attribute: a key only validate reads
    changes no run."""
    scenario = ast.parse((PACKAGE / "scenario.py").read_text())
    readers = [node for node in scenario.body
               if isinstance(node, ast.ClassDef) and node.name == "Scenario"]
    readers += [ast.parse(path.read_text())
                for path in sorted(PACKAGE.glob("*.py"))
                if path.name not in ("__init__.py", "scenario.py")]
    read = {node.attr for tree in readers for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    return [f.name for f in fields(Scenario) if f.name not in read]


def test_every_scenario_key_is_read_by_a_run():
    assert unread_scenario_keys() == []
