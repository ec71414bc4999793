"""Every top-level function and class in the package is used by the package.

A name referenced only from its own body, from __init__.py or from the
tests is code no run executes; an equation oracle belongs in the tests,
written inline.
"""

import ast
from collections import Counter
from pathlib import Path

import dartsim

PACKAGE = Path(dartsim.__file__).parent


def _names(tree) -> Counter:
    """How often each name is read, as a bare name or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def unreferenced_definitions() -> list:
    """'module.name' of each top-level def or class used nowhere else."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and used[node.name] == _names(node)[node.name]):
                unused.append(f"{module}.{node.name}")
    return unused


def test_every_definition_is_referenced_outside_itself():
    assert unreferenced_definitions() == []
