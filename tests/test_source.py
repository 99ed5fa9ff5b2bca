"""Checks on the package source itself."""

import ast
from pathlib import Path

import diskfill

SOURCES = sorted(Path(diskfill.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # ``python -O`` strips asserts, so invariants the results rest on
    # must be explicit raises
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found
