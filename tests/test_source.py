"""Checks on the library source itself."""

import ast
from pathlib import Path

import hermgrs


def test_no_assert_in_library():
    """`python -O` strips `assert`, so no guarantee may rest on one."""
    found = []
    for path in sorted(Path(hermgrs.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
