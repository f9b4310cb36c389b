"""Properties of the package source itself."""

import ast
from pathlib import Path

import octavia

SRC = Path(octavia.__file__).parent


def test_no_assert_statements():
    # python -O strips assert, so no check the results depend on may be one
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
