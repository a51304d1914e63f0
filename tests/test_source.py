"""Static checks on the package source."""

import ast
from pathlib import Path

import loopinv

SOURCES = sorted(Path(loopinv.__file__).parent.glob("*.py"))


def test_no_float_literals():
    # every computation is exact: a float literal is a rounding waiting to happen
    found = [
        "%s:%d %r" % (path.name, node.lineno, node.value)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
    ]
    assert SOURCES
    assert found == []
