"""Only `dsl._lines` and the io layer's line iteration cut text into lines,
so every reader ends a line at `\\n`, `\\r\\n` or `\\r` alone: `str.splitlines`
also ends one at `\\v`, `\\f`, `\\x1c`-`\\x1e`, `\\x85`, U+2028 and U+2029."""

import ast
from pathlib import Path

import asyncdec

PACKAGE = Path(asyncdec.__file__).parent


def test_no_module_calls_splitlines():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert node.attr != "splitlines", f"{path.name}:{node.lineno} reads .splitlines"
