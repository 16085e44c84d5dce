"""The package's options, counted: every defaulted parameter of a function
under src/asyncdec plus every CLI `add_argument` call.

The count is pinned so that a new knob shows up as a reasoned change to this
number rather than slipping in; an option that only ever takes one value
should be a constant instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "asyncdec"

OPTIONS = 25


def _options(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
        ):
            count += 1
    return count


def test_option_count_is_pinned():
    total = sum(_options(ast.parse(p.read_text(encoding="utf-8"))) for p in sorted(SRC.rglob("*.py")))
    assert total == OPTIONS
