"""Only the io layer's line iteration, over a handle opened with `newline=""`,
cuts text into lines, so every reader ends a line at `\\n`, `\\r\\n` or `\\r`
alone: `str.splitlines` also ends one at `\\v`, `\\f`, `\\x1c`-`\\x1e`, `\\x85`,
U+2028 and U+2029.  And no verb holds a whole file: files are read and written
line by line, and the readers take their lines as they are read."""

import ast
import inspect
from pathlib import Path

import pytest

import asyncdec
from asyncdec.frontend import cli, dsl, fileio

PACKAGE = Path(asyncdec.__file__).parent


def test_no_module_calls_splitlines():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert node.attr != "splitlines", f"{path.name}:{node.lineno} reads .splitlines"


def _function(module, name: str) -> ast.FunctionDef:
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    (node,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
    return node


@pytest.mark.parametrize("module, name", [
    (fileio, "_kind_then_value"), (fileio, "save_system"), (cli, "_cmd_compose"),
    (fileio, "parse_system"), (fileio, "_read_table"), (dsl, "parse_dsl"),
], ids=["_kind_then_value", "save_system", "_cmd_compose", "parse_system", "_read_table", "parse_dsl"])
def test_no_verb_holds_a_whole_file(module, name):
    """A file is read and written a line at a time: the functions between the
    handles and the readers and writers, and the readers themselves, which take
    only streamed lines, call no `.read` and no `.join` (`os.path.join`, which
    names a bundle's `file=` table, joins a path's parts, not a file's lines)."""
    for node in ast.walk(_function(module, name)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and ast.unparse(node.func) != "os.path.join"):
            assert node.func.attr not in ("read", "join"), f"{name}:{node.lineno} calls .{node.func.attr}"


@pytest.mark.parametrize("name", ["format_truth_table", "format_system"])
def test_the_writers_yield_lines(name):
    assert inspect.isgeneratorfunction(getattr(fileio, name))
