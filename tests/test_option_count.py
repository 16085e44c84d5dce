"""The package's options, counted: every defaulted parameter of a function
under src/asyncdec plus every CLI `add_argument` call; and its module-level
memos, named: every function decorated with `lru_cache` or `cache`.

The count is pinned so that a new knob shows up as a reasoned change to this
number rather than slipping in; an option that only ever takes one value
should be a constant instead.  Each memo is pinned with the traffic that pays
for it (hits/misses over a workload's verb cycle, run in process, seed 7), so
a new cache shows up the same way.  A `cache(lambda ...)` made per call inside
a function is local and is not a memo here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "asyncdec"

OPTIONS = 25

MEMOS = {
    "signals._relabeler": "about 99% hits on decompose-bundle; 1679/365 on theorem 32, 4964/11 on theorem 34",
    "boolfn._split_tuple": "27/9 on theorem 26, 2538/62 on theorem 32, 478/4 on theorem 34",
}


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


def _memos(tree: ast.AST, module: str):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name in ("lru_cache", "cache"):
                    yield f"{module}.{node.name}"


def test_module_level_memos_are_pinned():
    found = {memo for p in sorted(SRC.rglob("*.py"))
             for memo in _memos(ast.parse(p.read_text(encoding="utf-8")), p.stem)}
    assert found == set(MEMOS)
