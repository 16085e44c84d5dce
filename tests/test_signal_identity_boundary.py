"""Only `signals` decides what makes two signals or schedules the same."""

import ast
from pathlib import Path

import asyncdec

PACKAGE = Path(asyncdec.__file__).parent
PRIVATE = {"_canon"}


def test_the_private_identity_fields_are_slots_of_signals():
    """A renamed field leaves this list, so the check below cannot go empty."""
    tree = ast.parse((PACKAGE / "signals.py").read_text(encoding="utf-8"))
    slots = {name for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)
             for name in ast.literal_eval(node.value)}
    assert PRIVATE <= slots


def test_no_other_module_reads_the_private_identity_fields():
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p != PACKAGE / "signals.py")
    assert len(modules) >= 10
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert node.attr not in PRIVATE, f"{path.name}:{node.lineno} reads .{node.attr}"
