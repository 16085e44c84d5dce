"""Every public function, class and method of the package has a user.

A public name defined under `asyncdec` must be read, as a name or an
attribute, somewhere in the package or the tests; an export-list entry alone
does not count.  So code that nothing calls does not stay in the surface.
"""

import ast
from pathlib import Path

import asyncdec

PACKAGE = Path(asyncdec.__file__).parent
TESTS = Path(__file__).parent


def _trees(root: Path):
    for path in sorted(root.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _public_definitions():
    """(module file name, qualified name, bare name) for every public top-level
    function or class and every public method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path, tree in _trees(PACKAGE):
        for node in tree.body:
            if not isinstance(node, defs) or node.name.startswith("_"):
                continue
            yield path.name, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, defs) and not member.name.startswith("_"):
                        yield path.name, f"{node.name}.{member.name}", member.name


def _names_read():
    used = set()
    for root in (PACKAGE, TESTS):
        for _, tree in _trees(root):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return used


def test_every_public_definition_is_used():
    definitions = list(_public_definitions())
    assert len(definitions) >= 100
    used = _names_read()
    unused = [f"{module}:{qualified}" for module, qualified, name in definitions if name not in used]
    assert unused == []
