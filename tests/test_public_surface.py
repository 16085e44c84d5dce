"""Every public function, class and method of the package has a user.

A public name defined under `asyncdec` must be read somewhere in the package
or the tests: a top-level name as a name or an attribute, a method as an
attribute only, so a parameter or loop variable of the same name does not
count; an export-list entry alone does not count either.  So code that nothing calls does not stay in the surface.
A name that only the tests read is a convenience the program does without,
so each one is listed here with the reason it stays.
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
    function or class and every public method of a top-level class, private
    ones too, since a public class inherits what a private base defines."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path, tree in _trees(PACKAGE):
        for node in tree.body:
            if not isinstance(node, defs):
                continue
            if not node.name.startswith("_"):
                yield path.name, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, defs) and not member.name.startswith("_"):
                        yield path.name, f"{node.name}.{member.name}", member.name


# qualified name -> why it stays though no code under src reads it
TEST_ONLY = {
    "GeneratorFn.from_function": "the README tour builds a table from a Python function with it",
    "BitVec.from_bits": "the README tour writes a state as a bit list with it",
    "BitVec.bit": "the README tour reads a coordinate with it",
    "_EventSequence.canonical": "tests build the expected canonical sequence of a signal or schedule with it",
    "partial_derivative": "the row-based derivative of one coordinate pair that tests check `dependency_matrix` against",
    "apply_masked": "the one-event reference that tests fold `run` against",
    "realize": "the full-run route that tests check decompose's factor route against",
    "initial_state_function": "acceptance criterion 5 reads the hull's initial states with it",
    "lemma1_suite": "acceptance criterion 7, Lemma 1's product progressiveness",
    "partition_oracle_suite": "acceptance criterion 8, the finest partition against a brute-force oracle",
    "synchronous_suite": "acceptance criterion 9, the synchronous reduction",
}


def _names_read(*roots: Path):
    """Every name read bare, and every attribute read, written `.name`."""
    used = set()
    for root in roots:
        for _, tree in _trees(root):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add("." + node.attr)
    return used


def _is_read(qualified: str, name: str, used: set[str]) -> bool:
    """A method is read as an attribute; a top-level name either way."""
    return "." + name in used or ("." not in qualified and name in used)


def test_every_public_definition_is_used():
    definitions = list(_public_definitions())
    assert len(definitions) >= 100
    used = _names_read(PACKAGE, TESTS)
    unused = [f"{module}:{qualified}" for module, qualified, name in definitions
              if not _is_read(qualified, name, used)]
    assert unused == []


def test_names_only_tests_read_are_the_listed_ones():
    read_by_package = _names_read(PACKAGE)
    test_only = {qualified for _, qualified, name in _public_definitions()
                 if not _is_read(qualified, name, read_by_package)}
    assert test_only == set(TEST_ONLY)

