"""The package's size, counted: the lines of every `.py` file under
src/asyncdec, as `perfbench` counts `package.src_lines`.

The count has a ceiling so that growth shows up as a reasoned change to this
number rather than slipping in; a change that adds lines raises the ceiling
and says why, and one that removes lines may lower it.
"""

from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "asyncdec"

CEILING = 2616


def test_package_lines_stay_under_the_ceiling():
    lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    assert lines <= CEILING
