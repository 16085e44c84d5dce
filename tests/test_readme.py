"""The README's library quick tour runs, and the values its comments state hold."""

import ast
import re
from pathlib import Path

from asyncdec import Partition, parallel_fn, project_fn

README = Path(__file__).parent.parent / "README.md"
TOUR = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)


def _commented(prefix: str) -> tuple[str, str]:
    """(code, comment) of the tour line that starts with `prefix`."""
    line = next(line for line in TOUR.splitlines() if line.startswith(prefix))
    code, _, comment = line.partition("#")
    return code.strip(), comment.strip()


def test_quick_tour_runs_and_its_comments_hold(capsys):
    namespace = {}
    exec(TOUR, namespace)
    printed = capsys.readouterr().out.splitlines()
    for prefix, want in (
        ("dependency_matrix(", ((0, 0), (0, 1))),
        ("dependency_matrix(phi).components(", ((1,), (2,))),
        ("[x.value_at(t)", [0, 1, 3]),
    ):
        code, comment = _commented(prefix)
        assert ast.literal_eval(comment) == want
        assert eval(code, namespace) == want
    _, comment = _commented("print(x)")
    assert printed == [comment] == ["n=2 init=00 H=10 events=(1,10);(3,11)"]
    phi, first, second, partition = (namespace[k] for k in ("phi", "first", "second", "partition"))
    assert isinstance(partition, Partition)
    assert parallel_fn(first, second) == project_fn(phi, sum(partition.blocks, ()))
