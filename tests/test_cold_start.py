"""Importing the CLI stays cheap: no `dataclasses` (which pulls in `inspect`)
and no `datetime` (only `verify --stamp` needs it), while every layer module
is loaded, as the benchmark's traced pass expects."""

import os
import subprocess
import sys
from pathlib import Path

import asyncdec

SRC = Path(asyncdec.__file__).parent.parent

LAYERS = (
    "asyncdec.frontend.cli",
    "asyncdec.frontend.dsl",
    "asyncdec.frontend.fileio",
    "asyncdec.frontend.checks",
    "asyncdec.boolfn",
    "asyncdec.semantics",
    "asyncdec.systems",
    "asyncdec.signals",
)


def test_cli_import_loads_the_layers_and_nothing_slow():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import asyncdec.frontend.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = set(out.stdout.split())
    assert loaded >= set(LAYERS)
    assert not loaded & {"dataclasses", "inspect", "datetime"}
