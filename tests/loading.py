"""How the tests read a text: written to a file as it is, then read by `load`,
the one reader of the package, so every reader test runs the verbs' path."""

import tempfile
from pathlib import Path

from asyncdec.frontend import load


def load_text(text: str, kind: type, *kinds: type, where: Path | None = None):
    """What `load(path, kind, *kinds)` reads from a file holding `text`, line
    ends and all.  The file is `where` if given, so that a bundle's `file=`
    names a file beside it and `load`'s own errors name a known path, and
    otherwise a file in a temporary directory."""
    if where is None:
        with tempfile.TemporaryDirectory() as directory:
            return load_text(text, kind, *kinds, where=Path(directory) / "text")
    where.write_text(text, encoding="utf-8", newline="")
    return load(str(where), kind, *kinds)
