"""Text formats and loaders.

Truth table: a `n=<n> m=<m>` header, then one `<mu> <lam> -> <out>` row per
point (the lam field is omitted when m=0); every row must be present, order
is irrelevant.  Signals and schedules share one line grammar,
`n=<width> [init=<bits>] H=<tick> events=(t,bits);(t,bits);...` with bits
written coordinate 1 first, and `init=` is present exactly on signals.
Numbers are ASCII digits only.  System bundles are sectioned: [phi], [inputs],
[phi0], [pi] and one [rho <name>] section per named schedule; a section of
any other name is refused, and each input names a distinct signal.  An error
in an inline [phi] table names its line in the bundle file.

`load(path, *kinds)` is the one reader of input files, told by their first
content line: `[` opens a bundle; `n=<w>` followed by `init=` a signal, by
`H=` a schedule and by anything else a table; any other line an equation file.
Lines end at `\n`, `\r\n` or `\r`.  A file is opened once, as text, and read
line by line up to there, so a kind not in `kinds`, and at the value step a
table header past the size limit, is refused before the rest is read; a signal
or schedule file ends at a second content line, and any other is read whole
from the same handle, so a pipe works.  `load` takes two steps, the kind and
then the value, so `compose` tells both files' kinds from their first lines
before it reads either whole.  A bundle's `file=` table is read through
`load`.  Every reader rejects exactly the inputs violating its format with one
`LoadError` naming the first violation.
"""

from __future__ import annotations

import os
import re
from itertools import chain

from ..boolfn import GeneratorFn, check_scan_size
from ..errors import AsyncDecError
from ..signals import BitVec, ProgressiveFunction, Signal, _bits_text
from ..systems import RegularSystem
from .dsl import EquationProgram, parse_dsl


class LoadError(AsyncDecError):
    """A file-format violation; its text names the first one."""


def _parse_bits(text: str, where: str) -> BitVec:
    if not text or text.strip("01"):
        raise LoadError(f"{where}: {text!r} is not a bit string")
    return BitVec(len(text), int(text[::-1], 2))


def _decimal(text: str, where: str) -> int:
    """Digits a format regex matched; more than int() converts is malformed."""
    try:
        return int(text)
    except ValueError:
        raise LoadError(f"{where}: a number of {len(text)} digits is too long") from None


def _split_lines(chunks):
    """The (line number, content line) pairs of the text that `chunks` join to,
    each chunk but the last ending at a line break."""
    line_no = 0
    for chunk in chunks:
        for line_no, raw in enumerate(chunk.splitlines(), start=line_no + 1):
            if line := raw.partition("#")[0].strip():
                yield line_no, line


def _decoded(chunks, path: str, head: list[str]):
    """Each text chunk of file `path`, kept in `head`; at a byte that is not
    UTF-8, escaped by the reader, the text so far is decoded again strictly."""
    for text in chunks:
        head.append(text)
        if not text.isascii() and re.search("[\udc80-\udcff]", text):
            try:
                "".join(head).encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise LoadError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
        yield text


# -- truth tables -------------------------------------------------------

_TT_HEADER = re.compile(r"^n=(\d+)\s+m=(\d+)$", re.ASCII)


def format_truth_table(phi: GeneratorFn) -> str:
    """Each state and input value is written once, then joined per row."""
    states = [_bits_text(v, phi.n) for v in range(1 << phi.n)]
    inputs = [f" {_bits_text(v, phi.m)}" for v in range(1 << phi.m)] if phi.m else [""]
    outs = iter(phi.table)  # zip reads `states` first, so each input takes 2^n rows
    rows = (f"{mu}{lam} -> {states[out]}" for lam in inputs for mu, out in zip(states, outs))
    return f"n={phi.n} m={phi.m}\n" + "\n".join(rows) + "\n"


def parse_truth_table(text: str) -> GeneratorFn:
    return _read_table(_split_lines([text]))


def _read_table(lines) -> GeneratorFn:
    """A table from (line number, line) pairs; errors name the line numbers.
    Each row's output fills the slot of its row index in a list preset to -1:
    a filled slot is a duplicate, the first unfilled one the missing row."""
    line_no, header = next(lines, (0, ""))
    if not header:
        raise LoadError("empty truth table")
    match = _TT_HEADER.match(header)
    if not match:
        raise LoadError(f"line {line_no}: expected 'n=<n> m=<m>', found {header!r}")
    n, m = (_decimal(match.group(k), f"line {line_no}") for k in (1, 2))
    if n < 1:
        raise LoadError(f"line {line_no}: state width must be >= 1")
    check_scan_size(n + m, f"n+m = {n + m}")  # before any row is read
    rows = [-1] * (1 << (n + m))
    for line_no, line in lines:  # the rows, from the same iterator as the header
        left, arrow, out = line.partition("->")
        if not arrow:
            raise LoadError(f"line {line_no}: missing '->' in {line!r}")
        fields = left.split()
        if len(fields) != (2 if m else 1):
            raise LoadError(f"line {line_no}: expected {'mu and lam' if m else 'mu only'} before '->'")
        fields.append(out.strip())
        for text in fields:  # mu, lam when m > 0, out
            if not text or text.strip("01"):
                raise LoadError(f"line {line_no}: {text!r} is not a bit string")
        mu, lam, out = fields if m else (fields[0], "", fields[1])
        if len(mu) != n or len(lam) != m or len(out) != n:
            raise LoadError(f"line {line_no}: widths ({len(mu)},{len(lam)},{len(out)}) "
                            f"do not match header n={n} m={m}")
        index = int((mu + lam)[::-1], 2)  # mu in the low n bits, lam above
        if rows[index] >= 0:
            raise LoadError(f"line {line_no}: duplicate row for mu={mu}" + (f" lam={lam}" if m else ""))
        rows[index] = int(out[::-1], 2)
    if -1 in rows:
        index = rows.index(-1)
        mu, lam = _bits_text(index & ((1 << n) - 1), n), _bits_text(index >> n, m)
        raise LoadError(f"missing row for mu={mu}" + (f" lam={lam}" if m else ""))
    return GeneratorFn(n, m, tuple(rows))


# -- signals and schedules ----------------------------------------------

_SEQUENCE_LINE = re.compile(r"^n=(\d+)\s+(?:init=([01]+)\s+)?H=(-?\d+)\s+events=(.*)$", re.ASCII)
_EVENT = re.compile(r"^\((-?\d+),([01]+)\)$", re.ASCII)
_FORMS = {Signal: "n=<w> init=<bits> H=<tick> events=...",
          ProgressiveFunction: "n=<w> H=<tick> events=..."}


def _parse_sequence(line: str, where: str, kind: type) -> Signal | ProgressiveFunction:
    """A signal line (`kind` Signal, with `init=`) or a schedule line
    (ProgressiveFunction, without).  The core's width, ordering and horizon
    checks are reported as format errors prefixed by `where`."""
    match = _SEQUENCE_LINE.match(line.strip())
    if not match or (match.group(2) is None) == (kind is Signal):
        raise LoadError(f"{where}: expected '{_FORMS[kind]}', found {line!r}")
    width, init, horizon, text = match.groups()
    width, horizon = _decimal(width, where), _decimal(horizon, where)
    if init is not None and len(init) != width:
        raise LoadError(f"{where}: init width {len(init)}, expected {width}")
    events = []
    for chunk in text.split(";") if text.strip() else ():
        chunk = chunk.strip()
        event = _EVENT.match(chunk)
        if not event:
            raise LoadError(f"{where}: bad event {chunk!r}, expected (t,bits)")
        t, bits = _decimal(event.group(1), where), event.group(2)
        if len(bits) != width:
            raise LoadError(f"{where}: {kind._kind} event at tick {t} has width {len(bits)}, expected {width}")
        events.append((t, int(bits[::-1], 2)))
    try:
        if init is None:
            return ProgressiveFunction(width, tuple(events), horizon)
        return Signal(width, int(init[::-1], 2), tuple(events), horizon)
    except AsyncDecError as exc:
        raise LoadError(f"{where}: {exc}") from None


# -- system bundles ------------------------------------------------------

_SECTION = re.compile(r"^\[([a-z0-9_ ]+)\]$")
_NAMED_SECTIONS = ("phi", "inputs", "phi0", "pi")


def format_system(sys: RegularSystem) -> str:
    input_names = {u: f"u{k}" for k, u in enumerate(sys.inputs)}
    rho_names: dict[ProgressiveFunction, str] = {}
    for key in sorted(sys.pi, key=lambda pair: (pair[1].key, pair[0].value)):
        for rho in sorted(sys.pi[key]):
            if rho not in rho_names:
                rho_names[rho] = f"r{len(rho_names)}"
    lines = ["[phi]", format_truth_table(sys.phi).rstrip("\n"), "[inputs]"]
    for u in sys.inputs:
        lines.append(f"{input_names[u]} = {u}")
    lines.append("[phi0]")
    for u in sys.inputs:
        bits = ", ".join(str(mu) for mu in sorted(sys.phi0[u], key=lambda b: b.value))
        lines.append(f"{input_names[u]}: {bits}")
    lines.append("[pi]")
    for u in sys.inputs:
        for mu in sorted(sys.phi0[u], key=lambda b: b.value):
            names = ", ".join(rho_names[rho] for rho in sorted(sys.pi[(mu, u)]))
            lines.append(f"{mu} @ {input_names[u]}: {names}")
    for rho, name in rho_names.items():
        lines += [f"[rho {name}]", str(rho)]
    return "\n".join(lines) + "\n"


def _comma_list(text: str) -> list[str]:
    """The non-blank items of a comma-separated list, stripped."""
    return [item for item in map(str.strip, text.split(",")) if item]


def parse_system(text: str, base_dir: str = ".") -> RegularSystem:
    """Sections are filed by name as their headers are read, then read in the
    order phi, inputs, schedules, phi0, pi, whatever their order in the file."""
    named: dict[str, list[tuple[int, str]]] = {}
    rho_sections: dict[str, list[tuple[int, str]]] = {}  # keyed "rho <name>"
    body = None
    for line_no, line in _split_lines([text]):
        match = _SECTION.match(line)
        if not match:
            if body is None:
                raise LoadError(f"line {line_no}: content before the first section")
            body.append((line_no, line))
            continue
        name = match.group(1)
        if name.startswith("rho "):
            if not name[4:].strip():
                raise LoadError(f"line {line_no}: section [{name}] names no schedule")
            store, name = rho_sections, "rho " + name[4:].strip()
        elif name in _NAMED_SECTIONS:
            store = named
        else:
            raise LoadError(f"line {line_no}: unknown section [{name}]")
        if name in store:
            raise LoadError(f"duplicate section [{name}]")
        body = store[name] = []
    for required in _NAMED_SECTIONS:
        if required not in named:
            raise LoadError(f"missing section [{required}]")

    phi_body = named["phi"]
    if len(phi_body) == 1 and phi_body[0][1].startswith("file="):
        line_no, ref = phi_body[0][0], phi_body[0][1][len("file="):].strip()
        if not ref:
            raise LoadError(f"line {line_no}: file= names no table")
        path = os.path.join(base_dir, ref)
        try:
            phi = load(path, GeneratorFn)
        except LoadError as exc:  # `load`'s own errors name `path`; the reader's are named by `ref`
            raise exc if str(exc).startswith(f"{path}: ") else LoadError(f"{ref}: {exc}") from None
    else:
        phi = _read_table(iter(phi_body))

    inputs: dict[str, Signal] = {}
    first_name: dict[Signal, str] = {}  # signals compare by canonical form
    for line_no, line in named["inputs"]:
        name, eq, rest = line.partition("=")
        if not eq:
            raise LoadError(f"line {line_no}: expected '<name> = <signal>'")
        name = name.strip()
        if not name or ":" in name:  # `[phi0]` and `[pi]` end the name at ':'
            raise LoadError(f"line {line_no}: input name {name!r} must be nonempty and free of ':'")
        if name in inputs:
            raise LoadError(f"line {line_no}: duplicate input name {name!r}")
        inputs[name] = _parse_sequence(rest.strip(), f"line {line_no}", Signal)
        earlier = first_name.setdefault(inputs[name], name)
        if earlier != name:
            raise LoadError(f"line {line_no}: input {name!r} repeats input {earlier!r}")

    rhos: dict[str, ProgressiveFunction] = {}
    for label, body in rho_sections.items():
        if len(body) != 1:
            raise LoadError(f"[{label}] must contain exactly one schedule line")
        rhos[label[4:]] = _parse_sequence(body[0][1], f"[{label}]", ProgressiveFunction)

    phi0: dict[Signal, frozenset[BitVec]] = {}
    for line_no, line in named["phi0"]:
        name, colon, rest = line.partition(":")
        if not colon:
            raise LoadError(f"line {line_no}: expected '<input>: bits, bits, ...'")
        name = name.strip()
        if name not in inputs:
            raise LoadError(f"line {line_no}: unknown input {name!r}")
        u = inputs[name]
        if u in phi0:
            raise LoadError(f"line {line_no}: phi0 given twice for {name!r}")
        values = [_parse_bits(bits, f"line {line_no}") for bits in _comma_list(rest)]
        if not values:
            raise LoadError(f"line {line_no}: phi0 for {name!r} is empty")
        phi0[u] = frozenset(values)

    pi: dict[tuple[BitVec, Signal], frozenset[ProgressiveFunction]] = {}
    for line_no, line in named["pi"]:
        left, colon, rest = line.partition(":")
        if not colon or "@" not in left:
            raise LoadError(f"line {line_no}: expected '<bits> @ <input>: names'")
        bits_text, _, name = left.partition("@")
        mu = _parse_bits(bits_text.strip(), f"line {line_no}")
        name = name.strip()
        if name not in inputs:
            raise LoadError(f"line {line_no}: unknown input {name!r}")
        key = (mu, inputs[name])
        if key in pi:
            raise LoadError(f"line {line_no}: pi given twice for {mu} @ {name}")
        names = _comma_list(rest)
        for rho_name in names:
            if rho_name not in rhos:
                raise LoadError(f"line {line_no}: unknown schedule {rho_name!r}")
        if not names:
            raise LoadError(f"line {line_no}: pi for {mu} @ {name} is empty")
        pi[key] = frozenset(map(rhos.__getitem__, names))

    return RegularSystem(phi, tuple(inputs.values()), phi0, pi)


_KINDS = {GeneratorFn: "a truth table", EquationProgram: "an equation file", RegularSystem: "a system bundle",
          Signal: "a signal", ProgressiveFunction: "a schedule"}
_SEQUENCE_OPENING = re.compile(r"n=\S*\s+(init|H)=", re.ASCII)  # the field after `n=<w>`
_SEQUENCE_KINDS = {"init": Signal, "H": ProgressiveFunction}


def _kind_then_value(path: str, kinds: tuple[type, ...]):
    """Yields the kind file `path` holds, told by its first content line as
    above, then its value: a kind not in `kinds` is refused at the first step,
    a table header past the limit at the second, and a signal or schedule file
    is read only up to a second content line, whose number the refusal names."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as f:
        head: list[str] = []  # the text read so far
        lines = _split_lines(_decoded(f, path, head))  # a line ends at \n, \r\n or \r
        line_no, line = next(lines, (0, ""))
        if not line:
            raise LoadError(f"{path}: empty file")
        opening = _SEQUENCE_OPENING.match(line)
        held = (RegularSystem if line[0] == "[" else _SEQUENCE_KINDS[opening[1]] if opening
                else GeneratorFn if line[:2] == "n=" else EquationProgram)
        if held not in kinds:
            raise LoadError(f"{path}: holds {_KINDS[held]}, expected {' or '.join(_KINDS[k] for k in kinds)}")
        yield held
        if opening:  # a signal or schedule: its one line, and no second
            if second := next(lines, None):
                raise LoadError(f"{path}: expected exactly one {held._kind} line, found a second at line {second[0]}")
            yield _parse_sequence(line, f"{path} line {line_no}", held)
            return
        whole = chain(head, _decoded(iter(f.read, ""), path, head))  # the rest, read only if asked for
        yield (_read_table(_split_lines(whole)) if held is GeneratorFn  # header checked before the rest is read
               else parse_system("".join(whole), os.path.dirname(path) or ".") if held is RegularSystem
               else parse_dsl("".join(whole)))


def load(path: str, *kinds: type) -> GeneratorFn | EquationProgram | RegularSystem | Signal | ProgressiveFunction:
    """What file `path` holds: `_kind_then_value`'s two steps, taken at once."""
    steps = _kind_then_value(path, kinds)
    next(steps)
    return next(steps)


def save_system(sys: RegularSystem, path: str) -> None:
    with open(path, "w") as f:
        f.write(format_system(sys))
