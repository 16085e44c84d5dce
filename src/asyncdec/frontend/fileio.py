"""Text formats and loaders.

Truth table: a `n=<n> m=<m>` header, then one `<mu> <lam> -> <out>` row per
point (the lam field is omitted when m=0); every row must be present, order
is irrelevant.  Signals and schedules share one line grammar,
`n=<width> [init=<bits>] H=<tick> events=(t,bits);(t,bits);...` with bits
written coordinate 1 first, and `init=` is present exactly on signals.
Numbers are ASCII digits only.  System bundles are sectioned: [phi], [inputs],
[phi0], [pi] and one [rho <name>] section per named schedule; a section of
any other name is refused, and each input names a distinct signal.  An error
in an inline [phi] table names its line in the bundle file.  A bundle checks
each distinct event text once per width: its lines share one memo of them,
and a schedule line whose events all passed is checked only for rising ticks.

`load(path, kind, *kinds)` is the one reader of input files, told by their
first content line: `[` opens a bundle; `n=<w>` followed by `init=` a signal,
by `H=` a schedule and by anything else a table; any other line an equation
file.  `load` takes two steps, the kind and then the value, so `compose`
tells both files' kinds before it reads either.  A file is opened once, as
text, and each line goes from the handle to its reader as it is read (a
bundle's [phi] rows to the table's, its `file=` table through `load`), so no
copy of the file is held and a pipe works.  The handle is opened with
`newline=""`, so only `\\n`, `\\r\\n` and `\\r` end a line.  Every reader
rejects exactly the inputs violating its format with one `LoadError` naming
the first it meets; the writers yield lines.
"""

from __future__ import annotations

import os
import re
from itertools import chain, islice
from operator import itemgetter, lt
from typing import Iterator

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


def _split_lines(lines):
    """The (line number from 1, content line) pairs of `lines`: comments, spaces and blank lines go."""
    for line_no, raw in enumerate(lines, start=1):
        if line := raw.partition("#")[0].strip():
            yield line_no, line


def _decoded(lines, path: str):
    """The lines of file `path`, its bytes that are not UTF-8 escaped: the first is named by its offset."""
    offset = 0  # the bytes of the lines before this one
    for line in lines:
        if not line.isascii():
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise LoadError(f"{path}: not UTF-8 text ({exc.reason} at byte {offset + exc.start})") from None
        offset += len(line) if line.isascii() else len(line.encode("utf-8"))
        yield line


# -- truth tables -------------------------------------------------------

_TT_HEADER = re.compile(r"^n=(\d+)\s+m=(\d+)$", re.ASCII)


def format_truth_table(phi: GeneratorFn) -> Iterator[str]:
    """The table's lines, each with its line end; each state and input value is written once."""
    states = [_bits_text(v, phi.n) for v in range(1 << phi.n)]
    inputs = [f" {_bits_text(v, phi.m)}" for v in range(1 << phi.m)] if phi.m else [""]
    outs = iter(phi.table)  # zip reads `states` first, so each input takes 2^n rows
    yield f"n={phi.n} m={phi.m}\n"
    yield from (f"{mu}{lam} -> {states[out]}\n" for lam in inputs for mu, out in zip(states, outs))


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
    return GeneratorFn._derived(n, m, tuple(rows))  # every row checked as it was read


# -- signals and schedules ----------------------------------------------

_SEQUENCE_LINE = re.compile(r"^n=(\d+)\s+(?:init=([01]+)\s+)?H=(-?\d+)\s+events=(.*)$", re.ASCII)
_EVENT = re.compile(r"^\((-?\d+),([01]+)\)$", re.ASCII)
_FORMS = {Signal: "n=<w> init=<bits> H=<tick> events=...",
          ProgressiveFunction: "n=<w> H=<tick> events=..."}


def _parse_sequence(line: str, where: str, kind: type, memo: dict) -> Signal | ProgressiveFunction:
    """A signal line (`kind` Signal, with `init=`) or a schedule line
    (ProgressiveFunction, without).  `memo` maps a width to the (t, value) pair
    of each event text that passed at that width, so a schedule line of width
    >= 1 with rising ticks up to H is built from its pairs unchecked.  Other
    lines meet the checking constructor, its errors reported as format errors
    prefixed by `where`: lines sharing `memo` report the first as lines read alone do."""
    match = _SEQUENCE_LINE.match(line.strip())
    if not match or (match.group(2) is None) == (kind is Signal):
        raise LoadError(f"{where}: expected '{_FORMS[kind]}', found {line!r}")
    width, init, horizon, text = match.groups()
    width, horizon = _decimal(width, where), _decimal(horizon, where)
    if init is not None and len(init) != width:
        raise LoadError(f"{where}: init width {len(init)}, expected {width}")
    read, match_event = memo.setdefault(width, {}), _EVENT.match
    events = []
    for raw in text.split(";") if text.strip() else ():
        if (pair := read.get(raw)) is None:  # a text not yet read at this width
            chunk = raw.strip()
            event = match_event(chunk)
            if not event:
                raise LoadError(f"{where}: bad event {chunk!r}, expected (t,bits)")
            t, bits = _decimal(event[1], where), event[2]
            if len(bits) != width:
                raise LoadError(f"{where}: {kind._kind} event at tick {t} has width {len(bits)}, expected {width}")
            pair = read[raw] = (t, int(bits[::-1], 2))
        events.append(pair)
    ticks = list(map(itemgetter(0), events))  # each pair passed at this width: a schedule needs rising ticks up to H
    if init is None and width >= 1 and all(map(lt, ticks, [*ticks[1:], horizon + 1])):
        return ProgressiveFunction._derived(width, None, tuple(events), horizon, tuple(filter(itemgetter(1), events)))
    try:
        if init is None:
            return ProgressiveFunction(width, tuple(events), horizon)
        return Signal(width, int(init[::-1], 2), tuple(events), horizon)
    except AsyncDecError as exc:
        raise LoadError(f"{where}: {exc}") from None


# -- system bundles ------------------------------------------------------

_SECTION = re.compile(r"^\[([a-z0-9_ ]+)\]$")
_NAMED_SECTIONS = ("phi", "inputs", "phi0", "pi")


def format_system(sys: RegularSystem) -> Iterator[str]:
    input_names = {u: f"u{k}" for k, u in enumerate(sys.inputs)}
    rho_names: dict[ProgressiveFunction, str] = {}
    for key in sorted(sys.pi, key=lambda pair: (pair[1].key, pair[0].value)):
        for rho in sorted(sys.pi[key]):
            if rho not in rho_names:
                rho_names[rho] = f"r{len(rho_names)}"
    yield "[phi]\n"
    yield from format_truth_table(sys.phi)
    yield "[inputs]\n"
    for u in sys.inputs:
        yield f"{input_names[u]} = {u}\n"
    yield "[phi0]\n"
    for u in sys.inputs:
        bits = ", ".join(str(mu) for mu in sorted(sys.phi0[u], key=lambda b: b.value))
        yield f"{input_names[u]}: {bits}\n"
    yield "[pi]\n"
    for u in sys.inputs:
        for mu in sorted(sys.phi0[u], key=lambda b: b.value):
            names = ", ".join(rho_names[rho] for rho in sorted(sys.pi[(mu, u)]))
            yield f"{mu} @ {input_names[u]}: {names}\n"
    for rho, name in rho_names.items():
        yield from (f"[rho {name}]\n", f"{rho}\n")


def _comma_list(text: str) -> list[str]:
    """The non-blank items of a comma-separated list, stripped."""
    return [item for item in map(str.strip, text.split(",")) if item]


def parse_system(content: Iterator[tuple[int, str]], base_dir: str) -> RegularSystem:
    """A bundle from its file's (line number, content line) pairs as `load` reads
    them; a `file=` table is named from `base_dir`.  The [phi] rows go into the
    table as they come; the other sections are filed by name, then read in the
    order inputs, schedules, phi0, pi, whatever their file order."""
    ends: list[tuple[int, str]] = []  # the line number and name of the header that ended the last section
    def body():  # the lines up to the next header, which goes to `ends`
        for line_no, line in content:
            if line[0] == "[" and (header := _SECTION.match(line)):  # a table row skips the regex
                ends.append((line_no, header[1]))
                return
            yield line_no, line
    if stray := next(body(), None):
        raise LoadError(f"line {stray[0]}: content before the first section")
    named: dict = {}  # "phi" to its table, every other section to its lines; a schedule's keyed "rho <name>"
    while ends:
        line_no, name = ends.pop()
        if name.startswith("rho "):
            if not name[4:].strip():
                raise LoadError(f"line {line_no}: section [{name}] names no schedule")
            name = "rho " + name[4:].strip()
        elif name not in _NAMED_SECTIONS:
            raise LoadError(f"line {line_no}: unknown section [{name}]")
        if name in named:
            raise LoadError(f"duplicate section [{name}]")
        rows = body()
        if name != "phi":
            named[name] = list(rows)
        elif len(head := list(islice(rows, 2))) != 1 or not head[0][1].startswith("file="):
            named[name] = _read_table(chain(head, rows))
        else:  # a lone `file=` line names a table file
            line_no, ref = head[0][0], head[0][1][len("file="):].strip()
            if not ref:
                raise LoadError(f"line {line_no}: file= names no table")
            path = os.path.join(base_dir, ref)
            try:
                named[name] = load(path, GeneratorFn)
            except LoadError as exc:  # `load`'s own errors name `path`; the reader's are named by `ref`
                raise exc if str(exc).startswith(f"{path}: ") else LoadError(f"{ref}: {exc}") from None
    for required in _NAMED_SECTIONS:
        if required not in named:
            raise LoadError(f"missing section [{required}]")

    memo: dict[int, dict[str, tuple[int, int]]] = {}  # event texts read, shared by every line below
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
        inputs[name] = _parse_sequence(rest.strip(), f"line {line_no}", Signal, memo)
        earlier = first_name.setdefault(inputs[name], name)
        if earlier != name:
            raise LoadError(f"line {line_no}: input {name!r} repeats input {earlier!r}")

    rhos: dict[str, ProgressiveFunction] = {}
    for label, lines in named.items():
        if label.startswith("rho "):
            if len(lines) != 1:
                raise LoadError(f"[{label}] must contain exactly one schedule line")
            rhos[label[4:]] = _parse_sequence(lines[0][1], f"[{label}]", ProgressiveFunction, memo)

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

    return RegularSystem(named["phi"], tuple(inputs.values()), phi0, pi)


_KINDS = {GeneratorFn: "a truth table", EquationProgram: "an equation file", RegularSystem: "a system bundle",
          Signal: "a signal", ProgressiveFunction: "a schedule"}
_SEQUENCE_OPENING = re.compile(r"n=\S*\s+(init|H)=", re.ASCII)  # the field after `n=<w>`
_SEQUENCE_KINDS = {"init": Signal, "H": ProgressiveFunction}


def _either(kinds: tuple[type, ...]) -> str:
    """The kinds a refusal says were expected, as in 'a truth table or an equation file'."""
    return " or ".join(_KINDS[k] for k in kinds)


def _kind_then_value(path: str, kinds: tuple[type, ...]):
    """Yields the kind file `path` holds, told by its first content line, then its
    value: a kind not in `kinds` is refused at the first step, a table header past
    the limit at the second, and a signal or schedule file at a second content line."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as f:
        lines = _decoded(f, path)  # a line ends at \n, \r\n or \r
        head: list[str] = []  # the lines read to tell the kind, the last the first with content
        for raw in lines:
            head.append(raw)
            if raw.partition("#")[0].strip():
                break
        content = _split_lines(chain(head, lines))
        line_no, line = next(content, (0, ""))
        if not line:
            raise LoadError(f"{path}: empty file")
        opening = _SEQUENCE_OPENING.match(line)
        held = (RegularSystem if line[0] == "[" else _SEQUENCE_KINDS[opening[1]] if opening
                else GeneratorFn if line[:2] == "n=" else EquationProgram)
        if held not in kinds:
            raise LoadError(f"{path}: holds {_KINDS[held]}, expected {_either(kinds)}")
        yield held
        if opening:  # a signal or schedule: its one line, and no second
            if second := next(content, None):
                raise LoadError(f"{path}: expected exactly one {held._kind} line, found a second at line {second[0]}")
            yield _parse_sequence(line, f"{path} line {line_no}", held, {})
            return
        content = chain([(line_no, line)], content)  # the first content line, then the rest as read
        yield (_read_table(content) if held is GeneratorFn  # header checked first
               else parse_system(content, os.path.dirname(path) or ".") if held is RegularSystem
               else parse_dsl(chain(head, lines)))  # the raw lines: a DSL error counts columns on them


def load(path: str, kind: type,
         *kinds: type) -> GeneratorFn | EquationProgram | RegularSystem | Signal | ProgressiveFunction:
    """What file `path` holds, of `kind` or one of `kinds`: `_kind_then_value`'s two steps at once."""
    steps = _kind_then_value(path, (kind, *kinds))
    next(steps)
    return next(steps)


def save_system(sys: RegularSystem, path: str) -> None:
    with open(path, "w") as f:
        f.writelines(format_system(sys))
