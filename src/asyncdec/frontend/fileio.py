"""Text formats and loaders.

Truth table: a `n=<n> m=<m>` header, then one `<mu> <lam> -> <out>` row per
point (the lam field is omitted when m=0); every row must be present, order
is irrelevant.  Signals are one line each:
`n=<width> init=<bits> H=<tick> events=(t,bits);(t,bits);...` with bits
written coordinate 1 first; schedules use the same line without `init=`.
System bundles are sectioned: [phi], [inputs], [phi0], [pi] and one
[rho <name>] section per named schedule.

Every loader rejects exactly the inputs violating its format, with an error
naming the first violation.
"""

from __future__ import annotations

import os
import re
from contextlib import contextmanager

from ..boolfn import GeneratorFn, check_index_range
from ..errors import AsyncDecError, HorizonExceeded, InvalidValue, WidthMismatch
from ..signals import BitVec, ProgressiveFunction, Signal, _bits_text
from ..systems import RegularSystem


class LoadError(AsyncDecError):
    """Base for file-format violations."""


class MalformedRowError(LoadError):
    pass


class MissingRowError(LoadError):
    pass


class DuplicateRowError(LoadError):
    pass


class WidthInconsistencyError(LoadError):
    pass


class OrderingError(LoadError):
    pass


class BundleError(LoadError):
    pass


_BITS = re.compile(r"^[01]+$")


def read_text(path: str) -> str:
    """The whole file, decoded strictly as UTF-8."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise LoadError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _parse_bits(text: str, where: str) -> BitVec:
    if not _BITS.match(text):
        raise MalformedRowError(f"{where}: {text!r} is not a bit string")
    return BitVec.from_string(text)


def _decimal(text: str, where: str) -> int:
    """Digits a format regex matched; more than int() converts is malformed."""
    try:
        return int(text)
    except ValueError:
        raise MalformedRowError(f"{where}: a number of {len(text)} digits is too long") from None


def _split_lines(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


# -- truth tables -------------------------------------------------------

_TT_HEADER = re.compile(r"^n=(\d+)\s+m=(\d+)$")


def format_truth_table(phi: GeneratorFn) -> str:
    """Each state and input value is written once, then joined per row."""
    states = [_bits_text(v, phi.n) for v in range(1 << phi.n)]
    inputs = [f" {_bits_text(v, phi.m)}" for v in range(1 << phi.m)] if phi.m else [""]
    outs = iter(phi.table)  # zip reads `states` first, so each input takes 2^n rows
    rows = (f"{mu}{lam} -> {states[out]}" for lam in inputs for mu, out in zip(states, outs))
    return f"n={phi.n} m={phi.m}\n" + "\n".join(rows) + "\n"


def parse_truth_table(text: str) -> GeneratorFn:
    lines = list(_split_lines(text))
    if not lines:
        raise MalformedRowError("empty truth table")
    line_no, header = lines[0]
    match = _TT_HEADER.match(header)
    if not match:
        raise MalformedRowError(f"line {line_no}: expected 'n=<n> m=<m>', found {header!r}")
    n, m = (_decimal(match.group(k), f"line {line_no}") for k in (1, 2))
    if n < 1:
        raise WidthInconsistencyError(f"line {line_no}: state width must be >= 1")
    check_index_range(n, m)
    rows: dict[int, int] = {}
    for line_no, line in lines[1:]:
        if "->" not in line:
            raise MalformedRowError(f"line {line_no}: missing '->' in {line!r}")
        left, _, right = line.partition("->")
        fields = left.split()
        if len(fields) != (2 if m else 1):
            raise MalformedRowError(
                f"line {line_no}: expected {'mu and lam' if m else 'mu only'} before '->'"
            )
        mu = _parse_bits(fields[0], f"line {line_no}")
        lam = _parse_bits(fields[1], f"line {line_no}") if m else BitVec(0, 0)
        out = _parse_bits(right.strip(), f"line {line_no}")
        if mu.width != n or lam.width != m or out.width != n:
            raise WidthInconsistencyError(
                f"line {line_no}: widths ({mu.width},{lam.width},{out.width}) "
                f"do not match header n={n} m={m}"
            )
        index = mu.value | (lam.value << n)
        if index in rows:
            raise DuplicateRowError(f"line {line_no}: duplicate row for mu={mu} lam={lam}")
        rows[index] = out.value
    expected = 1 << (n + m)
    if len(rows) != expected:
        index = next(i for i in range(expected) if i not in rows)
        mu, lam = _bits_text(index & ((1 << n) - 1), n), _bits_text(index >> n, m)
        raise MissingRowError(f"missing row for mu={mu}" + (f" lam={lam}" if m else ""))
    return GeneratorFn(n, m, tuple(rows[i] for i in range(expected)))


def load_truth_table(path: str) -> GeneratorFn:
    return parse_truth_table(read_text(path))


# -- signals and schedules ----------------------------------------------

_SIGNAL_LINE = re.compile(
    r"^n=(\d+)\s+(?:init=([01]+)\s+)?H=(-?\d+)\s+events=(.*)$"
)
_EVENT = re.compile(r"^\((-?\d+),([01]+)\)$")


def _parse_events(text: str, where: str, kind: str, width: int):
    """(tick, int) pairs, bits read coordinate 1 first, each `width` wide."""
    text = text.strip()
    if not text:
        return
    for chunk in text.split(";"):
        chunk = chunk.strip()
        match = _EVENT.match(chunk)
        if not match:
            raise MalformedRowError(f"{where}: bad event {chunk!r}, expected (t,bits)")
        t, bits = _decimal(match.group(1), where), match.group(2)
        if len(bits) != width:
            raise WidthInconsistencyError(
                f"{where}: {kind} event at tick {t} has width {len(bits)}, expected {width}"
            )
        yield t, int(bits[::-1], 2)


@contextmanager
def _event_errors(where: str):
    """Report the core's width, ordering and horizon checks as format errors
    prefixed by `where`."""
    try:
        yield
    except WidthMismatch as exc:
        raise WidthInconsistencyError(f"{where}: {exc}") from None
    except (InvalidValue, HorizonExceeded) as exc:
        raise OrderingError(f"{where}: {exc}") from None


def parse_signal(line: str, where: str = "signal") -> Signal:
    match = _SIGNAL_LINE.match(line.strip())
    if not match or match.group(2) is None:
        raise MalformedRowError(
            f"{where}: expected 'n=<w> init=<bits> H=<tick> events=...', found {line!r}"
        )
    width, horizon = _decimal(match.group(1), where), _decimal(match.group(3), where)
    init = match.group(2)
    if len(init) != width:
        raise WidthInconsistencyError(f"{where}: init width {len(init)}, expected {width}")
    events = tuple(_parse_events(match.group(4), where, "signal", width))
    with _event_errors(where):
        return Signal(width, int(init[::-1], 2), events, horizon)


def parse_rho(line: str, where: str = "schedule") -> ProgressiveFunction:
    match = _SIGNAL_LINE.match(line.strip())
    if not match or match.group(2) is not None:
        raise MalformedRowError(
            f"{where}: expected 'n=<w> H=<tick> events=...', found {line!r}"
        )
    width, horizon = _decimal(match.group(1), where), _decimal(match.group(3), where)
    events = tuple(_parse_events(match.group(4), where, "schedule", width))
    with _event_errors(where):
        return ProgressiveFunction(width, events, horizon)


def load_signal(path: str) -> Signal:
    lines = list(_split_lines(read_text(path)))
    if len(lines) != 1:
        raise MalformedRowError(f"{path}: expected exactly one signal line, found {len(lines)}")
    return parse_signal(lines[0][1], where=f"{path} line {lines[0][0]}")


def load_rho(path: str) -> ProgressiveFunction:
    lines = list(_split_lines(read_text(path)))
    if len(lines) != 1:
        raise MalformedRowError(f"{path}: expected exactly one schedule line, found {len(lines)}")
    return parse_rho(lines[0][1], where=f"{path} line {lines[0][0]}")


# -- system bundles ------------------------------------------------------

_SECTION = re.compile(r"^\[([a-z0-9_ ]+)\]$")


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
        lines.append(f"[rho {name}]")
        lines.append(str(rho))
    return "\n".join(lines) + "\n"


def parse_system(text: str, base_dir: str = ".") -> RegularSystem:
    sections: list[tuple[str, list[tuple[int, str]]]] = []
    current = None
    for line_no, line in _split_lines(text):
        match = _SECTION.match(line)
        if match:
            current = (match.group(1), [])
            sections.append(current)
        elif current is None:
            raise BundleError(f"line {line_no}: content before the first section")
        else:
            current[1].append((line_no, line))

    by_name: dict[str, list[tuple[int, str]]] = {}
    rho_sections: dict[str, list[tuple[int, str]]] = {}
    for name, body in sections:
        if name.startswith("rho "):
            rho_name = name[4:].strip()
            if rho_name in rho_sections:
                raise BundleError(f"duplicate section [rho {rho_name}]")
            rho_sections[rho_name] = body
        else:
            if name in by_name:
                raise BundleError(f"duplicate section [{name}]")
            by_name[name] = body
    for required in ("phi", "inputs", "phi0", "pi"):
        if required not in by_name:
            raise BundleError(f"missing section [{required}]")

    phi_body = by_name["phi"]
    if len(phi_body) == 1 and phi_body[0][1].startswith("file="):
        ref = phi_body[0][1][len("file="):].strip()
        phi = load_truth_table(os.path.join(base_dir, ref))
    else:
        phi = parse_truth_table("\n".join(line for _, line in phi_body))

    inputs: dict[str, Signal] = {}
    order: list[Signal] = []
    for line_no, line in by_name["inputs"]:
        name, eq, rest = line.partition("=")
        if not eq:
            raise BundleError(f"line {line_no}: expected '<name> = <signal>'")
        name = name.strip()
        if name in inputs:
            raise BundleError(f"line {line_no}: duplicate input name {name!r}")
        inputs[name] = parse_signal(rest.strip(), where=f"line {line_no}")
        order.append(inputs[name])

    rhos = {
        name: parse_rho(body[0][1], where=f"[rho {name}]")
        for name, body in rho_sections.items()
        if len(body) == 1
    }
    for name, body in rho_sections.items():
        if len(body) != 1:
            raise BundleError(f"[rho {name}] must contain exactly one schedule line")

    phi0: dict[Signal, frozenset[BitVec]] = {}
    for line_no, line in by_name["phi0"]:
        name, colon, rest = line.partition(":")
        if not colon:
            raise BundleError(f"line {line_no}: expected '<input>: bits, bits, ...'")
        name = name.strip()
        if name not in inputs:
            raise BundleError(f"line {line_no}: unknown input {name!r}")
        u = inputs[name]
        if u in phi0:
            raise BundleError(f"line {line_no}: phi0 given twice for {name!r}")
        values = [
            _parse_bits(chunk.strip(), f"line {line_no}")
            for chunk in rest.split(",")
            if chunk.strip()
        ]
        if not values:
            raise BundleError(f"line {line_no}: phi0 for {name!r} is empty")
        phi0[u] = frozenset(values)

    pi: dict[tuple[BitVec, Signal], frozenset[ProgressiveFunction]] = {}
    for line_no, line in by_name["pi"]:
        left, colon, rest = line.partition(":")
        if not colon or "@" not in left:
            raise BundleError(f"line {line_no}: expected '<bits> @ <input>: names'")
        bits_text, _, name = left.partition("@")
        mu = _parse_bits(bits_text.strip(), f"line {line_no}")
        name = name.strip()
        if name not in inputs:
            raise BundleError(f"line {line_no}: unknown input {name!r}")
        u = inputs[name]
        key = (mu, u)
        if key in pi:
            raise BundleError(f"line {line_no}: pi given twice for {mu} @ {name}")
        chosen = []
        for chunk in rest.split(","):
            rho_name = chunk.strip()
            if not rho_name:
                continue
            if rho_name not in rhos:
                raise BundleError(f"line {line_no}: unknown schedule {rho_name!r}")
            chosen.append(rhos[rho_name])
        if not chosen:
            raise BundleError(f"line {line_no}: pi for {mu} @ {name} is empty")
        pi[key] = frozenset(chosen)

    return RegularSystem(phi, tuple(order), phi0, pi)


def load_system(path: str) -> RegularSystem:
    return parse_system(read_text(path), base_dir=os.path.dirname(path) or ".")


def save_system(sys: RegularSystem, path: str) -> None:
    with open(path, "w") as f:
        f.write(format_system(sys))
