"""Equation DSL for generator functions.

One next-state equation per line, `x<i>' = <expr>`, over the state variables
x1..xn and input variables u1..um; `load` ends a line only at `\\n`, `\\r\\n`
or `\\r`.  Operators: ! (not), & (and), ^ (xor), | (or), parentheses and
the constants 0/1.  The binary operators' precedence is the table `_LEVELS`,
loosest first, and `!` binds tightest.  `#` starts a comment; whitespace is
insignificant within a line.  Parentheses and `!` nest at most
MAX_NESTING deep.  One evaluator, `_lanes`, computes an expression node as
a lane-packed int (see `boolfn`) whose lane r holds the node's value on row
r: `compile_program` over all 2^(n+m) table rows, `program_matrix` over the
2^|S_i| assignments of the variables S_i that equation i reads.
"""

from __future__ import annotations

import re
import sys
from array import array
from functools import cache, reduce
from typing import Iterable

from ..boolfn import DependencyMatrix, GeneratorFn, check_count, check_scan_size, lane_code, lane_mask
from ..errors import AsyncDecError
from ..signals import _Value

MAX_NESTING = 100


class DslSyntaxError(AsyncDecError):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}")


class DslNameError(AsyncDecError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


# AST nodes: ("const", bit) | ("x", i) | ("u", j) | ("not", e) |
# ("and"/"xor"/"or", e1, e2, ...): a chain of one operator is one node.
# The binary operators as (node kind, token), loosest first:
_LEVELS = (("or", "|"), ("xor", "^"), ("and", "&"))

# matches at every non-blank position and never matches the empty string
_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z_0-9]*)|(\d+)|([!&^|()'=])|(\S))")

# how a definition and a reference both spell x<i> and u<j>: no leading zero
_VARIABLE = re.compile(r"([xu])([1-9][0-9]*)")


def _variable(text: str, line_no: int, col: int):
    """("x" or "u", index) if `text` spells a variable, else None."""
    var = _VARIABLE.fullmatch(text)
    try:
        return var and (var[1], int(var[2]))
    except ValueError:  # more digits than int() converts
        raise DslSyntaxError(f"index of {var[1]} has {len(var[2])} digits", line_no, col) from None


def _tokenize(text: str, line_no: int):
    tokens = []
    for match in _TOKEN.finditer(text):
        name, digits, op, junk = match.groups()
        col = match.start(match.lastindex) + 1
        if junk is not None:
            raise DslSyntaxError(f"unexpected character {junk!r}", line_no, col)
        if name is not None:
            tokens.append(("name", name, col))
        elif digits is not None:
            tokens.append(("number", digits, col))
        else:
            tokens.append((op, op, col))
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens, line_no: int, refs: list):
        self.tokens = tokens
        self.line_no = line_no
        self.refs = refs
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            want = "end of line" if kind == "end" else repr(kind)
            raise DslSyntaxError(
                f"expected {want}, found {tok[1]!r}" if tok[0] != "end" else f"unexpected end of line, expected {want}",
                self.line_no,
                tok[2],
            )
        self.pos += 1
        return tok

    def nested(self, level):
        """Take an opening `(` or `!` and parse what it encloses at `level`, one level deeper."""
        col = self.take()[2]
        if self.depth == MAX_NESTING:
            raise DslSyntaxError(f"expression nested deeper than {MAX_NESTING} levels", self.line_no, col)
        self.depth += 1
        node = self.expr(level)
        self.depth -= 1
        return node

    def expr(self, level):
        """Operands of the next level chained by this level's operator; past the last, `!` or an atom."""
        if level == len(_LEVELS):
            return ("not", self.nested(level)) if self.peek()[0] == "!" else self.atom()
        kind, op = _LEVELS[level]
        nodes = [self.expr(level + 1)]
        while self.peek()[0] == op:
            self.take()
            nodes.append(self.expr(level + 1))
        return nodes[0] if len(nodes) == 1 else (kind, *nodes)

    def atom(self):
        kind, text, col = self.peek()
        if kind == "(":
            node = self.nested(0)
            self.take(")")
            return node
        if kind == "number":
            self.take()
            if text not in ("0", "1"):
                raise DslSyntaxError(f"constant must be 0 or 1, got {text}", self.line_no, col)
            return ("const", int(text))
        if kind == "name":
            self.take()
            var = _variable(text, self.line_no, col)
            if var:
                self.refs.append((*var, self.line_no))
                return var
            raise DslSyntaxError(f"{text!r} is not a variable (expected x<i> or u<j>)", self.line_no, col)
        message = f"unexpected {text!r}" if kind != "end" else "unexpected end of line"
        raise DslSyntaxError(message, self.line_no, col)


class EquationProgram(_Value):
    """A parsed program: one expression per state coordinate."""

    __slots__ = _fields = ("n", "m", "exprs")


def parse_dsl(lines: Iterable[str]) -> EquationProgram:
    """A program from an equation file's lines, each with its line end, as `load`
    reads them, a content line among them; diagnostics carry line and column."""
    defined: dict[int, tuple] = {}
    references: list[tuple[str, int, int]] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].rstrip("\r\n")
        if not line.strip():
            continue
        parser = _Parser(_tokenize(line, line_no), line_no, references)
        kind, name, col = parser.take()
        var = _variable(name, line_no, col) if kind == "name" else None
        if not var or var[0] != "x":
            raise DslSyntaxError(f"a line must start with a state variable, found {name!r}", line_no, col)
        index = var[1]
        parser.take("'")
        parser.take("=")
        expr = parser.expr(0)
        parser.take("end")
        if index in defined:
            raise DslNameError(f"state variable x{index} defined twice", line_no)
        defined[index] = expr
    n = max(defined)
    for i in range(1, n + 1):
        if i not in defined:
            raise DslNameError(f"state variable x{i} is never defined")
    m = 0
    for kind, index, line_no in references:
        if kind == "x":
            if not 1 <= index <= n:
                raise DslNameError(f"undeclared state variable x{index}", line_no)
        else:
            m = max(m, index)
    return EquationProgram(n, m, tuple(defined[i] for i in range(1, n + 1)))


def _lanes(node, ones: int, leaf) -> int:
    """`node` on every lane at once: `leaf(node)` packs a variable, `ones` is 1
    in every lane, `!` XORs with it and a chain folds its int operator."""
    kind = node[0]
    if kind == "const":
        return ones if node[1] else 0
    if kind in ("x", "u"):
        return leaf(node)
    if kind == "not":
        return _lanes(node[1], ones, leaf) ^ ones
    return reduce(getattr(int, f"__{kind}__"), (_lanes(e, ones, leaf) for e in node[1:]))


def compile_program(prog: EquationProgram) -> GeneratorFn:
    """Fill the truth table lane-parallel: x_i and u_j are periodic lane masks,
    `&`, `^`, `|` the int operators, `!` an XOR with all-ones lanes; output k
    goes to bit k-1 of every lane, and the lanes unpack to the row tuple."""
    code = lane_code(prog.n)
    check_scan_size(prog.n + prog.m, f"n+m = {prog.n + prog.m}")
    rows = 1 << (prog.n + prog.m)
    ones = lane_mask(code, rows, 0, 1, 1)
    variable = cache(lambda leaf: lane_mask(code, rows, leaf[1] - 1 + (prog.n if leaf[0] == "u" else 0), 0, 1))
    packed = sum(_lanes(expr, ones, variable) << k for k, expr in enumerate(prog.exprs))
    table = array(code, packed.to_bytes(rows * array(code).itemsize, sys.byteorder))
    return GeneratorFn._derived(prog.n, prog.m, tuple(table))


def program_matrix(prog: EquationProgram) -> DependencyMatrix:
    """`dependency_matrix(compile_program(prog))` without the table: D[i][j] is
    the lane derivative of x_i' w.r.t. x_j over the 2^|S_i| assignments of
    its support S_i (a byte lane each, S_i's k-th variable in bit k of the
    lane index), and 0 for x_j outside S_i."""
    check_count(prog.n * prog.n, f"entries in the {prog.n}x{prog.n} dependency report")
    mask = cache(lambda size, bit, low, high: lane_mask("B", 1 << size, bit, low, high))
    rows = []
    for i, expr in enumerate(prog.exprs, start=1):
        support: dict = {}  # S_i, each variable at its bit: the evaluator lists them as it walks
        _lanes(expr, 0, lambda leaf: support.setdefault(leaf, len(support)) & 0)
        size = len(support)
        check_scan_size(size, f"|S_{i}| = {size} (the variables x{i}' reads)")
        packed = _lanes(expr, mask(size, 0, 1, 1), lambda leaf: mask(size, support[leaf], 0, 1))
        rows.append(sum(
            1 << (j - 1) for (kind, j), k in support.items()
            if kind == "x" and (packed ^ packed >> (8 << k)) & mask(size, k, 1, 0)
        ))
    return DependencyMatrix(prog.n, tuple(rows))
