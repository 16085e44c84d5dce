"""Equation DSL: grammar, diagnostics, compilation."""

import random
import re

import pytest

from asyncdec import BitVec, GeneratorFn, dependency_matrix, partial_derivative
from asyncdec.errors import AsyncDecError
from asyncdec.frontend import DslNameError, DslSyntaxError, EquationProgram, compile_program, load
from asyncdec.frontend import cli
from asyncdec.frontend.dsl import MAX_NESTING, program_matrix
from loading import load_text

bv = BitVec.from_string


def parsed(text):
    return load_text(text, EquationProgram)


def compiled(text):
    return compile_program(parsed(text))


def test_single_input_follower():
    phi = compiled("x1' = u1")
    assert phi.n == 1 and phi.m == 1
    assert phi.eval(bv("0"), bv("1")) == bv("1")
    assert phi.eval(bv("1"), bv("0")) == bv("0")


def test_two_line_program():
    phi = compiled("x1' = x1 & x2\nx2' = x2 ^ u1")
    assert phi.n == 2 and phi.m == 1
    assert phi.eval(bv("11"), bv("1")) == bv("10")
    assert phi.eval(bv("11"), bv("0")) == bv("11")


def test_undeclared_state_variable():
    with pytest.raises(DslNameError):
        parsed("x1' = x3")


def test_duplicate_definition():
    with pytest.raises(DslNameError):
        parsed("x1' = 0\nx1' = 1")


def test_gap_in_state_variables():
    with pytest.raises(DslNameError):
        parsed("x1' = 0\nx3' = 1")


def test_syntax_error_carries_position():
    with pytest.raises(DslSyntaxError) as err:
        parsed("x1' = x1 &")
    assert err.value.line == 1


def test_unknown_character():
    with pytest.raises(DslSyntaxError):
        parsed("x1' = x1 % x1")


def test_identity_compiles_to_identity_table():
    assert compiled("x1' = x1").table == GeneratorFn.identity(1, 0).table


def test_dependency_of_conjunction_program():
    phi = compiled("x1' = x1 & x2\nx2' = x2")
    assert dependency_matrix(phi).rows == (0b11, 0b10)


def test_analysis_pipeline_on_decoupled_program():
    phi = compiled("x1' = u1\nx2' = !x2")
    assert dependency_matrix(phi).rows == (0b00, 0b10)
    assert dependency_matrix(phi).components().blocks == ((1,), (2,))


def test_precedence_not_and_xor_or():
    # ! > & > ^ > |
    phi = compiled("x1' = !x1 & x1 ^ x1 | x1")  # ((!x1 & x1) ^ x1) | x1 = x1
    assert phi.table == GeneratorFn.identity(1, 0).table
    phi2 = compiled("x1' = x1 ^ x1 & u1")  # x1 ^ (x1 & u1)
    assert phi2.eval(bv("1"), bv("1")) == bv("0")
    assert phi2.eval(bv("1"), bv("0")) == bv("1")


def test_parentheses_override():
    phi = compiled("x1' = (x1 | u1) & u2")
    assert phi.m == 2
    assert phi.eval(bv("0"), bv("10")) == bv("0")
    assert phi.eval(bv("0"), bv("11")) == bv("1")


def test_constants_and_comments():
    phi = compiled("# feedback free\nx1' = 1 & !0  # always on")
    assert phi.eval(bv("0"), BitVec(0, 0)) == bv("1")


def test_commuted_operands_compile_identically():
    pairs = [
        ("x1' = x1 & u1", "x1' = u1 & x1"),
        ("x1' = x1 | u1", "x1' = u1 | x1"),
        ("x1' = x1 ^ u1", "x1' = u1 ^ x1"),
    ]
    for left, right in pairs:
        assert compiled(left).table == compiled(right).table


def test_input_width_from_max_index():
    phi = compiled("x1' = u3")
    assert phi.m == 3


def test_deterministic_compile():
    text = "x1' = x1 ^ u1\nx2' = (x1 | x2) & !u2"
    assert compiled(text).table == compiled(text).table


def test_diagnostics_without_a_line_have_no_line_prefix():
    with pytest.raises(DslNameError) as err:
        parsed("x2' = x1")
    assert err.value.line is None
    assert str(err.value) == "state variable x1 is never defined"
    with pytest.raises(DslNameError, match="^line 2: undeclared state variable x3$"):
        parsed("x1' = 0\nx2' = x3")


def test_definitions_and_references_spell_variables_alike():
    for text in ("x01' = u1", "x0' = 1", "x1' = x01", "x1' = u01"):
        with pytest.raises(DslSyntaxError) as err:
            parsed(text)
        assert err.value.line == 1
    with pytest.raises(DslSyntaxError, match="^line 1, column 1: a line must start with a state variable, found 'x01'$"):
        parsed("x01' = u1")
    assert parsed("x10' = x1\n" + "".join(f"x{i}' = x10\n" for i in range(1, 10))).n == 10


def test_nesting_bound_is_a_syntax_error():
    depth = MAX_NESTING
    assert compiled("x1' = " + "!" * depth + "x1").table == GeneratorFn.identity(1, 0).table
    assert compiled("x1' = " + "(" * depth + "x1" + ")" * depth).table == GeneratorFn.identity(1, 0).table
    for text in ("x1' = " + "!" * 3000 + "x1", "x1' = " + "(" * 1500 + "x1" + ")" * 1500):
        with pytest.raises(DslSyntaxError, match=f"nested deeper than {depth} levels") as err:
            parsed(text)
        assert (err.value.line, err.value.col) == (1, 7 + depth)


@pytest.mark.parametrize(
    "text, error, message",
    [
        pytest.param("x1' = x1 % x1", DslSyntaxError,
                     "line 1, column 10: unexpected character '%'", id="bad-character"),
        pytest.param("x1 = x1", DslSyntaxError,
                     "line 1, column 4: expected \"'\", found '='", id="missing-prime"),
        pytest.param("x1' x1", DslSyntaxError,
                     "line 1, column 5: expected '=', found 'x1'", id="missing-equals"),
        pytest.param("x1' = x1 &", DslSyntaxError,
                     "line 1, column 11: unexpected end of line", id="dangling-operator"),
        pytest.param("x1' = (x1", DslSyntaxError,
                     "line 1, column 10: unexpected end of line, expected ')'", id="unclosed-paren"),
        pytest.param("x1' = )", DslSyntaxError,
                     "line 1, column 7: unexpected ')'", id="stray-close"),
        pytest.param("x1' = 2", DslSyntaxError,
                     "line 1, column 7: constant must be 0 or 1, got 2", id="bad-constant"),
        pytest.param("x1' = y1", DslSyntaxError,
                     "line 1, column 7: 'y1' is not a variable (expected x<i> or u<j>)", id="bad-name"),
        pytest.param("x1' = x" + "1" * 5000, DslSyntaxError,
                     "line 1, column 7: index of x has 5000 digits", id="long-index"),
        pytest.param("x1' = x1 x2", DslSyntaxError,
                     "line 1, column 10: expected end of line, found 'x2'", id="trailing-name"),
        pytest.param("x1' = x1 )", DslSyntaxError,
                     "line 1, column 10: expected end of line, found ')'", id="trailing-close"),
        pytest.param("x1' = 0\nx1' = 1", DslNameError,
                     "line 2: state variable x1 defined twice", id="defined-twice"),
    ],
)
def test_diagnostics_read_exactly(text, error, message):
    with pytest.raises(error) as err:
        parsed(text)
    assert type(err.value) is error and str(err.value) == message
    line, col = re.match(r"line (\d+)(?:, column (\d+))?:", message).groups()
    assert (err.value.line, getattr(err.value, "col", None)) == (int(line), col and int(col))


def test_a_vertical_tab_ends_no_equation():
    """`str.splitlines` would end a line at the vertical tab and read two equations."""
    with pytest.raises(DslSyntaxError) as err:
        parsed("x1' = x1\vx2' = x1\n")
    assert str(err.value) == "line 1, column 10: expected end of line, found 'x2'"


@pytest.mark.parametrize("data, message", [
    (b"x1' = x1 &\n# \xff\n", "line 1, column 11: unexpected end of line"),
    (b"x1' = x1 &\r\n# \xff\r\n", "line 1, column 11: unexpected end of line"),
    (b"x1' = x1\rx1' = !x1\r# \xfe\r", "line 2: state variable x1 defined twice"),
], ids=["syntax-lf", "syntax-crlf", "defined-twice-cr"])
def test_an_equation_file_names_its_first_error_in_file_order(tmp_path, data, message):
    """An equation file is parsed as its lines are read, so a bad line before a
    byte that is not UTF-8 is the error named; a line end counts no column."""
    path = tmp_path / "order.eq"
    path.write_bytes(data)
    with pytest.raises(AsyncDecError) as err:
        load(str(path), EquationProgram)
    assert str(err.value) == message


def test_chains_flatten_and_parentheses_nest():
    """A chain of one operator is one node; a parenthesised operand stays nested."""
    text = "x1' = x1 & x2 & u1\nx2' = (x1 & x2) & u1\nx3' = !!x1 | x2 ^ x1 & u1\nx4' = !(x4 | 0)"
    x1, x2, x4, u1 = ("x", 1), ("x", 2), ("x", 4), ("u", 1)
    assert parsed(text).exprs == (
        ("and", x1, x2, u1),
        ("and", ("and", x1, x2), u1),
        ("or", ("not", ("not", x1)), ("xor", x2, ("and", x1, u1))),
        ("not", ("or", x4, ("const", 0))),
    )


def test_long_operator_chains_compile():
    assert compiled("x1' = " + " & ".join(["x1"] * 5000)).table == GeneratorFn.identity(1, 0).table
    assert compiled("x1' = " + " ^ ".join(["x1"] * 5001)).table == GeneratorFn.identity(1, 0).table
    assert compiled("x1' = " + " | ".join(["0"] * 4999 + ["u1"])).table == (0, 0, 1, 1)


# -- lane-packed kernels against test-local row oracles ------------------------


def random_expr(rng, n, m, depth):
    """DSL source whose precedence Python shares once `!` reads as `~`."""
    if depth == 0 or rng.random() < 0.2:
        leaves = ["0", "1"] + [f"x{i}" for i in range(1, n + 1)] * 2
        return rng.choice(leaves + [f"u{j}" for j in range(1, m + 1)] * 2)
    if rng.random() < 0.2:
        return "!" + random_expr(rng, n, m, depth - 1)
    text = f"{random_expr(rng, n, m, depth - 1)} {rng.choice('&^|')} {random_expr(rng, n, m, depth - 1)}"
    return f"({text})" if rng.random() < 0.6 else text


def python_rows(text, n, m, rows):
    """Test-local oracle: Python evaluates every right-hand side row by row."""
    codes = [compile(line.split("=", 1)[1].strip().replace("!", "~"), "<eq>", "eval") for line in text.splitlines()]
    for r in rows:
        env = {f"x{i}": (r >> (i - 1)) & 1 for i in range(1, n + 1)}
        env.update({f"u{j}": (r >> (n + j - 1)) & 1 for j in range(1, m + 1)})
        yield sum((eval(code, env) & 1) << k for k, code in enumerate(codes))


def row_scan_matrix(phi):
    """Test-local oracle: one XOR per row and state bit."""
    rows = [0] * phi.n
    for j in range(phi.n):
        acc = 0
        for r, out in enumerate(phi.table):
            acc |= out ^ phi.table[r ^ (1 << j)]
        for i in range(phi.n):
            rows[i] |= ((acc >> i) & 1) << j
    return tuple(rows)


def random_program(rng, n, m):
    text = "\n".join(f"x{i}' = {random_expr(rng, n, m, rng.randint(0, 4))}" for i in range(1, n + 1))
    phi = compiled(text)
    assert phi.n == n and phi.m <= m
    return text, phi


@pytest.mark.parametrize("n", [1, 8, 9])
def test_lane_kernels_match_row_oracles_on_every_row(n):
    rng = random.Random(n)
    for m in sorted({0, 1, 12 - n}):
        for _ in range(3):
            text, phi = random_program(rng, n, m)
            assert phi.table == tuple(python_rows(text, n, phi.m, range(len(phi.table))))
            assert dependency_matrix(phi).rows == row_scan_matrix(phi)


@pytest.mark.parametrize("n, m", [(16, 1), (17, 0)])
def test_lane_kernels_match_row_oracles_on_wide_lanes(n, m):
    rng = random.Random(n)
    text, phi = random_program(rng, n, m)
    total = len(phi.table)
    rows = sorted({0, 1, total - 1, *rng.sample(range(total), 300)})
    assert [phi.table[r] for r in rows] == list(python_rows(text, n, phi.m, rows))
    rows = dependency_matrix(phi).rows
    for i in (1, 9, n):
        for j in (1, 8, n):
            assert rows[i - 1] >> (j - 1) & 1 == (partial_derivative(phi, i, j) != 0)


# -- the dependency matrix read off the equations, against the compiled table --


def chained_expr(rng, pool, depth):
    """DSL source over the leaves in `pool`: `!`, and chains of two to four operands."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(pool)
    if rng.random() < 0.2:
        return "!" + chained_expr(rng, pool, depth - 1)
    chain = f" {rng.choice('&^|')} ".join(chained_expr(rng, pool, depth - 1) for _ in range(rng.randint(2, 4)))
    return f"({chain})"


def nodes(expr):
    yield expr
    if expr[0] not in ("const", "x", "u"):
        for child in expr[1:]:
            yield from nodes(child)


def test_program_matrix_matches_the_compiled_table():
    """Seeded programs with n+m <= 12 whose pools leave some state and input
    variables unread and make some coordinates constant."""
    rng = random.Random(22)
    seen = set()
    for _ in range(400):
        n = rng.randint(1, 8)
        m = rng.choice([0, rng.randint(0, 12 - n)])
        pool = [v for v in [f"x{i}" for i in range(1, n + 1)] + [f"u{j}" for j in range(1, m + 1)] if rng.random() < 0.7]
        text = "\n".join(
            f"x{i}' = {chained_expr(rng, ['0', '1'] + (pool if rng.random() < 0.85 else []), rng.randint(0, 4))}"
            for i in range(1, n + 1)
        )
        prog = parsed(text)
        matrix, table = program_matrix(prog), dependency_matrix(compile_program(prog))
        assert matrix == table, text
        assert matrix.components() == table.components()
        exprs = [list(nodes(expr)) for expr in prog.exprs]
        every = [node for expr in exprs for node in expr]
        read = {node for node in every if node[0] in ("x", "u")}
        seen.update(node[0] for node in every)
        seen.update("chain3" for node in every if len(node) > 3)
        if prog.m == 0:
            seen.add("m=0")
        if sum(v[0] == "u" for v in read) < prog.m:
            seen.add("unread input")
        if sum(v[0] == "x" for v in read) < n:
            seen.add("unread state")
        if any(not read.intersection(expr) for expr in exprs):
            seen.add("constant coordinate")
    assert seen >= {"const", "not", "chain3", "m=0", "unread input", "unread state", "constant coordinate"}


def test_program_matrix_of_200_planted_blocks_builds_no_table(tmp_path, monkeypatch):
    """n = 200 in 50 chained blocks of 4, m = 2: n+m is far past any table,
    and analyze reports the planted partition through the equations alone."""
    lines = []
    for base in range(0, 200, 4):
        a, b, c, d = (f"x{base + k}" for k in range(1, 5))
        lines += [f"{a}' = {b} ^ u1", f"{b}' = {c} & !{a}", f"{c}' = {d} | u2", f"{d}' = {a} ^ {d} ^ 1"]
    (tmp_path / "planted.eq").write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(cli, "compile_program", None)
    monkeypatch.setattr(cli, "dependency_matrix", None)
    assert cli.main(["analyze", "--phi", str(tmp_path / "planted.eq"), "--out", str(tmp_path / "r.kv")]) == 0
    blocks = "|".join(",".join(str(base + k) for k in range(1, 5)) for base in range(0, 200, 4))
    doc = (tmp_path / "r.kv").read_text()
    assert f"partition.blocks={blocks}\n" in doc
    assert "n=200\nm=2\n" in doc
