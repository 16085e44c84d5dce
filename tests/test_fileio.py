"""File formats: lossless round trips and named format violations."""

import random
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asyncdec import BitVec, GeneratorFn, ProgressiveFunction, Signal, unit_step
from asyncdec.frontend import (
    LoadError,
    format_system,
    format_truth_table,
    load,
    parse_system,
    parse_truth_table,
)
from asyncdec.frontend.checks import rand_fn, rand_rho, rand_signal, rand_system
from asyncdec.frontend.fileio import _decoded, _parse_sequence, _split_lines


def val(text):
    """The int a bit string denotes, coordinate 1 first: "10" is 1."""
    return int(text[::-1], 2)


def test_truth_table_roundtrip():
    rng = random.Random(1)
    for _ in range(10):
        phi = rand_fn(rng, rng.randint(1, 3), rng.randint(0, 2))
        assert parse_truth_table(format_truth_table(phi)) == phi


def _per_row_truth_table(phi: GeneratorFn) -> str:
    """The writer that built one `BitVec` per field of every row."""
    lines = [f"n={phi.n} m={phi.m}"]
    for lam in range(1 << phi.m):
        for mu in range(1 << phi.n):
            out = BitVec(phi.n, phi.table[mu | (lam << phi.n)])
            left = str(BitVec(phi.n, mu))
            if phi.m:
                left += f" {BitVec(phi.m, lam)}"
            lines.append(f"{left} -> {out}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("m", [0, 1, 2])
def test_truth_table_text_matches_the_per_row_writer(m):
    rng = random.Random(m)
    for n in (1, 2, 3, 5):
        phi = rand_fn(rng, n, m)
        assert format_truth_table(phi) == _per_row_truth_table(phi)


def test_truth_table_m0_rows_have_no_lambda_field():
    phi = GeneratorFn.identity(1, 0)
    text = format_truth_table(phi)
    assert "0 -> 0" in text and "1 -> 1" in text
    assert parse_truth_table(text) == phi


def test_missing_row_names_the_point():
    phi = GeneratorFn.identity(1, 1)
    lines = format_truth_table(phi).strip().splitlines()
    with pytest.raises(LoadError) as err:
        parse_truth_table("\n".join(lines[:-1]))
    assert "mu=1" in str(err.value) and "lam=1" in str(err.value)


def test_duplicate_row_rejected():
    phi = GeneratorFn.identity(1, 0)
    text = format_truth_table(phi) + "0 -> 0\n"
    with pytest.raises(LoadError):
        parse_truth_table(text)


def _point(index: int, n: int, m: int) -> str:
    """How a table error names row `index`: mu in the low n bits, lam above,
    each written coordinate 1 first."""
    mu = "".join(str(index >> i & 1) for i in range(n))
    lam = "".join(str(index >> (n + j) & 1) for j in range(m))
    return f"mu={mu}" + (f" lam={lam}" if m else "")


@pytest.mark.parametrize("seed", range(24))
def test_table_rows_are_read_by_row_index(seed):
    """Rows in any order give the same table; the lowest missing row index is
    the one named, and a repeated row is named at the line of the repeat."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    m = rng.randint(0, 6 - n)
    phi = rand_fn(rng, n, m)
    header, *rows = format_truth_table(phi).splitlines()  # rows[i] is row index i
    order = rng.sample(range(len(rows)), len(rows))
    assert parse_truth_table("\n".join([header] + [rows[i] for i in order])) == phi

    gone = set(rng.sample(order, rng.randint(2, len(rows))))
    with pytest.raises(LoadError) as err:
        parse_truth_table("\n".join([header] + [rows[i] for i in order if i not in gone]))
    assert str(err.value) == f"missing row for {_point(min(gone), n, m)}"

    first = rng.randrange(len(order))
    at = rng.randint(first + 1, len(order))  # the repeat's place among the rows
    repeated = order[:at] + [order[first]] + order[at:]
    with pytest.raises(LoadError) as err:
        parse_truth_table("\n".join([header] + [rows[i] for i in repeated]))
    assert str(err.value) == f"line {at + 2}: duplicate row for {_point(order[first], n, m)}"


@pytest.mark.parametrize(
    "text, error, message",
    [
        pytest.param("n=1 m=0\n0 => 0\n1 -> 1", LoadError,
                     "line 2: missing '->' in '0 => 0'", id="missing-arrow"),
        pytest.param("n=1 m=0\n0 0 -> 0", LoadError,
                     "line 2: expected mu only before '->'", id="fields-m0"),
        pytest.param("n=1 m=1\n0 -> 0", LoadError,
                     "line 2: expected mu and lam before '->'", id="fields-m1"),
        pytest.param("n=1 m=1\nx 0 -> 0", LoadError,
                     "line 2: 'x' is not a bit string", id="bad-mu"),
        pytest.param("n=1 m=1\n0 x -> 0", LoadError,
                     "line 2: 'x' is not a bit string", id="bad-lam"),
        pytest.param("n=1 m=1\n0 0 -> x", LoadError,
                     "line 2: 'x' is not a bit string", id="bad-out"),
        pytest.param("n=1 m=1\n0 1 ->", LoadError,
                     "line 2: '' is not a bit string", id="empty-out"),
        pytest.param("n=1 m=0\n0 -> 0\n0 -> 1", LoadError,
                     "line 3: duplicate row for mu=0", id="duplicate-m0"),
        pytest.param("n=1 m=1\n0 1 -> 0\n0 1 -> 1", LoadError,
                     "line 3: duplicate row for mu=0 lam=1", id="duplicate-m1"),
        pytest.param("n=1 m=0\n0 -> 0", LoadError,
                     "missing row for mu=1", id="missing-m0"),
        pytest.param("n=1 m=1\n0 0 -> 0\n1 0 -> 0\n0 1 -> 0", LoadError,
                     "missing row for mu=1 lam=1", id="missing-m1"),
    ],
)
def test_malformed_row(text, error, message):
    with pytest.raises(error) as err:
        parse_truth_table(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("n=1 m=0\n00 -> 0\n1 -> 1",
                     "line 2: widths (2,0,1) do not match header n=1 m=0", id="mu-m0"),
        pytest.param("n=1 m=0\n0 -> 01",
                     "line 2: widths (1,0,2) do not match header n=1 m=0", id="out-m0"),
        pytest.param("n=1 m=1\n00 1 -> 0",
                     "line 2: widths (2,1,1) do not match header n=1 m=1", id="mu-m1"),
        pytest.param("n=1 m=1\n0 10 -> 0",
                     "line 2: widths (1,2,1) do not match header n=1 m=1", id="lam-m1"),
    ],
)
def test_width_inconsistency(text, message):
    with pytest.raises(LoadError) as err:
        parse_truth_table(text)
    assert str(err.value) == message


def test_signal_line_roundtrip():
    x = Signal(2, val("10"), ((0, val("11")), (4, val("01"))), 9)
    assert _parse_sequence(str(x), "signal", Signal) == x


def test_signal_empty_events():
    x = _parse_sequence("n=1 init=1 H=5 events=", "signal", Signal)
    assert x == Signal(1, val("1"), (), 5)


def test_signal_ordering_error():
    with pytest.raises(LoadError):
        _parse_sequence("n=1 init=0 H=9 events=(3,1);(2,0)", "signal", Signal)
    with pytest.raises(LoadError):
        _parse_sequence("n=1 H=9 events=(3,1);(3,1)", "schedule", ProgressiveFunction)


def test_signal_event_beyond_horizon():
    with pytest.raises(LoadError):
        _parse_sequence("n=1 init=0 H=2 events=(5,1)", "signal", Signal)


def test_event_width_inconsistency_names_the_line():
    with pytest.raises(LoadError) as err:
        _parse_sequence("n=2 H=9 events=(1,11);(2,1)", "line 4", ProgressiveFunction)
    assert str(err.value).startswith("line 4: ")


# Every fault is a LoadError; `kind`, the class each had before, still names the cases.
# `read` names how the line is read: `parse_*` reads it with `_parse_sequence`, and
# `load_*` writes it to a file named "line 4" and reads that with `load`.
@pytest.mark.parametrize(
    "read, line, kind, text",
    [
        ("parse_rho", "n=2 H=9 events=(1,11);(2,1)", "WidthInconsistencyError",
         "line 4: schedule event at tick 2 has width 1, expected 2"),
        ("parse_signal", "n=2 init=1 H=9 events=(1,11)", "WidthInconsistencyError",
         "line 4: init width 1, expected 2"),
        ("parse_signal", "n=1 init=0 H=9 events=(3,1);(2,0)", "OrderingError",
         "line 4: signal events not strictly increasing at tick 2"),
        ("parse_signal", "n=1 init=0 H=2 events=(5,1)", "OrderingError",
         "line 4: signal event at tick 5 beyond horizon 2"),
        ("parse_signal", "n=1 H=9 events=(1,1)", "MalformedRowError",
         "line 4: expected 'n=<w> init=<bits> H=<tick> events=...', "
         "found 'n=1 H=9 events=(1,1)'"),
        ("parse_rho", "n=1 init=0 H=9 events=(1,1)", "MalformedRowError",
         "line 4: expected 'n=<w> H=<tick> events=...', found 'n=1 init=0 H=9 events=(1,1)'"),
        ("parse_rho", "n=1 H=9 events=(1,1);", "MalformedRowError",
         "line 4: bad event '', expected (t,bits)"),
        ("parse_signal", "n=1 init=0 H=9 events=(x,1)", "MalformedRowError",
         "line 4: bad event '(x,1)', expected (t,bits)"),
        ("parse_rho", "n=2 H=9 events=(1,1)", "WidthInconsistencyError",
         "line 4: schedule event at tick 1 has width 1, expected 2"),
        ("parse_signal", "n=2 init=00 H=9 events=(1,1)", "WidthInconsistencyError",
         "line 4: signal event at tick 1 has width 1, expected 2"),
        pytest.param("parse_rho", f"n=1 H=9 events=({'9' * 5000},1)", "MalformedRowError",
                     "line 4: a number of 5000 digits is too long", id="parse_rho-long-tick"),
        ("parse_rho", "n=0 H=9 events=", "WidthInconsistencyError",
         "line 4: schedule width must be >= 1, got 0"),
        ("load_signal", "", "MalformedRowError",
         "line 4: empty file"),
        ("load_signal", "n=1 init=0 H=9 events=\nn=1 init=0 H=9 events=\n", "MalformedRowError",
         "line 4: expected exactly one signal line, found a second at line 2"),
        ("load_rho", "# no line\n", "MalformedRowError",
         "line 4: empty file"),
        ("load_rho", "n=1 H=9 events=\nn=1 H=9 events=\n", "MalformedRowError",
         "line 4: expected exactly one schedule line, found a second at line 2"),
    ],
)
def test_event_line_errors_read_exactly(read, line, kind, text, tmp_path, monkeypatch):
    held = Signal if read.endswith("signal") else ProgressiveFunction
    with pytest.raises(LoadError) as err:
        if read.startswith("load"):
            monkeypatch.chdir(tmp_path)
            (tmp_path / "line 4").write_text(line)
            load("line 4", held)
        else:
            _parse_sequence(line, "line 4", held)
    assert type(err.value) is LoadError and str(err.value) == text


SIGNAL = partial(_parse_sequence, where="signal", kind=Signal)
SCHEDULE = partial(_parse_sequence, where="schedule", kind=ProgressiveFunction)


@pytest.mark.parametrize(
    "parse, text, error, message",
    [
        pytest.param(parse_truth_table, "n=\u0661 m=0\n0 -> 0\n1 -> 1", LoadError,
                     "line 1: expected 'n=<n> m=<m>', found 'n=\u0661 m=0'", id="table-header"),
        pytest.param(SIGNAL, "n=1 init=0 H=\u0665 events=(1,1)", LoadError,
                     "signal: expected 'n=<w> init=<bits> H=<tick> events=...', "
                     "found 'n=1 init=0 H=\u0665 events=(1,1)'", id="signal-horizon"),
        pytest.param(SIGNAL, "n=1 init=0 H=5 events=(\u0661,1)", LoadError,
                     "signal: bad event '(\u0661,1)', expected (t,bits)", id="signal-tick"),
        pytest.param(SCHEDULE, "n=\uff12 H=5 events=(1,11)", LoadError,
                     "schedule: expected 'n=<w> H=<tick> events=...', "
                     "found 'n=\uff12 H=5 events=(1,11)'", id="schedule-width"),
    ],
)
def test_non_ascii_digits_are_not_numbers(parse, text, error, message):
    """`int()` reads Arabic-Indic and fullwidth digits; the formats do not."""
    with pytest.raises(error) as err:
        parse(text)
    assert type(err.value) is error and str(err.value) == message


@given(st.randoms(use_true_random=False), st.integers(1, 4), st.integers(0, 12))
@settings(max_examples=100, deadline=None)
def test_signal_and_schedule_lines_round_trip(tmp_path_factory, rng, width, horizon):
    """Each line reads back as the value it was written from, alone and from a file."""
    path = tmp_path_factory.getbasetemp() / "line.txt"
    x = rand_signal(rng, width, horizon)
    r = rand_rho(rng, width, max(horizon, 1))
    for value, kind in ((x, Signal), (r, ProgressiveFunction)):
        path.write_text(f"{value}\n")
        for read in (_parse_sequence(str(value), "line", kind), load(str(path), kind)):
            assert read == value and read.key == value.key


_TEXT_PIECES = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
                "\u2028", "\u2029", " ", "\t", "\xa0", "#", "a", "0", "n=1 m=0", "[",
                " " * 2500, "#" * 3000, "0" * 3000, "\n" * 4000]  # long runs cross prefix boundaries


@given(st.lists(st.sampled_from(_TEXT_PIECES), max_size=12).map("".join))
@settings(max_examples=300, deadline=None)
@example("\r\n# note\u2028 [phi] # x\n")
@example(" " * 4095 + "\r\nn=1 m=0\n")
@example("#" * 4096 + "\u2028" + " " * 9000 + "a")
@example("0" * 5000 + "\n")
@example(" " * 8191 + "\r\nn=1 m=0\r")
def test_the_file_reader_yields_the_lines_the_text_reader_yields(tmp_path_factory, text):
    """`load` reads a file a line at a time, a line ending at \\n, \\r\\n or \\r;
    every numbered content line it reads is the one the text reader yields
    from the whole decoded file."""
    path = tmp_path_factory.getbasetemp() / "lines.txt"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as f:
        assert list(_split_lines(_decoded(f, str(path), []))) == list(_split_lines([text]))


def test_a_file_that_is_not_utf8_is_named_with_the_byte(tmp_path):
    path = tmp_path / "bad.sig"
    path.write_bytes(b"n=1 init=0 H=5 events= # \xff\n")
    with pytest.raises(LoadError) as err:
        load(str(path), Signal)
    assert str(err.value) == f"{path}: not UTF-8 text (invalid start byte at byte 25)"


@pytest.mark.parametrize("data, line_no", [
    (b"n=1 init=0 H=5 events=\nn=1 m=0\n\xff\xfe\n", 2),
    (b"n=1 init=0 H=5 events=\r\n\x0c# note\nn=1 m=0\n\xff\n", 4),
    (b"n=1 init=0 H=5 events=\rn=1 m=0\r\xff\r", 2),
], ids=["next-line", "after-blank-lines", "cr-line-ends"])
def test_a_second_line_ends_the_read_of_a_signal_file(tmp_path, data, line_no):
    """A signal file holds one content line: the read stops at a second, so
    the bytes after it, which are not UTF-8, are never decoded."""
    path = tmp_path / "trailer.sig"
    path.write_bytes(data)
    with pytest.raises(LoadError) as err:
        load(str(path), Signal)
    assert str(err.value) == f"{path}: expected exactly one signal line, found a second at line {line_no}"


def test_rho_line_roundtrip():
    r = ProgressiveFunction(2, ((1, val("10")), (3, val("11"))), 9)
    assert _parse_sequence(str(r), "schedule", ProgressiveFunction) == r


def test_rho_line_must_not_carry_init():
    with pytest.raises(LoadError):
        _parse_sequence("n=1 init=0 H=9 events=(1,1)", "schedule", ProgressiveFunction)
    with pytest.raises(LoadError):
        _parse_sequence("n=1 H=9 events=(1,1)", "signal", Signal)


def test_negative_ticks_allowed():
    x = _parse_sequence("n=1 init=0 H=5 events=(-3,1);(0,0)", "signal", Signal)
    assert x.value_at(-3) == val("1")


def test_system_bundle_roundtrip():
    rng = random.Random(5)
    for _ in range(6):
        phi = rand_fn(rng, 2, 1)
        sys_ = rand_system(rng, phi, 12, n_inputs=2)
        assert parse_system(format_system(sys_)) == sys_


def test_system_bundle_phi_by_reference(tmp_path):
    phi = GeneratorFn.identity(1, 1)
    (tmp_path / "phi.tt").write_text(format_truth_table(phi))
    bundle = """
[phi]
file=phi.tt
[inputs]
step = n=1 init=0 H=8 events=(0,1)
[phi0]
step: 0
[pi]
0 @ step: r0
[rho r0]
n=1 H=8 events=(1,1)
"""
    sys_ = parse_system(bundle, base_dir=str(tmp_path))
    assert sys_.phi == phi
    assert sys_.inputs == (unit_step(0, 8),)


BUNDLE = """[phi]
n=1 m=1
0 0 -> 0
1 0 -> 1
0 1 -> 0
1 1 -> 1
[inputs]
step = n=1 init=0 H=8 events=(0,1)
[phi0]
step: 0
[pi]
0 @ step: r0
[rho r0]
n=1 H=8 events=(1,1)
"""
BUNDLE_TABLE = BUNDLE[len("[phi]\n"):BUNDLE.index("[inputs]")]


def test_an_error_in_a_referenced_table_names_its_file(tmp_path):
    (tmp_path / "phi.tt").write_text("n=1 m=1\n0 0 -> 0\n1 0 -> 1\n0 1 -> 0\n")
    bundle = BUNDLE.replace(BUNDLE_TABLE, "file=phi.tt\n")
    with pytest.raises(LoadError) as err:
        parse_system(bundle, base_dir=str(tmp_path))
    assert str(err.value) == "phi.tt: missing row for mu=1 lam=1"


@pytest.mark.parametrize("name, text, held", [
    ("a.eq", "x1' = u1\n", "an equation file"),
    ("b.sys", BUNDLE, "a system bundle"),
], ids=["equation-file", "bundle"])
def test_a_referenced_file_must_hold_a_truth_table(tmp_path, monkeypatch, name, text, held):
    """The reference is read by `load`, which names the file it opened, once."""
    (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(LoadError) as err:
        parse_system(BUNDLE.replace(BUNDLE_TABLE, f"file={name}\n"))
    assert str(err.value) == f"./{name}: holds {held}, expected a truth table"


def test_a_referenced_table_that_is_not_utf8_is_named_by_its_path(tmp_path):
    (tmp_path / "phi.tt").write_bytes(b"n=1 m=1\n0 0 -> \xff\n")
    bundle = BUNDLE.replace(BUNDLE_TABLE, "file=phi.tt\n")
    with pytest.raises(LoadError) as err:
        parse_system(bundle, base_dir=str(tmp_path))
    assert str(err.value) == f"{tmp_path / 'phi.tt'}: not UTF-8 text (invalid start byte at byte 15)"


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(BUNDLE.replace("[phi]\n", "junk\n[phi]\n"),
                     "line 1: content before the first section", id="before-first-section"),
        pytest.param(BUNDLE.replace("[rho r0]", "[phi]\nn=1 m=0\n0 -> 0\n1 -> 1\n[rho r0]"),
                     "duplicate section [phi]", id="duplicate-phi"),
        pytest.param(BUNDLE + "[rho r0]\nn=1 H=8 events=(2,1)\n",
                     "duplicate section [rho r0]", id="duplicate-rho"),
        pytest.param(BUNDLE.replace("[pi]", "[phi_0]\nstep: 1\n[pi]"),
                     "line 11: unknown section [phi_0]", id="unknown-section"),
        pytest.param("[phi]\nn=1 m=0\n0 -> 0\n1 -> 1\n",
                     "missing section [inputs]", id="missing-inputs"),
        pytest.param(BUNDLE.replace("[pi]\n0 @ step: r0\n", ""),
                     "missing section [pi]", id="missing-pi"),
        pytest.param(BUNDLE.replace("step = n=1 init=0 H=8 events=(0,1)", "step"),
                     "line 8: expected '<name> = <signal>'", id="input-without-equals"),
        pytest.param(BUNDLE.replace("step = ", " = ").replace("step:", ":").replace("@ step", "@ "),
                     "line 8: input name '' must be nonempty and free of ':'", id="input-name-empty"),
        pytest.param(BUNDLE.replace("step", "a:b"),
                     "line 8: input name 'a:b' must be nonempty and free of ':'", id="input-name-colon"),
        pytest.param(BUNDLE.replace("[phi0]", "step = n=1 init=0 H=8 events=(0,1)\n[phi0]"),
                     "line 9: duplicate input name 'step'", id="duplicate-input"),
        pytest.param(BUNDLE.replace("[phi0]", "again = n=1 init=0 H=8 events=(0,1);(5,1)\n[phi0]"),
                     "line 9: input 'again' repeats input 'step'", id="repeated-input-signal"),
        pytest.param(BUNDLE.replace("n=1 H=8 events=(1,1)\n", ""),
                     "[rho r0] must contain exactly one schedule line", id="rho-without-line"),
        pytest.param(BUNDLE.replace("[rho r0]", "[rho ]"),
                     "line 13: section [rho ] names no schedule", id="rho-without-name"),
        pytest.param(BUNDLE.replace(BUNDLE_TABLE, "file= # none\n"),
                     "line 2: file= names no table", id="file-without-name"),
        pytest.param(BUNDLE.replace("step: 0", "step 0"),
                     "line 10: expected '<input>: bits, bits, ...'", id="phi0-without-colon"),
        pytest.param(BUNDLE.replace("step: 0", "other: 0"),
                     "line 10: unknown input 'other'", id="phi0-unknown-input"),
        pytest.param(BUNDLE.replace("step: 0", "step: 0\nstep: 1"),
                     "line 11: phi0 given twice for 'step'", id="phi0-twice"),
        pytest.param(BUNDLE.replace("step: 0", "step: ,"),
                     "line 10: phi0 for 'step' is empty", id="phi0-empty"),
        pytest.param(BUNDLE.replace("0 @ step: r0", "0 step: r0"),
                     "line 12: expected '<bits> @ <input>: names'", id="pi-without-at"),
        pytest.param(BUNDLE.replace("0 @ step: r0", "0 @ other: r0"),
                     "line 12: unknown input 'other'", id="pi-unknown-input"),
        pytest.param(BUNDLE.replace("0 @ step: r0", "0 @ step: r0\n0 @ step: r0"),
                     "line 13: pi given twice for 0 @ step", id="pi-twice"),
        pytest.param(BUNDLE.replace("0 @ step: r0", "0 @ step: missing"),
                     "line 12: unknown schedule 'missing'", id="pi-unknown-schedule"),
        pytest.param(BUNDLE.replace("0 @ step: r0", "0 @ step: ,"),
                     "line 12: pi for 0 @ step is empty", id="pi-empty"),
    ],
)
def test_bundle_errors_read_exactly(text, message):
    with pytest.raises(LoadError) as err:
        parse_system(text)
    assert type(err.value) is LoadError and str(err.value) == message


@pytest.mark.parametrize(
    "text, error, message",
    [
        pytest.param(BUNDLE.replace("1 0 -> 1", "# row\n1 0 => 1"), LoadError,
                     "line 5: missing '->' in '1 0 => 1'", id="malformed-row"),
        pytest.param(BUNDLE.replace("0 1 -> 0", "\n0 0 -> 1"), LoadError,
                     "line 6: duplicate row for mu=0 lam=0", id="duplicate-row"),
        pytest.param(BUNDLE.replace("1 1 -> 1", "# x\n\n1 1 -> 11"), LoadError,
                     "line 8: widths (1,1,2) do not match header n=1 m=1", id="row-width"),
    ],
)
def test_inline_table_errors_name_the_bundle_line(text, error, message):
    """A bad row of an inline [phi] table is named by its line in the bundle
    file, counting comments and blank lines, not by its line in the section."""
    with pytest.raises(error) as err:
        parse_system(text)
    assert type(err.value) is error and str(err.value) == message


def test_bundle_inputs_keep_file_order():
    text = BUNDLE.replace(
        "step = n=1 init=0 H=8 events=(0,1)",
        "zeta = n=1 init=0 H=8 events=(0,1)\nalpha = n=1 init=1 H=8 events=",
    ).replace("step: 0\n", "zeta: 0\nalpha: 1\n").replace(
        "0 @ step: r0", "0 @ zeta: r0\n1 @ alpha: r0"
    )
    sys_ = parse_system(text)
    assert sys_.inputs == (unit_step(0, 8), Signal(1, 1, (), 8))


def test_bundle_names_the_first_bad_rho_section():
    """Sections are checked in file order: a two-line `[rho a]` is reported
    before a later `[rho b]` whose one line has a bad event."""
    bundle = """
[phi]
n=1 m=1
0 0 -> 0
1 0 -> 1
0 1 -> 0
1 1 -> 1
[inputs]
step = n=1 init=0 H=9 events=(0,1)
[phi0]
step: 0
[pi]
0 @ step: a
[rho a]
n=1 H=9 events=(1,1)
n=1 H=9 events=(2,1)
[rho b]
n=1 H=9 events=(x,1)
"""
    with pytest.raises(LoadError, match=r"^\[rho a\] must contain exactly one schedule line$"):
        parse_system(bundle)
