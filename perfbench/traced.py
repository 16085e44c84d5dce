"""Child process of the traced pass: one CLI verb with every layer wrapped.

    python3 perfbench/traced.py spans PREFIX VERB_ID -- VERB ARGS...
    python3 perfbench/traced.py table-mem RESULT -- VERB ARGS...

`spans` replaces each public function of the layer modules, everywhere
asyncdec imports it, with a wrapper that records a span (name, start, end,
parent) and the counters measured at that boundary, then calls
`asyncdec.frontend.cli.main(argv)` and restores the originals.  Spans live in
memory, in flat arrays, and go to PREFIX.bin (names, parents, starts, ends)
and PREFIX.json (span names, verb id, exit code, counters) after the verb
ends.  A span is closed in a `finally`, so a verb that exits 1 or 2, or
raises, leaves none open; a traceback is printed as the interpreter would,
and the spans are still written.

`table-mem` records, with tracemalloc, the bytes retained by the largest
table that `compile_program` or `parse_truth_table` returns.

The program is never edited: wrapping happens from outside, at run time.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import os
import sys
import time
import traceback
from array import array
from collections.abc import Iterator

# Module -> layer name.  Each layer's public functions are wrapped.
LAYERS = {
    "asyncdec.frontend.cli": "cli",
    "asyncdec.frontend.dsl": "dsl",
    "asyncdec.frontend.fileio": "fileio",
    "asyncdec.frontend.checks": "checks",
    "asyncdec.boolfn": "boolfn",
    "asyncdec.semantics": "semantics",
    "asyncdec.systems": "systems",
    "asyncdec.signals": "signals",
}

# Bit helpers called once per table row inside the function that owns the
# loop; a span per call would dwarf the work, so their time stays in the
# caller's self time.
UNWRAPPED = {"signals.gather_bits", "signals.scatter_bits"}

# Functions that read a whole truth table: each call counts its rows.  The
# arguments listed beside the table say what a scan computes, so two calls
# with equal tables and equal listed arguments are the same scan.
SCANS = {
    "boolfn.dependency_matrix": (),
    "boolfn.dependency_witness": ((1, "block"),),
    "boolfn.partial_derivative": ((1, "i"), (2, "j")),
}


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _table_key(phi) -> tuple:
    try:
        return (phi.n, phi.m, hash(phi))
    except TypeError:
        return (phi.n, phi.m, id(phi))


class Tracer:
    """Spans in flat arrays plus the counters measured at layer boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.counters = dict.fromkeys(
            (
                "dsl.rows_compiled", "boolfn.rows_scanned", "boolfn.scan_calls",
                "semantics.runs", "semantics.events_applied", "signals.offered",
                "signals.kept", "fileio.bytes_read", "fileio.bytes_written", "checks.cases",
            ),
            0,
        )
        self.scan_keys: set = set()
        self.run_keys: set = set()

    def _intern(self, name: str) -> int:
        idx = self.name_ids.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
        return idx

    def wrap(self, name: str, fn, after=None):
        """`fn` inside a span.

        `after(args, kwargs, result)` updates counters once the span has
        closed; it runs in a span of its own, `trace.hook`, so its cost is
        not charged to any layer of the program.
        """
        idx = self._intern(name)
        hook_idx = self._intern("trace.hook")
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if after:
                # A one-shot iterator argument would be spent by the hook.
                args = tuple(tuple(a) if isinstance(a, Iterator) else a for a in args)
            sid = len(span_start)
            span_name.append(idx)
            span_parent.append(stack[-1])
            span_end.append(0)
            stack.append(sid)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[sid] = clock()
                stack.pop()
            if after:
                hid = len(span_start)
                span_name.append(hook_idx)
                span_parent.append(stack[-1])
                span_end.append(0)
                span_start.append(clock())
                after(args, kwargs, result)
                span_end[hid] = clock()
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    # -- counters, measured where the work happens -------------------------

    def hook_for(self, name: str):
        c = self.counters
        if name == "dsl.compile_program":
            def after(args, kwargs, result):
                c["dsl.rows_compiled"] += 1 << (result.n + result.m)
            return after
        if name in SCANS:
            listed = SCANS[name]

            def after(args, kwargs, result):
                phi = _arg(args, kwargs, 0, "phi")
                rest = tuple(
                    tuple(sorted(set(v))) if isinstance(v, (list, tuple, range)) else v
                    for v in (_arg(args, kwargs, k, key) for k, key in listed)
                )
                c["boolfn.rows_scanned"] += 1 << (phi.n + phi.m)
                c["boolfn.scan_calls"] += 1
                self.scan_keys.add((name, _table_key(phi), rest))
            return after
        if name == "semantics.run":
            def after(args, kwargs, result):
                phi, mu, u, rho, horizon = (
                    _arg(args, kwargs, k, key)
                    for k, key in enumerate(("phi", "mu", "u", "rho", "horizon"))
                )
                c["semantics.runs"] += 1
                c["semantics.events_applied"] += len(rho.events)
                self.run_keys.add((_table_key(phi), mu.value, hash(u), hash(rho), horizon))
            return after
        if name.startswith("fileio.load_"):
            def after(args, kwargs, result):
                c["fileio.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
            return after
        if name.startswith("fileio.save_"):
            def after(args, kwargs, result):
                c["fileio.bytes_written"] += os.path.getsize(_arg(args, kwargs, 1, "path"))
            return after
        if name.startswith("checks.") and (name.endswith("_suite") or "theorem" in name):
            def after(args, kwargs, result):
                report = result[0] if isinstance(result, tuple) else result
                c["checks.cases"] += report.cases
            return after
        return None

    def wrap_signal_set(self, cls):
        """SignalSet construction as a span; counts trajectories offered and kept."""
        original = cls.__init__
        c = self.counters

        def init(self_, width, horizon, members):
            members = list(members)
            original(self_, width, horizon, members)
            c["signals.offered"] += len(members)

        traced = self.wrap("signals.SignalSet", init)

        def counted(self_, width, horizon, members):
            traced(self_, width, horizon, members)
            c["signals.kept"] += len(self_)

        cls.__init__ = counted
        return original

    def header(self, verb_id: int, exit_code: int) -> dict:
        counters = dict(self.counters)
        counters["boolfn.distinct_scans"] = len(self.scan_keys)
        counters["semantics.distinct_runs"] = len(self.run_keys)
        return {
            "verb": verb_id,
            "exit": exit_code,
            "names": self.names,
            "spans": len(self.span_start),
            "open": len(self.stack) - 1,
            "counters": counters,
        }


def _public_functions():
    """(layer.name, function) for every public function a layer defines."""
    for modname, layer in LAYERS.items():
        module = sys.modules[modname]
        for name, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == modname
                and not name.startswith("_")
                and f"{layer}.{name}" not in UNWRAPPED
            ):
                yield f"{layer}.{name}", obj


@contextlib.contextmanager
def _replaced_everywhere(replacements: dict):
    """Rebind each original, in every asyncdec module that imported it, for
    the duration of the block."""
    patched = []
    for modname, module in list(sys.modules.items()):
        if modname != "asyncdec" and not modname.startswith("asyncdec."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in replacements:
                setattr(module, attr, replacements[obj])
                patched.append((module, attr, obj))
    try:
        yield
    finally:
        for module, attr, obj in patched:
            setattr(module, attr, obj)


def _run_main(argv: list[str]) -> int:
    """`cli.main(argv)`, with the exit code the interpreter would give."""
    from asyncdec.frontend import cli

    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects a command line with exit 2
        if exc.code is None or isinstance(exc.code, int):
            return exc.code or 0
        print(exc.code, file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1


def traced_verb(prefix: str, verb_id: int, argv: list[str]) -> int:
    import asyncdec.frontend.cli  # noqa: F401  (loads every layer module)
    from asyncdec.signals import SignalSet

    tracer = Tracer()
    replacements = {
        fn: tracer.wrap(name, fn, tracer.hook_for(name)) for name, fn in _public_functions()
    }
    original_init = tracer.wrap_signal_set(SignalSet)
    try:
        with _replaced_everywhere(replacements):
            exit_code = _run_main(argv)
    finally:
        SignalSet.__init__ = original_init
    sys.stdout.flush()
    with open(prefix + ".bin", "wb") as f:
        for column in (tracer.span_name, tracer.span_parent, tracer.span_start, tracer.span_end):
            column.tofile(f)
    with open(prefix + ".json", "w") as f:
        json.dump(tracer.header(verb_id, exit_code), f)
    return exit_code


def table_mem(result_path: str, argv: list[str]) -> int:
    """Bytes retained by the largest table the verb loads or compiles.

    Tracing every allocation of a compile slows it twentyfold, so the verb
    runs untraced; each returned table is rebuilt from its pickle while
    tracemalloc counts what the rebuilt copy keeps.
    """
    import pickle
    import tracemalloc

    import asyncdec.frontend.cli  # noqa: F401

    largest = 0

    def measured(fn):
        def call(*args, **kwargs):
            nonlocal largest
            table = fn(*args, **kwargs)
            frozen = pickle.dumps(table)
            tracemalloc.start()
            copy = pickle.loads(frozen)
            largest = max(largest, tracemalloc.get_traced_memory()[0])
            tracemalloc.stop()
            del copy
            return table
        return call

    replacements = {
        fn: measured(fn)
        for name, fn in _public_functions()
        if name in ("dsl.compile_program", "fileio.parse_truth_table")
    }
    with _replaced_everywhere(replacements):
        exit_code = _run_main(argv)
    with open(result_path, "w") as f:
        json.dump({"exit": exit_code, "table_bytes": largest}, f)
    return exit_code


def main(argv: list[str]) -> int:
    split = argv.index("--")
    head, verb = argv[:split], argv[split + 1 :]
    if head[0] == "spans":
        return traced_verb(head[1], int(head[2]), verb)
    if head[0] == "table-mem":
        return table_mem(head[1], verb)
    raise SystemExit(f"unknown mode {head[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
