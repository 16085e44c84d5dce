"""Binary signals and schedules over exact integer time.

A signal is a piecewise-constant map from time to B^width: an initial
value that holds on (-inf, t_0), then the value of the latest event at or
before t.  All signals here are finite prefixes, defined on (-inf, H] for an
explicit integer horizon H and undefined beyond it.  Progressive functions
(schedules) share the event-list shape but are pulse trains: a firing vector
at each event tick and implicitly zero elsewhere.

The width belongs to the sequence, not to each value: inside a signal or a
schedule a point of B^width is a plain int, coordinate 1 in the least
significant bit.  `BitVec` is a point that stands alone (an initial state, a
table row, a witness) and carries its own width.

Both kinds rest on one event-sequence core.  Its constructor checks what
enters from outside: one pass checks the given events, stores them as
(tick, int) pairs and collects the canonical form, which drops every event
equal to the held value (a signal's starts at `initial` and follows each
kept event; a schedule's stays 0, so its canonical form drops the all-zero
firings).  `_derived` builds, unchecked, a sequence computed from checked
ones, its canonical form given.  `key`, the canonical form as a tuple of
ints, is both the identity and the `<` order that sorts schedules and
witnesses; `events` is the only index for reading a value.

Every kind relabels one way, `restrict(coords)`: coordinate k of the result
is coordinate coords[k-1], for an ordered tuple of distinct coordinates.
`_relabeler` builds each map once, as 8-bit lookup tables.  Products are
block-first, the first factor's coordinates leading; a product onto any
other block is the product followed by a `restrict`.

Every value is an immutable `_Value`, safe to share across threads.  `_Value`
builds each plain type's constructor from its `_fields`, raising `TypeError`,
and `_derived`, which builds a table or bundle computed from checked values unchecked.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import (
    CoordinateError,
    HorizonExceeded,
    HorizonMismatch,
    InvalidValue,
    WidthMismatch,
)

# Time is exact signed integer ticks; only ordering and merging are ever used.
Tick = int


def _bits_text(value: int, width: int) -> str:
    """`value` written as `width` bits, coordinate 1 first."""
    return bin(value | 1 << width)[3:][::-1]


class _Value:
    """Immutable, as a frozen dataclass is: `__init__` (by position or by name;
    `TypeError` for a missing, repeated or unknown field), equality (same type
    only), hashing, pickling and the repr go over `_fields`, the parameters in
    order.  Kinds that check what enters from outside have their own `__init__`;
    `_derived` builds a `GeneratorFn` or `RegularSystem` computed from checked ones, unchecked."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values, **named):
        fields = self._fields
        if named:  # the fields after the positional ones, in order
            values += tuple(named.pop(f) for f in fields[len(values):] if f in named)
            if named:
                raise TypeError(f"{type(self).__name__}() got repeated or unknown names {sorted(named)}")
        if len(values) != len(fields):  # a field missing, or one too many
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} fields, got {len(values)}")
        self._set(values)

    def _set(self, values: tuple):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def _derived(cls, *values):
        """A value computed from checked ones, valid by construction, its fields in order: nothing is checked."""
        return object.__new__(cls)._set(values)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"


class BitVec(_Value):
    """A point of B^n.  Coordinate 1 is the least significant bit.

    Width 0 (the empty vector) is allowed so that input-free generator
    functions (m = 0) can be evaluated; signals never have width 0.
    """

    __slots__ = _fields = ("width", "value")

    def __init__(self, width: int, value: int):
        if width < 0:
            raise WidthMismatch(f"negative width {width}")
        if not 0 <= value < (1 << width):
            raise InvalidValue(f"value {value} out of range for width {width}")
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "value", value)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.width == other.width and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.width, self.value))

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVec":
        bits = list(bits)
        value = 0
        for k, b in enumerate(bits):
            if b not in (0, 1):
                raise InvalidValue(f"bit {k + 1} is {b}, expected 0 or 1")
            value |= b << k
        return cls(len(bits), value)

    @classmethod
    def from_string(cls, text: str) -> "BitVec":
        """Parse bits written coordinate 1 first, e.g. "10" has bit 1 set."""
        rest = text.lstrip("01")
        if rest:
            raise InvalidValue(f"bit {len(text) - len(rest) + 1} is {rest[0]!r}, expected 0 or 1")
        return cls(len(text), int(text[::-1], 2) if text else 0)

    def bit(self, i: int) -> int:
        """Coordinate i, 1-based."""
        if not 1 <= i <= self.width:
            raise CoordinateError(f"coordinate {i} out of 1..{self.width}")
        return (self.value >> (i - 1)) & 1

    def concat(self, other: "BitVec") -> "BitVec":
        return BitVec(self.width + other.width, self.value | (other.value << self.width))

    def restrict(self, coords: Iterable[int]) -> "BitVec":
        """Coordinate k of the result is coordinate coords[k-1] of this one."""
        k, gather, _, _ = _relabeler(self.width, tuple(coords))
        return BitVec(k, gather(self.value))

    def __str__(self) -> str:
        return _bits_text(self.value, self.width)


def _fired(events: Iterable[tuple[Tick, int]], gather) -> tuple:
    """A schedule's firings read through `gather`, all-zero ones dropped: its restriction's events."""
    return tuple([(t, w) for t, v in events if (w := gather(v))])


def _images(chunks: Iterable[Sequence[int]]) -> Sequence[int]:
    """Every OR of one entry per chunk: entry v takes from each chunk the entry
    its digit of v (base the chunk's length, lowest first) names; one chunk is itself."""
    images, *rest = chunks
    for chunk in rest:
        images = [x | y for y in chunk for x in images]
    return images


@lru_cache(maxsize=256)
def _relabeler(width: int, cs: tuple[int, ...]):
    """(k, gather, picks, spreads) for reading width-`width` values at `cs`
    (nonempty, distinct, within 1..width; checked once per key): `gather(v)`
    is the k-bit result.  Both maps are chunked by 8 bits (Knuth, TAOCP 4A,
    7.1.3): picks[c] is the gather's image list of source bits 8c+1..8c+8 and
    spreads[c] the scatter's of result bits 8c+1..8c+8, back to their source
    positions, so a key holds at most 256 ints per chunk, never 2^width."""
    if not cs:
        raise CoordinateError("empty coordinate range")
    if len(set(cs)) != len(cs):
        raise CoordinateError(f"repeated coordinate in {cs}")
    if min(cs) < 1 or max(cs) > width:
        raise CoordinateError(f"coordinates {cs} not within 1..{width}")
    slot = {c: 1 << k for k, c in enumerate(cs)}
    picks = tuple(_images((0, slot.get(c, 0)) for c in range(lo, min(lo + 7, width) + 1))
                  for lo in range(1, width + 1, 8))
    spreads = tuple(_images((0, 1 << (c - 1)) for c in cs[lo:lo + 8]) for lo in range(0, len(cs), 8))
    # one lookup per chunk that picks a coordinate; their images are disjoint
    parts = tuple((lo, image) for lo, image in zip(range(0, width, 8), picks) if image[-1])
    gather = picks[0].__getitem__ if width <= 8 else (
        lambda v: sum(image[v >> lo & 255] for lo, image in parts))
    return len(cs), gather, picks, spreads


class _EventSequence(_Value):
    """The core of `Signal` and `ProgressiveFunction`: an immutable value with
    `width`, `events` as (tick, int) pairs, `horizon` and `initial` (an int,
    None for a schedule), a `_kind` for messages and a `key`; both kinds'
    `_fields` end with events and horizon.

    `__init__` builds both kinds in one pass: it checks each event, stores it
    as a pair and keeps it in `_canon` unless it equals the held value (a
    signal's last kept value, starting at `initial`; 0 for a schedule).
    `_canon` shares the `events` tuple when nothing is dropped.  `_derived`
    builds, unchecked, what `run`, `restrict`, the products, `truncated` and
    `canonical` compute from checked sequences.  A signal never equals or
    orders against a schedule.
    """

    __slots__ = ("width", "initial", "events", "horizon", "_canon")

    def __init__(self, width: int, initial: int | None, events, horizon: Tick):
        kind = self._kind
        if width < 1:
            raise WidthMismatch(f"{kind} width must be >= 1, got {width}")
        # v >> width tests v < 2^width without building 2^width for a huge width
        if initial is not None and (initial < 0 or initial >> width):
            raise InvalidValue(f"initial value {initial} out of range for width {width}")
        held = 0 if initial is None else initial
        pairs, canon = [], []
        prev = None
        for t, v in events:
            if prev is not None and t <= prev:
                raise InvalidValue(f"{kind} events not strictly increasing at tick {t}")
            prev = t
            if v < 0 or v >> width:
                raise InvalidValue(f"{kind} event at tick {t}: value {v} out of range for width {width}")
            if t > horizon:
                raise HorizonExceeded(f"{kind} event at tick {t} beyond horizon {horizon}")
            pairs.append(e := (t, v))
            if v != held:
                canon.append(e)
                if initial is not None:
                    held = v
        self._fill(width, initial, tuple(pairs), horizon, tuple(canon))

    def _fill(self, width, initial, events, horizon, canon):
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "_canon", canon if len(canon) < len(events) else events)
        return self

    @classmethod
    def _derived(cls, width: int, initial: int | None, events: tuple, horizon: Tick, canon: tuple):
        """A sequence computed from checked ones, with `canon` its canonical form: nothing is checked."""
        return object.__new__(cls)._fill(width, initial, events, horizon, canon)

    def truncated(self, horizon: Tick):
        """Restriction to (-inf, horizon]; never extends."""
        if horizon > self.horizon:
            raise HorizonExceeded(f"cannot extend horizon {self.horizon} to {horizon}")
        # (horizon + 1,) sorts before every event at that tick and after all earlier ones
        kept, canon = (seq[: bisect_left(seq, (horizon + 1,))] for seq in (self.events, self._canon))
        return self._derived(self.width, self.initial, kept, horizon, canon)

    def canonical(self):
        """The same sequence without the events its canonical form drops."""
        if self._canon is self.events:
            return self
        return self._derived(self.width, self.initial, self._canon, self.horizon, self._canon)

    def restrict(self, coords: Iterable[int]):
        """Coordinate k of the result is coordinate coords[k-1]; canonical."""
        k, gather, _, _ = _relabeler(self.width, tuple(coords))
        if self.initial is None:
            return self._derived(k, None, kept := _fired(self.events, gather), self.horizon, kept)
        held = initial = gather(self.initial)  # a signal keeps the events that move its value
        kept = tuple([(t, held := w) for t, v in self.events if (w := gather(v)) != held])
        return self._derived(k, initial, kept, self.horizon, kept)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.key == other.key

    def __lt__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.key < other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __str__(self) -> str:
        width = self.width
        init = "" if self.initial is None else f" init={_bits_text(self.initial, width)}"
        ev = ";".join(f"({t},{_bits_text(v, width)})" for t, v in self.events)
        return f"n={width}{init} H={self.horizon} events={ev}"


class Signal(_EventSequence):
    """Piecewise-constant map to B^width on (-inf, horizon].

    Value semantics: `initial` on (-inf, t_0), the latest event value on
    [t_k, t_{k+1}), right-continuous at every event tick.  Representations
    are not unique (an event may repeat the value in force); equality and
    hashing go through the canonical form, which drops such events.
    """

    __slots__ = ()
    _fields = ("width", "initial", "events", "horizon")
    _kind = "signal"

    def value_at(self, t: Tick) -> int:
        """The value in force at tick t; t must not exceed the horizon."""
        if t > self.horizon:
            raise HorizonExceeded(f"t={t} beyond horizon {self.horizon}")
        k = bisect_left(self.events, (t + 1,))
        return self.events[k - 1][1] if k else self.initial

    @property
    def key(self) -> tuple:
        """(width, horizon, initial, canonical events): the canonical form
        drops every event that repeats the value in force before it."""
        return (self.width, self.horizon, self.initial, self._canon)


def unit_step(t0: Tick, horizon: Tick) -> Signal:
    """The scalar step that is 0 before t0 and 1 from t0 on."""
    return Signal(1, 0, ((t0, 1),), horizon)


def product_signal(a: Signal, b: Signal) -> Signal:
    """Cartesian product on the merged event grid.

    The result reads (a(t), b(t)) at every t; its event set is the union of
    both event grids, so it may carry redundant events until canonicalized.
    """
    if a.horizon != b.horizon:
        raise HorizonMismatch(f"horizons differ: {a.horizon} vs {b.horizon}")
    shift, low = a.width, (1 << a.width) - 1
    now = initial = a.initial | b.initial << shift
    woven, canon = {}, {}
    triples = [(t, ~low, v) for t, v in a.events] + [(t, low, v << shift) for t, v in b.events]
    for t, keep, v in sorted(triples):  # a write keeps the other factor's bits: writes at one tick commute
        if (new := now & keep | v) != now:  # the product moves at t iff a factor does
            canon[t] = now = new
        woven[t] = now
    return Signal._derived(a.width + b.width, initial, tuple(woven.items()), a.horizon, tuple(canon.items()))


class SignalSet(_Value):
    """A finite set of signals of one width and horizon.

    `members` is a frozenset: signals hash and compare by canonical form, so
    canonical equals are one member, and no iteration order is promised.
    """

    __slots__ = _fields = ("width", "horizon", "members")

    def __init__(self, width: int, horizon: Tick, members: Iterable[Signal]):
        members = frozenset(members)
        for x in members:
            if x.width != width:
                raise WidthMismatch(f"member width {x.width}, expected {width}")
            if x.horizon != horizon:
                raise HorizonMismatch(f"member horizon {x.horizon}, expected {horizon}")
        super().__init__(width, horizon, members)

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return f"SignalSet(width={self.width}, horizon={self.horizon}, size={len(self)})"


class ProgressiveFunction(_EventSequence):
    """A finite schedule prefix: firing vector alpha^k at each event tick.

    A zero firing vector is a no-op (nothing is computed), so equality and
    hashing ignore all-zero events.  True progressiveness is a property of
    the infinite tail; `is_prefix_progressive` is the finite surrogate.
    """

    __slots__ = ()
    _fields = ("width", "events", "horizon")
    _kind = "schedule"

    def __init__(self, width: int, events: tuple[tuple[Tick, int], ...], horizon: Tick):
        super().__init__(width, None, events, horizon)

    @property
    def key(self) -> tuple:
        """(width, horizon, canonical events): the canonical form drops the
        all-zero firings."""
        return (self.width, self.horizon, self._canon)

    def is_prefix_progressive(self) -> bool:
        """Whether every coordinate fires at least once."""
        fired = 0
        for _, v in self.events:
            fired |= v
        return fired == (1 << self.width) - 1


def round_robin(width: int, ticks: Iterable[Tick], horizon: Tick) -> ProgressiveFunction:
    """The canonical progressive prefix: every coordinate fires at every tick."""
    ones = (1 << width) - 1
    return ProgressiveFunction(width, tuple((t, ones) for t in sorted(set(ticks))), horizon)


def product_rho(a: ProgressiveFunction, b: ProgressiveFunction) -> ProgressiveFunction:
    """Cartesian product of schedules on the merged grid (Lemma 1): `a`
    drives coordinates 1..a.width and `b` the rest.

    Where only one factor has an event, the other half of the firing vector
    is zero: that coordinate is simply not computed at that tick, which is
    exactly the shared-grid form the factors take without loss of generality.
    """
    if a.horizon != b.horizon:
        raise HorizonMismatch(f"horizons differ: {a.horizon} vs {b.horizon}")
    shift = a.width
    woven = dict(a.events)
    for t, v in b.events:
        woven[t] = woven.get(t, 0) | v << shift
    events = tuple(sorted(woven.items()))
    return ProgressiveFunction._derived(shift + b.width, None, events, a.horizon, tuple(e for e in events if e[1]))
