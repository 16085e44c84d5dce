"""Exception types shared across the package."""


class AsyncDecError(Exception):
    """Base class for all asyncdec errors."""


class InvalidValue(AsyncDecError, ValueError):
    """A value violates a core invariant (range, bit, ordering or size)."""


class WidthMismatch(AsyncDecError):
    """Operands have incompatible coordinate widths."""


class HorizonExceeded(AsyncDecError):
    """A signal was read beyond its horizon, where it is undefined."""


class HorizonMismatch(AsyncDecError):
    """Operands do not share the same horizon."""


class CoordinateError(AsyncDecError):
    """A coordinate index, index range or block is invalid."""


class SizeLimitError(AsyncDecError):
    """An exhaustive scan would exceed the configured bit limit."""


class ProgressivenessError(AsyncDecError):
    """A schedule failed the prefix-progressiveness check."""


class NotSeparatedError(AsyncDecError):
    """A block is not separated; carries a dependency witness.

    `i`, `j` are 1-based coordinate indices and `mu`, `lam` a point where
    the cross-block derivative of coordinate i with respect to j equals 1.
    """

    def __init__(self, i, j, mu, lam):
        self.i = i
        self.j = j
        self.mu = mu
        self.lam = lam
        super().__init__(
            f"block not separated: d(Phi_{i})/d(mu_{j}) = 1 at mu={mu}, lam={lam}"
        )


class InvalidSystem(AsyncDecError):
    """A system bundle violates its structural invariants."""
