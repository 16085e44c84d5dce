"""Regular asynchronous binary systems: signals, semantics, decomposition."""

from .boolfn import (
    DependencyMatrix,
    GeneratorFn,
    Partition,
    dependency_matrix,
    parallel_fn,
    partial_derivative,
    project_fn,
    split_fn,
)
from .errors import (
    AsyncDecError,
    CoordinateError,
    HorizonExceeded,
    HorizonMismatch,
    InvalidSystem,
    InvalidValue,
    NotSeparatedError,
    ProgressivenessError,
    SizeLimitError,
    WidthMismatch,
)
from .semantics import apply_masked, delay_bounds, run
from .signals import (
    BitVec,
    ProgressiveFunction,
    Signal,
    SignalSet,
    Tick,
    product_rho,
    product_signal,
    round_robin,
    unit_step,
)
from .systems import (
    DecompositionResult,
    RegularSystem,
    decompose_system,
    initial_state_function,
    parallel_system,
    realize,
)

__version__ = "0.1.0"
