"""Equation DSL, file formats and the command-line interface."""

from .dsl import DslNameError, DslSyntaxError, EquationProgram, compile_program, parse_dsl
from .fileio import (
    BundleError,
    DuplicateRowError,
    LoadError,
    MalformedRowError,
    MissingRowError,
    OrderingError,
    WidthInconsistencyError,
    format_system,
    format_truth_table,
    load_rho,
    load_signal,
    load_system,
    load_truth_table,
    parse_rho,
    parse_signal,
    parse_system,
    parse_truth_table,
    read_text,
    save_system,
)
