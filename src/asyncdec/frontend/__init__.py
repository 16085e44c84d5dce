"""Equation DSL, file formats and the command-line interface."""

from .dsl import DslNameError, DslSyntaxError, EquationProgram, compile_program, parse_dsl
from .fileio import (
    LoadError,
    format_system,
    format_truth_table,
    load,
    load_rho,
    load_signal,
    parse_rho,
    parse_signal,
    parse_system,
    parse_truth_table,
    read_text,
    save_system,
)
