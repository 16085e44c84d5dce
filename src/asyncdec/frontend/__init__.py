"""Equation DSL, file formats and the command-line interface."""

from .dsl import DslNameError, DslSyntaxError, EquationProgram, compile_program, parse_dsl
from .fileio import (
    LoadError,
    format_system,
    format_truth_table,
    load,
    parse_system,
    save_system,
)
