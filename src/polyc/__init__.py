"""PolyC toolchain: parser, termination-guarantee type checker, cost-counting
interpreter, Turing machine compiler, instrumentation transforms and the
iterable-inference polynomial-time analyzer."""

from .lexer import tokenize
from .parser import parse_program, parse_source, detect_mode
from .desugar import desugar  # noqa: F401 - bench/ imports it
from .printer import pretty_print
from .typecheck import (
    check_program, const_type, sup_type, type_equiv, asg_predicate,
    op_signature, Diag,
)
from .interp import run_program, apply_op, CostReport, Interp
from .values import (
    VArray, Closure, default_value, literal_value, size_of_value, format_value,
)

__version__ = "0.1.0"

__all__ = [
    "tokenize", "parse_program", "parse_source", "detect_mode",
    "pretty_print", "check_program", "const_type", "sup_type", "type_equiv",
    "asg_predicate", "op_signature", "Diag", "run_program",
    "apply_op", "CostReport", "Interp", "VArray", "Closure", "default_value",
    "literal_value", "size_of_value", "format_value", "__version__",
]


def load_program(source, mode=None):
    """Parse source text, lowering its sugar; returns (program, mode)."""
    if mode is None:
        mode = detect_mode(source)
    return parse_source(source, mode), mode
