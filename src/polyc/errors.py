"""Error types shared across the toolchain."""

from .ast import NO_POS


class PolycError(Exception):
    def __init__(self, message, pos=NO_POS):
        super().__init__(message)
        self.message = message
        self.pos = pos

    def render(self, filename="<input>"):
        return f"{filename}:{self.pos.line}:{self.pos.col}: {self.label}: {self.message}"

    label = "error"


class LexError(PolycError):
    label = "lexical error"


class ParseError(PolycError):
    label = "syntax error"

    def __init__(self, message, pos=NO_POS, core_violation=False):
        super().__init__(message, pos)
        self.core_violation = core_violation

    @property
    def label(self):  # noqa: A003 - shadowing on purpose
        return "core-mode violation" if self.core_violation else "syntax error"


class DesugarError(PolycError):
    """An `m*a` that the parser cannot lower."""
    label = "desugar error"


class PolyRuntimeError(PolycError):
    label = "runtime error"


class ArgumentError(PolycError):
    label = "argument error"


class FuelExhausted(PolyRuntimeError):
    label = "fuel exhausted"


class InternalError(PolycError):
    label = "internal error"
