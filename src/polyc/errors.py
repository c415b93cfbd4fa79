"""Every failure polyc reports.  Its class says how `polyc` shows it:
`render()` is the text on stderr and `exit_code` the exit status, 1 for an
input that is not a well-typed program, 2 for a run that fails, 3 for a
command that cannot be carried out.  No other module assigns exit codes."""

from .ast import NO_POS

LOCATED = "{where}:{pos.line}:{pos.col}: {label}: {message}"
BARE = "{message}"


class PolycError(Exception):
    label = "error"
    exit_code = 2
    form = "error: {message}"  # or LOCATED, or BARE
    where = "<input>"  # the file a located error is in, set where it is known

    def __init__(self, message, pos=NO_POS, diags=()):
        super().__init__(message)
        self.message = message
        self.pos = pos
        self.diags = diags  # checker diagnostics, rendered before the error

    def render(self):
        return "".join(f"{d.render(self.where)}\n" for d in self.diags) + \
            self.form.format(where=self.where, pos=self.pos, label=self.label,
                             message=self.message)


class LexError(PolycError):
    label = "lexical error"
    exit_code = 1
    form = LOCATED


class ParseError(PolycError):
    exit_code = 1
    form = LOCATED

    def __init__(self, message, pos=NO_POS, core_violation=False):
        super().__init__(message, pos)
        self.core_violation = core_violation

    @property
    def label(self):  # noqa: A003 - shadowing on purpose
        return "core-mode violation" if self.core_violation else "syntax error"


class DesugarError(PolycError):
    """An `m*a` that the parser cannot lower."""
    label = "desugar error"
    exit_code = 1
    form = LOCATED


class CheckError(PolycError):
    """The checker rejected the program: its diagnostics, then their count."""
    exit_code = 1
    form = BARE


class PolyRuntimeError(PolycError):
    label = "runtime error"
    form = LOCATED


class FuelExhausted(PolyRuntimeError):
    label = "fuel exhausted"


class InternalError(PolycError):
    label = "internal error"


class ShapeError(PolycError):
    """A normalized program outside the simple form."""
    form = BARE


class UsageError(PolycError):
    """A file the CLI cannot read, or arguments that do not fit."""
    exit_code = 3
    form = BARE


class ArgumentError(PolycError):
    label = "argument error"
    exit_code = 3


class TmError(PolycError):
    label = "turing machine error"
    exit_code = 3


class TransformError(PolycError):
    label = "transform error"
    exit_code = 3


class IllTypedError(PolycError):
    """A program the analysis rejects, with the checker's diagnostics."""
    label = "ill-typed"
    exit_code = 3
