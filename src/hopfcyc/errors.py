"""Error classes, each mapped to a distinct CLI exit code."""


class HopfcycError(Exception):
    """Base class for all tool errors."""

    exit_code = 1


class ParseError(HopfcycError):
    """Lexical or syntax error in a presentation file (carries line/column)."""

    exit_code = 3

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = f" at line {line}, column {column}" if line is not None else ""
        super().__init__(f"{message}{loc}")


class SemanticError(ParseError):
    """Well-formed syntax with invalid meaning (unknown generator, arity mismatch)."""

    exit_code = 4


class StructureError(HopfcycError):
    """Mismatched presentations, bad leg counts, invalid structural data."""

    exit_code = 5


class RewriteLimitError(HopfcycError):
    """Step-count guard exceeded during normalization; suspected non-termination."""

    exit_code = 6


class TerminationOrderError(HopfcycError):
    """A rewrite rule violates the termination order."""

    exit_code = 7


class PreconditionError(HopfcycError):
    """A command or operation was invoked on inputs failing its preconditions."""

    exit_code = 8


class UnsolvableError(HopfcycError):
    """A derived quantity cannot be obtained from the given data: an
    antipode whose coproduct offers no term to solve with, a coproduct or
    counit of an indexed generator that no rule raises to, or a saturation
    that does not stabilize within its degree bound."""

    exit_code = 9


class InternalError(HopfcycError):
    """An unexpected exception inside the tool: a bug, reported by the CLI
    in one line instead of a traceback."""

    exit_code = 10
