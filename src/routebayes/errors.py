"""Exception types shared across the toolkit, and the one rule for using them.

A bad argument to a domain type or kernel raises ``ValueError`` with a
message that says which rule it broke. A run that cannot finish raises a
RouteBayesError, which the CLI maps to an exit code without string matching:
InfeasibleConstraints exits 2, IoError exits 3, every other one exits 1.
``at`` is the one place that turns the first kind into the second, naming
the scenario field or record the bad value came from.
"""


class RouteBayesError(Exception):
    """Base class for all toolkit errors."""


class InfeasibleConstraints(RouteBayesError):
    """Box constraints leave no feasible point on the weight simplex."""


class PlanTooLarge(RouteBayesError):
    """A fleet's exact planning table would exceed the planner's cell limit."""


class ParseError(RouteBayesError):
    """Scenario file is not syntactically valid."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class SchemaVersionUnsupported(RouteBayesError):
    """Scenario schema_version is missing or not supported."""


class ValidationError(RouteBayesError):
    """Scenario content failed validation; ``path`` names the offending field."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


class DanglingReference(ValidationError):
    """A name refers to an entity that does not exist in the scenario."""


class IoError(RouteBayesError):
    """Reading or writing a file failed."""


def at(path: str, call, /, *args, **kwargs):
    """``call(*args, **kwargs)``; a ValueError or ArithmeticError it raises becomes a ValidationError at ``path``."""
    try:
        return call(*args, **kwargs)
    except (ValueError, ArithmeticError) as exc:
        raise ValidationError(path, str(exc)) from exc
