"""Exception types shared across the toolkit.

Every failure raised on purpose derives from RouteBayesError, so callers
(and the CLI) can map failures to exit codes without string matching.
"""


class RouteBayesError(Exception):
    """Base class for all toolkit errors."""


class EmptyVector(RouteBayesError):
    """A probability vector was empty."""


class NegativeEntry(RouteBayesError):
    """A vector entry that must be nonnegative was negative."""

    def __init__(self, index: int, value: float):
        super().__init__(f"entry {value!r} at index {index} is negative")
        self.index = index
        self.value = value


class SumOutOfTolerance(RouteBayesError):
    """Vector entries do not sum to 1 within the accepted tolerance."""

    def __init__(self, total: float, tolerance: float):
        super().__init__(f"entries sum to {total!r}, outside 1 +/- {tolerance!r}")
        self.total = total
        self.tolerance = tolerance


class LengthMismatch(RouteBayesError):
    """Vectors that must align per hypothesis have different lengths."""


class ZeroEvidence(RouteBayesError):
    """Total probability is zero, so posterior attribution is undefined."""


class InfeasibleConstraints(RouteBayesError):
    """Box constraints leave no feasible point on the weight simplex."""


class InvalidLoadFactor(RouteBayesError):
    """Target load factor outside (0, 1]."""


class NonpositiveUtilization(RouteBayesError):
    """Aircraft utilization must be positive."""


class RangeInfeasible(RouteBayesError):
    """Route distance exceeds the aircraft's range."""


class DegenerateAnchors(RouteBayesError):
    """Scoring anchors with worst == best cannot be rescaled."""


class UnknownFleet(RouteBayesError):
    """A route candidate references a fleet absent from availability."""


class PlanTooLarge(RouteBayesError):
    """A fleet's exact planning table would exceed the planner's cell limit."""


class InvalidPolicy(RouteBayesError):
    """Revenue-management policy is inconsistent with the leg problem."""


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
