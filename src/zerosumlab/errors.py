"""Exception types, and the constants, shared across the package.

Every failure is one of a handful of shapes: input outside the
mathematical domain (DomainError), input that parses but violates a
consistency requirement (ValidationError), operands that must share a
structure but don't (StructuralError), text that does not parse
(ParseError), a search that hit an explicit resource ceiling
(CapacityError), or a mechanically checked claim that came out false
(VerificationError).

The constants live here, in a module without dependencies, so that the
CLI reads them without loading an engine.
"""

# the version stamped on every JSON report
SCHEMA_VERSION = "1"
# degrees a presented-ring beta scan covers unless told otherwise
DEFAULT_RING_CUTOFF = 24


class ZeroSumLabError(Exception):
    """Common base so callers can catch everything from this package."""


class DomainError(ZeroSumLabError, ValueError):
    """Input is outside the mathematical domain of the operation."""


class ValidationError(ZeroSumLabError, ValueError):
    """Input parses but fails a consistency requirement."""


class StructuralError(ZeroSumLabError, ValueError):
    """Operands that must share a structure (group, rank, arity) do not."""


class ParseError(ZeroSumLabError, ValueError):
    """Malformed literal.  ``position`` is the offset of the offending character."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class CapacityError(ZeroSumLabError, RuntimeError):
    """An explicit search or size ceiling was exceeded.

    ``limit`` names the ceiling that was hit; ``partial`` carries whatever
    was computed before the abort (e.g. a table prefix) when useful.
    """

    def __init__(self, message, limit=None, partial=None):
        super().__init__(message)
        self.limit = limit
        self.partial = partial


class VerificationError(ZeroSumLabError, RuntimeError):
    """A mechanically checked claim failed; ``evidence`` is the counterexample."""

    def __init__(self, message, evidence=None):
        super().__init__(message)
        self.evidence = evidence
