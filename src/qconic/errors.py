"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: parse and validation problems are
"input" errors (exit 2), failures of a computation to terminate within
its documented cap are "computation" errors (exit 3).
"""

from __future__ import annotations

from dataclasses import dataclass


class QConicError(Exception):
    """Base class for all package errors."""


# ---------------------------------------------------------------- input side

class ParseError(QConicError):
    """Malformed textual input; carries a position when one is known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


@dataclass(frozen=True)
class SingularMember:
    """A member conic whose symmetric matrix is singular."""
    index: int


@dataclass(frozen=True)
class SingularPencilMember:
    """A pencil parameter producing a singular member."""
    parameter: object  # exact rational


@dataclass(frozen=True)
class DuplicateMembers:
    """Two members with proportional coefficient vectors."""
    first: int
    second: int


@dataclass(frozen=True)
class TooFewMembers:
    count: int


class ValidationError(QConicError):
    """Arrangement validation failed; ``violations`` lists every problem found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(repr(v) for v in self.violations))


class NotHomogeneousError(QConicError):
    """Polynomial input is not homogeneous in x, y, z."""


class NotReducedError(QConicError):
    """Defining polynomial has a repeated factor."""


# ---------------------------------------------------------- computation side

class NotSingularError(QConicError):
    """A local invariant was requested at a smooth point."""


class NonIsolatedError(QConicError):
    """Singularities that are not isolated: a local dimension failed to
    stabilize below its hard cap, or the global Tjurina value exceeds the
    bound (d - 1)^2 that holds for every reduced curve."""


class PointNotOnBothError(QConicError):
    """Intersection multiplicity requested at a point missing one curve."""


class AlphaOutOfWindowError(QConicError):
    """Orbifold weight outside the validity window of a singularity type."""

    def __init__(self, kind: str, alpha):
        self.kind = kind
        self.alpha = alpha
        super().__init__(f"weight {alpha} outside the validity window for {kind}")


class EmptyWindowError(QConicError):
    """The admissible weight interval is empty (fewer than three conics)."""


class KTooSmallError(QConicError):
    """An inequality that requires at least three conics was asked for k < 3."""
