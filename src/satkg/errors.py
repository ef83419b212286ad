"""Exception hierarchy shared across the toolkit."""

from __future__ import annotations


class SatkgError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------- core store

class DuplicateTerm(SatkgError):
    pass


class UnknownParent(SatkgError):
    pass


class CycleDetected(SatkgError):
    pass


class UnknownTerm(SatkgError):
    pass


class TypeMismatch(SatkgError):
    pass


class RestrictionViolation(SatkgError):
    pass


class FunctionalViolation(SatkgError):
    pass


class InvalidTermName(SatkgError, ValueError):
    pass


class InvalidDatatype(SatkgError, ValueError):
    pass


# ---------------------------------------------------------------- ingestion

class MalformedCsv(SatkgError):
    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class EmptyInput(SatkgError):
    pass


class UnknownOrbitClass(SatkgError):
    pass


class UnparsableNumber(SatkgError):
    pass


class UnparsableDate(SatkgError):
    pass


class OverlayError(SatkgError):
    pass


# ---------------------------------------------------------------- reasoning

class ModeMismatch(SatkgError):
    pass


# ---------------------------------------------------------------- queries

class QuerySyntaxError(SatkgError):
    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{line}:{column}: {message}")


class UnknownTermInQuery(SatkgError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line, self.column = line, column
        super().__init__(message if line is None else f"{line}:{column}: {message}")


class UnsafeVariable(SatkgError):
    pass


class NegationUnderOpenWorld(SatkgError):
    pass


# ---------------------------------------------------------------- interop

class TurtleParseError(SatkgError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnsupportedConstruct(SatkgError):
    pass


class DanglingMapping(SatkgError):
    pass
