"""Exception types shared across the package."""

from __future__ import annotations


class BlockqError(Exception):
    """Base class for all package-specific errors."""


class DivisionByZero(BlockqError, ZeroDivisionError):
    """Inverse or division requested for a zero scalar."""


class ModeMismatch(BlockqError, TypeError):
    """Fixed-q and generic-q scalars mixed in one operation."""


class PoleAtQ0(BlockqError, ZeroDivisionError):
    """Specialization of a rational function hit a zero denominator."""


class UnknownParityPair(BlockqError, LookupError):
    """Bracket requested for a parity pair the algebra does not define."""


class ParseError(BlockqError):
    """Syntax error with source location and the tokens that were expected."""

    def __init__(self, message: str, line: int | None = None,
                 col: int | None = None, expected: tuple[str, ...] = ()):
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        loc = f" at line {line}, column {col}" if line is not None else ""
        exp = f" (expected {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{message}{loc}{exp}")


class UnknownVariable(ParseError):
    """Variable outside the allowed set {m, i, n, j, q}."""


class DuplicateRule(ParseError):
    """The same parity pair was given more than one bracket rule."""


class UnknownAlgebra(BlockqError):
    """Built-in algebra name not recognized."""


class UnknownMapName(BlockqError):
    """Built-in map name not recognized, or not defined for this algebra."""


class OddMapOnNonSuper(BlockqError):
    """Odd-parity map requested on an algebra with no odd part."""


class IntegralityViolation(BlockqError):
    """A built-in map needs an integral degree or source index at this q."""


class WrongQ(BlockqError):
    """A built-in map or product is only defined at specific values of q."""


class NonHomogeneousMultiplication(BlockqError):
    """Left multiplication does not shift the grading by a single degree."""
