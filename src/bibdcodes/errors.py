"""Domain errors shared across the package.

The CLI maps these to exit code 1 and prints the class name, so the
names are part of the command-line contract.
"""


class BibdCodesError(Exception):
    """Base class for all domain errors raised by this package."""


# --- prime-field arithmetic ---

class NotPrime(BibdCodesError):
    pass


class NotDivisor(BibdCodesError):
    pass


class ZeroInput(BibdCodesError):
    pass


class OutOfRange(BibdCodesError):
    pass


# --- design construction and verification ---

class BadModulus(BibdCodesError):
    pass


class SearchExhausted(BibdCodesError):
    pass


class InvalidFamily(BibdCodesError):
    pass


class NotFound(BibdCodesError):
    pass


class MissingResolution(BibdCodesError):
    pass


class Timeout(BibdCodesError):
    """Search node budget exhausted without a decision."""


class Infeasible(BibdCodesError):
    """Exhaustive search proved no solution exists."""


# --- matrices ---

class TooLarge(BibdCodesError):
    pass


# --- repeat-accumulate transforms ---

class NoUnitDifference(BibdCodesError):
    pass


class DifferenceAbsent(BibdCodesError):
    pass


class OrbitOverlap(BibdCodesError):
    pass


class NotKtsTail(BibdCodesError):
    pass


class ChainBroken(BibdCodesError):
    pass


class NoCoprimeDelta(BibdCodesError):
    pass


class PropertyViolation(BibdCodesError):
    pass


class BadG1(BibdCodesError):
    pass


# --- codec ---

class DimensionMismatch(BibdCodesError):
    pass


class NotBinary(BibdCodesError):
    """A message holds a value other than 0 or 1."""


class NonFiniteLlr(BibdCodesError):
    """Channel LLRs hold NaN or an infinity."""
