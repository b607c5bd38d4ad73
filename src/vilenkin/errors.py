"""Exception types shared across the package, and the short form of big
numbers in their messages."""

from fractions import Fraction

# ``str(int)`` stays under every digit limit Python allows (the smallest is
# 640 digits) up to this bit length: 2000 bits is at most 603 digits.
SAFE_STR_BITS = 2000


def brief(x: int | Fraction) -> str:
    """An integer or rational for a message: ``str(x)`` when its parts are
    short, else each long part as ``<int of N bits>``.  Never raises on a
    digit limit."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return brief(x.numerator)
        return f"{brief(x.numerator)}/{brief(x.denominator)}"
    x = int(x)
    if x.bit_length() <= SAFE_STR_BITS:
        return str(x)
    return f"<int of {x.bit_length()} bits>"


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class CapExceededError(RuntimeError):
    """A computation would exceed a configured resource cap."""


class VerificationError(RuntimeError):
    """An exact verification step failed, or was attempted on unverified input."""
