"""Exact rational scalars.

All geometry in this package is exact.  The H-reps, V-reps and LP
outcomes that the package reads, writes and returns hold
`fractions.Fraction` values, always in lowest terms with a positive
denominator; between those boundaries the computation runs in integers.
This module only adds the text form used by the file formats: "p/q", or
just "p" when q == 1.
"""

import re
from fractions import Fraction

from .errors import InputError


#: the only literals read: an optional sign, ASCII digits, an optional /digits
LITERAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p".  Accepts non-normalized input such as "4/8";
    refuses decimals and exponents, which `Fraction` alone would read."""
    if not LITERAL.fullmatch(text):
        raise InputError(f"bad rational literal {text!r}: want p/q or p")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational literal {text!r}: {exc}") from None


def format_rational(value: Fraction) -> str:
    """Inverse of parse_rational; emits lowest terms, denominator omitted when 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
