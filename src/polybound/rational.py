"""Exact rational scalars and points, and their text form.

All geometry in this package is exact.  H-reps and LP outcomes hold
`fractions.Fraction` values, in lowest terms with a positive denominator;
V-rep points are integer numerator vectors over one positive denominator.
This module only adds the text form used by the file formats: "p/q", or
just "p" when q == 1, for a scalar and for each coordinate of a point.
"""

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import InputError


#: the only literals read: an optional sign, ASCII digits, an optional /digits
LITERAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_point(tokens: Sequence[str]) -> tuple[list[int], int]:
    """Literals "p/q" or "p", in any terms such as "4/8", as integer
    numerators over the lcm of their denominators."""
    pairs = []
    for text in tokens:
        if not LITERAL.fullmatch(text):
            raise InputError(f"bad rational literal {text!r}: want p/q or p")
        p, _, q = text.partition("/")
        try:
            pairs.append((int(p), int(q or 1)))
        except ValueError as exc:  # more digits than int() converts
            raise InputError(f"bad rational literal {text!r}: {exc}") from None
        if not pairs[-1][1]:
            raise InputError(f"bad rational literal {text!r}: zero denominator")
    den = lcm(*(q for _, q in pairs))
    return [p * (den // q) for p, q in pairs], den


def format_point(num: Sequence[int], den: int) -> list[str]:
    """The literal of each coordinate num[i]/den (den > 0), in lowest terms,
    denominator omitted when 1."""
    out = []
    for n in num:
        g = gcd(n, den)
        out.append(str(n // g) if g == den else f"{n // g}/{den // g}")
    return out


def parse_rational(text: str) -> Fraction:
    """One literal, as `parse_point` reads it."""
    (num,), den = parse_point([text])
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    """Inverse of parse_rational, as `format_point` writes it."""
    return format_point([value.numerator], value.denominator)[0]
