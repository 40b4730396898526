"""Arbitrary-precision rational scalars and the bit-size measure.

Every quantity in this package is an exact rational.  ``Rat`` is
``fractions.Fraction``, which keeps values canonical (gcd-reduced, positive
denominator) at all times.
"""

from __future__ import annotations

import math
import re
import reprlib
from fractions import Fraction as Rat
from typing import Iterable, Union

RatLike = Union[int, str, "Rat"]

ZERO = Rat(0)
ONE = Rat(1)


class RationalParseError(ValueError):
    """A token could not be read as an exact rational."""


_TOKEN = re.compile(r"-?\d+(/\d+)?", re.ASCII)

# the offending value as an error shows it: one short line, however long
# the string or however deep and wide the list it came from
_ECHO = reprlib.Repr()
_ECHO.maxlevel = 1
_ECHO.maxlist = _ECHO.maxdict = 4
_ECHO.maxstring = _ECHO.maxother = 32


def rat(value: RatLike) -> Rat:
    """Coerce an int (not a bool), ``-?\\d+(/\\d+)?`` string, or rational to a canonical Rat.

    Anything else raises RationalParseError, and so does a string whose
    integers pass Python's int-digit limit."""
    if isinstance(value, float):
        raise RationalParseError(f"refusing float {value!r}; use 'a/b' strings")
    if not (type(value) is int or isinstance(value, Rat)
            or isinstance(value, str) and _TOKEN.fullmatch(value)):
        raise RationalParseError(f"not a rational: {_ECHO.repr(value)}")
    try:
        return Rat(value)
    except (ZeroDivisionError, ValueError) as exc:  # ValueError: past the digit limit
        raise RationalParseError(f"not a rational: {_ECHO.repr(value)} ({exc})") from exc


def rat_str(x) -> str:
    """Canonical wire form: ``a`` for integers, ``a/b`` otherwise."""
    return str(Rat(x))


def is_integral(x) -> bool:
    return x.denominator == 1


def rfloor(x) -> int:
    return x.numerator // x.denominator


def rceil(x) -> int:
    return -(-x.numerator // x.denominator)


def rround(x) -> int:
    """Nearest integer, ties toward +infinity (exact)."""
    return rfloor(Rat(x) + Rat(1, 2))


def isqrt_ceil(n: int) -> int:
    """Smallest k >= 0 with k*k >= n (n >= 0)."""
    if n < 0:
        raise ValueError("isqrt_ceil of a negative number")
    k = math.isqrt(n)
    return k if k * k == n else k + 1


def size_of(x) -> int:
    """Bit size of one rational: 1 + ceil(log2(|num|+1)) + ceil(log2(den+1)).

    Uses m.bit_length() == ceil(log2(m+1)) for integers m >= 0.
    """
    x = Rat(x)
    return 1 + abs(x.numerator).bit_length() + x.denominator.bit_length()


def size_of_seq(xs: Iterable) -> int:
    """Total bit size of a flat iterable of rationals."""
    return sum(size_of(x) for x in xs)
