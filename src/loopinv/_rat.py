"""Exact rational arithmetic.

Every computation in this package is exact; there is no floating point
anywhere.  Rationals are ``fractions.Fraction`` from the standard library.
``dims`` forms none: its spanning sets and eliminations are integer rows.
"""

from fractions import Fraction
from numbers import Rational

Q = Fraction
BACKEND = "fraction"


def _refuse_inexact(value):
    """Refuse a float, a binary approximation, and a bool, which ``int``
    and ``Q`` would read as 0 or 1."""
    if isinstance(value, float):
        raise TypeError(
            "exact rational expected, got the float %r; pass an int, a Fraction "
            "or a string such as '1/10'" % value
        )
    if isinstance(value, bool):
        raise TypeError("exact number expected, got the bool %r" % value)


def exact(value):
    """``Q(value)`` for an int, a rational or a rational string.

    Floats are refused: a float is a binary approximation, and ``Q(0.1)``
    would silently store 3602879701896397/36028797018963968.  So are
    bools, which ``Q`` reads as 0 or 1.  A ``Fraction`` itself, not a
    subclass, is returned unchanged.
    """
    if type(value) is Fraction:
        return value
    _refuse_inexact(value)
    return Q(value)


def integer(value):
    """``int(value)`` for an int, an integral rational or an integer
    string.  Any other number (a float, a bool, a Decimal) is refused as by
    :func:`exact`, and a non-integral rational raises ValueError."""
    _refuse_inexact(value)
    if not isinstance(value, (Rational, str)):
        raise TypeError("exact integer expected, got %r" % (value,))
    if isinstance(value, Rational) and value.denominator != 1:
        raise ValueError("integer expected, got the rational %s" % value)
    return int(value)


def rational_from_string(text):
    """Parse ``"3"`` or ``"-1/2"`` into an exact rational.  A float or a
    bool is refused as by :func:`exact`; anything else that is not a
    rational string, or a zero denominator, raises ValueError."""
    _refuse_inexact(text)
    if not isinstance(text, str):
        raise ValueError("rational string expected, got %r" % (text,))
    try:
        return Q(text.strip())
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None


def rational_to_string(value):
    """Inverse of :func:`rational_from_string`."""
    return str(value)
