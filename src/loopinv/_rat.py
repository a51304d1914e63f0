"""Exact rational arithmetic.

Every computation in this package is exact; there is no floating point
anywhere.  Rationals are ``fractions.Fraction`` from the standard library.
``dims`` forms none: its spanning sets and eliminations are integer rows.
"""

from fractions import Fraction

Q = Fraction
BACKEND = "fraction"


def exact(value):
    """``Q(value)`` for an int, a rational or a rational string.

    Floats are refused: a float is a binary approximation, and ``Q(0.1)``
    would silently store 3602879701896397/36028797018963968.
    """
    if isinstance(value, float):
        raise TypeError(
            "exact rational expected, got the float %r; pass an int, a Fraction "
            "or a string such as '1/10'" % value
        )
    return Q(value)


def rational_from_string(text):
    """Parse ``"3"`` or ``"-1/2"`` into an exact rational."""
    return Q(text.strip())


def rational_to_string(value):
    """Inverse of :func:`rational_from_string`."""
    return str(value)
