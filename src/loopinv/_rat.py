"""Exact rational arithmetic backend.

Every computation in this package is exact; there is no floating point
anywhere.  Two interchangeable rational implementations are supported:

* ``fractions.Fraction`` from the standard library (always available),
* ``gmpy2.mpq`` (markedly faster once coefficients grow).

The backend is chosen once at import time from the environment variable
``LOOPINV_RATIONAL``:

* ``LOOPINV_RATIONAL=gmpy2``    force gmpy2, raise if it is missing,
* ``LOOPINV_RATIONAL=fraction`` force the standard library,
* unset                         gmpy2 when importable, Fraction otherwise.

Both backends print rationals identically (``"3"``, ``"-1/2"``), so all
serialized output is byte-identical regardless of the backend.
"""

import os
from fractions import Fraction

_requested = os.environ.get("LOOPINV_RATIONAL", "").strip().lower()

if _requested == "fraction":
    Q = Fraction
    BACKEND = "fraction"
elif _requested in ("", "gmpy2"):
    try:
        from gmpy2 import mpq as Q

        BACKEND = "gmpy2"
    except ImportError:
        if _requested == "gmpy2":
            raise
        Q = Fraction
        BACKEND = "fraction"
else:
    raise RuntimeError(
        "LOOPINV_RATIONAL must be 'gmpy2' or 'fraction', got %r" % _requested
    )

ZERO = Q(0)
ONE = Q(1)


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
    """Inverse of :func:`rational_from_string`; identical for both backends."""
    return str(value)
