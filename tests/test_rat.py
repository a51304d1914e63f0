import re
from decimal import Decimal
from fractions import Fraction

import pytest

from loopinv._rat import exact, integer
from loopinv.invariants import InvariantSpaces
from loopinv.words import Word


class TestExact:
    def test_returns_a_fraction_unchanged(self):
        q = Fraction(-7, 3)
        assert exact(q) is q

    @pytest.mark.parametrize("value, message", [
        (0.5, "exact rational expected, got the float 0.5; pass an int, a Fraction "
              "or a string such as '1/10'"),
        (True, "exact number expected, got the bool True"),
        (False, "exact number expected, got the bool False"),
    ])
    def test_refuses_floats_and_bools(self, value, message):
        with pytest.raises(TypeError, match="^%s$" % re.escape(message)):
            exact(value)

    def test_other_exact_values_become_a_plain_fraction(self):
        class Sub(Fraction):
            pass

        for value, expected in [(3, Fraction(3)), ("-1/2", Fraction(-1, 2)), (Sub(2, 5), Fraction(2, 5))]:
            result = exact(value)
            assert type(result) is Fraction
            assert result == expected


class TestInteger:
    def test_reads_ints_integral_rationals_and_integer_strings(self):
        # the JSON readers pass "3"
        for value in (3, Fraction(6, 2), "3", " 3 "):
            result = integer(value)
            assert type(result) is int
            assert result == 3

    def test_refuses_a_non_integral_rational(self):
        # int() would truncate 3/2 to 1
        for make in (
            lambda: integer(Fraction(3, 2)),
            lambda: Word((Fraction(3, 2),), 2),
            lambda: InvariantSpaces(Fraction(5, 2)),
        ):
            with pytest.raises(ValueError, match="^integer expected, got the rational [35]/2$"):
                make()

    def test_refuses_a_decimal_as_a_float(self):
        # int() would truncate 2.7 to 2; an integral Decimal is refused too
        for make in (
            lambda: integer(Decimal("3")),
            lambda: Word((1,), Decimal("2.7")),
            lambda: Word((Decimal("1"),), 2),
        ):
            with pytest.raises(TypeError, match="^exact integer expected, got Decimal"):
                make()
        for value in (2.0, True):
            with pytest.raises(TypeError, match="^exact .* expected, got the (float|bool)"):
                integer(value)
