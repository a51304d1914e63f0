import re
from fractions import Fraction

import pytest

from loopinv._rat import exact


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
