import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descentlab.errors import RingMismatch
from descentlab.scalars import (QQ, NovikovRing, NovikovElem,
                                format_novikov, format_rational, parse_novikov)


R = NovikovRing(2, Fraction(3, 2))


def elem(ring=R):
    """Strategy for truncated Novikov elements over a fixed ring."""
    exps = st.integers(min_value=0, max_value=ring.truncation_order - 1)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    pairs = st.dictionaries(exps, coeff, max_size=4)
    return pairs.map(lambda d: ring.elem({Fraction(k, ring.den): c for k, c in d.items()}))


class TestRingBasics:
    def test_truncation_order(self):
        assert R.truncation_order == 3
        assert NovikovRing(1, Fraction(2)).truncation_order == 2
        assert NovikovRing(3, Fraction(5, 3)).truncation_order == 5
        assert NovikovRing(1, Fraction(7, 2)).truncation_order == 4

    def test_bad_ring(self):
        with pytest.raises(ValueError):
            NovikovRing(0, Fraction(1))
        with pytest.raises(ValueError):
            NovikovRing(2, Fraction(0))
        with pytest.raises(ValueError):
            NovikovRing(2, Fraction(-1))

    def test_cutoff_truncates(self):
        assert not R.T(Fraction(3, 2))
        assert not R.T(Fraction(2))
        assert R.T(Fraction(1))

    def test_exponent_lattice_enforced(self):
        with pytest.raises(ValueError):
            R.T(Fraction(1, 3))
        with pytest.raises(ValueError):
            R.T(Fraction(-1, 2))

    def test_ring_mismatch(self):
        other = NovikovRing(2, Fraction(2))
        with pytest.raises(RingMismatch):
            R.one() + other.one()


class TestArithmetic:
    @given(elem(), elem(), elem())
    def test_mul_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(elem(), elem())
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @given(elem(), elem(), elem())
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(elem())
    def test_additive_inverse(self, a):
        assert not (a - a)

    @given(elem(), elem())
    def test_valuation_superadditive(self, a, b):
        # truncation can only raise the valuation (least exponent) of a product
        def valuation(x):
            return min(x.terms, default=math.inf)
        assert valuation(a * b) >= valuation(a) + valuation(b)

    def test_geometric_series(self):
        # 1 - T^(1/2) is a unit: below the cutoff 3/2 its inverse is the
        # truncated geometric series 1 + T^(1/2) + T
        x = R.one() - R.T(Fraction(1, 2))
        series = R.one() + R.T(Fraction(1, 2)) + R.T(Fraction(1))
        assert x * series == R.one() == series * x


class TestFormatParse:
    @given(elem())
    def test_roundtrip(self, a):
        assert parse_novikov(R, format_novikov(a)) == a

    def test_format_examples(self):
        assert format_novikov(R.zero()) == "0"
        assert format_novikov(R.one()) == "1"
        x = R.elem({Fraction(0): Fraction(3, 2), Fraction(1, 2): Fraction(-1)})
        assert format_novikov(x) == "3/2 + -1*T^(1/2)"
        assert parse_novikov(R, "3/2 + -1*T^(1/2)") == x
        assert parse_novikov(R, "1*T^(1/2) + 1*T^(1/2)") == R.T(Fraction(1, 2), 2)

    def test_binary_minus(self):
        x = R.elem({Fraction(0): Fraction(3, 2), Fraction(1, 2): Fraction(-1)})
        for text in ("3/2 - 1*T^(1/2)", "3/2-T^(1/2)", "-1*T^(1/2) + 3/2",
                     "2 - 1/2 - 1*T^(1/2)"):
            assert parse_novikov(R, text) == x
        assert parse_novikov(R, "1 - -2*T^(1/2)") == R.one() + R.T(Fraction(1, 2), 2)
        assert format_novikov(parse_novikov(R, "3/2 - 1*T^(1/2)")) == "3/2 + -1*T^(1/2)"

    def test_leading_unary_minus(self):
        # a minus before a bare T-power negates it, as before a number
        x = R.elem({Fraction(0): Fraction(3, 2), Fraction(1, 2): Fraction(-1)})
        assert parse_novikov(R, "-T^(1/2) + 3/2") == x
        assert parse_novikov(R, "-T^(1/2)") == -R.T(Fraction(1, 2))
        assert parse_novikov(R, "1 - -T^(1/2)") == R.one() + R.T(Fraction(1, 2))
        assert parse_novikov(R, "T^(1) + -T^(1/2)") == \
            R.T(Fraction(1)) - R.T(Fraction(1, 2))

    @pytest.mark.parametrize("text", ["1 -", "- - 3", "1 - - 3", "-", "1 +",
                                      "--T^(1)", "T^(1/2) -", "- T^(1)"])
    def test_malformed_text_is_rejected(self, text):
        with pytest.raises(ValueError):
            parse_novikov(R, text)

    def test_format_rational(self):
        assert format_rational(Fraction(3)) == "3"
        assert format_rational(Fraction(-7, 2)) == "-7/2"
