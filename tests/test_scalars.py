import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descentlab.errors import RingMismatch
from descentlab.scalars import (QQ, NovikovRing, NovikovElem, divide_by_u,
                                format_novikov, format_rational, parse_novikov,
                                unit_inverse, valuation)


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
        assert unit_inverse(x) == series


class TestRingPrimitives:
    """valuation, divide_by_u and unit_inverse, the three steps of
    elimination over Λ; a plain rational is c*u^0."""

    @given(elem(), st.integers(0, 3))
    def test_divide_by_u_undoes_a_power(self, a, k):
        u_k = R.T(Fraction(k, R.den))
        b = a * u_k
        if b:
            assert valuation(b) == valuation(a) + k
        assert divide_by_u(b, k) * u_k == b

    def test_valuation_and_division_of_plain_rationals(self):
        assert valuation(Fraction(-2, 3)) == valuation(5) == 0
        assert valuation(R.T(1, 4) + R.T(Fraction(1, 2))) == 1
        assert divide_by_u(Fraction(3), 0) == 3
        with pytest.raises(ValueError):
            divide_by_u(Fraction(3), 1)
        with pytest.raises(ValueError):
            divide_by_u(R.T(Fraction(1, 2)) + 1, 1)

    @given(st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
           elem(NovikovRing(3, 4)))
    def test_unit_inverse(self, c, a):
        ring = a.ring
        w = c + ring.T(Fraction(1, 3)) * a
        inv = unit_inverse(w)
        assert inv * w == ring.one() == w * inv
        assert unit_inverse(Fraction(c)) * c == 1
        with pytest.raises(ValueError):
            unit_inverse(w - c)


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
