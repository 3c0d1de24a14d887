"""The integer smoothing calculus against its Fraction oracle.

`FractionValue`, `oracle_smoothing_h` and `oracle_region_sign` are the
earlier implementation of involutive.AlgebraicValue and its two smoothing
functions: the number (a + b*sqrt(disc)) / sqrt(2) held as three Fractions.
The package now holds it as one integer normal form; every sign, every
comparison, and the float and repr of every smoothing value must agree.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from descentlab.errors import InputError
from descentlab.involutive import (INTERSECTION, UNION, AlgebraicValue,
                                   SmoothingCurve, grid_points, region_sign,
                                   smoothing_h)

# ---------------------------------------------------------------------------
# the oracle


def _sgn(x):
    return (x > 0) - (x < 0)


def _exact_sqrt(d):
    """Rational square root of a nonnegative Fraction, or None."""
    if d == 0:
        return Fraction(0)
    rn = math.isqrt(d.numerator)
    rd = math.isqrt(d.denominator)
    if rn * rn == d.numerator and rd * rd == d.denominator:
        return Fraction(rn, rd)
    return None


def _two_term_sign(a, b, d):
    """Sign of a + b*sqrt(d) with d not a perfect square, or b zero."""
    if a == 0:
        return _sgn(b)
    if _sgn(a) == _sgn(b):
        return _sgn(a)
    return _sgn(a) if a * a > b * b * d else _sgn(b)


class FractionValue:
    """The exact number (a + b*sqrt(disc)) / sqrt(2), on Fractions."""

    def __init__(self, a, b=0, disc=0):
        a, b, disc = Fraction(a), Fraction(b), Fraction(disc)
        if disc < 0:
            raise InputError("negative discriminant")
        root = _exact_sqrt(disc)
        if root is not None:
            a, b, disc = a + b * root, Fraction(0), Fraction(0)
        if b == 0:
            disc = Fraction(0)
        self.a, self.b, self.disc = a, b, disc

    @classmethod
    def from_rational(cls, r):
        return cls(0, r, 2)

    def plus_sqrt2(self, s):
        return FractionValue(self.a + 2 * Fraction(s), self.b, self.disc)

    def sign(self):
        if self.b == 0:
            return _sgn(self.a)
        return _two_term_sign(self.a, self.b, self.disc)

    def _cmp(self, other):
        if not isinstance(other, FractionValue):
            other = FractionValue.from_rational(other)
        A = self.a - other.a
        B, d1 = self.b, self.disc
        C, d2 = -other.b, other.disc
        if not C or d1 == d2:
            return _two_term_sign(A, B + C, d1)
        if not B:
            return _two_term_sign(A, C, d2)
        bb, cc = B * B * d1, C * C * d2
        su = _sgn(B) if _sgn(B) == _sgn(C) else _sgn(bb - cc) * _sgn(B)
        sa = _sgn(A)
        if not sa or sa == su:
            return su
        r, s, d = A * A - bb - cc, -2 * B * C, d1 * d2
        root = _exact_sqrt(d)
        return sa * (_sgn(r + s * root) if root is not None
                     else _two_term_sign(r, s, d))

    def __float__(self):
        return ((float(self.a) + float(self.b) * math.sqrt(float(self.disc)))
                / math.sqrt(2.0))

    def __repr__(self):
        return f"AlgebraicValue({self.a}, {self.b}, {self.disc})"


def oracle_smoothing_h(curve, x, y):
    x, y = Fraction(x), Fraction(y)
    disc = (x - y) ** 2 + 4 * curve.delta
    return FractionValue(x + y, 1 if curve.mode == INTERSECTION else -1, disc)


def oracle_region_sign(curve, x, y):
    x, y = Fraction(x), Fraction(y)
    if curve.mode == INTERSECTION:
        if x < 0 and y < 0:
            if x * y > curve.delta:
                return -1
            if x * y == curve.delta:
                return 0
        return 1
    if x > 0 and y > 0:
        if x * y > curve.delta:
            return 1
        if x * y == curve.delta:
            return 0
    return -1


# ---------------------------------------------------------------------------
# recipes: one description builds the same number in both implementations

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)
positive = st.fractions(min_value=Fraction(1, 6), max_value=6,
                        max_denominator=6)
modes = st.sampled_from([INTERSECTION, UNION])


@st.composite
def smoothing_points(draw):
    """(curve, x, y): generic points, points on either branch of the curve
    (x*y = delta, sign 0), the diagonal, and perfect-square discriminants
    ((x - y)^2 + 4*delta a rational square, folded into the rational part)."""
    mode = draw(modes)
    kind = draw(st.sampled_from(["any", "curve", "diagonal", "square"]))
    delta = draw(positive)
    x, y = draw(rationals), draw(rationals)
    if kind == "curve":
        x = draw(positive) * (-1 if mode == INTERSECTION else 1)
        y = delta / x
    elif kind == "diagonal":
        y = x
    elif kind == "square":
        t, s = draw(rationals), draw(positive)
        s += abs(t)                      # s > |t|, so delta > 0
        delta = (s * s - t * t) / 4
        x = y + t
    return SmoothingCurve(delta, mode), x, y


@st.composite
def recipes(draw):
    kind = draw(st.sampled_from(["h", "shifted", "ctor", "surd2", "rational"]))
    if kind in ("h", "shifted"):
        curve, x, y = draw(smoothing_points())
        shift = draw(rationals) if kind == "shifted" else None
        return ("h", curve, x, y, shift)
    if kind == "ctor":
        return ("ctor", draw(rationals), draw(rationals),
                draw(st.integers(0, 12) | positive))
    if kind == "surd2":
        # k^2 * 2: two such values hold distinct surds whose product is a
        # square
        return ("ctor", draw(rationals), draw(rationals),
                2 * draw(st.integers(1, 4)) ** 2)
    return ("rational", draw(rationals))


def build(recipe, oracle):
    kind = recipe[0]
    if kind == "h":
        _, curve, x, y, shift = recipe
        v = (oracle_smoothing_h if oracle else smoothing_h)(curve, x, y)
        return v if shift is None else v.plus_sqrt2(shift)
    if kind == "ctor":
        return (FractionValue if oracle else AlgebraicValue)(*recipe[1:])
    return (FractionValue if oracle else AlgebraicValue).from_rational(
        recipe[1])


COMPARISONS = ("__eq__", "__lt__", "__le__", "__gt__", "__ge__")


def _comparisons(u, v):
    return [getattr(u, op)(v) for op in COMPARISONS]


def _oracle_comparisons(u, v):
    c = u._cmp(v)
    return [c == 0, c < 0, c <= 0, c > 0, c >= 0]


@settings(max_examples=300, deadline=None)
@given(recipes(), recipes())
def test_signs_and_comparisons_match_the_oracle(r1, r2):
    u, v = build(r1, False), build(r2, False)
    ou, ov = build(r1, True), build(r2, True)
    assert u.sign() == ou.sign()
    assert u._cmp(v) == ou._cmp(ov)
    assert _comparisons(u, v) == _oracle_comparisons(ou, ov)


@settings(max_examples=200, deadline=None)
@given(recipes(), rationals | st.integers(-5, 5))
def test_comparisons_with_rationals_match_the_oracle(recipe, r):
    u, ou = build(recipe, False), build(recipe, True)
    assert _comparisons(u, r) == _oracle_comparisons(ou, r)
    fast, slow = AlgebraicValue.from_rational(r), FractionValue.from_rational(r)
    assert fast.sign() == slow.sign() == _sgn(r)
    assert fast._cmp(u) == slow._cmp(ou)


@settings(max_examples=200, deadline=None)
@given(smoothing_points(), rationals, recipes())
def test_translation_then_equality_match_the_oracle(point, s, recipe):
    curve, x, y = point
    moved = smoothing_h(curve, x, y).plus_sqrt2(s)
    assert smoothing_h(curve, x + s, y + s) == moved
    other, oracle_other = build(recipe, False), build(recipe, True)
    oracle_moved = oracle_smoothing_h(curve, x, y).plus_sqrt2(s)
    assert moved._cmp(other) == oracle_moved._cmp(oracle_other)


@settings(max_examples=300, deadline=None)
@given(smoothing_points(), st.none() | rationals)
def test_smoothing_floats_and_reprs_are_the_oracles(point, s):
    # covers-check writes float(value) into reports, and the weak-cover
    # checker writes str(value)
    curve, x, y = point
    v, ov = smoothing_h(curve, x, y), oracle_smoothing_h(curve, x, y)
    if s is not None:
        v, ov = v.plus_sqrt2(s), ov.plus_sqrt2(s)
    assert repr(v) == repr(ov)
    assert float(v).hex() == float(ov).hex()
    assert (v.a, v.b, v.disc) == (ov.a, ov.b, ov.disc)
    assert all(type(f) is Fraction for f in (v.a, v.b, v.disc))
    assert region_sign(curve, x, y) == oracle_region_sign(curve, x, y)


def test_the_roadmap_grid_signs_match_the_oracle():
    # six curves on a 33 x 33 grid in steps of 1/4: 6,534 (curve, point)
    # pairs, among them points on the curve, where the sign is 0
    grid = grid_points([(-4, 4, Fraction(1, 4))] * 2)
    curves = [SmoothingCurve(d, mode) for mode in (INTERSECTION, UNION)
              for d in (1, Fraction(1, 2), Fraction(1, 4))]
    pairs = zeros = 0
    for curve in curves:
        for x, y in grid:
            want = oracle_smoothing_h(curve, x, y).sign()
            assert want == oracle_region_sign(curve, x, y)
            assert smoothing_h(curve, x, y).sign() == want
            assert region_sign(curve, x, y) == want
            pairs += 1
            zeros += not want
    assert pairs == 6534 and zeros > 0
