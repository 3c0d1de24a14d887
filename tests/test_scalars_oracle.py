"""Truncated Novikov arithmetic on int u-powers against its Fraction oracle.

`NovikovRing`, `NovikovElem`, `format_novikov` and `parse_novikov` below are
the earlier implementation from descentlab.scalars: an element held as
{T-exponent: coefficient} with Fraction exponents, every one re-checked
against the lattice (1/den)*Z_{>=0} and the cutoff on each arithmetic
result.  The package now holds sum c*u^k as {k: c} with int k < m and
checks exponents once, in `NovikovRing.elem`; every result, every
comparison and every printed form must agree.
"""

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descentlab import scalars
from descentlab.errors import RingMismatch
from descentlab.scalars import as_fraction, format_rational

# ---------------------------------------------------------------------------
# the oracle


@dataclass(frozen=True)
class NovikovRing:
    """Truncated Novikov ring parameters: exponent denominator and cutoff.

    Exponents live in (1/den)*Z_{>=0} and are kept strictly below ``cutoff``.
    """

    den: int
    cutoff: Fraction

    def __post_init__(self):
        if not (isinstance(self.den, int) and self.den >= 1):
            raise ValueError("den must be a positive integer")
        object.__setattr__(self, "cutoff", as_fraction(self.cutoff))
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")

    @property
    def truncation_order(self) -> int:
        """Number of distinct monomials T^(k/den), k >= 0, below the cutoff."""
        c = self.cutoff * self.den
        return -((-c.numerator) // c.denominator)  # ceil

    def zero(self) -> "NovikovElem":
        return NovikovElem(self, {})

    def one(self) -> "NovikovElem":
        return self.scalar(1)

    def scalar(self, c) -> "NovikovElem":
        return NovikovElem(self, {Fraction(0): as_fraction(c)})

    def T(self, exponent, coeff=1) -> "NovikovElem":
        return NovikovElem(self, {as_fraction(exponent): as_fraction(coeff)})

    def elem(self, terms) -> "NovikovElem":
        return NovikovElem(self, {as_fraction(a): as_fraction(c) for a, c in dict(terms).items()})


class NovikovElem:
    """Element of a truncated Novikov ring, a finite exponent->coefficient map."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: NovikovRing, terms):
        self.ring = ring
        clean = {}
        for a, c in terms.items():
            a, c = as_fraction(a), as_fraction(c)
            if not c or a >= ring.cutoff:
                continue
            if a < 0 or (a * ring.den).denominator != 1:
                raise ValueError(f"exponent {a} not in (1/{ring.den})Z_{{>=0}}")
            clean[a] = clean.get(a, Fraction(0)) + c
        self.terms = {a: c for a, c in clean.items() if c}

    def _check_ring(self, other: "NovikovElem"):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.scalar(other)
        self._check_ring(other)
        terms = dict(self.terms)
        for a, c in other.terms.items():
            terms[a] = terms.get(a, Fraction(0)) + c
        return NovikovElem(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return NovikovElem(self.ring, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, NovikovElem) else -self.ring.scalar(other))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return NovikovElem(self.ring, {a: c * other for a, c in self.terms.items()})
        self._check_ring(other)
        cutoff = self.ring.cutoff
        terms = {}
        for a, c in self.terms.items():
            for b, d in other.terms.items():
                e = a + b
                if e < cutoff:
                    terms[e] = terms.get(e, Fraction(0)) + c * d
        return NovikovElem(self.ring, terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.scalar(other)
        if not isinstance(other, NovikovElem):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        return format_novikov(self)

    __repr__ = __str__


def format_novikov(x: NovikovElem) -> str:
    if not x.terms:
        return "0"
    parts = []
    for a in sorted(x.terms):
        c = x.terms[a]
        if a == 0:
            parts.append(format_rational(c))
        else:
            parts.append(f"{format_rational(c)}*T^({format_rational(a)})")
    return " + ".join(parts)


_TERM = re.compile(r"^\s*(?:(?P<coeff>-?\d+(?:/\d+)?)\s*\*\s*|(?P<neg>-))?T\^\((?P<exp>-?\d+(?:/\d+)?)\)\s*$")
# a term separator: any '+', or a '-' right after a term (a digit or ')')
_SEP = re.compile(r"\+|(?<=[\d)])\s*-")


def parse_novikov(ring: NovikovRing, text: str) -> NovikovElem:
    text = text.strip()
    if text == "0":
        return ring.zero()
    terms = {}
    start, sign = 0, 1
    for sep in [*_SEP.finditer(text), None]:
        chunk = text[start:sep.start() if sep else len(text)].strip()
        m = _TERM.match(chunk)
        if m:
            coeff = (Fraction(m.group("coeff")) if m.group("coeff")
                     else Fraction(-1 if m.group("neg") else 1))
            exp = Fraction(m.group("exp"))
        else:
            coeff, exp = Fraction(chunk), Fraction(0)
        terms[exp] = terms.get(exp, Fraction(0)) + sign * coeff
        if sep:
            start, sign = sep.end(), -1 if sep.group().endswith("-") else 1
    return ring.elem(terms)


# ---------------------------------------------------------------------------
# strategies: a pair of equal rings (package, oracle) and elements of both

DENS = [1, 2, 3, 5]
CUTOFFS = [Fraction(2), Fraction(3, 2), Fraction(7, 3), Fraction(1, 2),
           Fraction(4, 5)]
coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
plain = st.integers(-3, 3) | st.fractions(min_value=-3, max_value=3,
                                          max_denominator=5)


@st.composite
def rings_and_terms(draw, count):
    """(den, cutoff) and count T-exponent dicts, some terms at or above the
    cutoff and some with zero coefficients."""
    den, cutoff = draw(st.sampled_from(DENS)), draw(st.sampled_from(CUTOFFS))
    m = math.ceil(den * cutoff)
    exps = st.integers(0, m + 1).map(lambda k: Fraction(k, den))
    return den, cutoff, [draw(st.dictionaries(exps, coeffs, max_size=4))
                         for _ in range(count)]


def pair(den, cutoff, terms):
    return (scalars.NovikovRing(den, cutoff).elem(terms),
            NovikovRing(den, cutoff).elem(terms))


def agree(new, old):
    """new holds old's element: int keys below m, nonzero Fractions."""
    assert isinstance(new, scalars.NovikovElem) and isinstance(old, NovikovElem)
    m, den = new.ring.truncation_order, new.ring.den
    assert all(type(k) is int and 0 <= k < m for k in new.terms)
    assert all(type(c) is Fraction and c for c in new.terms.values())
    assert {Fraction(k, den): c for k, c in new.terms.items()} == old.terms
    assert scalars.format_novikov(new) == format_novikov(old) == str(new)
    assert bool(new) == bool(old)


# ---------------------------------------------------------------------------
# the checks


@settings(max_examples=200, deadline=None)
@given(rings_and_terms(2))
def test_ring_operations_match_the_oracle(drawn):
    den, cutoff, (ta, tb) = drawn
    (a, a0), (b, b0) = pair(den, cutoff, ta), pair(den, cutoff, tb)
    agree(a, a0)
    agree(b, b0)
    agree(a + b, a0 + b0)
    agree(a - b, a0 - b0)
    agree(-a, -a0)
    agree(a * b, a0 * b0)
    assert (a == b) == (a0 == b0)
    assert (a != b) == (a0 != b0)
    assert (a == a) and not (a != a)


@settings(max_examples=200, deadline=None)
@given(rings_and_terms(1), plain)
def test_plain_rationals_on_either_side_match_the_oracle(drawn, q):
    den, cutoff, (ta,) = drawn
    a, a0 = pair(den, cutoff, ta)
    agree(a + q, a0 + q)
    agree(q + a, q + a0)
    agree(a - q, a0 - q)
    agree(q - a, q - a0)
    agree(a * q, a0 * q)
    agree(q * a, q * a0)
    assert (a == q) == (a0 == q) == (q == a) == (q == a0)
    assert (a != q) == (a0 != q) == (q != a)


@settings(max_examples=200, deadline=None)
@given(rings_and_terms(1))
def test_format_and_parse_match_the_oracle(drawn):
    den, cutoff, (ta,) = drawn
    a, a0 = pair(den, cutoff, ta)
    text = scalars.format_novikov(a)
    back = scalars.parse_novikov(a.ring, text)
    assert back == a
    agree(back, parse_novikov(a0.ring, text))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(DENS), st.sampled_from(CUTOFFS),
       st.fractions(min_value=-2, max_value=3, max_denominator=7), coeffs)
def test_exponent_checks_match_the_oracle(den, cutoff, exponent, coeff):
    ring, oracle = scalars.NovikovRing(den, cutoff), NovikovRing(den, cutoff)
    try:
        expected = oracle.T(exponent, coeff)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            ring.T(exponent, coeff)
        assert str(got.value) == str(exc)
    else:
        agree(ring.T(exponent, coeff), expected)


def test_products_that_truncate_to_zero():
    for den, cutoff in [(2, Fraction(3, 2)), (3, Fraction(7, 3)), (1, 2),
                        (5, Fraction(1, 2))]:
        ring, oracle = scalars.NovikovRing(den, cutoff), NovikovRing(den, cutoff)
        m = ring.truncation_order
        for j in range(m):
            a, a0 = ring.T(Fraction(j, den), 3), oracle.T(Fraction(j, den), 3)
            b, b0 = (ring.T(Fraction(m - j, den), Fraction(-1, 2)),
                     oracle.T(Fraction(m - j, den), Fraction(-1, 2)))
            agree(a * b, a0 * b0)
            assert not a * b and a * b == 0 == a0 * b0


def test_rings_compare_hash_and_print_as_before():
    for den in DENS:
        for cutoff in CUTOFFS:
            ring, oracle = scalars.NovikovRing(den, cutoff), NovikovRing(den, cutoff)
            assert ring == scalars.NovikovRing(den, str(cutoff))
            assert ring != scalars.NovikovRing(den, cutoff + 1)
            assert hash(ring) == hash(oracle)
            assert repr(ring) == repr(oracle)
            # computed once, when the ring is built
            assert vars(ring)["truncation_order"] == oracle.truncation_order


def test_mixed_rings_raise_or_compare_unequal():
    one, other = scalars.NovikovRing(2, Fraction(3, 2)), scalars.NovikovRing(2, 2)
    a, b = one.T(Fraction(1, 2)), other.T(Fraction(1, 2))
    for op in (lambda: a + b, lambda: a - b, lambda: a * b):
        with pytest.raises(RingMismatch):
            op()
    assert a != b and not (a == b)
