"""Exact coefficient arithmetic.

Two coefficient rings are supported everywhere: the rationals (plain
``fractions.Fraction``) and a truncated Novikov ring.  An element of the
truncated ring is a finite sum  c_1*T^(a_1) + ... + c_k*T^(a_k)  with rational
coefficients and exponents a_i in (1/den)*Z_{>=0}, kept strictly below a
rational cutoff; arithmetic drops every term at or above the cutoff.

A scalar of either ring is zero exactly when it is falsy: ints and
Fractions as usual, and a NovikovElem when it has no term left (a product
truncated away entirely is falsy too).  Code that stores scalars tests
zero with ``not x``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import RingMismatch

#: marker object for the rational coefficient ring
QQ = "Q"


def as_fraction(x) -> Fraction:
    """Coerce ints and 'p/q' strings to Fraction; Fractions pass through."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


def format_rational(q: Fraction) -> str:
    q = as_fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


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
    """Parse the canonical 'c1*T^(a1) + c2*T^(a2) + c0' form.

    A minus between two terms subtracts the second, so '1 - 3*T^(1)' is
    '1 + -3*T^(1)'; a minus anywhere else belongs to the number or the
    T-power after it, so '-T^(1/2)' is '-1*T^(1/2)'.
    """
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
