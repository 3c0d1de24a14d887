"""Exact coefficient arithmetic.

Two coefficient rings are supported everywhere: the rationals (an int
when integral, else a ``fractions.Fraction``; ``linalg.whole`` spells that
form) and the truncated Novikov ring Λ = Q[u]/(u^m),
u = T^(1/den), where m counts the powers T^(k/den) below a rational cutoff.
An element holds ``terms``, {k: nonzero Fraction} with int keys 0 <= k < m.
``NovikovRing.elem`` is the one place that reads a T-exponent and checks that
it lies in (1/den)*Z_{>=0}; arithmetic adds int powers and never re-checks,
and other modules read an element's (k, c) pairs through ``u_terms``.
Λ is a chain ring, so elimination over it needs three primitives, which
also read ``terms`` here: ``valuation`` (the least power of u),
``divide_by_u`` (exact division by u^k, an exponent shift) and
``unit_inverse`` (1/w for w of valuation 0, a truncated power series).

A scalar of either ring is zero exactly when it is falsy: ints and
Fractions as usual, and a NovikovElem when it has no term left (a product
truncated away entirely is falsy too).  Code that stores scalars tests
zero with ``not x``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import RingMismatch
from .linalg import accumulate, add_into

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


def format_rational(q) -> str:
    """The printed form of a rational: 'p' when it is integral, else
    'p/q'; an int is printed as it is, with no Fraction built."""
    if type(q) is int:
        return str(q)
    q = as_fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class NovikovRing:
    """Truncated Novikov ring parameters: exponent denominator and cutoff.

    Exponents live in (1/den)*Z_{>=0} and are kept strictly below ``cutoff``,
    so m = ``truncation_order`` = ceil(den*cutoff) powers of u survive.
    """

    den: int
    cutoff: Fraction
    truncation_order: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (isinstance(self.den, int) and self.den >= 1):
            raise ValueError("den must be a positive integer")
        object.__setattr__(self, "cutoff", as_fraction(self.cutoff))
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")
        c = self.cutoff * self.den
        object.__setattr__(self, "truncation_order",
                           -((-c.numerator) // c.denominator))  # ceil

    def zero(self) -> "NovikovElem":
        return self.elem({})

    def one(self) -> "NovikovElem":
        return self.scalar(1)

    def scalar(self, c) -> "NovikovElem":
        return self.elem({0: c})

    def T(self, exponent, coeff=1) -> "NovikovElem":
        return self.elem({exponent: coeff})

    def elem(self, terms) -> "NovikovElem":
        """The element sum c*T^a over a mapping a -> c; terms at or above
        the cutoff are dropped, and any other a must lie in (1/den)*Z_{>=0}."""
        out = {}
        for a, c in dict(terms).items():
            a, c = as_fraction(a), as_fraction(c)
            if not c or a >= self.cutoff:
                continue
            k = a * self.den
            if a < 0 or k.denominator != 1:
                raise ValueError(f"exponent {a} not in (1/{self.den})Z_{{>=0}}")
            out[k.numerator] = c
        return NovikovElem(self, out)


class NovikovElem:
    """Element sum c*u^k of a truncated Novikov ring, terms {k: c}; the
    constructor only stores them (``NovikovRing.elem`` reads T-exponents)."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: NovikovRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def _check_ring(self, other: "NovikovElem"):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.scalar(other)
        self._check_ring(other)
        return NovikovElem(self.ring, add_into(dict(self.terms), other.terms))

    __radd__ = __add__

    def __neg__(self):
        return NovikovElem(self.ring, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return NovikovElem(self.ring, add_into({}, self.terms, other))
        self._check_ring(other)
        m = self.ring.truncation_order
        terms = {}
        for a, c in self.terms.items():
            for b, d in other.terms.items():
                if a + b < m:
                    accumulate(terms, a + b, c * d)
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


def u_terms(x):
    """The (k, c) pairs of a scalar x = sum c*u^k; a plain rational, as
    identity and sign matrices hold, is c*u^0."""
    if isinstance(x, NovikovElem):
        return x.terms.items()
    return ((0, Fraction(x)),)


def valuation(x) -> int:
    """The least power of u in a nonzero scalar x = sum c*u^k; a plain
    rational is c*u^0."""
    return min(x.terms) if isinstance(x, NovikovElem) else 0


def divide_by_u(x, k: int):
    """x / u^k for a scalar x that u^k divides (x zero or k <= valuation(x)):
    each term c*u^j becomes c*u^(j-k).  Any other x is a ValueError."""
    if not k or not x:
        return x
    if valuation(x) < k:
        raise ValueError(f"u^{k} does not divide {x}")
    return NovikovElem(x.ring, {j - k: c for j, c in x.terms.items()})


def unit_inverse(x):
    """1/x for a scalar x of valuation 0: the power series of 1/x cut
    below u^m, whose coefficients b satisfy sum_k x_k b_(n-k) = 0, n > 0."""
    if not isinstance(x, NovikovElem):
        return 1 / Fraction(x)
    if 0 not in x.terms:
        raise ValueError(f"{x} is not a unit")
    inv0 = 1 / x.terms[0]
    rest = [(k, c) for k, c in x.terms.items() if k]
    b = {0: inv0}
    if rest:
        for n in range(1, x.ring.truncation_order):
            s = sum(c * b[n - k] for k, c in rest if n - k in b)
            if s:
                b[n] = -s * inv0
    return NovikovElem(x.ring, b)


def format_novikov(x: NovikovElem) -> str:
    if not x.terms:
        return "0"
    parts = []
    for k in sorted(x.terms):
        c = format_rational(x.terms[k])
        parts.append(f"{c}*T^({format_rational(Fraction(k, x.ring.den))})"
                     if k else c)
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
