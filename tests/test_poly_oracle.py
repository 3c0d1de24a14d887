"""Integer-coefficient `Poly` arithmetic against its all-Fraction oracle.

`FractionPoly`, `oracle_poisson_bracket` and `FractionPoly.compose` are the
earlier implementation of involutive.Poly, its bracket and its
substitution, with every coefficient a Fraction.  The package now stores
an integral coefficient as an int and any other as a Fraction with
denominator > 1; every result must equal the oracle's, stay in that form,
and print byte for byte as the oracle's does.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descentlab.errors import InputError, ShapeMismatch
from descentlab.involutive import (Poly, default_names, format_poly,
                                   parse_poly, poisson_bracket)

# ---------------------------------------------------------------------------
# the oracle


def _accumulate(acc, key, c):
    cur = acc.get(key, Fraction(0)) + c
    if cur:
        acc[key] = cur
    else:
        acc.pop(key, None)


class FractionPoly:
    """Multivariate polynomial over the rationals, Fraction coefficients."""

    def __init__(self, nvars, terms=None):
        self.nvars = int(nvars)
        clean = {}
        for exps, c in (terms or {}).items():
            c = Fraction(c)
            if not c:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.nvars or any(e < 0 for e in exps):
                raise InputError(f"bad exponent vector {exps!r}")
            clean[exps] = c
        self.terms = clean

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    def __eq__(self, other):
        return type(other) is type(self) and self.nvars == other.nvars \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            _accumulate(out, k, c)
        return FractionPoly(self.nvars, out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return FractionPoly(self.nvars,
                            {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                _accumulate(out, tuple(a + b for a, b in zip(e1, e2)),
                            c1 * c2)
        return FractionPoly(self.nvars, out)

    def __pow__(self, k):
        out = FractionPoly.const(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    def diff(self, i):
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                de = list(e)
                de[i] -= 1
                out[tuple(de)] = c * e[i]
        return FractionPoly(self.nvars, out)

    def compose(self, args):
        nv = args[0].nvars
        out = FractionPoly(nv)
        for e, c in self.terms.items():
            prod = FractionPoly.const(nv, c)
            for i, k in enumerate(e):
                if k:
                    prod = prod * args[i] ** k
            out = out + prod
        return out

    def __call__(self, point):
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v *= Fraction(x) ** k
            total += v
        return total


def oracle_poisson_bracket(f, g):
    n = f.nvars // 2
    out = FractionPoly(f.nvars)
    for i in range(n):
        out = out + f.diff(i) * g.diff(n + i) - f.diff(n + i) * g.diff(i)
    return out


# ---------------------------------------------------------------------------
# the comparison


def agree(got, want):
    """got (a Poly) equals want (a FractionPoly), is canonical, and
    prints as want does."""
    assert type(got) is Poly and got.nvars == want.nvars
    assert got.terms == want.terms
    for c in got.terms.values():
        assert (type(c) is int and c != 0) or (
            type(c) is Fraction and c.denominator > 1), repr(c)
    assert hash(got) == hash(want)
    names = default_names(got.nvars)
    assert format_poly(got, names) == format_poly(want, names)


ints = st.integers(-6, 6)
rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
COEFFICIENTS = {"int": ints, "rational": rationals,
                "mixed": st.one_of(ints, rationals)}
scalars = st.sampled_from([0, 1, -1]) | ints | rationals


@st.composite
def pairs(draw, nvars, max_exp=2, max_terms=5):
    """The same terms as a Poly and as a FractionPoly; the coefficients all
    integers, all rationals, or both mixed in one polynomial."""
    coeffs = COEFFICIENTS[draw(st.sampled_from(sorted(COEFFICIENTS)))]
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, max_exp)] * nvars), coeffs,
        max_size=max_terms))
    return Poly(nvars, terms), FractionPoly(nvars, terms)


nvars_even = st.sampled_from([2, 4])


@settings(max_examples=200, deadline=None)
@given(nvars_even.flatmap(lambda n: st.tuples(pairs(n), pairs(n))),
       scalars, st.integers(0, 3), st.data())
def test_ring_operations_agree(fg, c, k, data):
    (f, f0), (g, g0) = fg
    agree(f, f0)
    agree(f + g, f0 + g0)
    agree(f - g, f0 - g0)
    agree(f - f, f0 - f0)
    agree(-f, -f0)
    agree(f.scale(c), f0.scale(c))
    agree(f * g, f0 * g0)
    agree(f ** k, f0 ** k)
    i = data.draw(st.integers(0, f.nvars - 1))
    agree(f.diff(i), f0.diff(i))
    agree(poisson_bracket(f, g), oracle_poisson_bracket(f0, g0))
    agree(poisson_bracket(f, f), oracle_poisson_bracket(f0, f0))
    # Fraction arithmetic that can come out integral
    agree(f.scale(Fraction(1, 2)) * g.scale(2),
          f0.scale(Fraction(1, 2)) * g0.scale(2))
    agree(f.scale(c) + f.scale(c), f0.scale(c) + f0.scale(c))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2, 3]).flatmap(
    lambda k: st.tuples(pairs(k), st.lists(pairs(2, max_terms=3),
                                           min_size=k, max_size=k))))
def test_compose_agrees(drawn):
    (f, f0), args = drawn
    agree(f.compose([a for a, _ in args]), f0.compose([a0 for _, a0 in args]))


@settings(max_examples=200, deadline=None)
@given(nvars_even.flatmap(lambda n: st.tuples(
    pairs(n, max_exp=4), st.lists(ints | rationals, min_size=n,
                                  max_size=n))))
def test_evaluation_agrees(drawn):
    (f, f0), point = drawn
    got, want = f(point), f0(point)
    assert got == want and type(got) is type(want)


@settings(max_examples=200, deadline=None)
@given(nvars_even.flatmap(lambda n: st.tuples(pairs(n), pairs(n))),
       scalars)
def test_equality_and_hash_agree(fg, c):
    (f, f0), (g, g0) = fg
    assert (f == g) == (f0 == g0)
    assert (hash(f) == hash(g)) >= (f == g)
    # the same value reached two ways, through Fractions or not
    left, right = f.scale(c) * g, (f * g).scale(c)
    assert left == right and hash(left) == hash(right)
    assert Poly(f.nvars, {e: Fraction(v) for e, v in f.terms.items()}) == f


@settings(max_examples=200, deadline=None)
@given(nvars_even.flatmap(pairs))
def test_parse_format_roundtrip(pair):
    f, f0 = pair
    names = default_names(f.nvars)
    text = format_poly(f, names)
    back = parse_poly(text, names)
    agree(back, f0)
    assert format_poly(back, names) == text


def test_guards_are_kept():
    f = Poly(2, {(1, 0): 1})
    with pytest.raises(InputError):
        f ** (-1)
    with pytest.raises(ShapeMismatch):
        f.compose([f])
    with pytest.raises(ShapeMismatch):
        f((1,))
    with pytest.raises(ShapeMismatch):
        f + Poly(3)
