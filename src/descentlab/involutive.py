"""Poisson brackets, bracket-compatible composition, and smoothed covers.

Functions on a standard symplectic space are exact polynomials in the
position/momentum variables.  Cover sets cut out by sign conditions on such
functions get smooth replacements built from a hyperbola smoothing of the
coordinate cross; each smoothed value is an exact algebraic number in
integer normal form (A + B*sqrt(D)) / (Q*sqrt(2)), so every sign decision
and comparison in the checkers is made on ints, without floating point.
"""

import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add

from .errors import (BadSequence, HypothesisFailure, InputError,
                     LemmaViolation, ShapeMismatch)
from .linalg import accumulate, add_into
from .polyvec import Monomials

INTERSECTION = "intersection"
UNION = "union"


# ---------------------------------------------------------------------------
# exact polynomials


def _coefficient(c):
    """c in the one form a Poly stores: an int when integral, else a
    Fraction with denominator > 1."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _whole(terms):
    """Turn each integral Fraction among the values of terms into an int,
    in place (Fraction sums and products can come out whole); returns
    terms."""
    for k, c in terms.items():
        if type(c) is Fraction and c.denominator == 1:
            terms[k] = c.numerator
    return terms


def _mul_into(out, t1, t2, sign=1):
    """out += sign * t1 * t2 on monomial dicts, one entry per product;
    returns out, whose values may include whole Fractions."""
    for e1, c1 in t1.items():
        if sign < 0:
            c1 = -c1
        for e2, c2 in t2.items():
            accumulate(out, tuple(map(add, e1, e2)), c1 * c2)
    return out


def _diff(terms, i):
    """The monomial dict of d/dx_i; values may include whole Fractions."""
    out = {}
    for e, c in terms.items():
        k = e[i]
        if k:
            out[e[:i] + (k - 1,) + e[i + 1:]] = c * k
    return out


class Poly(Monomials):
    """Multivariate polynomial over the rationals, sparse monomial dict.

    Each coefficient is an int when it is integral and a Fraction with
    denominator > 1 otherwise; the constructor brings its terms to that
    form once, and the arithmetic keeps it, turning a Fraction result that
    comes out whole back into an int."""

    __slots__ = ()

    def __init__(self, nvars, terms=None):
        self.nvars = int(nvars)
        clean = {}
        for exps, c in (terms or {}).items():
            c = _coefficient(c)
            if not c:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.nvars or any(e < 0 for e in exps):
                raise InputError(f"bad exponent vector {exps!r}")
            clean[exps] = c
        self.terms = clean

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, nvars, i):
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): 1})

    def __add__(self, other):
        self._check(other)
        return self._trusted(
            self.nvars, _whole(add_into(dict(self.terms), other.terms)))

    def scale(self, c):
        c = _coefficient(c)
        if c == 1:
            return self
        if not c:
            return Poly.zero(self.nvars)
        return self._trusted(
            self.nvars, _whole({k: v * c for k, v in self.terms.items()}))

    def __mul__(self, other):
        self._check(other)
        return self._trusted(
            self.nvars, _whole(_mul_into({}, self.terms, other.terms)))

    def __pow__(self, k):
        if k < 0:
            raise InputError("negative power of a polynomial")
        if not k:
            return Poly.const(self.nvars, 1)
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def diff(self, i):
        return self._trusted(self.nvars, _whole(_diff(self.terms, i)))

    def compose(self, args):
        """Substitute args[i] (all in a common variable set) for variable i."""
        if len(args) != self.nvars:
            raise ShapeMismatch(
                f"need {self.nvars} substitutions, got {len(args)}")
        nv = args[0].nvars
        for a in args:
            args[0]._check(a)
        one = (0,) * nv
        # powers[i][k] = args[i] ** k, each built once per call
        powers = [[{one: 1}] for _ in args]
        out = {}
        for e, c in self.terms.items():
            prod = {one: c}
            for i, k in enumerate(e):
                if k:
                    pw = powers[i]
                    while len(pw) <= k:
                        pw.append(_mul_into({}, pw[-1], args[i].terms))
                    prod = _mul_into({}, prod, pw[k])
            add_into(out, prod)
        return Poly._trusted(nv, _whole(out))

    def __call__(self, point):
        if len(point) != self.nvars:
            raise ShapeMismatch("evaluation point has the wrong length")
        # powers[i][k] = x_i ** k, each coordinate converted once
        powers = [[1, Fraction(x)] for x in point]
        total = Fraction(0)
        for e, c in self.terms.items():
            for pw, k in zip(powers, e):
                if k:
                    while len(pw) <= k:
                        pw.append(pw[-1] * pw[1])
                    c *= pw[k]
            total += c
        return total

    def __repr__(self):
        return f"Poly({self.nvars}, {format_poly(self)!r})"


def default_names(nvars):
    return [f"x{i + 1}" for i in range(nvars)]


def symplectic_names(npairs):
    """Position then momentum variables: q1..qn, p1..pn."""
    return ([f"q{i + 1}" for i in range(npairs)]
            + [f"p{i + 1}" for i in range(npairs)])


def format_poly(p, names=None):
    names = names or default_names(p.nvars)
    if len(names) != p.nvars:
        raise InputError("one name per variable required")
    if not p.terms:
        return "0"
    order = sorted(p.terms, key=lambda e: (-sum(e), tuple(-x for x in e)))
    chunks = []
    for e in order:
        c = p.terms[e]
        factors = []
        for name, k in zip(names, e):
            if k == 1:
                factors.append(name)
            elif k:
                factors.append(f"{name}^{k}")
        mag = abs(c)
        if not factors or mag != 1:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(chunks)


# the largest exponent, and the largest degree of a product, that parse_poly
# accepts: evaluation and every later product grow with the degree, so a
# covers-check input of degree 10^8 would not finish in minutes
_EXPONENT_CAP = 10_000

_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[A-Za-z_][A-Za-z0-9_]*|\^|\*|\+|\-)")


def parse_poly(text, names):
    """Parse sums of '*'-joined factors; factors are rationals or name[^k]."""
    index = {n: i for i, n in enumerate(names)}
    nvars = len(names)
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise InputError(f"cannot tokenize {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    if not tokens:
        raise InputError("empty polynomial text")

    cursor = 0

    def peek():
        return tokens[cursor] if cursor < len(tokens) else None

    def take():
        nonlocal cursor
        tok = peek()
        cursor += 1
        return tok

    def factor():
        """The next factor as (coefficient, variable index, exponent); a
        constant is (c, 0, 0)."""
        tok = take()
        if tok is None:
            raise InputError("truncated polynomial text")
        if tok[0].isdigit():
            try:
                return Fraction(tok), 0, 0
            except ZeroDivisionError:
                raise InputError(f"zero denominator in {tok!r}") from None
        if tok not in index:
            raise InputError(f"unknown variable {tok!r}")
        if peek() != "^":
            return 1, index[tok], 1
        take()
        exp = take()
        if exp is None or not exp.isdigit():
            raise InputError("exponent must be a nonnegative integer")
        if int(exp) > _EXPONENT_CAP:
            raise InputError(f"exponent {exp} is over the cap {_EXPONENT_CAP}")
        return 1, index[tok], int(exp)

    def term():
        """A '*'-joined product, which is one monomial: its exponents are
        summed as the factors are read and its degree refused once it passes
        the cap, so no power or product of polynomials is ever taken."""
        coeff, exps, degree = Fraction(1), [0] * nvars, 0
        while True:
            c, i, k = factor()
            coeff *= c
            if k:
                degree += k
                if degree > _EXPONENT_CAP:
                    raise InputError(f"a product of degree {degree} is over "
                                     f"the cap {_EXPONENT_CAP}")
                exps[i] += k
            if peek() != "*":
                return Poly(nvars, {tuple(exps): coeff})
            take()

    sign = 1
    if peek() in ("+", "-"):
        sign = -1 if take() == "-" else 1
    total = term().scale(sign)
    while peek() is not None:
        op = take()
        if op not in ("+", "-"):
            raise InputError(f"expected + or - at {op!r}")
        total = total + term().scale(-1 if op == "-" else 1)
    return total


# ---------------------------------------------------------------------------
# Poisson bracket and the composition property


def poisson_bracket(f, g):
    """Canonical bracket: variables split into positions then momenta."""
    f._check(g)
    if f.nvars % 2:
        raise ShapeMismatch("symplectic variables come in pairs")
    n = f.nvars // 2
    out = {}
    for i in range(n):
        _mul_into(out, _diff(f.terms, i), _diff(g.terms, n + i))
        _mul_into(out, _diff(f.terms, n + i), _diff(g.terms, i), -1)
    return Poly._trusted(f.nvars, _whole(out))


def check_composition_lemma(fs, g1, g2):
    """Pairwise-commuting fs stay commuting after substitution into g1, g2.

    Verifies {f_i, f_j} = 0 symbolically (HypothesisFailure otherwise),
    forms G_l = g_l(f_1, ..., f_N), and asserts {G_1, G_2} = 0 exactly.
    A violation at the second stage would be a bug in the bracket or in
    substitution, so it raises LemmaViolation rather than returning.
    """
    fs = list(fs)
    if not fs:
        raise InputError("need at least one inner function")
    for f in fs:
        fs[0]._check(f)
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            br = poisson_bracket(fs[i], fs[j])
            if not br.is_zero():
                raise HypothesisFailure((i, j, format_poly(br)))
    if g1.nvars != len(fs) or g2.nvars != len(fs):
        raise ShapeMismatch("outer functions must take one slot per inner one")
    G1 = g1.compose(fs)
    G2 = g2.compose(fs)
    br = poisson_bracket(G1, G2)
    if not br.is_zero():
        raise LemmaViolation(format_poly(br))
    return True


# ---------------------------------------------------------------------------
# exact values of the form (A + B*sqrt(D)) / (Q*sqrt(2)) on integers


def _sgn(x):
    return (x > 0) - (x < 0)


def _two_term_sign(a, b, d):
    """Sign of a + b*sqrt(d) for ints, d not a perfect square or b zero."""
    if a == 0:
        return _sgn(b)
    if _sgn(a) == _sgn(b):
        return _sgn(a)
    return _sgn(a) if a * a > b * b * d else _sgn(b)


class AlgebraicValue:
    """The exact number (A + B*sqrt(D)) / (Q*sqrt(2)), held as four ints.

    Q > 0, and D is zero or not a perfect square (a rational root is
    folded into A), with B zero exactly when D is.  Instances compare
    exactly: the sign of a + b*sqrt(d1) + c*sqrt(d2) is settled on
    integers by squaring once, and adding a rational multiple of sqrt(2)
    stays in the representation — all the smoothing calculus needs.  The
    Fraction views a, b and disc give the number as (a + b*sqrt(disc)) /
    sqrt(2) with b in {-1, 0, 1}; the three-Fraction form this replaced
    is the oracle of tests/test_involutive_oracle.py.
    """

    __slots__ = ("_A", "_B", "_D", "_Q")

    def __new__(cls, a, b=0, disc=0):
        a, b, disc = Fraction(a), Fraction(b), Fraction(disc)
        if disc < 0:
            raise InputError("negative discriminant")
        # b*sqrt(u/v) = b*sqrt(u*v)/v
        v = disc.denominator
        return cls._normal(a.numerator * b.denominator * v,
                           b.numerator * a.denominator, disc.numerator * v,
                           a.denominator * b.denominator * v)

    @classmethod
    def _normal(cls, A, B, D, Q):
        """(A + B*sqrt(D)) / (Q*sqrt(2)), a rational sqrt(D) folded into A."""
        root = math.isqrt(D)
        if root * root == D or not B:
            A, B, D = A + B * root, 0, 0
        v = object.__new__(cls)
        v._A, v._B, v._D, v._Q = A, B, D, Q
        return v

    @classmethod
    def from_rational(cls, r):
        r = r if isinstance(r, (int, Fraction)) else Fraction(r)
        # r = n*sqrt(2) / (d*sqrt(2))
        return cls._normal(0, r.numerator, 2, r.denominator)

    a = property(lambda self: Fraction(self._A, self._Q))
    b = property(lambda self: Fraction(_sgn(self._B)))
    disc = property(lambda self: Fraction(self._B * self._B * self._D,
                                          self._Q * self._Q))

    def plus_sqrt2(self, s):
        """This value plus s*sqrt(2), exactly (s a Fraction or int)."""
        n, d = s.numerator, s.denominator
        return AlgebraicValue._normal(self._A * d + 2 * n * self._Q,
                                      self._B * d, self._D, self._Q * d)

    def sign(self):
        return _two_term_sign(self._A, self._B, self._D)

    def _cmp(self, other):
        if not isinstance(other, AlgebraicValue):
            other = AlgebraicValue.from_rational(other)
        # the sign of the difference times Q1*Q2 > 0
        q1, q2 = self._Q, other._Q
        A = self._A * q2 - other._A * q1
        B, d1 = self._B * q2, self._D
        C, d2 = -other._B * q1, other._D
        if not C or d1 == d2:       # at most one surd
            return _two_term_sign(A, B + C, d1)
        if not B:
            return _two_term_sign(A, C, d2)
        # the sign of u = B*sqrt(d1) + C*sqrt(d2): when the signs of B and C
        # differ, the term with the larger square wins
        bb, cc = B * B * d1, C * C * d2
        su = _sgn(B) if _sgn(B) == _sgn(C) else _sgn(bb - cc) * _sgn(B)
        sa = _sgn(A)
        if not sa or sa == su:
            return su
        # A and u have opposite signs: compare A^2 with
        # u^2 = B^2 d1 + C^2 d2 + 2BC sqrt(d1 d2)
        r, s, d = A * A - bb - cc, -2 * B * C, d1 * d2
        root = math.isqrt(d)
        return sa * (_sgn(r + s * root) if root * root == d
                     else _two_term_sign(r, s, d))

    def __eq__(self, other):
        return self._cmp(other) == 0

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    __hash__ = None

    def __float__(self):
        # each int quotient rounds once, as float() of the Fraction view does
        B, Q = self._B, self._Q
        return ((self._A / Q + _sgn(B) * math.sqrt(B * B * self._D / (Q * Q)))
                / math.sqrt(2.0))

    def __repr__(self):
        return f"AlgebraicValue({self.a}, {self.b}, {self.disc})"


# ---------------------------------------------------------------------------
# hyperbola smoothing of sign-cut regions


@dataclass(frozen=True)
class SmoothingCurve:
    """One hyperbola level set used to smooth a quadrant corner."""

    delta: Fraction
    mode: str = INTERSECTION

    def __post_init__(self):
        object.__setattr__(self, "delta", Fraction(self.delta))
        if self.delta <= 0:
            raise InputError("smoothing parameter must be positive")
        if self.mode not in (INTERSECTION, UNION):
            raise InputError(f"unknown mode {self.mode!r}")


def smoothing_h(curve, x, y):
    """Signed slope-1 distance from (x, y) to the smoothing hyperbola.

    Closed form ((x+y) +/- sqrt((x-y)^2 + 4*delta)) / sqrt(2): plus for
    the intersection-corner branch (negative quadrant), minus for the
    union-corner branch (positive quadrant).  Negative exactly on the
    smoothed region, zero exactly on the curve.  With L the common
    denominator of x and y and delta = n/m, Q = L*m clears every fraction.
    """
    xd, yd = x.denominator, y.denominator
    L = xd * yd // math.gcd(xd, yd)
    X, Y = x.numerator * (L // xd), y.numerator * (L // yd)
    n, m = curve.delta.numerator, curve.delta.denominator
    return AlgebraicValue._normal(
        (X + Y) * m, 1 if curve.mode == INTERSECTION else -1,
        ((X - Y) ** 2 * m + 4 * n * L * L) * m, L * m)


def region_sign(curve, x, y):
    """Expected sign of smoothing_h from the raw region description."""
    xn, yn = x.numerator, y.numerator
    outside = 1 if curve.mode == INTERSECTION else -1
    if outside * xn >= 0 or outside * yn >= 0:   # off the corner's quadrant
        return outside
    # x*y - delta, times the positive denominators
    gap = (xn * yn * curve.delta.denominator
           - curve.delta.numerator * x.denominator * y.denominator)
    return outside if gap < 0 else -outside * _sgn(gap)


@dataclass(frozen=True)
class CoverFunction:
    """Smoothed replacement g = h_delta(f1, f2) for one cover stage."""

    f1: Poly
    f2: Poly
    curve: SmoothingCurve

    def __call__(self, point):
        return smoothing_h(self.curve, self.f1(point), self.f2(point))


def _broadcast(fs, count, label):
    if isinstance(fs, Poly):
        return [fs] * count
    fs = list(fs)
    if len(fs) != count:
        raise InputError(f"{label}: need one function per smoothing parameter")
    return fs


def check_delta_sequence(deltas):
    deltas = [Fraction(d) for d in deltas]
    if any(d <= 0 for d in deltas):
        raise BadSequence("smoothing parameters must be positive")
    if any(a <= b for a, b in zip(deltas, deltas[1:])):
        raise BadSequence("smoothing parameters must strictly decrease")
    return deltas


def build_cover_functions(f1_seq, f2_seq, mode, delta_seq):
    """Per-stage smoothed functions g_i = h_{delta_i}(f1_i, f2_i).

    A single polynomial in either slot is reused for every stage.  The
    smoothing parameters must be positive and strictly decreasing.
    """
    deltas = check_delta_sequence(delta_seq)
    f1s = _broadcast(f1_seq, len(deltas), "first slot")
    f2s = _broadcast(f2_seq, len(deltas), "second slot")
    return [CoverFunction(f1, f2, SmoothingCurve(d, mode))
            for f1, f2, d in zip(f1s, f2s, deltas)]


# ---------------------------------------------------------------------------
# grid-sampled checkers


def grid_points(ranges):
    """Cartesian product of rational ranges [(lo, hi, step), ...]."""
    axes = []
    for lo, hi, step in ranges:
        lo, hi, step = Fraction(lo), Fraction(hi), Fraction(step)
        if step <= 0 or hi < lo:
            raise InputError("ranges need lo <= hi and positive step")
        axis = []
        x = lo
        while x <= hi:
            axis.append(x)
            x += step
        axes.append(axis)
    return [tuple(p) for p in itertools.product(*axes)]


def _point_repr(point):
    return [str(Fraction(x)) for x in point]


@dataclass
class WeakCoverReport:
    """Outcome of sampling the sign bullets for a candidate weak cover."""

    ok: bool
    violations: list
    bracket_checked: bool


def check_weak_cover_conditions(f_seqs, grid, predicates):
    """Sample the defining bullets of a weak cover candidate.

    For each set m with membership predicate predicates[m] and function
    sequence f_seqs[m], checks on every grid point that (a) members make
    every stage negative, (b) stages strictly increase, (c) all-stages-
    negative points are members; and symbolically that same-stage
    functions of different sets Poisson-commute (skipped unless every
    entry is a Poly).  Violations are reported with witnesses; nothing
    raises.
    """
    f_seqs = [list(seq) for seq in f_seqs]
    if len(predicates) != len(f_seqs):
        raise InputError("one membership predicate per function sequence")
    grid = list(grid)
    violations = []

    for m, seq in enumerate(f_seqs):
        for point in grid:
            values = [f(point) for f in seq]
            member = predicates[m](point)
            if member:
                for i, v in enumerate(values):
                    if not v < 0:
                        violations.append({
                            "bullet": "negative-on-set", "set": m,
                            "index": i, "point": _point_repr(point),
                            "value": str(v)})
            for i in range(len(values) - 1):
                if not values[i] < values[i + 1]:
                    violations.append({
                        "bullet": "strictly-increasing", "set": m,
                        "index": i, "point": _point_repr(point)})
            if values and all(v < 0 for v in values) and not member:
                violations.append({
                    "bullet": "captures-set", "set": m,
                    "point": _point_repr(point)})

    bracket_checked = all(isinstance(f, Poly)
                          for seq in f_seqs for f in seq)
    if bracket_checked and len(f_seqs) > 1:
        depth = min(len(seq) for seq in f_seqs)
        for i in range(depth):
            for m in range(len(f_seqs)):
                for m2 in range(m + 1, len(f_seqs)):
                    br = poisson_bracket(f_seqs[m][i], f_seqs[m2][i])
                    if not br.is_zero():
                        violations.append({
                            "bullet": "bracket", "sets": [m, m2],
                            "index": i, "value": format_poly(br)})

    return WeakCoverReport(ok=not violations, violations=violations,
                           bracket_checked=bracket_checked)


@dataclass
class MonotonicityReport:
    """Exact stage-monotonicity of smoothed functions, with the
    parameter bound each step imposes on the next smoothing level."""

    ok: bool
    violations: list
    step_bounds: list = field(default_factory=list)


def cover_monotonicity_report(cover_fns, grid):
    """Check g_i < g_{i+1} exactly on the grid.

    Shrinking the smoothing parameter pulls an intersection smoothing
    down and a union smoothing up, so strict growth of the inputs does
    not decide the matter by itself.  Alongside exact pass/fail this
    reports, per step, the binding constraint the sampled points place
    on the next parameter: a floor for intersections, a ceiling for
    unions (floating point, diagnostic only).
    """
    cover_fns = list(cover_fns)
    grid = list(grid)
    violations = []
    step_bounds = []
    # each stage's (f1, f2) and g once per point, for the exact check and
    # the bound
    inputs = [[(g.f1(point), g.f2(point)) for point in grid] for g in cover_fns]
    values = [[smoothing_h(g.curve, x, y) for x, y in col]
              for g, col in zip(cover_fns, inputs)]
    for i in range(len(cover_fns) - 1):
        gi = cover_fns[i]
        mode = gi.curve.mode
        delta = float(gi.curve.delta)
        bound = None
        for point, (x, y), (x2, y2), left, right in zip(
                grid, inputs[i], inputs[i + 1], values[i], values[i + 1]):
            if not left < right:
                violations.append({
                    "step": i, "point": _point_repr(point),
                    "left": float(left), "right": float(right)})
            u, v, u2, v2 = float(x), float(y), float(x2), float(y2)
            root = math.sqrt((u - v) ** 2 + 4.0 * delta)
            if mode == INTERSECTION:
                reach = (u + v) - (u2 + v2) + root
                if reach > 0:
                    need = (reach ** 2 - (u2 - v2) ** 2) / 4.0
                    bound = need if bound is None else max(bound, need)
            else:
                reach = (u2 + v2) - (u + v) + root
                if reach > 0:
                    allow = (reach ** 2 - (u2 - v2) ** 2) / 4.0
                    bound = allow if bound is None else min(bound, allow)
        step_bounds.append({
            "step": i,
            "kind": "min_next_delta" if mode == INTERSECTION
            else "max_next_delta",
            "value": bound})
    return MonotonicityReport(ok=not violations, violations=violations,
                              step_bounds=step_bounds)
