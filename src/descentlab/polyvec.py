"""Polynomial multivector fields with exact coefficients.

Elements live in Q[x_1..x_n] (Laurent exponents allowed) tensored with an
exterior algebra on odd generators xi_1..xi_n, xi_i standing for d/dx_i.
A monomial is keyed by (exponent tuple, strictly increasing tuple of odd
indices); coefficients are Fractions.  The odd degree of a monomial is the
number of xi factors.
"""

from fractions import Fraction

from .errors import AxiomFailure, ShapeMismatch


def _merge_odd(xs, ys):
    """Merge two increasing index tuples; (sign, merged) or None on overlap."""
    out = []
    sign = 1
    i, j = 0, 0
    while i < len(xs) and j < len(ys):
        if xs[i] == ys[j]:
            return None
        if xs[i] < ys[j]:
            out.append(xs[i])
            i += 1
        else:
            # ys[j] jumps over the remaining xs entries
            if (len(xs) - i) % 2:
                sign = -sign
            out.append(ys[j])
            j += 1
    out.extend(xs[i:])
    out.extend(ys[j:])
    return sign, tuple(out)


class Polyvector:
    """A finite Q-combination of monomials x^a xi_I."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for (exps, xis), c in terms.items():
                c = Fraction(c)
                if c == 0:
                    continue
                if len(exps) != nvars:
                    raise ShapeMismatch(f"exponent tuple {exps} wants {nvars} slots")
                key = (tuple(exps), tuple(xis))
                got = self.terms.get(key)
                tot = c if got is None else got + c
                if tot == 0:
                    self.terms.pop(key, None)
                else:
                    self.terms[key] = tot

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def monomial(cls, nvars, exps, xis=(), coeff=1):
        return cls(nvars, {(tuple(exps), tuple(sorted(xis))): Fraction(coeff)})

    @classmethod
    def const(cls, nvars, c):
        return cls.monomial(nvars, (0,) * nvars, (), c)

    @classmethod
    def var(cls, nvars, i):
        exps = [0] * nvars
        exps[i] = 1
        return cls.monomial(nvars, exps)

    @classmethod
    def xi(cls, nvars, i):
        return cls.monomial(nvars, (0,) * nvars, (i,))

    # -- structure --------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, Polyvector) and self.nvars == other.nvars \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def components(self):
        """Split by odd degree: {k: homogeneous part}."""
        out = {}
        for (exps, xis), c in self.terms.items():
            k = len(xis)
            out.setdefault(k, {})[(exps, xis)] = c
        return {k: Polyvector(self.nvars, t) for k, t in sorted(out.items())}

    def odd_degree(self):
        """The common odd degree, or None if mixed or zero."""
        degs = {len(xis) for (_, xis) in self.terms}
        return degs.pop() if len(degs) == 1 else None

    # -- linear ops -------------------------------------------------------
    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            tot = out.get(key, 0) + c
            if tot == 0:
                out.pop(key, None)
            else:
                out[key] = tot
        return Polyvector(self.nvars, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return Polyvector(self.nvars,
                          {k: v * c for k, v in self.terms.items()})

    # -- multiplication ---------------------------------------------------
    def wedge(self, other):
        if self.nvars != other.nvars:
            raise ShapeMismatch("wedge across different variable counts")
        out = {}
        for (e1, x1), c1 in self.terms.items():
            for (e2, x2), c2 in other.terms.items():
                merged = _merge_odd(x1, x2)
                if merged is None:
                    continue
                sign, xs = merged
                key = (tuple(a + b for a, b in zip(e1, e2)), xs)
                tot = out.get(key, 0) + sign * c1 * c2
                if tot == 0:
                    out.pop(key, None)
                else:
                    out[key] = tot
        return Polyvector(self.nvars, out)

    __mul__ = wedge

    # -- derivatives ------------------------------------------------------
    def x_diff(self, i):
        out = {}
        for (exps, xis), c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            ne = list(exps)
            ne[i] = e - 1
            out[(tuple(ne), xis)] = c * e
        return Polyvector(self.nvars, out)

    def xi_diff(self, i):
        """Left derivative with respect to xi_i."""
        out = {}
        for (exps, xis), c in self.terms.items():
            if i not in xis:
                continue
            pos = xis.index(i)
            sign = -1 if pos % 2 else 1
            nx = xis[:pos] + xis[pos + 1:]
            out[(exps, nx)] = c * sign
        return Polyvector(self.nvars, out)

    def __repr__(self):
        return f"Polyvector({self.nvars}, {format_polyvector(self)!r})"


def format_polyvector(P: Polyvector) -> str:
    if P.is_zero():
        return "0"
    bits = []
    for (exps, xis), c in sorted(P.terms.items(),
                                 key=lambda kv: (len(kv[0][1]), kv[0])):
        factors = []
        if c != 1 or (not any(exps) and not xis):
            factors.append(str(c))
        for i, e in enumerate(exps):
            if e == 0:
                continue
            factors.append(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}")
        for i in xis:
            factors.append(f"xi{i + 1}")
        bits.append("*".join(factors))
    return " + ".join(bits)


# ---------------------------------------------------------------------------
# the odd Laplacian and its bracket


def bv_delta(P: Polyvector) -> Polyvector:
    """Sum over i of d/dx_i applied after the left derivative d/dxi_i."""
    out = Polyvector.zero(P.nvars)
    for i in range(P.nvars):
        out = out + P.xi_diff(i).x_diff(i)
    return out


def bracket_from_delta(delta):
    """The odd bracket measuring the failure of delta to be a derivation."""

    def bracket(a: Polyvector, b: Polyvector) -> Polyvector:
        out = Polyvector.zero(a.nvars)
        for k, part in a.components().items():
            defect = delta(part.wedge(b)) - delta(part).wedge(b) \
                - part.wedge(delta(b)).scale((-1) ** k)
            out = out + defect.scale((-1) ** (k + 1))
        return out

    return bracket


bv_bracket = bracket_from_delta(bv_delta)


# ---------------------------------------------------------------------------
# independent recursion for the same bracket
#
# Characterized by: zero on pairs of functions, the action of vector fields
# on functions, the Lie bracket of vector fields, the graded Leibniz rule in
# the second slot, and graded antisymmetry.  No odd Laplacian involved.


def _lie_vv(e1, i, c1, e2, j, c2, nvars):
    """[c1 x^e1 xi_i, c2 x^e2 xi_j] as vector fields."""
    a = Polyvector.monomial(nvars, e1, (), c1)
    b = Polyvector.monomial(nvars, e2, (), c2)
    first = a.wedge(b.x_diff(i)).wedge(Polyvector.xi(nvars, j))
    second = b.wedge(a.x_diff(j)).wedge(Polyvector.xi(nvars, i))
    return first - second


def _oracle_mono(nvars, key_a, c_a, key_b, c_b) -> Polyvector:
    """Bracket of two monomials, by structural recursion.

    The second argument is peeled as B = (g xi_j) ^ (xi_rest) and the graded
    Leibniz rule applied; a first argument that is not a vector field is
    moved to the second slot by graded antisymmetry first.  Bases: functions
    commute, and vector fields act on functions and on each other.
    """
    (ea, xa), (eb, xb) = key_a, key_b
    p, q = len(xa), len(xb)
    zero_e = (0,) * nvars
    if p == 0 and q == 0:
        return Polyvector.zero(nvars)
    if p == 0:
        if q == 1:
            # [f, g xi_j] = -(g xi_j)(f)
            f = Polyvector.monomial(nvars, ea, (), c_a)
            g = Polyvector.monomial(nvars, eb, (), c_b)
            return g.wedge(f.x_diff(xb[0])).scale(-1)
    elif p >= 2 and q <= 1:
        flipped = _oracle_mono(nvars, key_b, c_b, key_a, c_a)
        sign = -1 if ((p - 1) * (q - 1)) % 2 == 0 else 1
        return flipped.scale(sign)
    elif p == 1 and q == 0:
        f = Polyvector.monomial(nvars, ea, (), c_a)
        g = Polyvector.monomial(nvars, eb, (), c_b)
        return f.wedge(g.x_diff(xa[0]))
    elif p == 1 and q >= 1:
        head = _lie_vv(ea, xa[0], c_a, eb, xb[0], c_b, nvars)
        rest = _oracle_mono(nvars, key_a, c_a, (zero_e, xb[1:]), 1)
        return head.wedge(Polyvector.monomial(nvars, zero_e, xb[1:])) + \
            Polyvector.monomial(nvars, eb, (xb[0],), c_b).wedge(rest)
    # remaining shapes peel the second argument: B1 = g xi_{j0}, B2 = xi_rest
    left = _oracle_mono(nvars, key_a, c_a, (eb, (xb[0],)), c_b) \
        .wedge(Polyvector.monomial(nvars, zero_e, xb[1:]))
    lsign = -1 if (p - 1) % 2 else 1
    rest = _oracle_mono(nvars, key_a, c_a, (zero_e, xb[1:]), 1)
    right = Polyvector.monomial(nvars, eb, (xb[0],), c_b).wedge(rest)
    return left + right.scale(lsign)


def schouten_oracle(a: Polyvector, b: Polyvector) -> Polyvector:
    """Bilinear extension of the recursion to arbitrary elements."""
    if a.nvars != b.nvars:
        raise ShapeMismatch("bracket across different variable counts")
    out = Polyvector.zero(a.nvars)
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            out = out + _oracle_mono(a.nvars, ka, ca, kb, cb)
    return out


# ---------------------------------------------------------------------------
# axiom battery


def _all_monomials(nvars, max_degree, lo=0):
    """Monomials with polynomial degree (sum of nonnegative parts) bounded."""
    exps_list = [()]
    for _ in range(nvars):
        exps_list = [e + (k,) for e in exps_list
                     for k in range(lo, max_degree + 1)]
    exps_list = [e for e in exps_list
                 if sum(max(k, 0) for k in e) <= max_degree]
    odd_sets = [()]
    for i in range(nvars):
        odd_sets.extend([s + (i,) for s in odd_sets])
    out = []
    for e in exps_list:
        for s in odd_sets:
            out.append(Polyvector.monomial(nvars, e, tuple(sorted(s))))
    return out


def bv_axiom_check(nvars=2, max_degree=3, delta=None, jacobi=True):
    """Exhaustively verify the operator-and-bracket axioms on monomials.

    Checks, in order: the operator squares to zero; the derived bracket is
    graded antisymmetric; it satisfies the graded Leibniz rule in the second
    slot; the operator is a derivation of its own bracket; and (optionally)
    the graded Jacobi identity.  Multilinearity makes monomial instances
    sufficient — delta must be linear, which also lets pair brackets be
    memoized on unit monomials.  Raises AxiomFailure with a witness on the
    first violation; returns the number of instances checked.
    """
    if delta is None:
        delta = bv_delta
    bracket = bracket_from_delta(delta)
    zero = Polyvector.zero(nvars)
    cache = {}

    def mono_bracket(ka, kb) -> Polyvector:
        got = cache.get((ka, kb))
        if got is None:
            got = bracket(Polyvector.monomial(nvars, *ka),
                          Polyvector.monomial(nvars, *kb))
            cache[(ka, kb)] = got
        return got

    def pv_bracket(a: Polyvector, b: Polyvector) -> Polyvector:
        out = zero
        for ka, ca in a.terms.items():
            for kb, cb in b.terms.items():
                out = out + mono_bracket(ka, kb).scale(ca * cb)
        return out

    monos = _all_monomials(nvars, max_degree)
    checked = 0
    for a in monos:
        if not delta(delta(a)).is_zero():
            raise AxiomFailure(witness=("square", format_polyvector(a)))
        checked += 1
    degs = {id(m): m.odd_degree() for m in monos}
    for a in monos:
        p = degs[id(a)]
        for b in monos:
            q = degs[id(b)]
            ab = pv_bracket(a, b)
            ba = pv_bracket(b, a)
            if not (ab + ba.scale((-1) ** ((p - 1) * (q - 1)))).is_zero():
                raise AxiomFailure(witness=("antisymmetry",
                                            format_polyvector(a),
                                            format_polyvector(b)))
            lhs = delta(ab)
            rhs = pv_bracket(delta(a), b) + \
                pv_bracket(a, delta(b)).scale((-1) ** (p - 1))
            if lhs != rhs:
                raise AxiomFailure(witness=("operator-derivation",
                                            format_polyvector(a),
                                            format_polyvector(b)))
            checked += 2
    for a in monos:
        p = degs[id(a)]
        for b in monos:
            q = degs[id(b)]
            ab = pv_bracket(a, b)
            for c in monos:
                lhs = pv_bracket(a, b.wedge(c))
                rhs = ab.wedge(c) + b.wedge(pv_bracket(a, c)).scale(
                    (-1) ** ((p - 1) * q))
                if lhs != rhs:
                    raise AxiomFailure(witness=("leibniz",
                                                format_polyvector(a),
                                                format_polyvector(b),
                                                format_polyvector(c)))
                checked += 1
                if jacobi:
                    jl = pv_bracket(a, pv_bracket(b, c))
                    jr = pv_bracket(ab, c) + \
                        pv_bracket(b, pv_bracket(a, c)).scale(
                            (-1) ** ((p - 1) * (q - 1)))
                    if jl != jr:
                        raise AxiomFailure(witness=("jacobi",
                                                    format_polyvector(a),
                                                    format_polyvector(b),
                                                    format_polyvector(c)))
                    checked += 1
    return checked
