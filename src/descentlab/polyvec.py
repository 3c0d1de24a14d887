"""Polynomial multivector fields with exact coefficients.

Elements live in Q[x_1..x_n] (Laurent exponents allowed) tensored with an
exterior algebra on odd generators xi_1..xi_n, xi_i standing for d/dx_i.
A monomial is keyed by (exponent tuple, strictly increasing tuple of odd
indices); coefficients are Fractions.  The odd degree of a monomial is the
number of xi factors.  `Monomials` holds the linear structure of a sparse
monomial dict; `simplex.PolyForm` shares it with Fraction coefficients, and
`involutive.Poly` with ints where a coefficient is integral.
"""

from fractions import Fraction

from .errors import AxiomFailure, ShapeMismatch
from .linalg import accumulate, add_into, whole


def _merge_odd(xs, ys):
    """Merge two increasing tuples of odd indices: (Koszul sign, merged
    tuple), or None when they overlap and the product vanishes.  Both the
    Polyvector and the PolyForm wedge use it."""
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


class Monomials:
    """A finite Q-combination of monomials in nvars variables: terms is a
    dict {monomial key: nonzero rational coefficient}.  The linear structure
    lives here, on Fraction coefficients; a subclass fixes what a key is and
    how two of them multiply, and `involutive.Poly`, which stores integral
    coefficients as ints, overrides `+` and `scale` (so `-` too) to keep
    that form.
    Values of different subclasses, or over different variable counts,
    never mix."""

    __slots__ = ("nvars", "terms")

    @classmethod
    def _trusted(cls, nvars, terms):
        """Wrap terms the arithmetic already made canonical: keys of the
        right shape, coefficients in the subclass's form (Fractions, or for
        `involutive.Poly` ints and non-integral Fractions), none of them
        zero."""
        self = object.__new__(cls)
        self.nvars = nvars
        self.terms = terms
        return self

    @classmethod
    def zero(cls, nvars):
        return cls._trusted(nvars, {})

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if type(other) is not type(self) or other.nvars != self.nvars:
            raise ShapeMismatch(f"{type(self).__name__} in {self.nvars} variables "
                                f"against {type(other).__name__}")

    def __eq__(self, other):
        return type(other) is type(self) and self.nvars == other.nvars \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        self._check(other)
        return self._trusted(self.nvars, add_into(dict(self.terms), other.terms))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        if c == 1:
            return self
        if not c:   # not self.zero: PolyForm.zero takes p, not nvars
            return self._trusted(self.nvars, {})
        return self._trusted(self.nvars, {k: v * c for k, v in self.terms.items()})


class Polyvector(Monomials):
    """A finite Q-combination of monomials x^a xi_I."""

    __slots__ = ()

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for (exps, xis), c in terms.items():
                c = Fraction(c)
                if not c:
                    continue
                if len(exps) != nvars:
                    raise ShapeMismatch(f"exponent tuple {exps} wants {nvars} slots")
                accumulate(self.terms, (tuple(exps), tuple(xis)), c)

    # -- constructors -----------------------------------------------------
    @classmethod
    def monomial(cls, nvars, exps, xis=(), coeff=1):
        return cls(nvars, {(tuple(exps), tuple(sorted(xis))): Fraction(coeff)})

    @classmethod
    def xi(cls, nvars, i):
        return cls.monomial(nvars, (0,) * nvars, (i,))

    # -- structure --------------------------------------------------------
    def components(self):
        """Split by odd degree: {k: homogeneous part}."""
        out = {}
        for (exps, xis), c in self.terms.items():
            k = len(xis)
            out.setdefault(k, {})[(exps, xis)] = c
        return {k: self._trusted(self.nvars, t) for k, t in sorted(out.items())}

    # -- multiplication ---------------------------------------------------
    def wedge(self, other):
        self._check(other)
        out = {}
        for (e1, x1), c1 in self.terms.items():
            for (e2, x2), c2 in other.terms.items():
                merged = _merge_odd(x1, x2)
                if merged is None:
                    continue
                sign, xs = merged
                key = (tuple(a + b for a, b in zip(e1, e2)), xs)
                accumulate(out, key, sign * c1 * c2)
        return self._trusted(self.nvars, out)

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
        return Polyvector._trusted(self.nvars, out)

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
    out = {}
    for (exps, xis), c in P.terms.items():
        for pos, i in enumerate(xis):
            e = exps[i]
            if e == 0:
                continue
            ne = list(exps)
            ne[i] = e - 1
            key = (tuple(ne), xis[:pos] + xis[pos + 1:])
            accumulate(out, key, -c * e if pos % 2 else c * e)
    return Polyvector._trusted(P.nvars, out)


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


def _all_monomials(nvars, max_degree):
    """Monomials with nonnegative exponents and polynomial degree at most
    max_degree."""
    exps_list = [()]
    for _ in range(nvars):
        exps_list = [e + (k,) for e in exps_list for k in range(max_degree + 1)]
    exps_list = [e for e in exps_list if sum(e) <= max_degree]
    odd_sets = [()]
    for i in range(nvars):
        odd_sets.extend([s + (i,) for s in odd_sets])
    out = []
    for e in exps_list:
        for s in odd_sets:
            out.append(Polyvector.monomial(nvars, e, tuple(sorted(s))))
    return out


def _sign(n):
    """(-1) ** n as an int, for any integer n."""
    return -1 if n % 2 else 1


def bv_axiom_check(nvars=2, max_degree=3, delta=None, jacobi=True):
    """Exhaustively verify the operator-and-bracket axioms on monomials.

    Checks, in order: the operator squares to zero; the derived bracket is
    graded antisymmetric; it satisfies the graded Leibniz rule in the second
    slot; the operator is a derivation of its own bracket; and (optionally)
    the graded Jacobi identity.  Multilinearity makes monomial instances
    sufficient; delta must be linear.  Raises AxiomFailure with a witness on
    the first violation; returns the number of instances checked.

    The sweep works on dicts {monomial key: coefficient}.  The odd Laplacian
    and the wedge have integer structure constants on monomials, so the
    coefficients are ints, and a Fraction appears only where delta itself
    has a non-integer one.  Three tables keyed on monomial keys carry the
    work: delta of each key (delta is called once per distinct key), the
    wedge of two keys as (sign, key) or None, and the derived bracket of two
    keys.  The tables belong to one call and are dropped with it, so no
    state is shared between calls or between deltas.
    """
    if delta is None:
        delta = bv_delta
    deltas, wedges, brackets = {}, {}, {}

    def d_key(key):
        got = deltas.get(key)
        if got is None:
            image = delta(Polyvector.monomial(nvars, *key)).terms
            got = deltas[key] = {k: whole(c) for k, c in image.items()}
        return got

    def w_key(ka, kb):
        try:
            return wedges[ka, kb]
        except KeyError:
            merged = _merge_odd(ka[1], kb[1])
            got = wedges[ka, kb] = None if merged is None else (
                merged[0], (tuple(a + b for a, b in zip(ka[0], kb[0])),
                            merged[1]))
            return got

    def wedge(left, right, c=1, out=None):
        """out + c * left ^ right (a new dict when out is None)."""
        out = {} if out is None else out
        for ka, ca in left.items():
            for kb, cb in right.items():
                w = w_key(ka, kb)
                if w is not None:
                    key = w[1]
                    tot = out.get(key, 0) + c * w[0] * ca * cb
                    if tot:
                        out[key] = tot
                    else:
                        out.pop(key, None)
        return out

    def b_key(ka, kb):
        # bracket_from_delta on two monomials, k = |a|:
        # (-1)^(k+1) (delta(a b) - delta(a) b) + a delta(b)
        try:
            return brackets[ka, kb]
        except KeyError:
            sign = _sign(len(ka[1]) + 1)
            out = wedge({ka: 1}, d_key(kb))
            wedge(d_key(ka), {kb: 1}, -sign, out)
            w = w_key(ka, kb)
            if w is not None:
                add_into(out, d_key(w[1]), sign * w[0])
            brackets[ka, kb] = out
            return out

    def bracket(left, right, c=1, out=None):
        """out + c * [left, right] (a new dict when out is None)."""
        out = {} if out is None else out
        for ka, ca in left.items():
            for kb, cb in right.items():
                add_into(out, b_key(ka, kb), c * ca * cb)
        return out

    def delta_of(terms):
        out = {}
        for key, c in terms.items():
            add_into(out, d_key(key), c)
        return out

    monos = _all_monomials(nvars, max_degree)
    # (key, the monomial as an int-coefficient dict, the Polyvector)
    sweep = [(key, {key: 1}, m) for m in monos for key in m.terms]
    checked = 0
    for _, a1, a in sweep:
        if delta_of(delta_of(a1)):
            raise AxiomFailure(witness=("square", format_polyvector(a)))
        checked += 1
    for ka, a1, a in sweep:
        p = len(ka[1])
        for kb, b1, b in sweep:
            q = len(kb[1])
            ab = b_key(ka, kb)
            flip = -_sign((p - 1) * (q - 1))
            if ab != {k: flip * v for k, v in b_key(kb, ka).items()}:
                raise AxiomFailure(witness=("antisymmetry",
                                            format_polyvector(a),
                                            format_polyvector(b)))
            rhs = bracket(a1, delta_of(b1), _sign(p - 1))
            if delta_of(ab) != bracket(delta_of(a1), b1, 1, rhs):
                raise AxiomFailure(witness=("operator-derivation",
                                            format_polyvector(a),
                                            format_polyvector(b)))
            checked += 2
    for ka, a1, a in sweep:
        p = len(ka[1])
        for kb, b1, b in sweep:
            q = len(kb[1])
            ab = b_key(ka, kb)
            leibniz_sign = _sign((p - 1) * q)
            jacobi_sign = _sign((p - 1) * (q - 1))
            for kc, c1, c in sweep:
                ac = b_key(ka, kc)
                bc = w_key(kb, kc)
                lhs = {} if bc is None else b_key(ka, bc[1])
                if bc is not None and bc[0] < 0:
                    lhs = {k: -v for k, v in lhs.items()}
                rhs = wedge(b1, ac, leibniz_sign, wedge(ab, c1))
                if lhs != rhs:
                    raise AxiomFailure(witness=("leibniz",
                                                format_polyvector(a),
                                                format_polyvector(b),
                                                format_polyvector(c)))
                checked += 1
                if jacobi:
                    jr = bracket(b1, ac, jacobi_sign, bracket(ab, c1))
                    if bracket(a1, b_key(kb, kc)) != jr:
                        raise AxiomFailure(witness=("jacobi",
                                                    format_polyvector(a),
                                                    format_polyvector(b),
                                                    format_polyvector(c)))
                    checked += 1
    return checked
