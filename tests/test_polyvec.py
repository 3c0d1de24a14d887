"""Polynomial multivector fields, the odd Laplacian, and its bracket."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descentlab.errors import AxiomFailure, ShapeMismatch
from descentlab.involutive import Poly
from descentlab.polyvec import (Polyvector, _all_monomials, bv_axiom_check,
                                bv_bracket, bv_delta, bracket_from_delta,
                                format_polyvector, schouten_oracle)
from descentlab.simplex import PolyForm


def pv_const(nvars, c):
    """The constant polyvector c in nvars variables."""
    return Polyvector.monomial(nvars, (0,) * nvars, (), c)


def pv_var(nvars, i):
    """The coordinate x_(i+1) as a polyvector in nvars variables."""
    return Polyvector.monomial(nvars, tuple(int(k == i) for k in range(nvars)))


N = 2
X1, X2 = pv_var(N, 0), pv_var(N, 1)
XI1, XI2 = Polyvector.xi(N, 0), Polyvector.xi(N, 1)
ONE = pv_const(N, 1)


def pv(terms):
    return Polyvector(N, {(tuple(e), tuple(x)): Fraction(c)
                          for (e, x), c in terms.items()})


def odd_degree(P):
    """The common odd degree of P's terms, or None if mixed or zero."""
    degs = {len(xis) for (_, xis) in P.terms}
    return degs.pop() if len(degs) == 1 else None


def xi_diff(P, i):
    """Left derivative of P with respect to xi_i."""
    out = {}
    for (exps, xis), c in P.terms.items():
        if i in xis:
            pos = xis.index(i)
            out[(exps, xis[:pos] + xis[pos + 1:])] = -c if pos % 2 else c
    return Polyvector(P.nvars, out)


@st.composite
def polyvectors(draw, max_terms=3, lo=-2, hi=2, odd=None):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        exps = tuple(draw(st.integers(lo, hi)) for _ in range(N))
        if odd is None:
            xis = tuple(sorted(draw(st.sets(st.integers(0, N - 1)))))
        else:
            xis = tuple(sorted(draw(st.sets(st.integers(0, N - 1),
                                            min_size=odd, max_size=odd))))
        terms[(exps, xis)] = draw(st.integers(-3, 3))
    return Polyvector(N, {k: Fraction(c) for k, c in terms.items() if c})


# ---------------------------------------------------------------------------
# algebra structure


def test_wedge_odd_generators_anticommute():
    assert XI1 * XI2 == -(XI2 * XI1)
    assert (XI1 * XI1).is_zero()


def test_wedge_even_variables_commute():
    assert X1 * X2 == X2 * X1
    assert X1 * XI1 == XI1 * X1


@settings(max_examples=40, deadline=None)
@given(polyvectors(), polyvectors(), polyvectors())
def test_wedge_associative_and_distributive(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_components_split_by_odd_degree():
    mixed = X1 + X1 * XI1 + XI1 * XI2
    parts = mixed.components()
    assert set(parts) == {0, 1, 2}
    assert parts[1] == X1 * XI1
    assert sum(parts.values(), Polyvector.zero(N)) == mixed


def test_nvars_mismatch_rejected():
    for op in (Polyvector.wedge, Polyvector.__add__, Polyvector.__sub__):
        with pytest.raises(ShapeMismatch):
            op(X1, pv_var(3, 0))


def test_format_examples():
    assert format_polyvector(Polyvector.zero(N)) == "0"
    assert format_polyvector(X1 * X1 * X2 * XI2.scale(3)) == "3*x1^2*x2*xi2"
    assert format_polyvector(ONE.scale(-2)) == "-2"


# ---------------------------------------------------------------------------
# derivatives


def test_x_diff_product_rule_and_laurent():
    f = X1 * X1 * X2
    assert f.x_diff(0) == X1 * X2.scale(2)
    inv = Polyvector.monomial(N, (-1, 0))
    assert inv.x_diff(0) == Polyvector.monomial(N, (-2, 0), (), -1)
    assert ONE.x_diff(0).is_zero()


def test_xi_diff_left_signs():
    w = XI1 * XI2
    assert xi_diff(w, 0) == XI2
    assert xi_diff(w, 1) == -XI1
    assert xi_diff(X1, 0).is_zero()


@settings(max_examples=40, deadline=None)
@given(polyvectors(), polyvectors())
def test_x_diff_is_a_derivation(a, b):
    lhs = (a * b).x_diff(0)
    assert lhs == a.x_diff(0) * b + a * b.x_diff(0)


# ---------------------------------------------------------------------------
# the odd Laplacian


def test_delta_fixed_example():
    assert bv_delta(X1 * X2 * XI1 * XI2) == X2 * XI2 - X1 * XI1


def test_delta_kills_functions_and_squares_to_zero():
    assert bv_delta(X1 * X1 * X2).is_zero()
    probe = (X1 * XI1 + X2 * X2 * XI2) * (ONE + XI1 * XI2.scale(3))
    assert bv_delta(bv_delta(probe)).is_zero()


@settings(max_examples=60, deadline=None)
@given(polyvectors(max_terms=4))
def test_delta_square_zero(a):
    assert bv_delta(bv_delta(a)).is_zero()


# ---------------------------------------------------------------------------
# the derived bracket against the structural recursion


def test_bracket_fixed_examples():
    assert bv_bracket(XI1, X1) == ONE
    assert bv_bracket(XI1, XI2).is_zero()
    assert bv_bracket(X1, X2).is_zero()
    # vector fields bracket to their commutator: [x1 d2, x2 d1]
    a, b = X1 * XI2, X2 * XI1
    assert bv_bracket(a, b) == X1 * XI1 - X2 * XI2


def test_bracket_acts_as_vector_field_on_functions():
    v = X1 * X2 * XI1
    f = X1 * X1
    assert bv_bracket(v, f) == X1 * X1 * X2.scale(2)


def test_oracle_matches_bracket_exhaustively_small():
    from descentlab.polyvec import _all_monomials
    monos = _all_monomials(N, 2)
    for a in monos:
        for b in monos:
            assert bv_bracket(a, b) == schouten_oracle(a, b), \
                (format_polyvector(a), format_polyvector(b))


@settings(max_examples=80, deadline=None)
@given(polyvectors(), polyvectors())
def test_oracle_matches_bracket_laurent(a, b):
    assert bv_bracket(a, b) == schouten_oracle(a, b)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.data())
def test_bracket_graded_antisymmetry(p, q, data):
    a = data.draw(polyvectors(odd=p))
    b = data.draw(polyvectors(odd=q))
    sign = (-1) ** ((p - 1) * (q - 1))
    assert bv_bracket(a, b) == bv_bracket(b, a).scale(-sign)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.data())
def test_bracket_graded_jacobi(p, q, data):
    a = data.draw(polyvectors(odd=p))
    b = data.draw(polyvectors(odd=q))
    c = data.draw(polyvectors())
    sign = (-1) ** ((p - 1) * (q - 1))
    lhs = bv_bracket(a, bv_bracket(b, c))
    rhs = bv_bracket(bv_bracket(a, b), c) + \
        bv_bracket(b, bv_bracket(a, c)).scale(sign)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# the axiom battery


def test_axiom_check_passes_and_counts():
    n = bv_axiom_check(nvars=2, max_degree=2)
    assert n > 10_000


def test_axiom_check_catches_even_derivation():
    def fake(P):
        return bv_delta(P) + P.x_diff(0)
    with pytest.raises(AxiomFailure) as exc:
        bv_axiom_check(nvars=2, max_degree=2, delta=fake)
    assert exc.value.witness[0] == "square"


def test_even_derivation_witness():
    with pytest.raises(AxiomFailure) as exc:
        bv_axiom_check(nvars=2, max_degree=2, delta=even_derivation)
    assert exc.value.witness == ("square", "x1*x2*xi2")


def test_axiom_check_catches_non_second_order():
    # odd multiplication squares to zero but is first order: the Leibniz
    # rule for its derived bracket must fail
    def fake(P):
        return Polyvector.xi(P.nvars, 0).wedge(P)
    with pytest.raises(AxiomFailure) as exc:
        bv_axiom_check(nvars=2, max_degree=2, delta=fake)
    assert exc.value.witness[0] == "leibniz"


def test_odd_multiplication_witness():
    with pytest.raises(AxiomFailure) as exc:
        bv_axiom_check(nvars=2, max_degree=2, delta=odd_multiplication)
    assert exc.value.witness == ("leibniz", "1", "1", "1")


def test_rescaled_operator_still_satisfies_axioms():
    # doubling the operator doubles the bracket consistently; every axiom
    # is homogeneous, so this must pass
    def doubled(P):
        return bv_delta(P).scale(2)
    assert bv_axiom_check(nvars=2, max_degree=1, delta=doubled) > 0


def test_bracket_from_delta_on_three_variables():
    b3 = bracket_from_delta(bv_delta)
    x3 = pv_var(3, 2)
    xi3 = Polyvector.xi(3, 2)
    assert b3(xi3, x3) == pv_const(3, 1)


# ---------------------------------------------------------------------------
# the integer-table sweep against the Polyvector sweep it replaced


def even_derivation(P):
    return bv_delta(P) + P.x_diff(0)


def odd_multiplication(P):
    return Polyvector.xi(P.nvars, 0).wedge(P)


def doubled(P):
    return bv_delta(P).scale(2)


def halved(P):
    return bv_delta(P).scale(Fraction(1, 2))


def xi_laplacian(P):
    # even and second order: the derived bracket is not antisymmetric
    return xi_diff(xi_diff(P, 0), 1)


# The sweep as it was written on validated Polyvectors, kept verbatim as the
# reference: one bracket per pair of terms, a new Polyvector per operation.
def polyvector_sweep(nvars=2, max_degree=3, delta=None, jacobi=True):
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
    degs = {id(m): odd_degree(m) for m in monos}
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


def outcome(sweep, nvars, max_degree, delta=None):
    """The count, or the witness of the first failure."""
    try:
        return sweep(nvars, max_degree, delta=delta)
    except AxiomFailure as exc:
        return exc.witness


@pytest.mark.parametrize("nvars,max_degree", [(1, 3), (2, 1), (2, 2), (3, 1)])
def test_sweep_matches_polyvector_sweep(nvars, max_degree):
    want = polyvector_sweep(nvars, max_degree)
    assert isinstance(want, int)
    assert bv_axiom_check(nvars, max_degree) == want


@pytest.mark.parametrize("delta", [even_derivation, odd_multiplication,
                                   doubled, halved, xi_laplacian])
def test_sweep_matches_polyvector_sweep_on_other_operators(delta):
    assert outcome(bv_axiom_check, 2, 2, delta) == \
        outcome(polyvector_sweep, 2, 2, delta)


def test_sweep_witness_on_even_operator():
    with pytest.raises(AxiomFailure) as exc:
        bv_axiom_check(nvars=2, max_degree=2, delta=xi_laplacian)
    assert exc.value.witness == ("antisymmetry", "xi1", "xi1*xi2")


def test_sweep_calls_delta_once_per_monomial():
    seen = []

    def counting(P):
        [(key, coeff)] = P.terms.items()
        assert coeff == 1
        seen.append(key)
        return bv_delta(P)

    assert bv_axiom_check(2, 2, delta=counting) == 28824
    assert len(seen) == len(set(seen))


# ---------------------------------------------------------------------------
# results built without re-validation are canonical


def random_polyvector(rng, nvars=N, max_terms=4):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = tuple(rng.randrange(-2, 3) for _ in range(nvars))
        xis = tuple(i for i in range(nvars) if rng.random() < 0.5)
        terms[(exps, xis)] = rng.choice([-3, -2, -1, 1, 2, 3])
    return Polyvector(nvars, terms)


def assert_canonical(P):
    """P is what the validating constructor makes of its own terms."""
    assert P.terms == Polyvector(P.nvars, dict(P.terms)).terms
    assert all(type(c) is Fraction and c != 0 for c in P.terms.values())


def test_arithmetic_results_are_canonical():
    rng = random.Random(29)
    for _ in range(60):
        a, b = random_polyvector(rng), random_polyvector(rng)
        c = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        i = rng.randrange(N)
        results = [a + b, a - b, a - a, -a, a.scale(c), a.scale(0),
                   a.scale(1), a * b, a * a, a.x_diff(i), xi_diff(a, i),
                   bv_delta(a), bv_delta(a * b), bv_bracket(a, b),
                   *a.components().values()]
        for P in results:
            assert_canonical(P)
    assert a.scale(1) is a


def test_constructor_still_validates():
    with pytest.raises(ShapeMismatch):
        Polyvector(2, {((0,), ()): 1})
    assert Polyvector(2, {((0, 1), ()): 0}).is_zero()


# ---------------------------------------------------------------------------
# the linear structure Poly, Polyvector and PolyForm share, in 3 variables


def random_monomials(kind, rng):
    """A random value of kind over 3 variables: a Poly, a Polyvector in
    x_1..x_3, or a PolyForm on the 2-simplex (t_0..t_2 with dt_1, dt_2)."""
    terms = {}
    for _ in range(rng.randrange(1, 5)):
        exps = tuple(rng.randrange(3) for _ in range(3))
        odd = tuple(i for i in range(3) if rng.random() < 0.4)
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        if kind is Poly:
            terms[exps] = c
        elif kind is Polyvector:
            terms[(exps, odd)] = c
        else:
            terms[(exps, tuple(i for i in odd if i))] = Fraction(c)
    return PolyForm(2, terms) if kind is PolyForm else kind(3, terms)


@pytest.mark.parametrize("kind", [Poly, Polyvector, PolyForm],
                         ids=lambda kind: kind.__name__)
def test_shared_linear_structure(kind):
    rng = random.Random(31)
    for _ in range(40):
        a, b, c = (random_monomials(kind, rng) for _ in range(3))
        q, r = (Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                for _ in range(2))
        zero = a.scale(0)
        assert type(zero) is kind and zero.nvars == 3 and zero.is_zero()
        assert (a + b) + c == a + (b + c) and a + b == b + a
        assert a + zero == a and (a - a).is_zero() and -(-a) == a
        assert a - b == a + -b == a + b.scale(-1)
        assert (a + b).scale(q) == a.scale(q) + b.scale(q)
        assert a.scale(q).scale(r) == a.scale(q * r)
        assert a.scale(q) + a.scale(r) == a.scale(q + r)
        # equal values hash equal, whatever order their terms were added in
        assert (a + b) - b == a and hash((a + b) - b) == hash(a)
        assert hash(a + b) == hash(b + a)
        assert all(type(x) is kind for x in (a + b, a - b, -a, a.scale(q)))


@pytest.mark.parametrize("left,right", [(PolyForm, Polyvector),
                                        (Polyvector, PolyForm),
                                        (Poly, Polyvector), (Polyvector, Poly)],
                         ids=["PolyForm+Polyvector", "Polyvector+PolyForm",
                              "Poly+Polyvector", "Polyvector+Poly"])
def test_sums_across_kinds_are_shape_mismatches(left, right):
    # PolyForm(2, ...) and the others all have nvars 3: only the kind differs
    rng = random.Random(37)
    a, b = random_monomials(left, rng), random_monomials(right, rng)
    assert a != b
    for op in (lambda: a + b, lambda: a - b):
        with pytest.raises(ShapeMismatch):
            op()
