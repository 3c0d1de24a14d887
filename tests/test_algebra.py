"""Cup products, forms-side products, and the projective-line cover."""

import random
from fractions import Fraction

import pytest

from descentlab import fixtures as fx
from descentlab.algebra import (cech_cup, graph_product,
                                p1_chart_operator_discrepancy,
                                p1_polyvector_presheaf, p1_slice_ranks,
                                point_product, product_homology_agreement,
                                tw_include, tw_product)
from descentlab.complexes import betti_numbers, single
from descentlab.errors import InputError, ShapeMismatch
from descentlab.presheaf import cech, tw


def nz(b):
    return {k: v for k, v in b.items() if v}


def vadd(a, b, s=1):
    out = dict(a)
    for k, v in b.items():
        w = out.get(k, 0) + s * v
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return out


@pytest.fixture(scope="module")
def circle_cup():
    F = fx.triangle_three_edge_presheaf()
    return F, cech(F), graph_product(F)


def graph_unit(F, J):
    """The unit of graph_product on F(J): 1 on every vertex."""
    return {i: Fraction(1) for i in range(len(F.value(J).labels[0]))}


def cech_unit(C):
    """The degree-0 cocycle whose level-0 components are the graph_product
    units."""
    out = {}
    for p, J, off, _ in C.blocks(0):
        if p == 0:
            for i, v in graph_unit(C.F, J).items():
                out[off + i] = v
    return out


def tw_unit(W):
    """The degree-0 element: constant function 1 tensor the graph_product
    units."""
    nerve = W.nerve
    return W.unit_tensor(0, [
        {nerve.pos(0, J, loc): v
         for J in js for loc, v in graph_unit(W.F, J).items()}
        for p, js in enumerate(nerve.level_subsets)])


def rand_cochain(rng, C, n, density=0.7):
    vec = {i: Fraction(rng.randrange(-3, 4)) for i in range(C.cx.dim(n))
           if rng.random() < density}
    return {k: v for k, v in vec.items() if v}


# ---------------------------------------------------------------------------
# cup product on the Cech side


def test_cup_unit_is_closed_two_sided(circle_cup):
    F, C, gp = circle_cup
    rng = random.Random(1)
    u = cech_unit(C)
    assert not C.cx.d(0).matvec(u)
    for n in (0, 1):
        x = rand_cochain(rng, C, n)
        assert cech_cup(C, gp, 0, u, n, x) == x
        assert cech_cup(C, gp, n, x, 0, u) == x


def test_cup_leibniz(circle_cup):
    F, C, gp = circle_cup
    rng = random.Random(2)
    for n1 in (0, 1):
        for n2 in (0, 1):
            for _ in range(6):
                x = rand_cochain(rng, C, n1)
                y = rand_cochain(rng, C, n2)
                lhs = C.cx.d(n1 + n2).matvec(cech_cup(C, gp, n1, x, n2, y))
                dx = C.cx.d(n1).matvec(x)
                dy = C.cx.d(n2).matvec(y)
                rhs = vadd(cech_cup(C, gp, n1 + 1, dx, n2, y),
                           cech_cup(C, gp, n1, x, n2 + 1, dy),
                           -1 if n1 % 2 else 1)
                assert lhs == rhs


def test_cup_associative(circle_cup):
    F, C, gp = circle_cup
    rng = random.Random(3)
    for _ in range(10):
        d1, d2, d3 = (rng.choice([0, 1]) for _ in range(3))
        x, y, z = (rand_cochain(rng, C, d) for d in (d1, d2, d3))
        left = cech_cup(C, gp, d1 + d2, cech_cup(C, gp, d1, x, d2, y), d3, z)
        right = cech_cup(C, gp, d1, x, d2 + d3, cech_cup(C, gp, d2, y, d3, z))
        assert left == right


def test_cup_noncommutativity_witness():
    # indicator of the first piece times the overlap generator is the
    # generator; the other order evaluates the indicator at the second
    # piece, where it vanishes
    F = fx.constant_presheaf(2, single("Q", 0, 1))
    C = cech(F)
    pp = point_product(F)
    x = C.inject(0, (1,), {0: Fraction(1)})
    y = C.inject(1, (1, 2), {0: Fraction(1)})
    assert cech_cup(C, pp, 0, x, 1, y) == C.inject(1, (1, 2), {0: Fraction(1)})
    assert cech_cup(C, pp, 1, y, 0, x) == {}


# ---------------------------------------------------------------------------
# product on the forms totalization


@pytest.fixture(scope="module")
def arc_tower():
    F = fx.triangle_two_arc_presheaf()
    return F, graph_product(F), tw(F, 2), tw(F, 4)


def test_tw_include_is_chain_map(arc_tower):
    F, gp, W2, W4 = arc_tower
    inc = tw_include(W2, W4)
    inc.validate()
    with pytest.raises(ShapeMismatch):
        tw_include(W4, W2)


def test_tw_product_cutoff_guard(arc_tower):
    F, gp, W2, W4 = arc_tower
    with pytest.raises(ShapeMismatch):
        tw_product(W2, W2, gp, 0, {}, 0, {})


def test_tw_unit_law(arc_tower):
    F, gp, W2, W4 = arc_tower
    u = tw_unit(W2)
    assert not W2.cx.d(0).matvec(u)
    inc = tw_include(W2, W4)
    for n in W2.cx.degrees():
        for j in range(W2.cx.dim(n)):
            x = {j: Fraction(1)}
            expected = inc.mat(n).matvec(x)
            assert tw_product(W2, W4, gp, 0, u, n, x) == expected
            assert tw_product(W2, W4, gp, n, x, 0, u) == expected


def test_tw_product_graded_commutative_for_commutative_values():
    F = fx.constant_presheaf(2, single("Q", 0, 1))
    pp = point_product(F)
    W, Wbig = tw(F, 2), tw(F, 4)
    rng = random.Random(5)
    for n1 in W.cx.degrees():
        for n2 in W.cx.degrees():
            for _ in range(4):
                x = {i: Fraction(rng.randrange(-2, 3))
                     for i in range(W.cx.dim(n1))}
                y = {i: Fraction(rng.randrange(-2, 3))
                     for i in range(W.cx.dim(n2))}
                x = {k: v for k, v in x.items() if v}
                y = {k: v for k, v in y.items() if v}
                ab = tw_product(W, Wbig, pp, n1, x, n2, y)
                ba = tw_product(W, Wbig, pp, n2, y, n1, x)
                sgn = -1 if (n1 * n2) % 2 else 1
                assert ab == {k: sgn * v for k, v in ba.items()}


def test_tw_product_associative(arc_tower):
    F, gp, W2, W4 = arc_tower
    W8 = tw(F, 8)
    inc = tw_include(W2, W4)
    rng = random.Random(7)
    for _ in range(5):
        degs = [rng.choice([0, 1]) for _ in range(3)]
        x, y, z = ({i: Fraction(rng.randrange(-2, 3))
                    for i in range(W2.cx.dim(d)) if rng.random() < 0.8}
                   for d in degs)
        xy = tw_product(W2, W4, gp, degs[0], x, degs[1], y)
        left = tw_product(W4, W8, gp, degs[0] + degs[1], xy, degs[2],
                          inc.mat(degs[2]).matvec(z))
        yz = tw_product(W2, W4, gp, degs[1], y, degs[2], z)
        right = tw_product(W4, W8, gp, degs[0],
                           inc.mat(degs[0]).matvec(x),
                           degs[1] + degs[2], yz)
        assert left == right


@pytest.mark.parametrize("fixture,cutoff", [
    (fx.triangle_two_arc_presheaf, 2),
    (fx.triangle_three_edge_presheaf, 3),
])
def test_products_agree_on_cohomology(fixture, cutoff):
    F = fixture()
    pairs = product_homology_agreement(F, cutoff, graph_product(F))
    assert pairs >= 4


# ---------------------------------------------------------------------------
# the projective line


@pytest.mark.parametrize("window", [4, 5])
def test_p1_cover_homology(window):
    F = p1_polyvector_presheaf(window)
    F.validate()
    assert nz(betti_numbers(cech(F).cx)) == {0: 1, 1: 3}


@pytest.mark.parametrize("window", [4, 5])
def test_p1_slice_oracle(window):
    # kernel/cokernel of the bare restriction-difference matrices, no Cech
    # machinery: constants in degree 0, a three-dimensional degree-1 kernel
    assert p1_slice_ranks(window) == {0: (1, 0), 1: (3, 0)}


def test_p1_window_guard():
    with pytest.raises(InputError):
        p1_polyvector_presheaf(1)


def test_p1_chart_operator_discrepancy():
    rows = p1_chart_operator_discrepancy(4)
    # the mismatch between charts is always twice x^(t-1)
    for row in rows:
        t = row["field_exponent"]
        assert row["difference"] == f"2*x^{t - 1}"
