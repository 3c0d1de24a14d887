"""Poisson calculus, exact smoothing values, and cover-condition checkers."""

import math
import random
from fractions import Fraction

import pytest

from descentlab.errors import (BadSequence, HypothesisFailure, InputError,
                               ShapeMismatch)
from descentlab.involutive import (_EXPONENT_CAP, INTERSECTION, UNION,
                                   AlgebraicValue,
                                   CoverFunction, Poly, SmoothingCurve,
                                   build_cover_functions,
                                   check_composition_lemma,
                                   check_weak_cover_conditions,
                                   cover_monotonicity_report, format_poly,
                                   grid_points, parse_poly,
                                   poisson_bracket, region_sign, smoothing_h,
                                   symplectic_names)
from descentlab.polyvec import Polyvector

QP = symplectic_names(1)
QP2 = symplectic_names(2)


def rand_poly(rng, nvars, max_degree=3, max_terms=4):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        budget = rng.randrange(max_degree + 1)
        exps = [0] * nvars
        for _ in range(budget):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    return Poly(nvars, terms)


# ---------------------------------------------------------------------------
# polynomial arithmetic and text form


def test_parse_format_roundtrip():
    rng = random.Random(11)
    for _ in range(30):
        p = rand_poly(rng, 4)
        assert parse_poly(format_poly(p, QP2), QP2) == p
    assert format_poly(Poly.zero(2)) == "0"
    assert parse_poly("0", QP).is_zero()


def test_parse_rejects_garbage():
    with pytest.raises(InputError):
        parse_poly("q1 + ", QP)
    with pytest.raises(InputError):
        parse_poly("z3", QP)
    with pytest.raises(InputError):
        parse_poly("q1 ^ p1", QP)
    with pytest.raises(InputError):
        parse_poly("(q1)", QP)
    with pytest.raises(InputError):
        parse_poly("", QP)


def test_parse_refuses_an_exponent_over_the_cap(monkeypatch):
    # refused from the text, before Poly.__pow__ multiplies once
    def refuse(self, k):
        raise AssertionError("power taken before the exponent check")

    monkeypatch.setattr(Poly, "__pow__", refuse)
    with pytest.raises(InputError, match=f"over the cap {_EXPONENT_CAP}"):
        parse_poly(f"q1^{_EXPONENT_CAP + 1}", QP)
    with pytest.raises(InputError, match="exponent 99999999 is over"):
        parse_poly("p1 + q1^99999999", QP)


def test_parse_accepts_an_exponent_at_the_cap():
    f = parse_poly(f"q1^{_EXPONENT_CAP}", QP)
    assert f.terms == {(_EXPONENT_CAP, 0): 1}


def test_parse_refuses_a_product_over_the_cap(monkeypatch):
    # refused from the exponents, before any power or product is taken
    def refuse(self, other):
        raise AssertionError("polynomials multiplied before the degree check")

    monkeypatch.setattr(Poly, "__mul__", refuse)
    monkeypatch.setattr(Poly, "__pow__", refuse)
    with pytest.raises(InputError, match=f"degree {_EXPONENT_CAP + 1} is "
                                         f"over the cap {_EXPONENT_CAP}"):
        parse_poly(f"q1^{_EXPONENT_CAP}*q1", QP)
    with pytest.raises(InputError, match=f"over the cap {_EXPONENT_CAP}"):
        parse_poly("*".join([f"q1^{_EXPONENT_CAP}"] * 30), QP)
    with pytest.raises(InputError, match="degree 10001"):
        parse_poly("1 + 2*q1^5000*3*p1^5001", QP)


def test_parse_accepts_a_product_at_the_cap():
    half = _EXPONENT_CAP // 2
    f = parse_poly(f"q1^{half}*q1^{half}", QP)
    assert f.terms == {(_EXPONENT_CAP, 0): 1}
    assert parse_poly(f"2*q1^{half}*3/4*p1^{half} - 1/2*p1", QP).terms == \
        {(half, half): Fraction(3, 2), (0, 1): Fraction(-1, 2)}


def test_poly_calculus():
    rng = random.Random(13)
    for _ in range(20):
        f, g = rand_poly(rng, 3), rand_poly(rng, 3)
        i = rng.randrange(3)
        assert (f * g).diff(i) == f.diff(i) * g + f * g.diff(i)
    f = parse_poly("q1^2*p1 - 3", QP)
    assert f((Fraction(2), Fraction(1, 2))) == Fraction(-1)
    two = parse_poly("x1 + x2", ["x1", "x2"])
    comp = two.compose([f, Poly.const(2, 5)])
    assert comp((Fraction(2), Fraction(1, 2))) == Fraction(4)
    with pytest.raises(ShapeMismatch):
        two.compose([f])
    with pytest.raises(InputError):
        f ** (-1)


def assert_canonical(p):
    """p is what the validating constructor makes of its own terms."""
    assert p.terms == Poly(p.nvars, dict(p.terms)).terms
    assert all((type(c) is int and c != 0)
               or (type(c) is Fraction and c.denominator > 1)
               for c in p.terms.values())
    assert all(len(e) == p.nvars and min(e) >= 0 for e in p.terms)


def test_arithmetic_results_are_canonical():
    # the arithmetic builds its results without re-validating them
    rng = random.Random(23)
    for _ in range(40):
        f, g, h = (rand_poly(rng, 4) for _ in range(3))
        c = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        for p in (f + g, f - g, f - f, -f, f.scale(c), f.scale(0),
                  f.scale(1), f * g, f * Poly.zero(4), f ** 2,
                  f.diff(rng.randrange(4)), poisson_bracket(f, g),
                  poisson_bracket(f, f),
                  Poly(2, {(1, 0): 1}).compose([f, g]),
                  (f * g + h).scale(c) - h,
                  # Fraction arithmetic that comes out integral
                  f.scale(Fraction(1, 2)) * g.scale(2),
                  h.scale(Fraction(1, 2)) + h.scale(Fraction(1, 2)),
                  Poly(2, {(2, 0): Fraction(1, 4), (0, 1): Fraction(2, 3)})
                  .compose([f.scale(2), g.scale(Fraction(3, 2))])):
            assert_canonical(p)
    assert f.scale(1) is f


def test_constructor_still_validates():
    with pytest.raises(InputError):
        Poly(2, {(1, -1): 1})
    with pytest.raises(InputError):
        Poly(2, {(1,): 1})
    assert Poly(2, {(1, 0): 0, (0, 1): 2}).terms == {(0, 1): Fraction(2)}


# ---------------------------------------------------------------------------
# the bracket


def test_bracket_canonical_pairs():
    q1, p1 = (Poly.var(2, i) for i in (0, 1))
    assert poisson_bracket(q1, p1) == Poly.const(2, 1)
    q1_, q2_ = (Poly.var(4, i) for i in (0, 1))
    assert poisson_bracket(q1_, q2_).is_zero()
    assert poisson_bracket(q1 * p1, q1) == -q1


def pv_poisson(f, g):
    # independent bracket built on the odd-variable calculus layer:
    # different data structure, different differentiation code
    def lift(p):
        return Polyvector(p.nvars, {(e, ()): c for e, c in p.terms.items()})

    n = f.nvars // 2
    F, G = lift(f), lift(g)
    out = Polyvector.zero(f.nvars)
    for i in range(n):
        out = out + F.x_diff(i).wedge(G.x_diff(n + i)) \
            - F.x_diff(n + i).wedge(G.x_diff(i))
    return out


def test_bracket_matches_independent_oracle():
    rng = random.Random(17)
    for _ in range(40):
        f, g = rand_poly(rng, 4), rand_poly(rng, 4)
        got = poisson_bracket(f, g)
        assert pv_poisson(f, g).terms == {(e, ()): c
                                          for e, c in got.terms.items()}


def test_bracket_axioms():
    rng = random.Random(19)
    for _ in range(25):
        f, g, h = (rand_poly(rng, 4) for _ in range(3))
        assert poisson_bracket(f, g) == -poisson_bracket(g, f)
        assert poisson_bracket(f, g * h) == \
            poisson_bracket(f, g) * h + g * poisson_bracket(f, h)
        jac = poisson_bracket(f, poisson_bracket(g, h)) \
            + poisson_bracket(g, poisson_bracket(h, f)) \
            + poisson_bracket(h, poisson_bracket(f, g))
        assert jac.is_zero()


def test_bracket_shape_guards():
    with pytest.raises(ShapeMismatch):
        poisson_bracket(Poly.var(2, 0), Poly.var(4, 0))
    with pytest.raises(ShapeMismatch):
        poisson_bracket(Poly.var(3, 0), Poly.var(3, 1))


# ---------------------------------------------------------------------------
# composition stability


def test_composition_lemma_basic():
    q1, q2 = Poly.var(4, 0), Poly.var(4, 1)
    g1 = parse_poly("x1*x2", ["x1", "x2"])
    g2 = parse_poly("x1 + x2", ["x1", "x2"])
    assert check_composition_lemma([q1, q2], g1, g2)
    p1, p2 = Poly.var(4, 2), Poly.var(4, 3)
    assert check_composition_lemma([q1 * p1, q2 * p2], g1, g2)


def test_composition_lemma_rejects_noncommuting_inputs():
    q1, p1 = Poly.var(2, 0), Poly.var(2, 1)
    g1 = parse_poly("x1*x2", ["x1", "x2"])
    with pytest.raises(HypothesisFailure) as err:
        check_composition_lemma([q1, p1], g1, g1)
    assert err.value.args[0][:2] == (0, 1)


def test_composition_lemma_seeded_families():
    rng = random.Random(23)
    xnames = ["x1", "x2"]
    for _ in range(8):
        base = rng.choice([
            [Poly.var(4, 0), Poly.var(4, 1)],
            [Poly.var(4, 0) * Poly.var(4, 2), Poly.var(4, 1) * Poly.var(4, 3)],
            [Poly.var(4, 0), Poly.var(4, 1) * Poly.var(4, 3)],
        ])
        fs = [rand_poly(rng, 2, max_degree=2).compose(base) for _ in range(2)]
        g1, g2 = rand_poly(rng, 2, max_degree=2), rand_poly(rng, 2, max_degree=2)
        assert check_composition_lemma(fs, g1, g2)


def test_composition_lemma_shape_guard():
    q1, q2 = Poly.var(4, 0), Poly.var(4, 1)
    g3 = parse_poly("x1*x2*x3", ["x1", "x2", "x3"])
    with pytest.raises(ShapeMismatch):
        check_composition_lemma([q1, q2], g3, g3)
    with pytest.raises(InputError):
        check_composition_lemma([], g3, g3)


# ---------------------------------------------------------------------------
# exact algebraic values


def test_algebraic_value_normalization_and_equality():
    assert AlgebraicValue(0, 1, 4) == AlgebraicValue(2)
    assert AlgebraicValue(0, 2, 2) == AlgebraicValue(0, 1, 8)
    assert AlgebraicValue(0, 1, 2) == AlgebraicValue.from_rational(1) == 1
    assert AlgebraicValue(5, 2, 2) == AlgebraicValue(5, 1, 8)
    assert AlgebraicValue(0, 1, 3) != AlgebraicValue(0, 1, 5)
    with pytest.raises(InputError):
        AlgebraicValue(0, 1, -1)
    with pytest.raises(TypeError):
        hash(AlgebraicValue(1))


def test_algebraic_value_ordering():
    sqrt2 = AlgebraicValue(2)
    assert AlgebraicValue.from_rational(Fraction(7, 5)) < sqrt2
    assert sqrt2 < AlgebraicValue.from_rational(Fraction(3, 2))
    # three-term comparisons across distinct discriminants
    assert AlgebraicValue(1, 1, 3) < AlgebraicValue(0, 1, 8)
    assert AlgebraicValue(1, 1, 3) > AlgebraicValue(0, 1, 7)
    # d1 * d2 a square: 3 + sqrt(2) against sqrt(18) = 3 sqrt(2)
    assert AlgebraicValue(3, 1, 2) > AlgebraicValue(0, 1, 18)
    assert AlgebraicValue(4, 1, 2) < AlgebraicValue(0, 2, 8)
    # exact cancellation: 2 sqrt(2) = sqrt(8), and 1 + 2 sqrt(2) = 1 + sqrt(8)
    assert AlgebraicValue(0, 2, 2)._cmp(AlgebraicValue(0, 1, 8)) == 0
    assert AlgebraicValue(1, 2, 2) == AlgebraicValue(1, 1, 8)
    assert AlgebraicValue(1, 1, 2) < AlgebraicValue(1, 1, 8)
    # the rational part and the root part of the difference have opposite
    # signs, with either one winning, on both sides
    assert AlgebraicValue(1, 1, 2) > AlgebraicValue(0, 1, 5)
    assert AlgebraicValue(1, 1, 2) < AlgebraicValue(0, 1, 7)
    assert AlgebraicValue(-1, 1, 5) < AlgebraicValue(0, 1, 2)
    assert AlgebraicValue(-1, 1, 7) > AlgebraicValue(0, 1, 2)
    # equal discriminants whose root parts cancel, and an equal pair
    assert AlgebraicValue(1, 2, 3) > AlgebraicValue(0, 2, 3)
    assert AlgebraicValue(1, 2, 3)._cmp(AlgebraicValue(1, 2, 3)) == 0
    assert AlgebraicValue(1, 2, 3) == AlgebraicValue(1, 2, 3)
    # the shortcuts that skip __init__ build the same normal form
    for r in (Fraction(0), Fraction(-3, 7), 5):
        fast = AlgebraicValue.from_rational(r)
        slow = AlgebraicValue(0, r, 2)
        assert (fast.a, fast.b, fast.disc) == (slow.a, slow.b, slow.disc)
        assert fast == slow == r
    for u, s in ((AlgebraicValue(1, 2, 3), Fraction(1, 3)),
                 (AlgebraicValue(Fraction(1, 2)), -2),
                 (AlgebraicValue(0, 1, 2), Fraction(-1, 2)),
                 (AlgebraicValue(1, 0, 5), 0)):
        fast = u.plus_sqrt2(s)
        slow = AlgebraicValue(u.a + 2 * Fraction(s), u.b, u.disc)
        assert (fast.a, fast.b, fast.disc) == (slow.a, slow.b, slow.disc)
        assert fast == slow
        assert all(type(x) is Fraction for x in (fast.a, fast.b, fast.disc))
    rng = random.Random(29)
    for _ in range(60):
        u = AlgebraicValue(Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)),
                           rng.randrange(-3, 4), rng.randrange(0, 9))
        v = AlgebraicValue(Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)),
                           rng.randrange(-3, 4), rng.randrange(0, 9))
        cmp = u._cmp(v)
        gap = float(u) - float(v)
        if abs(gap) > 1e-9:
            assert cmp == (1 if gap > 0 else -1)
        else:
            assert cmp == 0


# ---------------------------------------------------------------------------
# the smoothing function


def test_smoothing_frozen_values():
    c = SmoothingCurve(1, INTERSECTION)
    assert smoothing_h(c, -1, -1) == AlgebraicValue(0)
    assert smoothing_h(c, 0, 0) == AlgebraicValue(2)
    assert smoothing_h(c, -2, -2) == AlgebraicValue(-2)


def _line_root_oracle(mode, delta, x, y):
    # walk the slope-1 line to the curve: (x+s)(y+s) = delta picks the
    # branch by the sign of x+s, and h is -sqrt(2)*s
    x, y, delta = float(x), float(y), float(delta)
    root = math.sqrt((x - y) ** 2 + 4 * delta)
    for s in ((-(x + y) + root) / 2, (-(x + y) - root) / 2):
        if (mode == INTERSECTION) == (x + s < 0):
            return -math.sqrt(2) * s
    raise AssertionError("no branch point found")


@pytest.mark.parametrize("mode", [INTERSECTION, UNION])
def test_smoothing_matches_root_oracle(mode):
    rng = random.Random(31)
    for _ in range(50):
        delta = Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
        x = Fraction(rng.randrange(-12, 13), 4)
        y = Fraction(rng.randrange(-12, 13), 4)
        got = float(smoothing_h(SmoothingCurve(delta, mode), x, y))
        assert abs(got - _line_root_oracle(mode, delta, x, y)) < 1e-9


@pytest.mark.parametrize("mode", [INTERSECTION, UNION])
def test_smoothing_sign_agrees_with_region(mode):
    grid = grid_points([(-3, 3, Fraction(1, 4))] * 2)
    for delta in (1, Fraction(1, 2), Fraction(1, 4)):
        c = SmoothingCurve(delta, mode)
        for x, y in grid:
            assert smoothing_h(c, x, y).sign() == region_sign(c, x, y)


def test_smoothing_translation_identity():
    rng = random.Random(37)
    for _ in range(25):
        c = SmoothingCurve(Fraction(rng.randrange(1, 9), 2),
                           rng.choice([INTERSECTION, UNION]))
        x = Fraction(rng.randrange(-8, 9), 3)
        y = Fraction(rng.randrange(-8, 9), 3)
        s = Fraction(rng.randrange(-6, 7), 5)
        assert smoothing_h(c, x + s, y + s) == smoothing_h(c, x, y).plus_sqrt2(s)


def test_smoothed_regions_nest_as_delta_shrinks():
    grid = grid_points([(-3, 3, Fraction(1, 4))] * 2)
    big, small = SmoothingCurve(1, INTERSECTION), SmoothingCurve(Fraction(1, 4), INTERSECTION)
    for pt in grid:
        if region_sign(big, *pt) < 0:
            assert region_sign(small, *pt) < 0
    # union smoothing shrinks onto the region instead
    bigu, smallu = SmoothingCurve(1, UNION), SmoothingCurve(Fraction(1, 4), UNION)
    for pt in grid:
        if region_sign(smallu, *pt) < 0:
            assert region_sign(bigu, *pt) < 0


# ---------------------------------------------------------------------------
# cover builders


def test_build_cover_functions_example():
    q1, p1 = Poly.var(2, 0), Poly.var(2, 1)
    gs = build_cover_functions(q1, p1, INTERSECTION, [1, Fraction(1, 2)])
    origin = (Fraction(0), Fraction(0))
    assert gs[0](origin) == AlgebraicValue(2)
    assert gs[1](origin) == 1
    assert gs[1](origin) < gs[0](origin)
    u = build_cover_functions(q1, p1, UNION, [Fraction(1, 3)])
    assert u[0](origin).sign() == -1


def test_build_cover_functions_guards():
    q1, p1 = Poly.var(2, 0), Poly.var(2, 1)
    with pytest.raises(BadSequence):
        build_cover_functions(q1, p1, INTERSECTION, [1, 1])
    with pytest.raises(BadSequence):
        build_cover_functions(q1, p1, INTERSECTION, [1, -1])
    with pytest.raises(InputError):
        build_cover_functions([q1], [p1, p1], INTERSECTION, [1, Fraction(1, 2)])


# ---------------------------------------------------------------------------
# the sampled cover-condition report


def halfplane_pred(pt):
    return pt[0] <= 0


def test_weak_cover_conditions_pass():
    fs = [[parse_poly(f"q1 - 1/{i}", QP) for i in (1, 2, 3)]]
    grid = grid_points([(-2, 2, Fraction(1, 2))] * 2)
    rep = check_weak_cover_conditions(fs, grid, [halfplane_pred])
    assert rep.ok and rep.bracket_checked
    assert rep.violations == []


def test_weak_cover_conditions_sign_flip_fails():
    # stages that sit above the set on part of it break the first bullet
    fs = [[parse_poly("q1 + 1", QP)]]
    grid = grid_points([(-2, 2, Fraction(1, 2))] * 2)
    rep = check_weak_cover_conditions(fs, grid, [halfplane_pred])
    bullets = {v["bullet"] for v in rep.violations}
    assert "negative-on-set" in bullets


def test_weak_cover_conditions_strictness_violation():
    f = parse_poly("q1 - 1", QP)
    grid = grid_points([(-1, 1, 1)] * 2)
    rep = check_weak_cover_conditions([[f, f]], grid, [halfplane_pred])
    assert not rep.ok
    assert rep.violations[0]["bullet"] == "strictly-increasing"


def test_weak_cover_conditions_capture_violation():
    fs = [[parse_poly("q1 - 2", QP)]]
    grid = grid_points([(-1, 1, 1)] * 2)
    rep = check_weak_cover_conditions(
        fs, grid, [lambda pt: pt[0] <= -5])
    assert any(v["bullet"] == "captures-set" for v in rep.violations)


def test_weak_cover_conditions_bracket_witness():
    fs = [[parse_poly("q1 - 1", QP)], [parse_poly("p1 - 1", QP)]]
    grid = grid_points([(-1, 1, 1)] * 2)
    rep = check_weak_cover_conditions(
        fs, grid, [halfplane_pred, lambda pt: pt[1] <= 0])
    hits = [v for v in rep.violations if v["bullet"] == "bracket"]
    assert hits and hits[0]["sets"] == [0, 1] and hits[0]["index"] == 0
    assert rep.bracket_checked


def test_weak_cover_conditions_skips_bracket_for_opaque_functions():
    fs = [[lambda pt: Fraction(-1)], [lambda pt: Fraction(-1)]]
    grid = grid_points([(0, 0, 1)])
    rep = check_weak_cover_conditions(
        fs, grid, [lambda pt: True, lambda pt: True])
    assert rep.ok and not rep.bracket_checked


# ---------------------------------------------------------------------------
# stage monotonicity of the smoothed functions


def test_monotonicity_holds_for_growing_stages():
    f1s = [parse_poly("q1 - 1", QP), parse_poly("q1 - 1/2", QP)]
    f2s = [parse_poly("p1 - 1", QP), parse_poly("p1 - 1/2", QP)]
    gs = build_cover_functions(f1s, f2s, INTERSECTION,
                               [Fraction(1, 100), Fraction(1, 200)])
    grid = grid_points([(-2, 2, Fraction(1, 2))] * 2)
    rep = cover_monotonicity_report(gs, grid)
    assert rep.ok
    assert rep.step_bounds[0]["kind"] == "min_next_delta"


def test_monotonicity_fails_for_constant_stages():
    # identical inputs with a shrinking parameter strictly decrease the
    # smoothing, and the reported floor names the parameter we just left
    q1, p1 = Poly.var(2, 0), Poly.var(2, 1)
    gs = build_cover_functions(q1, p1, INTERSECTION, [1, Fraction(1, 2)])
    grid = grid_points([(-1, 1, 1)] * 2)
    rep = cover_monotonicity_report(gs, grid)
    assert not rep.ok and rep.violations
    assert abs(rep.step_bounds[0]["value"] - 1.0) < 1e-9


def test_grid_points_guards():
    assert len(grid_points([(-1, 1, Fraction(1, 2)), (0, 1, 1)])) == 10
    with pytest.raises(InputError):
        grid_points([(1, 0, 1)])
    with pytest.raises(InputError):
        grid_points([(0, 1, 0)])
