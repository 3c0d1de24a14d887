import random
from fractions import Fraction
from itertools import combinations

import pytest

from descentlab.complexes import betti_numbers
from descentlab.errors import ShapeMismatch
from descentlab.presheaf import _model_map, _model_pullback
from descentlab.simplex import (InjMap, NCModel, OmegaModel, PolyForm, coface,
                                integrate_over_face, integration_cochain,
                                nc_d_on, nc_pullback, pf_pullback, whitney)


def strip(b):
    return {n: v for n, v in b.items() if v}


def face_inclusion(F, p):
    """[k] -> [p] onto the face with vertex set F."""
    return InjMap(tuple(sorted(F)), p)


def compose(f, g):
    """f after g: the injection whose vertex images are f's at g's."""
    assert g.q == f.p, "composition domain mismatch"
    return InjMap(tuple(f.verts[v] for v in g.verts), f.q)


def integrate_top(form):
    """Integral over the whole simplex, orientation dt_1 ... dt_p positive."""
    return integrate_over_face(form, range(form.p + 1))


def max_weight(form):
    """The largest weight |b| + |I| of a term; 0 for the zero form."""
    return max((sum(b) + len(I) for (b, I) in form.terms), default=0)


def form_of(om, n, vec):
    """The form whose degree-n coordinates in om are vec: each basis key
    with its coefficient."""
    return PolyForm(om.p, {om.basis(n)[i]: c for i, c in vec.items()})


def random_cochain(rng, p, n, spread=3):
    model = NCModel(p)
    return {F: Fraction(rng.randint(-spread, spread)) for F in model.basis(n)}


def random_form(rng, p, P, nmax=None):
    om = OmegaModel(p, P)
    terms = {}
    for n in range((nmax if nmax is not None else p) + 1):
        bs = om.basis(n)
        for _ in range(3):
            if bs:
                terms[bs[rng.randrange(len(bs))]] = Fraction(rng.randint(-3, 3))
    return PolyForm(p, terms)


class TestInjMaps:
    def test_cosimplicial_identities(self):
        for p in range(3):
            for i in range(p + 2):
                for j in range(i + 1, p + 3):
                    lhs = compose(coface(p + 1, j), coface(p, i))
                    rhs = compose(coface(p + 1, i), coface(p, j - 1))
                    assert lhs == rhs

    def test_not_monotone_rejected(self):
        with pytest.raises(ShapeMismatch):
            InjMap((1, 0), 2)

    def test_preimage(self):
        f = InjMap((0, 2, 3), 4)
        assert f.preimage_tuple((0, 3)) == (0, 2)
        assert f.preimage_tuple((1,)) is None


class TestNormalizedCochains:
    def test_first_coboundary_sign(self):
        assert nc_d_on(1, {(0,): Fraction(1)}) == {(0, 1): Fraction(-1)}
        assert nc_d_on(1, {(1,): Fraction(1)}) == {(0, 1): Fraction(1)}

    def test_d_squared(self):
        rng = random.Random(0)
        for p in (2, 3):
            for n in range(p - 1):
                x = random_cochain(rng, p, n)
                assert nc_d_on(p, nc_d_on(p, x)) == {}

    def test_contractible(self):
        for p in range(4):
            m = NCModel(p)
            m.cx.validate()
            assert strip(betti_numbers(m.cx)) == {0: 1}

    def test_pullback_functorial(self):
        rng = random.Random(4)
        h = InjMap((0, 1, 3), 4)
        k = InjMap((0, 2), 2)
        comp = compose(h, k)
        for n in range(5):
            x = random_cochain(rng, 4, n)
            assert nc_pullback(k, nc_pullback(h, x)) == nc_pullback(comp, x)

    def test_pullback_chain_map(self):
        rng = random.Random(5)
        f = InjMap((0, 2, 3), 4)
        for n in range(4):
            x = random_cochain(rng, 4, n)
            assert nc_pullback(f, nc_d_on(4, x)) == nc_d_on(2, nc_pullback(f, x))


class TestPolyForms:
    def test_wedge_anticommutes(self):
        a = PolyForm.dcoord(3, 1)
        b = PolyForm.dcoord(3, 2)
        assert a.wedge(b) == b.wedge(a).scale(-1)
        assert a.wedge(a).is_zero()

    def test_wedge_associative(self):
        rng = random.Random(6)
        for _ in range(8):
            a = random_form(rng, 3, 2, nmax=1)
            b = random_form(rng, 3, 2, nmax=1)
            c = random_form(rng, 3, 2, nmax=1)
            assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))

    def test_d_squared(self):
        rng = random.Random(7)
        for p in (1, 2, 3):
            for _ in range(5):
                w = random_form(rng, p, 3)
                assert w.d().d().is_zero()

    def test_d_weight_preserving(self):
        rng = random.Random(8)
        for _ in range(5):
            w = random_form(rng, 3, 3)
            assert max_weight(w.d()) <= max_weight(w)

    def test_leibniz(self):
        rng = random.Random(9)
        p = 2
        for _ in range(10):
            n1 = rng.randrange(2)
            a = random_form(rng, p, 3, nmax=0).homogeneous(0) if n1 == 0 else \
                random_form(rng, p, 3).homogeneous(1)
            b = random_form(rng, p, 3).homogeneous(rng.randrange(2))
            lhs = a.wedge(b).d()
            sign = (-1) ** n1
            rhs = a.d().wedge(b) + a.wedge(b.d()).scale(sign)
            assert lhs == rhs

    def test_reduced_coordinate_relations(self):
        # t_0 + t_1 + ... + t_p = 1 as functions: the two representatives
        # differ, and agree once homogenized to a common weight;
        # dt_0 + ... + dt_p = 0 on the nose
        p = 3
        s = PolyForm.zero(p)
        ds = PolyForm.zero(p)
        for v in range(p + 1):
            s = s + PolyForm.coord(p, v)
            ds = ds + PolyForm.dcoord(p, v)
        assert s != PolyForm.const(p)
        for P in (1, 2, 4):
            om = OmegaModel(p, P)
            assert om.to_vec(0, s) == om.to_vec(0, PolyForm.const(p))
        assert ds.is_zero() and s.d().is_zero()
        assert PolyForm.coord(p, 0).d() == PolyForm.dcoord(p, 0)


class TestIntegration:
    def test_normalization(self):
        # volume of the p-simplex, dt_1 ... dt_p, is 1/p!
        for p in (1, 2, 3):
            w = PolyForm(p, {((0,) * (p + 1), tuple(range(1, p + 1))): Fraction(1)})
            assert integrate_top(w) == Fraction(1, [1, 1, 2, 6][p])

    def test_monomial_formula(self):
        # the Dirichlet integral: int_{Delta^2} t0^c t1^a t2^b dt1 dt2 =
        # c! a! b! / (2 + c + a + b)!
        from math import factorial
        for c in range(3):
            for a in range(3):
                for b in range(3):
                    w = PolyForm(2, {((c, a, b), (1, 2)): Fraction(1)})
                    assert integrate_top(w) == Fraction(
                        factorial(c) * factorial(a) * factorial(b),
                        factorial(2 + c + a + b))

    def test_dirichlet_face_integral_counts_t0(self):
        # on the edge (0, 2) of the triangle, t_0^2 t_2 dt_2 restricts to
        # s_0^2 s_1 ds_1, whose integral is 2! 1! / (1 + 3)! = 1/12; off
        # the face of vertex 0, any power of t_0 restricts to 0
        w = PolyForm(2, {((2, 0, 1), (2,)): Fraction(1)})
        assert integrate_over_face(w, (0, 2)) == Fraction(1, 12)
        assert integrate_over_face(w, (1, 2)) == 0
        assert integration_cochain(w) == {(0, 2): Fraction(1, 12)}

    def test_zero_simplex(self):
        # t_0 = 1 on the point, so every power integrates to its coefficient
        for e in range(3):
            w = PolyForm(0, {((e,), ()): Fraction(5, 3)})
            assert integrate_top(w) == Fraction(5, 3)

    def test_non_top_vanishes(self):
        w = PolyForm(2, {((0, 1, 0), (1,)): Fraction(1)})
        assert integrate_top(w) == 0

    def test_stokes(self):
        rng = random.Random(10)
        for p in (1, 2, 3):
            for _ in range(5):
                w = random_form(rng, p, 3, nmax=p - 1)
                assert nc_d_on(p, integration_cochain(w)) == integration_cochain(w.d())


    def test_face_integral_matches_pullback_on_every_monomial(self):
        # the closed form against pulling back and integrating, for every
        # basis monomial of OmegaModel(p, P), p <= 4, p <= P <= 6, and every
        # face of the monomial's degree (24,099 pairs)
        pairs = 0
        for p in range(5):
            for P in range(p, 7):
                om = OmegaModel(p, P)
                for n in range(p + 1):
                    for key in om.basis(n):
                        w = PolyForm(p, {key: Fraction(1)})
                        for F in combinations(range(p + 1), n + 1):
                            want = integrate_top(pf_pullback(face_inclusion(F, p), w))
                            assert integrate_over_face(w, F) == want, (key, F)
                            pairs += 1
        assert pairs == 24099

    def test_face_integral_matches_pullback_on_forms(self):
        # multi-term, mixed-degree forms over every face of every dimension
        rng = random.Random(16)
        for p in range(5):
            for _ in range(6):
                w = random_form(rng, p, 4).scale(Fraction(rng.randint(1, 9), 7))
                for k in range(p + 1):
                    for F in combinations(range(p + 1), k + 1):
                        want = integrate_top(pf_pullback(face_inclusion(F, p), w))
                        assert integrate_over_face(w, F) == want


class TestWhitney:
    def test_edge_form(self):
        # t_0 dt_1 - t_1 dt_0 = (t_0 + t_1) dt_1, which is dt_1 at weight 2
        edge = whitney(1, {(0, 1): Fraction(1)})
        assert edge.terms == {((1, 0), (1,)): Fraction(1),
                              ((0, 1), (1,)): Fraction(1)}
        om = OmegaModel(1, 2)
        assert om.to_vec(1, edge) == om.to_vec(1, PolyForm.dcoord(1, 1))

    def test_one_sided_inverse(self):
        for p in range(4):
            m = NCModel(p)
            for n in range(p + 1):
                for F in m.basis(n):
                    x = {F: Fraction(1)}
                    assert integration_cochain(whitney(p, x)) == x

    def test_chain_map(self):
        # d keeps the weight n + 1 of a Whitney n-form, while the Whitney
        # form of the coboundary has weight n + 2: compare at weight p + 1
        rng = random.Random(11)
        for p in (1, 2, 3):
            om = OmegaModel(p, p + 1)
            for n in range(p):
                x = random_cochain(rng, p, n)
                assert om.to_vec(n + 1, whitney(p, x).d()) == om.to_vec(
                    n + 1, whitney(p, nc_d_on(p, x)))

    def test_natural_for_injections(self):
        for pp, qq in ((1, 2), (2, 3)):
            for verts in combinations(range(qq + 1), pp + 1):
                f = InjMap(verts, qq)
                m = NCModel(qq)
                for n in range(qq + 1):
                    for F in m.basis(n):
                        x = {F: Fraction(1)}
                        assert pf_pullback(f, whitney(qq, x)) == whitney(pp, nc_pullback(f, x))

    def test_weight_bound(self):
        # the Whitney form of a k-cochain has weight at most k + 1
        for p in (2, 3):
            m = NCModel(p)
            for n in range(p + 1):
                for F in m.basis(n):
                    assert max_weight(whitney(p, {F: Fraction(1)})) <= n + 1


class TestPullbackForms:
    def test_functorial(self):
        rng = random.Random(12)
        h = InjMap((0, 1, 3), 4)
        k = InjMap((0, 2), 2)
        for _ in range(5):
            w = random_form(rng, 4, 2)
            assert pf_pullback(k, pf_pullback(h, w)) == pf_pullback(compose(h, k), w)

    def test_chain_map(self):
        rng = random.Random(13)
        f = InjMap((0, 2), 3)
        for _ in range(5):
            w = random_form(rng, 3, 3)
            assert pf_pullback(f, w.d()) == pf_pullback(f, w).d()

    def test_weight_does_not_increase(self):
        rng = random.Random(14)
        f = InjMap((1, 2), 3)
        for _ in range(5):
            w = random_form(rng, 3, 3)
            assert max_weight(pf_pullback(f, w)) <= max_weight(w)


class TestOmegaModel:
    def test_contractible(self):
        for p in range(3):
            om = OmegaModel(p, 3)
            om.cx.validate()
            assert strip(betti_numbers(om.cx)) == {0: 1}

    def test_roundtrip_vectors(self):
        om = OmegaModel(2, 3)
        rng = random.Random(15)
        w = random_form(rng, 2, 3).homogeneous(1)
        assert form_of(om, 1, om.to_vec(1, w)) == w

    def test_cutoff_enforced(self):
        om = OmegaModel(2, 1)
        heavy = PolyForm(2, {((0, 2, 0), ()): Fraction(1)})
        with pytest.raises(ShapeMismatch):
            om.to_vec(0, heavy)

    def test_to_vec_homogenizes_lighter_forms(self):
        # a form of weight w < P is read as itself times (t_0 + t_1 + t_2)^(P - w)
        om = OmegaModel(2, 2)
        total = sum((PolyForm.coord(2, v) for v in range(3)), PolyForm.zero(2))
        t1 = PolyForm.coord(2, 1)
        assert om.to_vec(0, t1) == om.to_vec(0, t1.wedge(total))
        unit = om.to_vec(0, om.unit())
        assert form_of(om, 0, unit) == total.wedge(total)
        assert sorted(unit.values()) == [1, 1, 1, 2, 2, 2]
        mixed = t1 + PolyForm(2, {((0, 1, 1), ()): Fraction(3)})
        assert om.to_vec(0, mixed) == om.to_vec(
            0, t1.wedge(total) + PolyForm(2, {((0, 1, 1), ()): Fraction(3)}))
        with pytest.raises(ShapeMismatch):
            om.to_vec(0, PolyForm(2, {((1, 1, 1), ()): Fraction(1)}))


class TestModelMaps:
    """Every levelwise model map is a chain map: the pullbacks along the
    cofaces, integration, the Whitney section and the cutoff inclusion."""

    @staticmethod
    def maps():
        nc = {p: NCModel(p) for p in range(5)}
        om = {(p, P): OmegaModel(p, P) for p in range(5) for P in range(7)}
        for p in range(4):
            for i in range(p + 2):
                yield _model_pullback(nc[p], nc[p + 1], coface(p, i))
                for P in range(7):
                    yield _model_pullback(om[p, P], om[p + 1, P], coface(p, i))
        for (p, P), m in om.items():
            yield _model_map(m, nc[p], lambda key, p=p: integration_cochain(
                PolyForm(p, {key: Fraction(1)})))
            if P >= p + 1:
                yield _model_map(nc[p], m, lambda F, p=p: whitney(
                    p, {F: Fraction(1)}))
            if P < 6:
                yield _model_map(m, om[p, P + 1], lambda key, p=p: PolyForm(
                    p, {key: Fraction(1)}))

    def test_every_model_map_is_a_chain_map(self):
        count = 0
        for f in self.maps():
            assert f.validate()
            count += 1
        assert count == 197

    def test_coface_pullbacks_are_relabelings(self):
        # nonzeros of the pullbacks from level 4 to level 3: coface 0 sends
        # t_1 to t_0 and only expands dt_0, so it is denser than the others
        # but of the same order (eliminating t_0 made it 9,918 and 3,996)
        for P, want in ((6, [815, 377, 377, 377, 377]),
                        (5, [486, 231, 231, 231, 231])):
            small, big = OmegaModel(3, P), OmegaModel(4, P)
            got = [sum(_model_pullback(small, big, coface(3, i)).mat(s).nnz()
                       for s in big.cx.degrees()) for i in range(5)]
            assert got == want, P

    def test_a_flipped_integration_entry_is_caught(self):
        f = _model_map(OmegaModel(2, 3), NCModel(2), lambda key: (
            integration_cochain(PolyForm(2, {key: Fraction(1)}))))
        assert f.validate()
        row = next(r for r in f.mat(0).rows if r)
        col = next(iter(row))
        row[col] = -row[col]
        with pytest.raises(ShapeMismatch):
            f.validate()

    def test_units(self):
        rng = random.Random(16)
        for p in range(4):
            nc, om = NCModel(p), OmegaModel(p, p + 1)
            assert not nc_d_on(p, nc.unit()) and om.unit().d().is_zero()
            w = random_form(rng, p, p + 1)
            assert om.unit().wedge(w) == w == w.wedge(om.unit())
