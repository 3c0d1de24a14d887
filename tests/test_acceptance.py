"""End-to-end battery: nine numbered criteria, each with a wall-clock
budget, each printing a single PASS/FAIL line to stdout.

Everything is exact (zero tolerance); the only inequalities are the
time budgets.  Run with -s to see the lines as they appear.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache

from descentlab import fixtures as fx
from descentlab.algebra import (cech_cup, graph_product,
                                p1_polyvector_presheaf, p1_slice_ranks,
                                point_product, product_homology_agreement,
                                tw_include, tw_product)
from descentlab.complexes import (Complex, betti_numbers, homology,
                                  homology_map, is_quasi_iso,
                                  novikov_q_expansion_complex,
                                  novikov_q_expansion_map, single, telescope,
                                  telescope_comparison)
from descentlab.errors import DescentlabError
from descentlab.involutive import (INTERSECTION, UNION, Poly, SmoothingCurve,
                                   check_composition_lemma, grid_points,
                                   parse_poly, poisson_bracket, region_sign,
                                   smoothing_h)
from descentlab.linalg import SparseMatrix, rank
from descentlab.polyvec import bv_axiom_check
from descentlab.presheaf import (TOP, cech, inclusion_exclusion,
                                 induction_pipeline, tot, tw, tw_to_tot,
                                 verify_descent, whitney_section)
from descentlab.scalars import QQ


def run_criterion(num, label, budget, fn):
    t0 = time.monotonic()
    ok, detail = True, ""
    try:
        detail = fn()
    except (AssertionError, DescentlabError) as exc:
        ok, detail = False, str(exc) or repr(exc)
    dt = time.monotonic() - t0
    if ok and dt >= budget:
        ok, detail = False, f"time budget exceeded ({dt:.2f}s >= {budget}s)"
    print(f"[{'PASS' if ok else 'FAIL'}] {num} {label}: {detail} "
          f"[{dt:.2f}s / {budget}s]")
    assert ok, f"criterion {num}: {detail}"


def nz(b):
    return {k: v for k, v in b.items() if v}


@lru_cache(maxsize=None)
def corpus():
    out = []
    for seed in range(25):
        rng = random.Random(seed)
        n_sets = rng.randint(2, 4)
        F, expected = fx.random_presheaf(rng, n_sets, max_dim=4, width=4)
        out.append((seed, n_sets, F, expected))
    return tuple(out)


# ---------------------------------------------------------------------------
# 1: equalizer totalization vs value-sum complex


def test_01_totalization_bijection():
    def body():
        for seed, n_sets, F, _ in corpus():
            T, C = tot(F), cech(F)
            iso = T.to_cech()
            iso.validate()
            for n in C.cx.degrees():
                m = iso.mat(n)
                assert m.nrows == m.ncols == C.cx.dim(n), \
                    f"seed {seed}: not square in degree {n}"
                assert rank(m) == m.nrows, \
                    f"seed {seed}: not bijective in degree {n}"
            taug, caug = T.augmentation(), C.augmentation()
            for n in F.value(TOP).degrees():
                if (iso.mat(n) @ taug.mat(n) - caug.mat(n)).is_zero():
                    continue
                raise AssertionError(
                    f"seed {seed}: augmentations differ in degree {n}")
        return f"{len(corpus())} presheaves, bijective and intertwining"

    run_criterion(1, "totalization-vs-nerve-iso", 10, body)


# ---------------------------------------------------------------------------
# 2: forms-model integration map


def test_02_forms_model_quasi_iso():
    def body():
        for seed, n_sets, F, _ in corpus():
            W = tw(F, n_sets)
            W1 = tw(F, n_sets + 1)
            assert nz(betti_numbers(W.cx)) == nz(betti_numbers(W1.cx)), \
                f"seed {seed}: betti moved between cutoffs"
            T = tot(F)
            integ = tw_to_tot(W, T)
            cert = is_quasi_iso(integ)
            assert cert.ok, f"seed {seed}: integration map " \
                f"fails in degree {cert.witness_degree}"
            sect = whitney_section(T, W)
            for n in T.cx.degrees():
                comp = integ.mat(n) @ sect.mat(n)
                assert (comp - SparseMatrix.identity(comp.nrows)).is_zero(), \
                    f"seed {seed}: section not exact in degree {n}"
        return f"{len(corpus())} presheaves, cutoff-stable, split quasi-iso"

    run_criterion(2, "forms-integration-quasi-iso", 60, body)


# ---------------------------------------------------------------------------
# 3: descent on circles, the torus, and a disconnected counterexample


def torus_simplicial_betti():
    """Cohomology of an explicit 9-vertex torus triangulation.

    Built straight from simplices and coboundaries -- no presheaves, no
    nerve, none of the machinery under test.
    """
    def vid(i, j):
        return (i % 3) * 3 + (j % 3)

    tris = set()
    for i in range(3):
        for j in range(3):
            tris.add(tuple(sorted((vid(i, j), vid(i + 1, j),
                                   vid(i + 1, j + 1)))))
            tris.add(tuple(sorted((vid(i, j), vid(i, j + 1),
                                   vid(i + 1, j + 1)))))
    tris = sorted(tris)
    edges = sorted({pair for t in tris
                    for pair in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))})
    eidx = {e: r for r, e in enumerate(edges)}
    assert len(edges) == 27 and len(tris) == 18

    d0 = SparseMatrix.from_entries(
        len(edges), 9,
        [(r, e[1], Fraction(1)) for e, r in eidx.items()]
        + [(r, e[0], Fraction(-1)) for e, r in eidx.items()])
    ent = []
    for r, t in enumerate(tris):
        for k, face in enumerate(((t[1], t[2]), (t[0], t[2]), (t[0], t[1]))):
            ent.append((r, eidx[face], Fraction((-1) ** k)))
    d1 = SparseMatrix.from_entries(len(tris), len(edges), ent)
    cx = Complex(QQ, {0: 9, 1: 27, 2: 18}, {0: d0, 1: d1})
    return nz(betti_numbers(cx))


def test_03_descent_circle_torus_disjoint():
    def body():
        for F in (fx.triangle_two_arc_presheaf(),
                  fx.triangle_three_edge_presheaf()):
            rep = verify_descent(F)
            assert rep.ok and nz(rep.cech_betti) == {0: 1, 1: 1}, \
                f"circle cover: {rep.to_json()}"
        rep = verify_descent(fx.torus_square_presheaf())
        oracle = torus_simplicial_betti()
        assert rep.ok and nz(rep.cech_betti) == oracle, \
            f"torus: got {nz(rep.cech_betti)}, oracle {oracle}"
        bad = verify_descent(fx.disjoint_failure_presheaf())
        assert not bad.ok and bad.witness_degree == 0, \
            f"disjoint cover unexpectedly descends: {bad.to_json()}"
        return f"circle x2 and torus {oracle} descend, disjoint refuted"

    run_criterion(3, "descent-verdicts", 10, body)


# ---------------------------------------------------------------------------
# 4: first-set-vs-rest decomposition and the induction pipeline


def test_04_inclusion_exclusion():
    def body():
        hit = 0
        for seed, n_sets, F, _ in corpus():
            if n_sets not in (3, 4):
                continue
            dec = inclusion_exclusion(F)
            assert dec.ok, f"seed {seed}: decomposition not an iso"
            hit += 1
        assert hit >= 10, f"only {hit} presheaves with 3 or 4 sets"
        F, G, aug_rest, aug_int = fx.triangle_pipeline_data()
        rep = induction_pipeline(F, G, aug_rest, aug_int)
        assert rep.ok, f"induction pipeline: {rep}"
        return f"{hit} decompositions exact, 3-fold reproved from 2-fold"

    run_criterion(4, "inclusion-exclusion", 10, body)


# ---------------------------------------------------------------------------
# 5: odd Laplacian axioms


def test_05_bv_axioms():
    def body():
        count = bv_axiom_check(nvars=2, max_degree=3, jacobi=True)
        return f"{count} axiom instances, all exact"

    run_criterion(5, "bv-axioms", 30, body)


# ---------------------------------------------------------------------------
# 6: projective-line polyvector cohomology


def test_06_p1_polyvectors():
    def body():
        tables = {}
        for window in (4, 5):
            F = p1_polyvector_presheaf(window)
            tables[window] = nz(betti_numbers(cech(F).cx))
            slices = p1_slice_ranks(window)
            assert slices == {0: (1, 0), 1: (3, 0)}, \
                f"window {window}: slice ranks {slices}"
        assert tables[4] == tables[5] == {0: 1, 1: 3}, f"tables {tables}"
        return "windows 4,5 agree: H0=1 (functions), H0=3 (fields), H1=0"

    run_criterion(6, "p1-polyvector-cohomology", 30, body)


# ---------------------------------------------------------------------------
# 7: products on both models and their transport


def rand_vec(rng, dim, density=0.8):
    v = {i: Fraction(rng.randrange(-2, 3)) for i in range(dim)
         if rng.random() < density}
    return {k: c for k, c in v.items() if c}


def test_07_products():
    def body():
        # forms-side product: graded commutativity on truncated bases
        Fc = fx.constant_presheaf(2, single("Q", 0, 1))
        pp = point_product(Fc)
        W, Wbig = tw(Fc, 2), tw(Fc, 4)
        rng = random.Random(41)
        for n1 in W.cx.degrees():
            for n2 in W.cx.degrees():
                for _ in range(3):
                    x = rand_vec(rng, W.cx.dim(n1))
                    y = rand_vec(rng, W.cx.dim(n2))
                    ab = tw_product(W, Wbig, pp, n1, x, n2, y)
                    ba = tw_product(W, Wbig, pp, n2, y, n1, x)
                    sgn = -1 if (n1 * n2) % 2 else 1
                    assert ab == {k: sgn * v for k, v in ba.items()}, \
                        f"commutativity fails in degrees {n1},{n2}"

        # forms-side product: associativity through the cutoff tower
        Fa = fx.triangle_two_arc_presheaf()
        gp = graph_product(Fa)
        W2, W4, W8 = tw(Fa, 2), tw(Fa, 4), tw(Fa, 8)
        inc = tw_include(W2, W4)
        for _ in range(5):
            degs = [rng.choice([0, 1]) for _ in range(3)]
            x, y, z = (rand_vec(rng, W2.cx.dim(d)) for d in degs)
            xy = tw_product(W2, W4, gp, degs[0], x, degs[1], y)
            left = tw_product(W4, W8, gp, degs[0] + degs[1], xy,
                              degs[2], inc.mat(degs[2]).matvec(z))
            yz = tw_product(W2, W4, gp, degs[1], y, degs[2], z)
            right = tw_product(W4, W8, gp, degs[0],
                               inc.mat(degs[0]).matvec(x),
                               degs[1] + degs[2], yz)
            assert left == right, "associativity fails on the forms side"

        # value-sum cup product: associativity
        Ft = fx.triangle_three_edge_presheaf()
        C, gpt = cech(Ft), graph_product(Ft)
        for _ in range(10):
            d1, d2, d3 = (rng.choice([0, 1]) for _ in range(3))
            x, y, z = (rand_vec(rng, C.cx.dim(d)) for d in (d1, d2, d3))
            left = cech_cup(C, gpt, d1 + d2,
                            cech_cup(C, gpt, d1, x, d2, y), d3, z)
            right = cech_cup(C, gpt, d1, x, d2 + d3,
                             cech_cup(C, gpt, d2, y, d3, z))
            assert left == right, "cup associativity fails"

        # stored chain-level non-commutativity witness
        Cc = cech(Fc)
        ppc = point_product(Fc)
        wx = Cc.inject(0, (1,), {0: Fraction(1)})
        wy = Cc.inject(1, (1, 2), {0: Fraction(1)})
        fwd = cech_cup(Cc, ppc, 0, wx, 1, wy)
        rev = cech_cup(Cc, ppc, 1, wy, 0, wx)
        assert fwd == Cc.inject(1, (1, 2), {0: Fraction(1)}) and rev == {}, \
            f"witness changed: fwd={fwd}, rev={rev}"

        # homology products agree through the comparison maps
        pairs = 0
        for F, cutoff in ((fx.triangle_two_arc_presheaf(), 2),
                          (fx.triangle_three_edge_presheaf(), 3)):
            pairs += product_homology_agreement(F, cutoff, graph_product(F))
        assert pairs >= 8, f"only {pairs} class pairs compared"
        return (f"commutative+associative both sides, witness "
                f"(1*e12, e12*1)=(e12, 0), {pairs} homology pairs agree")

    run_criterion(7, "product-transport", 30, body)


# ---------------------------------------------------------------------------
# 8: telescopes, rational and truncated-series


def test_08_telescopes():
    def body():
        for seed in range(10):
            rng = random.Random(100 + seed)
            terms, maps = fx.random_stabilizing_diagram(rng, rng.randint(3, 5))
            tel = telescope(terms, maps)
            want = nz(betti_numbers(terms[-1]))
            got = nz(betti_numbers(tel.cx))
            assert got == want, f"seed {seed}: telescope {got}, last {want}"

        terms, maps = fx.novikov_telescope_terms(1, Fraction(3), 4)
        tel = telescope(terms, maps)
        rep = homology(tel.cx)
        assert rep.kind == "torsion", rep.to_json()
        orders = {n: os for n, os in rep.torsion.items() if os}
        assert orders == {0: [3]}, f"torsion table {orders}"
        assert all(o > 0 for os in rep.torsion.values() for o in os), \
            "valuation-0 class present"
        t1, t2, comp = telescope_comparison(terms, maps, 1, 4)
        q1 = novikov_q_expansion_complex(t1.cx)
        q2 = novikov_q_expansion_complex(t2.cx)
        induced, _, _ = homology_map(novikov_q_expansion_map(comp, q1, q2), 0)
        assert rank(induced) == 0, \
            f"stable class survives: comparison rank {rank(induced)}"
        return "10 rational telescopes stabilize; series torsion pure (T^3)"

    run_criterion(8, "telescopes", 10, body)


# ---------------------------------------------------------------------------
# 9: bracket axioms, smoothing signs, translation, composition


def rand_poly(rng, nvars, max_degree=3, max_terms=4):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        budget = rng.randrange(max_degree + 1)
        exps = [0] * nvars
        for _ in range(budget):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    return Poly(nvars, terms)


def test_09_poisson_and_smoothing():
    def body():
        rng = random.Random(43)
        for _ in range(100):
            f, g, h = (rand_poly(rng, 4) for _ in range(3))
            assert poisson_bracket(f, g) == -poisson_bracket(g, f)
            assert poisson_bracket(f + g.scale(2), h) == \
                poisson_bracket(f, h) + poisson_bracket(g, h).scale(2)
            assert poisson_bracket(f, g * h) == \
                poisson_bracket(f, g) * h + g * poisson_bracket(f, h)
            jac = poisson_bracket(f, poisson_bracket(g, h)) \
                + poisson_bracket(g, poisson_bracket(h, f)) \
                + poisson_bracket(h, poisson_bracket(f, g))
            assert jac.is_zero(), "Jacobi fails"

        step = Fraction(4, 99)
        grid = grid_points([(-2, 2, step), (-2, 2, step)])
        assert len(grid) == 100 * 100
        for mode in (INTERSECTION, UNION):
            for delta in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
                c = SmoothingCurve(delta, mode)
                for x, y in grid:
                    assert smoothing_h(c, x, y).sign() == \
                        region_sign(c, x, y), f"sign at ({x},{y}) d={delta}"

        for _ in range(40):
            c = SmoothingCurve(Fraction(rng.randrange(1, 9), 2),
                               rng.choice([INTERSECTION, UNION]))
            x = Fraction(rng.randrange(-8, 9), 3)
            y = Fraction(rng.randrange(-8, 9), 3)
            s = Fraction(rng.randrange(-6, 7), 5)
            assert smoothing_h(c, x + s, y + s) == \
                smoothing_h(c, x, y).plus_sqrt2(s), "translation fails"

        rng2 = random.Random(47)
        for _ in range(20):
            base = rng2.choice([
                [Poly.var(4, 0), Poly.var(4, 1)],
                [Poly.var(4, 0) * Poly.var(4, 2),
                 Poly.var(4, 1) * Poly.var(4, 3)],
                [Poly.var(4, 0), Poly.var(4, 1) * Poly.var(4, 3)],
            ])
            fs = [rand_poly(rng2, 2, max_degree=2).compose(base)
                  for _ in range(2)]
            g1 = rand_poly(rng2, 2, max_degree=2)
            g2 = rand_poly(rng2, 2, max_degree=2)
            assert check_composition_lemma(fs, g1, g2)
        return ("100 bracket triples, 60000 grid signs, 40 translations, "
                "20 composition families")

    run_criterion(9, "poisson-and-smoothing", 30, body)
