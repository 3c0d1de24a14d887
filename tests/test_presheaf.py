"""Cover presheaves, Cech complexes, totalizations, and descent checks."""

import random
from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descentlab import fixtures as fx
from descentlab import presheaf
from descentlab.complexes import (ChainMap, Complex, DirectSum,
                                  betti_numbers, cocone, direct_sum, homology,
                                  homology_map, is_quasi_iso,
                                  novikov_q_expansion_complex,
                                  novikov_q_expansion_map, rank, shift,
                                  telescope, telescope_comparison)
from descentlab.errors import (CutoffTooSmall, FunctorialityFailure,
                               InputError, NotAComplex, ShapeMismatch,
                               UnknownFixture, UnsupportedRing)
from descentlab.linalg import SparseMatrix
from descentlab.presheaf import (TOP, CechComplex, CoverPresheaf, Nerve,
                                 _is_permutation, all_subsets, arrows, cech,
                                 drop_first_restrict,
                                 first_intersections, format_key,
                                 inclusion_exclusion, induction_pipeline,
                                 parse_key, presheaf_from_json,
                                 presheaf_to_json, tot, tw, tw_to_tot,
                                 verify_descent, whitney_section)
from descentlab.scalars import QQ, NovikovRing


def nz(betti):
    return {n: b for n, b in betti.items() if b}


def maps_equal(f, g, degrees):
    return all((f.mat(n) - g.mat(n)).is_zero() for n in degrees)


# ---------------------------------------------------------------------------
# presheaf structure


def test_key_format_roundtrip():
    assert format_key((1, 3)) == "1,3"
    assert format_key(TOP) == "top"
    assert parse_key("1,3") == (1, 3)
    assert parse_key("top") == TOP


def test_triangle_fixtures_validate():
    fx.triangle_two_arc_presheaf().validate()
    fx.triangle_three_edge_presheaf().validate()
    fx.torus_square_presheaf().validate()
    fx.disjoint_failure_presheaf().validate()


def test_res_composes_along_chains():
    F = fx.triangle_three_edge_presheaf()
    # two-step restriction equals the composite of the generators
    direct = F.res((1,), (1, 2, 3))
    step = F.res((1, 2), (1, 2, 3)).compose(F.res((1,), (1, 2)))
    assert maps_equal(direct, step, F.value((1,)).degrees())
    # from the top down to a pair
    via = F.res((2,), (2, 3)).compose(F.res(TOP, (2,)))
    assert maps_equal(F.res(TOP, (2, 3)), via, F.value(TOP).degrees())


def test_res_rejects_non_subset():
    F = fx.triangle_three_edge_presheaf()
    with pytest.raises(InputError):
        F.res((1, 2), (1, 3))


def test_broken_top_triangle_is_caught():
    F = fx.triangle_two_arc_presheaf()
    bad = dict(F.adjacent)
    f = bad[((1,), (1, 2))]
    bad[((1,), (1, 2))] = f.scale(Fraction(2))
    with pytest.raises(FunctorialityFailure) as exc:
        CoverPresheaf(2, dict(F.values), bad)
    assert exc.value.witness is not None


def test_a_generator_into_a_lookalike_of_its_target_is_refused():
    # A = (Q -0-> Q), B = (Q -1-> Q); {1} -> {1,2} is the identity in
    # degree 0 into B' = (Q -0-> Q), a chain map A -> B' but not A -> B
    def two_term(x):
        return Complex(QQ, {0: 1, 1: 1},
                       {0: SparseMatrix(1, 1, [{0: x} if x else {}])})

    A, B = two_term(0), two_term(1)
    step = ChainMap(A, two_term(0), {0: SparseMatrix.identity(1)})
    values = {(1,): A, (2,): B, (1, 2): B}
    adjacent = {((1,), (1, 2)): step,
                ((2,), (1, 2)): ChainMap.identity(B)}
    F = CoverPresheaf(2, values, adjacent, check=False)
    with pytest.raises(NotAComplex):
        cech(F).cx.validate()
    with pytest.raises(InputError, match=r"^restriction 1->1,2 has wrong target$"):
        F.validate()


def test_broken_diamond_is_caught():
    F = fx.triangle_three_edge_presheaf()
    bad = dict(F.adjacent)
    bad[((1,), (1, 2))] = bad[((1,), (1, 2))].scale(Fraction(-1))
    G = CoverPresheaf(3, dict(F.values), bad, check=False)
    with pytest.raises(FunctorialityFailure):
        G.validate()


# The oracle is CoverPresheaf.validate as it was before the top triangles
# were checked on singleton pairs: generators, diamonds, then one top check
# per arrow, in arrows(n) order.


def oracle_validate(F):
    n = F.n_sets
    for (src, dst), f in F.adjacent.items():
        if f.source is not F.value(src) and f.source != F.value(src):
            raise InputError(f"restriction {format_key(src)}->{format_key(dst)} has wrong source")
        f.validate()
    for J in all_subsets(n):
        rest = [j for j in range(1, n + 1) if j not in J]
        for a, b in combinations(rest, 2):
            Ja, Jb = tuple(sorted(J + (a,))), tuple(sorted(J + (b,)))
            Jab = tuple(sorted(J + (a, b)))
            if (F._step(Ja, Jab).compose(F._step(J, Ja))
                    != F._step(Jb, Jab).compose(F._step(J, Jb))):
                raise FunctorialityFailure(witness=(format_key(J), format_key(Jab)))
    if F.has_top:
        for J, _, Jj in arrows(n):
            if F._step(J, Jj).compose(F.res(TOP, J)) != F.res(TOP, Jj):
                raise FunctorialityFailure(witness=(TOP, format_key(Jj)))
    return True


def _verdict(check, F):
    """check(F) on a fresh copy of F: True, or the error's type, witness and
    text."""
    G = CoverPresheaf(F.n_sets, F.values, F.adjacent, check=False)
    try:
        return check(G)
    except (FunctorialityFailure, InputError) as exc:
        return type(exc), getattr(exc, "witness", None), str(exc)


@cache
def top_check_cover(n_sets):
    """A random_presheaf cover with a top value, one per N."""
    return fx.random_presheaf(random.Random(10 + n_sets), n_sets)[0]


def _broken_copies(F):
    """F with one top -> {j} or one {j} -> {j,k} map scaled by 2, each."""
    n = F.n_sets
    keys = [(TOP, (j,)) for j in range(1, n + 1)]
    keys += [((j,), tuple(sorted((j, k)))) for j in range(1, n + 1)
             for k in range(1, n + 1) if k != j]
    for key in keys:
        bad = dict(F.adjacent)
        bad[key] = bad[key].scale(Fraction(2))
        yield key, CoverPresheaf(n, F.values, bad, check=False)


@pytest.mark.parametrize("n_sets", [2, 3, 4, 5])
def test_pairwise_top_check_matches_the_arrow_scan(n_sets):
    F = top_check_cover(n_sets)
    assert F.has_top and _verdict(CoverPresheaf.validate, F) is True
    caught = 0
    for key, G in _broken_copies(F):
        got = _verdict(CoverPresheaf.validate, G)
        assert got == _verdict(oracle_validate, G), key
        caught += got is not True
    assert caught    # the perturbations are seen at all


def test_pairwise_top_check_names_the_first_failing_arrow():
    # top -> {1} doubled: every arrow {k} -> {1,k} fails, the first is
    # ({2}, 1, {1,2}); with {1} -> {1,2} doubled on N=2 (no diamonds) the
    # only failing arrow is ({2}, 1, {1,2}) as well
    F = top_check_cover(2)
    for key in [(TOP, (1,)), ((1,), (1, 2))]:
        bad = dict(F.adjacent)
        bad[key] = bad[key].scale(Fraction(2))
        with pytest.raises(FunctorialityFailure) as exc:
            CoverPresheaf(2, F.values, bad)
        assert exc.value.witness == (TOP, "1,2")


def test_pairwise_top_check_leaves_a_missing_map_to_the_scan():
    F = top_check_cover(3)
    for key in [(TOP, (2,)), (TOP, (3,))]:
        gone = {k: f for k, f in F.adjacent.items() if k != key}
        G = CoverPresheaf(3, F.values, gone, check=False)
        got = _verdict(CoverPresheaf.validate, G)
        assert got == _verdict(oracle_validate, G)
        assert got[0] is InputError and "top -> " in got[2]


def test_passing_validate_composes_once_per_diamond_and_pair(monkeypatch):
    F = top_check_cover(5)
    G = CoverPresheaf(5, F.values, F.adjacent, check=False)
    calls = []
    compose = ChainMap.compose

    def counted(self, other):
        calls.append(1)
        return compose(self, other)

    monkeypatch.setattr(ChainMap, "compose", counted)
    assert G.validate()
    assert len(calls) == 2 * (70 + 10)


def test_nerve_validate_builds_each_coface_once(monkeypatch):
    F = top_check_cover(5)
    built = []
    dmap = Nerve.dmap

    def counted(self, f):
        built.append((f.p, f.q, tuple(f.verts)))
        return dmap(self, f)

    nerve = Nerve(F)
    monkeypatch.setattr(Nerve, "dmap", counted)
    assert nerve.validate()
    assert len(built) == len(set(built)) == 2 + 3 + 4 + 5


def test_nerve_validates_and_locates():
    F = fx.triangle_three_edge_presheaf()
    nerve = Nerve(F)
    nerve.validate()
    assert nerve.n_levels == 3
    # level p is the sum of the values on (p+1)-fold overlaps
    assert nerve.level(0).dim(0) == sum(F.value((j,)).dim(0) for j in (1, 2, 3))
    J, local = nerve.locate(1, 0, 0)
    assert J == (1, 2) and local == 0


# ---------------------------------------------------------------------------
# Cech complexes


def test_cech_betti_circle_covers():
    for F in (fx.triangle_two_arc_presheaf(), fx.triangle_three_edge_presheaf()):
        assert nz(betti_numbers(cech(F).cx)) == {0: 1, 1: 1}


def test_cech_betti_torus():
    assert nz(betti_numbers(cech(fx.torus_square_presheaf()).cx)) == \
        {0: 1, 1: 2, 2: 1}


def test_cech_block_layout():
    F = fx.triangle_three_edge_presheaf()
    C = cech(F)
    for n in C.cx.degrees():
        seen = 0
        for p, J, off, q in C.blocks(n):
            assert off == seen
            assert q == n - p
            seen += F.value(J).dim(q)
        assert seen == C.cx.dim(n)


def test_cech_component_inject_inverse():
    F = fx.triangle_two_arc_presheaf()
    C = cech(F)
    vec = C.inject(1, (1,), {0: Fraction(5)})
    assert C.component(1, vec, (1,)) == {0: Fraction(5)}
    assert C.component(1, vec, (1, 2)) == {}


def test_cech_augmentation_is_quasi_iso():
    F = fx.triangle_two_arc_presheaf()
    aug = cech(F).augmentation()
    aug.validate()
    assert is_quasi_iso(aug).ok


def novikov_circle(ring):
    """fx.circle_complex() with its entries read into a truncated Novikov
    ring."""
    circ = fx.circle_complex()
    d0 = circ.d(0)
    entries = [(r, c, ring.scalar(v)) for r, c, v in d0.entries()]
    d0 = SparseMatrix.from_entries(d0.nrows, d0.ncols, entries)
    return Complex(ring, dict(circ.dims), {0: d0}, support=circ.support)


def test_cech_over_novikov_matches_value():
    ring = NovikovRing(1, Fraction(2))
    circ = novikov_circle(ring)
    F = fx.constant_presheaf(2, circ)
    F.validate()
    h_cover = homology(cech(F).cx)
    h_circle = homology(circ)
    assert nz(h_cover.torsion) == nz(h_circle.torsion) == {0: [2], 1: [2]}


def oracle_cech(F):
    """The Cech complex of F laid out block by block on its own, with no
    nerve and no direct sum: (complex, blocks by degree, offsets by
    (n, p, J), augmentation or None)."""
    N = F.n_sets
    lo = min(F.value(J).support[0] + len(J) - 1 for J in all_subsets(N))
    hi = max(F.value(J).support[1] + len(J) - 1 for J in all_subsets(N))
    blocks, pos, dims = {}, {}, {}
    for n in range(lo, hi + 1):
        blocks[n], off = [], 0
        for J in all_subsets(N):
            p = len(J) - 1
            d = F.value(J).dim(n - p)
            if d:
                blocks[n].append((p, J, off, n - p))
                pos[(n, p, J)] = off
                off += d
        dims[n] = off
    diff = {}
    for n in range(lo, hi):
        m = diff[n] = SparseMatrix(dims[n + 1], dims[n])
        for p, J, off, q in blocks[n]:
            tgt = pos.get((n + 1, p, J))
            if tgt is not None:
                m.paste(F.value(J).d(q), tgt, off, -1 if p % 2 else 1)
            for j in range(1, N + 1):
                J2 = tuple(sorted(J + (j,)))
                tgt = pos.get((n + 1, p + 1, J2))
                if j not in J and tgt is not None:
                    sign = -1 if J2.index(j) % 2 else 1
                    m.paste(F.res(J, J2).mat(q), tgt, off, sign)
    cx = Complex(F.ring, dims, diff, support=(lo, hi))
    aug = None
    if F.has_top:
        top, mats = F.value(TOP), {}
        for n in top.degrees():
            m = mats[n] = SparseMatrix(cx.dim(n), top.dim(n))
            for j in range(1, N + 1):
                if (n, 0, (j,)) in pos:
                    m.paste(F.res(TOP, (j,)).mat(n), pos[(n, 0, (j,))], 0)
        aug = ChainMap(top, cx, mats)
    return cx, blocks, pos, aug


def exact_entries(m):
    """The entries of a matrix with the type and printed form of each."""
    return sorted((r, c, type(v).__name__, str(v)) for r, c, v in m.entries())


def _novikov_constant_cover():
    terms, maps = fx.novikov_telescope_terms(2, Fraction(3, 2), 3)
    return fx.constant_presheaf(3, telescope(terms, maps).cx)


ORACLE_COVERS = {
    **{f"random-N{N}-seed{seed}":
       (lambda N=N, seed=seed: fx.random_presheaf(random.Random(seed), N)[0])
       for N in range(1, 6) for seed in range(4)},
    **{name: (lambda name=name: fx.emit_fixture(name))
       for name in ("triangle-boundary", "three-edge", "torus-square",
                    "disjoint")},
    "novikov-telescope-constant": _novikov_constant_cover,
}


@pytest.mark.parametrize("name", sorted(ORACLE_COVERS))
def test_cech_matches_the_block_by_block_oracle(name):
    F = ORACLE_COVERS[name]()
    C = CechComplex(F)
    cx, blocks, pos, aug = oracle_cech(F)
    assert C.cx.support == cx.support
    lo, hi = cx.support
    for n in range(lo - 1, hi + 2):
        assert C.cx.dim(n) == cx.dim(n)
        assert exact_entries(C.cx.d(n)) == exact_entries(cx.d(n))
        assert C.blocks(n) == blocks.get(n, [])
        for J in all_subsets(F.n_sets):
            p = len(J) - 1
            assert C.offset(n, J) == pos.get((n, p, J))
    if F.has_top:
        got = C.augmentation()
        assert got.target is C.cx
        for n in F.value(TOP).degrees():
            assert exact_entries(got.mat(n)) == exact_entries(aug.mat(n))


class NerveCech:
    """The oracle: the Cech complex as the sum over p of nerve level p
    shifted by p, each level a sum over |J| = p + 1 in lex order, with the
    block offsets read back from the nerve."""

    def __init__(self, F):
        self.F, self.nerve = F, Nerve(F)
        N = F.n_sets
        self._sum = direct_sum([shift(self.nerve.level(p), p) for p in range(N)])
        self.cx = self._sum.cx
        for J, j, J2 in arrows(N):
            p = len(J) - 1
            sign = -1 if J2.index(j) % 2 else 1
            for q, m in F.res(J, J2).mats.items():
                if m.nrows and m.ncols:
                    self.cx.diff[p + q].paste(m, self.offset(p + q + 1, p + 1, J2),
                                              self.offset(p + q, p, J), sign)

    def offset(self, n, p, J):
        if not self.F.value(J).dim(n - p):
            return None
        return self._sum.offsets[n][p] + self.nerve.pos(n - p, J, 0)

    def blocks(self, n):
        return [(p, J, self.offset(n, p, J), n - p)
                for p, js in enumerate(self.nerve.level_subsets) for J in js
                if self.offset(n, p, J) is not None]

    def augmentation(self):
        return self._sum.collect(self.F.value(TOP),
                                 {0: self.nerve.augmentation_to_level(0)})


NERVE_ORACLE_COVERS = {
    **{name: (lambda name=name: fx.emit_fixture(name))
       for name in ("triangle-boundary", "three-edge", "torus-square",
                    "disjoint", "constant", "random", "p1-polyvector")},
    **{f"random-N{N}-seed{seed}":
       (lambda N=N, seed=seed: fx.random_presheaf(random.Random(seed), N)[0])
       for N in range(2, 6) for seed in (21, 22)},
    "novikov-telescope-constant": _novikov_constant_cover,
}


def test_cech_complex_builds_no_nerve(monkeypatch):
    def refuse(self, F):
        raise AssertionError("a nerve built for the Cech complex")

    F = fx.random_presheaf(random.Random(21), 4)[0]
    monkeypatch.setattr(Nerve, "__init__", refuse)
    C = CechComplex(F)
    C.augmentation()
    assert not any(isinstance(v, Nerve) for v in vars(C).values())


@pytest.mark.parametrize("name", sorted(NERVE_ORACLE_COVERS))
def test_cech_sum_over_subsets_matches_the_nerve_layout(name):
    F = NERVE_ORACLE_COVERS[name]()
    C, O = CechComplex(F), NerveCech(F)
    assert C.cx == O.cx
    lo, hi = O.cx.support
    for n in range(lo - 1, hi + 2):
        assert C.blocks(n) == O.blocks(n)
        for J in all_subsets(F.n_sets):
            assert C.offset(n, J) == O.offset(n, len(J) - 1, J)
    if F.has_top:
        got, want = C.augmentation(), O.augmentation()
        for n in F.value(TOP).degrees():
            assert got.mat(n) == want.mat(n)


# ---------------------------------------------------------------------------
# descent reports


def test_descent_holds_on_circle_covers():
    for F in (fx.triangle_two_arc_presheaf(), fx.triangle_three_edge_presheaf()):
        rep = verify_descent(F)
        assert rep.ok
        assert rep.witness_degree is None
        assert nz(rep.cech_betti) == nz(rep.top_betti) == {0: 1, 1: 1}


def test_descent_fails_for_disjoint_pieces():
    rep = verify_descent(fx.disjoint_failure_presheaf())
    assert not rep.ok
    assert rep.witness_degree == 0
    assert rep.cech_betti[0] == 2 and rep.top_betti[0] == 1


def test_descent_report_serializes():
    obj = verify_descent(fx.triangle_two_arc_presheaf()).to_json()
    assert obj["descends"] is True
    assert obj["witness_degree"] is None


# ---------------------------------------------------------------------------
# totalization by equalizer


def test_tot_matches_cech_on_triangle():
    for F in (fx.triangle_two_arc_presheaf(), fx.triangle_three_edge_presheaf()):
        T, C = tot(F), cech(F)
        T.cx.validate()
        assert nz(betti_numbers(T.cx)) == nz(betti_numbers(C.cx))
        q = T.to_cech()
        q.validate()
        assert is_quasi_iso(q).ok


def test_tot_augmentation_intertwines():
    F = fx.triangle_three_edge_presheaf()
    T, C = tot(F), cech(F)
    ta = T.augmentation()
    ta.validate()
    assert is_quasi_iso(ta).ok
    lhs = T.to_cech().compose(ta)
    assert maps_equal(lhs, C.augmentation(), F.value(TOP).degrees())


def test_tot_random_presheaves():
    for seed in range(4):
        rng = random.Random(300 + seed)
        F, _ = fx.random_presheaf(rng, rng.choice([2, 3]))
        T, C = tot(F), cech(F)
        q = T.to_cech()
        assert is_quasi_iso(q).ok
        lhs = q.compose(T.augmentation())
        assert maps_equal(lhs, C.augmentation(), F.value(TOP).degrees())


def test_tot_rejects_novikov_values():
    circ = novikov_circle(NovikovRing(1, Fraction(2)))
    F = fx.constant_presheaf(2, circ)
    with pytest.raises(UnsupportedRing):
        tot(F)


def dense_probe_to_cech(T):
    """The oracle: evaluation at the top face that, for every kernel vector,
    probes every nerve coordinate b of every level p at (top face, b)."""
    mats = {}
    for n in T.cx.degrees():
        m = SparseMatrix(T.cech.cx.dim(n), T.cx.dim(n))
        for j, vec in enumerate(T.kernel[n]):
            for p in range(T.F.n_sets):
                comp = T.level_component(n, vec, p)
                if not comp:
                    continue
                top_idx = T.models[p].index(p, range(p + 1))
                for b in range(T.nerve.level(p).dim(n - p)):
                    v = comp.get(T.tensors[p].pos(n, p, top_idx, b))
                    if v is None:
                        continue
                    J, loc = T.nerve.locate(p, n - p, b)
                    m.rows[T.cech.offset(n, J) + loc][j] = v
        mats[n] = m
    return ChainMap(T.cx, T.cech.cx, mats)


TO_CECH_COVERS = {
    **{name: (lambda name=name: fx.emit_fixture(name))
       for name in ("triangle-boundary", "three-edge", "torus-square",
                    "disjoint", "constant", "random", "p1-polyvector")},
    **{f"random-N{N}-seed{seed}":
       (lambda N=N, seed=seed: fx.random_presheaf(random.Random(seed), N)[0])
       for N in range(2, 6) for seed in range(3)},
}


@pytest.mark.parametrize("name", sorted(TO_CECH_COVERS))
def test_to_cech_matches_the_dense_probe(name):
    T = tot(TO_CECH_COVERS[name]())
    got, want = T.to_cech(), dense_probe_to_cech(T)
    assert (got.source, got.target) == (want.source, want.target)
    for n in T.cx.degrees():
        assert exact_entries(got.mat(n)) == exact_entries(want.mat(n))


# ---------------------------------------------------------------------------
# polynomial-forms totalization


def test_tw_cutoff_guard():
    F = fx.triangle_three_edge_presheaf()
    with pytest.raises(CutoffTooSmall):
        tw(F, 2)


def test_tw_quasi_iso_and_exact_section():
    F = fx.triangle_two_arc_presheaf()
    T = tot(F)
    for cutoff in (2, 3):
        W = tw(F, cutoff)
        W.cx.validate()
        comparison = tw_to_tot(W, T)
        comparison.validate()
        assert is_quasi_iso(comparison).ok
        section = whitney_section(T, W)
        section.validate()
        composite = comparison.compose(section)
        for n in T.cx.degrees():
            ident = SparseMatrix.identity(T.cx.dim(n))
            assert (composite.mat(n) - ident).is_zero()


def test_tw_betti_stable_under_cutoff_increase():
    F = fx.triangle_three_edge_presheaf()
    b3 = nz(betti_numbers(tw(F, 3).cx))
    b4 = nz(betti_numbers(tw(F, 4).cx))
    assert b3 == b4 == {0: 1, 1: 1}


def test_tw_augmentation_is_quasi_iso():
    F = fx.triangle_two_arc_presheaf()
    aug = tw(F, 2).augmentation()
    aug.validate()
    assert is_quasi_iso(aug).ok


# ---------------------------------------------------------------------------
# inclusion-exclusion and the induction pipeline


def test_inclusion_exclusion_triangle():
    F = fx.triangle_three_edge_presheaf()
    dec = inclusion_exclusion(F)
    assert dec.ok
    # the cocone is A (+) Cech(FI)[1], and A is F({1}) (+) Cech(F2)
    for n in dec.cocone.cx.degrees():
        assert dec.cocone.offsets[n] == [0, dec.A.cx.dim(n)]
    for n in dec.A.cx.degrees():
        assert dec.A.offsets[n] == [0, F.value((1,)).dim(n)]


@pytest.mark.parametrize("entries, ok", [
    ([(0, 1, 1), (1, 0, 1), (2, 2, 1)], True),
    ([(0, 1, 1), (1, 0, 1), (2, 2, 2)], False),           # an entry 2
    ([(0, 1, 1), (1, 0, 1), (2, 1, 1)], False),           # column 1 twice
    ([(0, 1, 1), (0, 0, 1), (1, 0, 1), (2, 2, 1)], False),  # two in a row
    ([(0, 1, 1), (1, 0, 1)], False),                      # an empty row
])
def test_psi_verdict_needs_a_permutation(entries, ok):
    m = SparseMatrix.from_entries(3, 3, [(r, c, Fraction(v)) for r, c, v in entries])
    assert _is_permutation(m) is ok


def test_psi_verdict_needs_a_square_block():
    # one 1 in each row, but column 2 is never hit
    m = SparseMatrix.from_entries(2, 3, [(0, 1, Fraction(1)), (1, 0, Fraction(1))])
    assert not _is_permutation(m)


def hand_written_rho_psi(F, dec):
    """The oracle: rho, aug and psi of inclusion_exclusion written out as
    one paste loop each, block by block, with the relabelings inline."""
    c2 = CechComplex(drop_first_restrict(F))
    cI = CechComplex(first_intersections(F))
    cF, cc, B = dec.cech, dec.cocone, cI.cx
    mats = {}
    for n in c2.cx.degrees():
        m = SparseMatrix(B.dim(n), c2.cx.dim(n))
        for p, J, off, q in c2.blocks(n):
            tgt = cI.offset(n, J)
            if tgt is None:
                continue
            src_old = tuple(j + 1 for j in J)
            dst_old = tuple(sorted((1,) + src_old))
            m.paste(F.res(src_old, dst_old).mat(q), tgt, off)
        mats[n] = m
    rho = ChainMap(c2.cx, B, mats)
    aug = cI.into_singletons({j: F.res((1,), (1, j + 1))
                              for j in range(1, F.n_sets)})
    mats = {}
    for n in cc.cx.degrees():
        m = SparseMatrix(cF.cx.dim(n), cc.cx.dim(n))
        at_A, at_B = cc.offsets.get(n, (0, 0))
        at_first, at_c2 = dec.A.offsets.get(n, (0, 0))
        tgt = cF.offset(n, (1,))
        if tgt is not None:
            m.paste(SparseMatrix.identity(F.value((1,)).dim(n)), tgt,
                    at_A + at_first)
        for p, J, off, q in c2.blocks(n):
            J_old = tuple(j + 1 for j in J)
            tgt = cF.offset(n, J_old)
            if tgt is not None:
                m.paste(SparseMatrix.identity(F.value(J_old).dim(q)), tgt,
                        at_A + at_c2 + off)
        for p, J, off, q in cI.blocks(n - 1):
            J_old = tuple(sorted((1,) + tuple(j + 1 for j in J)))
            tgt = cF.offset(n, J_old)
            if tgt is not None:
                m.paste(SparseMatrix.identity(F.value(J_old).dim(q)), tgt,
                        at_B + off)
        mats[n] = m
    return rho, aug, ChainMap(cc.cx, cF.cx, mats)


@pytest.mark.parametrize("n_sets, seed", [(None, None), (3, 11), (3, 12),
                                          (4, 11), (4, 12)],
                         ids=["three-edge", "N3-seed11", "N3-seed12",
                              "N4-seed11", "N4-seed12"])
def test_inclusion_exclusion_matches_the_hand_written_maps(n_sets, seed):
    F = (fx.triangle_three_edge_presheaf() if n_sets is None
         else fx.random_presheaf(random.Random(seed), n_sets)[0])
    dec = inclusion_exclusion(F)
    rho, aug, psi = hand_written_rho_psi(F, dec)
    # phi = rho - aug sits in the cocone's differential, so equal cocones
    # mean an equal rho
    phi = dec.A.fold(rho.target, {1: rho, 0: aug.scale(-1)})
    assert cocone(phi).cx == dec.cocone.cx
    for n in dec.cocone.cx.degrees():
        assert dec.psi.mat(n) == psi.mat(n), n


@pytest.mark.parametrize("n_sets", [3, 4])
def test_inclusion_exclusion_random(n_sets):
    for seed in (11, 12):
        F, _ = fx.random_presheaf(random.Random(seed), n_sets)
        dec = inclusion_exclusion(F)
        assert dec.ok, (n_sets, seed)


def test_sub_presheaves_shapes():
    F = fx.triangle_three_edge_presheaf()
    F2 = drop_first_restrict(F)
    assert F2.n_sets == F.n_sets - 1
    assert F2.value((1,)) == F.value((2,))
    FI = first_intersections(F)
    assert FI.n_sets == F.n_sets - 1
    assert FI.value((1,)) == F.value((1, 2))


def test_induction_pipeline_on_triangle():
    F, G, aug_rest, aug_int = fx.triangle_pipeline_data()
    G.validate()
    rep = induction_pipeline(F, G, aug_rest, aug_int)
    assert rep.theta_ok
    assert rep.composite_ok
    assert rep.ok


def test_induction_pipeline_sees_a_scaled_augmentation():
    F, G, aug_rest, aug_int = fx.triangle_pipeline_data()
    assert not induction_pipeline(F, G, aug_rest.scale(2), aug_int).ok


def test_induction_pipeline_sees_a_zero_augmentation():
    F, G, aug_rest, aug_int = fx.triangle_pipeline_data()
    zero = ChainMap.zero(aug_int.source, aug_int.target)
    assert not induction_pipeline(F, G, aug_rest, zero).ok


def paste_loop_theta(F, G, aug_rest, aug_int):
    """The oracle: theta : Cech(G) -> cocone(phi) pasted block by block at
    hand-computed offsets."""
    dec = inclusion_exclusion(F)
    cG = CechComplex(G)
    first = F.value((1,))
    mats = {}
    for n in cG.cx.degrees():
        m = SparseMatrix(dec.cocone.cx.dim(n), cG.cx.dim(n))
        at_A, at_B = dec.cocone.offsets.get(n, (0, 0))
        at_first, at_c2 = dec.A.offsets.get(n, (0, 0))
        off = cG.offset(n, (1,))
        if off is not None:
            m.paste(SparseMatrix.identity(first.dim(n)), at_A + at_first, off)
        off = cG.offset(n, (2,))
        if off is not None:
            m.paste(aug_rest.mat(n), at_A + at_c2, off)
        off = cG.offset(n, (1, 2))
        if off is not None:
            m.paste(aug_int.mat(n - 1), at_B, off)
        mats[n] = m
    return ChainMap(cG.cx, dec.cocone.cx, mats)


def test_theta_is_one_between_equal_to_the_paste_loop(monkeypatch):
    F, G, aug_rest, aug_int = fx.triangle_pipeline_data()
    decs, built = [], []
    decompose, between = presheaf.inclusion_exclusion, DirectSum.between

    def kept(F):
        decs.append(decompose(F))
        return decs[-1]

    def recorded(self, source, maps):
        built.append(between(self, source, maps))
        return built[-1]

    monkeypatch.setattr(presheaf, "inclusion_exclusion", kept)
    monkeypatch.setattr(DirectSum, "between", recorded)
    zero = ChainMap.zero(aug_int.source, aug_int.target)
    for rest, inter in [(aug_rest, aug_int), (aug_rest.scale(2), aug_int),
                        (aug_rest, zero)]:
        decs.clear()
        built.clear()
        induction_pipeline(F, G, rest, inter)
        [dec] = decs
        # the one map into the cocone is theta
        [theta] = [f for f in built if f.target is dec.cocone.cx]
        want = paste_loop_theta(F, G, rest, inter)
        assert theta.source == want.source and theta.target == want.target
        for n in want.source.degrees():
            assert theta.mat(n) == want.mat(n), n


# ---------------------------------------------------------------------------
# random presheaves carry their expected homology


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=2, max_value=4))
def test_random_presheaf_descent_and_betti(seed, n_sets):
    F, expected = fx.random_presheaf(random.Random(seed), n_sets)
    assert nz(betti_numbers(cech(F).cx)) == nz(expected)
    assert verify_descent(F).ok


# ---------------------------------------------------------------------------
# telescopes over the truncated Novikov ring


def test_novikov_telescope_pure_torsion():
    terms, maps = fx.novikov_telescope_terms(1, 3, 4)
    tel = telescope(terms, maps)
    h = homology(tel.cx)
    assert nz(h.torsion) == {0: [3]}


def test_novikov_telescope_comparison_vanishing():
    # induced map on H^0 dies exactly when the length gap reaches the
    # truncation order
    terms, maps = fx.novikov_telescope_terms(1, 3, 7)
    m = 3
    for L1, L2 in ((4, 5), (4, 6), (4, 7), (2, 5), (1, 4)):
        t1, t2, comparison = telescope_comparison(terms[:L2], maps[:L2 - 1],
                                                  L1, L2)
        comparison.validate()
        qsrc = novikov_q_expansion_complex(t1.cx)
        qtgt = novikov_q_expansion_complex(t2.cx)
        qmap = novikov_q_expansion_map(comparison, qsrc, qtgt)
        induced, _, _ = homology_map(qmap, 0)
        assert (rank(induced) == 0) == (L2 - L1 >= m)


def test_novikov_telescope_fractional_exponents():
    terms, maps = fx.novikov_telescope_terms(2, "3/2", 5)
    h = homology(telescope(terms, maps).cx)
    assert nz(h.torsion) == {0: [3]}
    assert h.truncation_order == 3


# ---------------------------------------------------------------------------
# serialization and the fixture registry


def test_presheaf_json_roundtrip():
    F = fx.triangle_two_arc_presheaf()
    obj = presheaf_to_json(F)
    G = presheaf_from_json(obj)
    G.validate()
    assert nz(betti_numbers(cech(G).cx)) == {0: 1, 1: 1}
    assert presheaf_to_json(G) == obj


def test_presheaf_json_rejects_garbage():
    with pytest.raises(InputError):
        presheaf_from_json({"n_sets": 2})
    with pytest.raises(InputError):
        presheaf_from_json({"n_sets": 2, "values": {}, "restrictions": []})


def test_emit_fixture_registry():
    for name in ("triangle-boundary", "three-edge", "disjoint", "constant",
                 "random"):
        out = fx.emit_fixture(name, seed=5)
        assert isinstance(out, CoverPresheaf)
    with pytest.raises(UnknownFixture):
        fx.emit_fixture("klein-bottle")
