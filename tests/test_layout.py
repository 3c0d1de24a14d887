"""Block layout of direct sums and tensor products.

``DirectSum`` and ``TensorComplex`` own where each block sits in each
degree; everything else asks them through ``locate``/``pos``/
``between``/``collect``/``fold``/``extract``.  Cones, cocones and
telescopes are direct sums too.  These tests check the layout against
identity-matrix inclusions and projections built here from the part
dimensions alone.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descentlab import fixtures as fx
from descentlab.complexes import (ChainMap, Complex, TensorComplex, cocone,
                                  cone, direct_sum, shift, single,
                                  telescope_comparison)
from descentlab.errors import ShapeMismatch
from descentlab.linalg import SparseMatrix
from descentlab.presheaf import CechComplex, Nerve, tot
from descentlab.scalars import QQ

seeds = st.integers(0, 10**6)


def gappy(rng, lo=None):
    """A complex with random dimensions 0..2 (gaps included) over a short
    support, with zero differential; or a twisted random complex."""
    if rng.random() < 0.4:
        return fx.random_complex(rng, 0, rng.randrange(3))[0]
    lo = rng.randrange(-1, 2) if lo is None else lo
    hi = lo + rng.randrange(4)
    dims = {n: rng.randrange(3) for n in range(lo, hi + 1)}
    return Complex(QQ, dims, {}, support=(lo, hi))


def random_matrix(rng, nrows, ncols):
    return SparseMatrix.from_entries(nrows, ncols, [
        (r, c, Fraction(rng.randint(-2, 2)))
        for r in range(nrows) for c in range(ncols) if rng.random() < 0.5])


def random_map(rng, source, target):
    """Any degreewise matrices source^n -> target^n; the layout does not
    need a chain map."""
    mats = {n: random_matrix(rng, target.dim(n), source.dim(n))
            for n in source.degrees()}
    return ChainMap(source, target, mats)


# ---------------------------------------------------------------------------
# tensor products


def check_tensor_layout(A, B):
    tc = TensorComplex(A, B)
    for n in tc.cx.degrees():
        order, blocks = [], []
        for i in A.degrees():
            j = n - i
            if A.dim(i) and B.dim(j):
                blocks.append((i, j))
            for a in range(A.dim(i)):
                for b in range(B.dim(j)):
                    k = tc.pos(n, i, a, b)
                    assert tc.locate(n, k) == (i, a, b)
                    order.append(k)
        # ascending (i, a, b) is ascending position, covering the degree
        assert order == list(range(tc.cx.dim(n)))
        assert tc.blocks(n) == blocks
        for bad in (-1, tc.cx.dim(n)):
            with pytest.raises(ShapeMismatch):
                tc.locate(n, bad)
    tc.cx.validate()


def test_tensor_layout_with_empty_factors():
    A = Complex(QQ, {0: 2, 1: 0, 2: 1}, {}, support=(0, 2))
    B = Complex(QQ, {0: 1, 1: 2}, {}, support=(0, 1))
    check_tensor_layout(A, B)
    tc = TensorComplex(A, B)
    # degree 2: i = 0 meets B^2 = 0 and i = 1 meets A^1 = 0
    assert tc.blocks(2) == [(2, 0)]
    assert tc.pos(2, 2, 0, 0) == 0


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_tensor_pos_locate_roundtrip(seed):
    rng = random.Random(seed)
    check_tensor_layout(gappy(rng), gappy(rng))


# ---------------------------------------------------------------------------
# direct sums


def random_parts(rng):
    """Three to five parts, with an empty complex and a part missing whole
    degrees somewhere in the middle."""
    parts = [gappy(rng) for _ in range(rng.randrange(2, 4))]
    parts.insert(1, Complex(QQ, {0: 0, 1: 0}, {}))
    parts.insert(rng.randrange(1, len(parts)), single(QQ, 3, 2))
    return parts


def part_offset(parts, i, n):
    return sum(p.dim(n) for p in parts[:i])


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_direct_sum_locate_roundtrip(seed):
    parts = random_parts(random.Random(seed))
    ds = direct_sum(parts)
    for n in ds.cx.degrees():
        for i, p in enumerate(parts):
            assert ds.offsets[n][i] == part_offset(parts, i, n)
        for index in range(ds.cx.dim(n)):
            i, j = ds.locate(n, index)
            assert 0 <= j < parts[i].dim(n)
            assert ds.offsets[n][i] + j == index
        for bad in (-1, ds.cx.dim(n)):
            with pytest.raises(ShapeMismatch):
                ds.locate(n, bad)


def inclusion(parts, total, i, n):
    m = SparseMatrix(total.dim(n), parts[i].dim(n))
    m.paste(SparseMatrix.identity(parts[i].dim(n)), part_offset(parts, i, n), 0)
    return m


def projection(parts, total, i, n):
    m = SparseMatrix(parts[i].dim(n), total.dim(n))
    m.paste(SparseMatrix.identity(parts[i].dim(n)), 0, part_offset(parts, i, n))
    return m


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_inject_extract_are_identity_composites(seed):
    rng = random.Random(seed)
    parts = random_parts(rng)
    ds = direct_sum(parts)
    other = gappy(rng)
    for i, p in enumerate(parts):
        f = random_map(rng, other, p)
        got = ds.collect(f.source, {i: f})
        assert (got.source, got.target) == (other, ds.cx)
        for n in other.degrees():
            assert got.mat(n) == inclusion(parts, ds.cx, i, n) @ f.mat(n)
        g = random_map(rng, p, other)
        got = ds.extract(i, g)
        assert (got.source, got.target) == (ds.cx, other)
        for n in ds.cx.degrees():
            assert got.mat(n) == g.mat(n) @ projection(parts, ds.cx, i, n)
    # collect over a random subset of the parts sums their inclusions
    fs = {i: random_map(rng, other, p) for i, p in enumerate(parts)
          if rng.random() < 0.5}
    got, zero = ds.collect(other, fs), ds.collect(other, {})
    assert (got.source, got.target) == (other, ds.cx)
    for n in other.degrees():
        want = SparseMatrix(ds.cx.dim(n), other.dim(n))
        for i, f in fs.items():
            want = want + inclusion(parts, ds.cx, i, n) @ f.mat(n)
        assert got.mat(n) == want
        assert zero.mat(n).is_zero()
    # fold over a random subset of the parts sums their projections
    gs = {i: random_map(rng, p, other) for i, p in enumerate(parts)
          if rng.random() < 0.5}
    got, zero = ds.fold(other, gs), ds.fold(other, {})
    assert (got.source, got.target) == (ds.cx, other)
    for n in ds.cx.degrees():
        want = SparseMatrix(other.dim(n), ds.cx.dim(n))
        for i, g in gs.items():
            want = want + g.mat(n) @ projection(parts, ds.cx, i, n)
        assert got.mat(n) == want
        assert zero.mat(n).is_zero()


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_between_sums_the_block_composites(seed):
    """A map between two sums, placed once per block, is the sum of the
    composites iota_i o f o pi_j; each composite is checked against the
    identity-matrix inclusion and projection too."""
    rng = random.Random(seed)
    tparts, sparts = random_parts(rng), random_parts(rng)
    ds, src = direct_sum(tparts), direct_sum(sparts)
    blocks = {(i, j): random_map(rng, q, p)
              for i, p in enumerate(tparts) for j, q in enumerate(sparts)
              if rng.random() < 0.3}
    blocks[(1, 1)] = random_map(rng, sparts[1], tparts[1])   # the empty parts
    for maps in (blocks, {}):
        got = ds.between(src, maps)
        assert (got.source, got.target) == (src.cx, ds.cx)
        for n in src.cx.degrees():
            want = SparseMatrix(ds.cx.dim(n), src.cx.dim(n))
            for (i, j), f in maps.items():
                composite = ds.collect(src.cx, {i: src.extract(j, f)}).mat(n)
                assert composite == (inclusion(tparts, ds.cx, i, n) @ f.mat(n)
                                     @ projection(sparts, src.cx, j, n))
                want = want + composite
            assert got.mat(n) == want


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_component_reads_back_each_part(seed):
    rng = random.Random(seed)
    parts = random_parts(rng)
    ds = direct_sum(parts)
    other = gappy(rng)
    fs = {i: random_map(rng, other, p) for i, p in enumerate(parts)}
    both = ds.collect(other, fs)
    for n in other.degrees():
        cols = both.mat(n).transpose().rows
        for i, f in fs.items():
            wants = f.mat(n).transpose().rows
            alone = ds.collect(f.source, {i: f}).mat(n).transpose().rows
            for vec, one, want in zip(cols, alone, wants):
                assert ds.component(n, vec, i) == want
                assert ds.component(n, one, i) == want
    lo, hi = ds.cx.support
    for i, p in enumerate(parts):
        for n in ds.cx.degrees():
            if not p.dim(n):    # an empty part holds nothing
                full = {k: Fraction(1) for k in range(ds.cx.dim(n))}
                assert ds.component(n, full, i) == {}
        # a degree outside the sum holds none of its parts
        assert ds.component(lo - 1, {0: Fraction(1)}, i) == {}
        assert ds.component(hi + 1, {0: Fraction(1)}, i) == {}


# ---------------------------------------------------------------------------
# cones, cocones and telescopes


def check_two_part_layout(ds):
    """locate inverts the offsets."""
    for n in ds.cx.degrees():
        for index in range(ds.cx.dim(n)):
            i, j = ds.locate(n, index)
            assert ds.offsets[n][i] + j == index
        for bad in (-1, ds.cx.dim(n)):
            with pytest.raises(ShapeMismatch):
                ds.locate(n, bad)


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_cone_is_a_direct_sum(seed):
    rng = random.Random(seed)
    C, D = gappy(rng), gappy(rng)
    mc = cone(fx.random_chain_map(rng, C, D))
    mc.cx.validate()
    for n in mc.cx.degrees():
        assert mc.offsets[n] == [0, C.dim(n + 1)]
    check_two_part_layout(mc)
    parts = [shift(C, -1), D]
    from_target = mc.collect(D, {1: ChainMap.identity(D)})
    to_shifted_source = mc.extract(0, ChainMap.identity(parts[0]))
    from_target.validate()
    to_shifted_source.validate()
    for n in D.degrees():
        assert from_target.mat(n) == inclusion(parts, mc.cx, 1, n)
    for n in mc.cx.degrees():
        assert to_shifted_source.mat(n) == projection(parts, mc.cx, 0, n)


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_cocone_is_a_direct_sum(seed):
    rng = random.Random(seed)
    C, D = gappy(rng), gappy(rng)
    cc = cocone(fx.random_chain_map(rng, C, D))
    cc.cx.validate()
    for n in cc.cx.degrees():
        assert cc.offsets[n] == [0, C.dim(n)]
    check_two_part_layout(cc)
    parts = [C, shift(D, 1)]
    to_source = cc.extract(0, ChainMap.identity(C))
    to_source.validate()
    for n in cc.cx.degrees():
        assert to_source.mat(n) == projection(parts, cc.cx, 0, n)


@given(seeds, st.integers(1, 4), st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_telescope_comparison_is_the_prefix_inclusion(seed, L1, extra):
    rng = random.Random(seed)
    L2 = min(L1 + extra, 4)
    terms, maps = fx.random_stabilizing_diagram(rng, 4)
    t1, t2, comp = telescope_comparison(terms, maps, L1, L2)
    comp.validate()
    for n in t2.cx.degrees():
        head2 = part_offset(terms, L2 - 1, n + 1)
        assert t2.cone.offsets[n] == [0, head2]
    for n in t1.cx.degrees():
        head1 = part_offset(terms, L1 - 1, n + 1)
        head2 = part_offset(terms, L2 - 1, n + 1)
        assert t1.cone.offsets[n] == [0, head1]
        want = SparseMatrix(t2.cx.dim(n), t1.cx.dim(n))
        want.paste(SparseMatrix.identity(head1), 0, 0)
        want.paste(SparseMatrix.identity(part_offset(terms, L1, n)), head2, head1)
        assert comp.mat(n) == want


# ---------------------------------------------------------------------------
# the layouts the descent code builds on them


def test_nerve_pos_inverts_locate():
    F = fx.triangle_three_edge_presheaf()
    nerve = Nerve(F)
    for p in range(nerve.n_levels):
        level = nerve.level(p)
        for q in level.degrees():
            for index in range(level.dim(q)):
                J, loc = nerve.locate(p, q, index)
                assert loc < F.value(J).dim(q)
                assert nerve.pos(q, J, loc) == index


@pytest.mark.parametrize("F", [
    fx.random_presheaf(random.Random(1), 3)[0],
    fx.random_presheaf(random.Random(2), 4)[0],
    fx.triangle_three_edge_presheaf(),
], ids=["random-N3", "random-N4", "three-edge"])
def test_coface_is_the_sum_of_its_restrictions(F):
    # each component J2 of level p + 1 restricts from the J1 that coface i
    # picks out, assembled here one full-size collect of an extract at a time
    nerve = Nerve(F)
    sums = [direct_sum([F.value(J) for J in js]) for js in nerve.level_subsets]
    for p in range(nerve.n_levels - 1):
        for i in range(p + 2):
            want = ChainMap.zero(nerve.level(p), nerve.level(p + 1))
            for k2, J2 in enumerate(nerve.level_subsets[p + 1]):
                J1 = J2[:i] + J2[i + 1:]
                k1 = nerve.level_subsets[p].index(J1)
                want = want + sums[p + 1].collect(
                    sums[p].cx, {k2: sums[p].extract(k1, F.res(J1, J2))})
            assert nerve.coface(p, i) == want


def test_cech_offset_is_none_for_an_empty_block():
    F = fx.triangle_three_edge_presheaf()
    C = CechComplex(F)
    for n in C.cx.degrees():
        for p, J, off, q in C.blocks(n):
            assert C.offset(n, J) == off
    # pairwise overlaps of the three edges are points: nothing in degree 1
    assert C.offset(2, (1, 2)) is None


def ambient_locate(E, n, index):
    """(level p, form degree s, model index a, nerve index b) of an ambient
    degree-n index, read off the level sum and the level's tensor."""
    p, loc = E._levels.locate(n, index)
    return (p,) + E.tensors[p].locate(n, loc)


def test_ambient_pos_inverts_ambient_locate():
    T = tot(fx.random_presheaf(random.Random(3), 3)[0])
    for n in T.ambient.degrees():
        for index in range(T.ambient.dim(n)):
            p, s, a, b = ambient_locate(T, n, index)
            assert T.ambient_pos(n, p, s, a, b) == index
