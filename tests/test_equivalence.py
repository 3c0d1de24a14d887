"""Totalization outputs pinned against a recorded digest.

Every differential and comparison map of the equalizer totalizations on a
few small seeded covers and the bundled triangle fixtures is hashed entry by
entry and compared with ``golden/totalization_digest.json``.  A rewrite of
the totalization code must leave every kernel basis, differential and
transport matrix exactly as it was; this test pins them.  Regenerate the
file (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_equivalence.py > tests/golden/totalization_digest.json

The forms model moved from reduced coordinates (t_0 = 1 - sum t eliminated)
to barycentric ones, which changed every forms-side digest and no other.
The reduced model is kept below as an oracle: the dehomogenization t_0 ->
1 - sum t is an isomorphism of totalizations that carries integration, the
Whitney section and the cutoff inclusion to their reduced counterparts.

The totalizations read kernel coordinates at the free columns under two
certificates (coface pullbacks and nerve cofaces are chain maps, so the
constraints are; level maps commute with the coface pullbacks).  The per-vector TrackedEchelon membership check they
replaced is kept below as an oracle, and each certificate is shown to trip
on a one-entry mutation.
"""

import hashlib
import json
import random
import sys
from fractions import Fraction
from itertools import combinations
from math import factorial, prod
from pathlib import Path

import pytest

from descentlab import presheaf
from descentlab import fixtures as fx
from descentlab.algebra import tw_include
from descentlab import complexes
from descentlab.complexes import ChainMap, Complex, TensorComplex, tensor_map
from descentlab.errors import ShapeMismatch
from descentlab.linalg import SparseMatrix, TrackedEchelon
from descentlab.linalg import rank as linalg_rank
from descentlab.polyvec import _merge_odd
from descentlab.presheaf import (TOP, CoverPresheaf, EqualizerTotalization,
                                 TwComplex, _model_map, _transport, tot, tw,
                                 tw_to_tot, whitney_section)
from descentlab.scalars import QQ
from descentlab.simplex import (NCModel, OmegaModel, PolyForm,
                                integration_cochain, whitney)
from test_linalg import canonical

GOLDEN = Path(__file__).parent / "golden" / "totalization_digest.json"

# (name, factory): seeded random covers at N=3 and N=4, then the fixtures
CASES = [
    ("random-n3-s0", lambda: fx.random_presheaf(random.Random(0), 3, max_dim=4, width=3)[0]),
    ("random-n3-s11", lambda: fx.random_presheaf(random.Random(11), 3, max_dim=4, width=3)[0]),
    ("random-n4-s5", lambda: fx.random_presheaf(random.Random(5), 4, max_dim=3, width=2)[0]),
    ("random-n4-s9", lambda: fx.random_presheaf(random.Random(9), 4, max_dim=3, width=2)[0]),
    ("triangle-two-arc", fx.triangle_two_arc_presheaf),
    ("triangle-three-edge", fx.triangle_three_edge_presheaf),
]


def _hash_blocks(degrees, block):
    h = hashlib.sha256()
    for n in degrees:
        m = block(n)
        h.update(f"{n}:{m.nrows}x{m.ncols};".encode())
        for r, c, v in sorted(m.entries()):
            h.update(f"{r},{c},{v};".encode())
    return h.hexdigest()


def _complex_digest(cx):
    return _hash_blocks(cx.degrees(), cx.d)


def _map_digest(f):
    return _hash_blocks(f.source.degrees(), f.mat)


def case_digests(F):
    N = F.n_sets
    T, W, W1 = tot(F), tw(F, N), tw(F, N + 1)
    return {
        "tot": _complex_digest(T.cx),
        "tw": _complex_digest(W.cx),
        "tw+1": _complex_digest(W1.cx),
        "tw_to_tot": _map_digest(tw_to_tot(W, T)),
        "whitney_section": _map_digest(whitney_section(T, W)),
        "augmentation": _map_digest(T.augmentation()),
        "tw_augmentation": _map_digest(W.augmentation()),
        "to_cech": _map_digest(T.to_cech()),
        "tw_include": _map_digest(tw_include(W, W1)),
    }


def all_digests():
    out = {}
    for name, make in CASES:
        for key, digest in case_digests(make()).items():
            out[f"{name}/{key}"] = digest
    return out


def test_totalization_digest_unchanged():
    expected = json.loads(GOLDEN.read_text())
    got = all_digests()
    assert sorted(got) == sorted(expected)
    changed = [k for k in sorted(got) if got[k] != expected[k]]
    assert not changed, f"outputs changed: {changed}"


def test_represent_rejects_vector_outside_kernel():
    F = fx.triangle_three_edge_presheaf()
    W = tw(F, 3)
    for n in W.ambient.degrees():
        basis = W.kernel[n]
        if not basis:
            continue
        # a kernel vector is read back as its own coordinate
        assert W.represent(n, dict(basis[0])) == {0: Fraction(1)}
        # its first key is a free column; moving its weight onto a pivot
        # column leaves the kernel
        pivot_cols = set().union(*basis) - {next(iter(v)) for v in basis}
        if pivot_cols:
            with pytest.raises(ShapeMismatch):
                W.represent(n, {min(pivot_cols): Fraction(1)})
            return
    raise AssertionError("no degree with a pivot column to test")


# ---------------------------------------------------------------------------
# the per-vector membership check, kept as an oracle


def oracle_represent(E, n):
    """Kernel coordinates of degree-n ambient vectors by one TrackedEchelon
    elimination each, with the free columns reindexed first; asserts that
    every vector it is given lies in the kernel."""
    basis = E.kernel.get(n, [])
    free = [next(iter(vec)) for vec in basis]
    taken = set(free)
    order = free + [c for c in range(E.ambient.dim(n)) if c not in taken]
    pos = {c: k for k, c in enumerate(order)}
    te = TrackedEchelon()
    for j, vec in enumerate(basis):
        te.add({pos[c]: v for c, v in vec.items()}, j)

    def represent(vec):
        if not vec:
            return {}
        coords = te.represent({pos[i]: v for i, v in vec.items()})
        assert coords is not None, f"degree-{n} vector outside the kernel"
        return coords

    return represent


def matrix_from_columns(columns, nrows):
    m = SparseMatrix(nrows, len(columns))
    for j, col in enumerate(columns):
        for i, v in col.items():
            m.rows[i][j] = v
    return m


def oracle_differential(E, n):
    rep = oracle_represent(E, n + 1)
    return matrix_from_columns(
        [rep(E.ambient.d(n).matvec(vec)) for vec in E.kernel[n]],
        E.cx.dim(n + 1))


def ambient_locate(E, n, index):
    """(level p, form degree s, model index a, nerve index b) of an ambient
    degree-n index; the inverse of ambient_pos."""
    p, loc = E._levels.locate(n, index)
    return (p,) + E.tensors[p].locate(n, loc)


def oracle_transport(src, tgt, maps, n):
    columns = {(p, s): f.mat(s).transpose().rows
               for p, f in enumerate(maps) for s in f.source.degrees()}
    rep = oracle_represent(tgt, n)
    images = []
    for vec in src.kernel[n]:
        amb = {}
        for idx, v in vec.items():
            p, s, a, b = ambient_locate(src, n, idx)
            for a2, w in columns[(p, s)][a].items():
                r = tgt.ambient_pos(n, p, s, a2, b)
                amb[r] = amb.get(r, 0) + w * v
        images.append(rep({r: v for r, v in amb.items() if v}))
    return matrix_from_columns(images, tgt.cx.dim(n))


def oracle_augmentation(E, n):
    """Column k: the unit tensor the levelwise restriction of top basis
    vector k, represented by elimination."""
    augs = [E.nerve.augmentation_to_level(p).mat(n)
            for p in range(E.F.n_sets)]
    rep = oracle_represent(E, n)
    images = []
    for k in range(E.F.value(TOP).dim(n)):
        amb = {}
        for p, (m, aug) in enumerate(zip(E.models, augs)):
            for a, u in m.to_vec(0, m.unit()).items():
                for b, v in aug.column(k).items():
                    r = E.ambient_pos(n, p, 0, a, b)
                    amb[r] = amb.get(r, 0) + u * v
        images.append(rep({r: v for r, v in amb.items() if v}))
    return matrix_from_columns(images, E.cx.dim(n))


def _integration(W, T):
    return [_model_map(om, nc, lambda key, p=p: integration_cochain(
        PolyForm(p, {key: Fraction(1)})))
        for p, (om, nc) in enumerate(zip(W.models, T.models))]


def _whitney(T, W):
    return [_model_map(nc, om, lambda F, p=p: whitney(p, {F: Fraction(1)}))
            for p, (nc, om) in enumerate(zip(T.models, W.models))]


def _inclusion(W, W1):
    return [_model_map(ms, mb, lambda key, p=p: PolyForm(p, {key: Fraction(1)}))
            for p, (ms, mb) in enumerate(zip(W.models, W1.models))]


def exact_entries(m):
    """Shape, and every entry with the type and printed form of each."""
    return (m.nrows, m.ncols,
            sorted((r, c, type(v).__name__, str(v)) for r, c, v in m.entries()))


def value_entries(m):
    """Shape, and every entry with its value (of any rational type)."""
    return (m.nrows, m.ncols, sorted(m.entries()))


ORACLE_COVERS = {
    **{f"random-N{N}-seed{seed}":
       (lambda N=N, seed=seed: fx.random_presheaf(
           random.Random(seed), N, max_dim=3, width=2)[0])
       for N in range(1, 5) for seed in range(2)},
    **{name: (lambda name=name: fx.emit_fixture(name))
       for name in ("triangle-boundary", "three-edge", "torus-square",
                    "disjoint")},
}


@pytest.mark.parametrize("name", sorted(ORACLE_COVERS))
def test_totalizations_match_the_per_vector_oracle(name):
    F = ORACLE_COVERS[name]()
    N = F.n_sets
    T, W, W1 = tot(F), tw(F, N), tw(F, N + 1)

    def same(got, want):
        # the oracles build Fractions; the totalizations write canonical form
        assert all(canonical(v) for _, _, v in got.entries())
        assert value_entries(got) == value_entries(want)

    for E in (T, W, W1):
        for n in E.ambient.degrees():
            same(E.cx.d(n), oracle_differential(E, n))
    for got, (src, tgt, maps) in [
            (tw_to_tot(W, T), (W, T, _integration(W, T))),
            (whitney_section(T, W), (T, W, _whitney(T, W))),
            (tw_include(W, W1), (W, W1, _inclusion(W, W1)))]:
        for n in src.cx.degrees():
            same(got.mat(n), oracle_transport(src, tgt, maps, n))
    if F.has_top:
        for E in (T, W):
            got = E.augmentation()
            for n in F.value(TOP).degrees():
                same(got.mat(n), oracle_augmentation(E, n))


@pytest.mark.parametrize("name", sorted(ORACLE_COVERS))
def test_transports_write_only_the_free_rows(name, monkeypatch):
    # _transport writes the rows at the target's free columns from the level
    # maps and the layouts; it builds no ambient map between the level sums
    F = ORACLE_COVERS[name]()
    N = F.n_sets
    T, W, W1 = tot(F), tw(F, N), tw(F, N + 1)
    calls = [lambda: tw_to_tot(W, T), lambda: whitney_section(T, W),
             lambda: tw_include(W, W1)]
    wants = [call() for call in calls]

    def refuse(*args):
        raise AssertionError("an ambient map was built")

    monkeypatch.setattr(complexes.DirectSum, "between", refuse)
    monkeypatch.setattr(complexes, "tensor_map", refuse)
    monkeypatch.setattr(presheaf, "tensor_map", refuse)
    for call, want in zip(calls, wants):
        got = call()
        for n in got.source.degrees():
            assert exact_entries(got.mat(n)) == exact_entries(want.mat(n))


# ---------------------------------------------------------------------------
# the tensor of two maps, against the column scan it replaced


def column_scan_tensor_map(tsrc, ttgt, f, g):
    """f (x) g read off one column of each factor per basis element."""
    mats = {}
    for n in tsrc.cx.degrees():
        m = mats[n] = SparseMatrix(ttgt.cx.dim(n), tsrc.cx.dim(n))
        for i, j in tsrc.blocks(n):
            fcols = [f.mat(i).column(a) for a in range(tsrc.A.dim(i))]
            gcols = [g.mat(j).column(b) for b in range(tsrc.B.dim(j))]
            col = tsrc.pos(n, i, 0, 0)
            for fa in fcols:
                for gb in gcols:
                    for a2, va in fa.items():
                        for b2, vb in gb.items():
                            m.rows[ttgt.pos(n, i, a2, b2)][col] = va * vb
                    col += 1
    return ChainMap(tsrc.cx, ttgt.cx, mats)


def assert_same_entries(got, want):
    for n in got.source.degrees():
        assert exact_entries(got.mat(n)) == exact_entries(want.mat(n)), n


@pytest.mark.parametrize("name", sorted(ORACLE_COVERS))
def test_constraint_legs_match_the_column_scan(name):
    F = ORACLE_COVERS[name]()
    N = F.n_sets
    for E in (tot(F), tw(F, N), tw(F, N + 1)):
        for (p, i), pb in E.pullbacks.items():
            cross = TensorComplex(E.models[p].cx, E.nerve.level(p + 1))
            legs = [(E.tensors[p + 1], pb,
                     ChainMap.identity(E.nerve.level(p + 1))),
                    (E.tensors[p], ChainMap.identity(E.models[p].cx),
                     E.nerve.coface(p, i))]
            for tsrc, f, g in legs:
                assert_same_entries(tensor_map(tsrc, cross, f, g),
                                 column_scan_tensor_map(tsrc, cross, f, g))


def test_torus_square_restrictions_match_the_column_scan(monkeypatch):
    F = fx.torus_square_presheaf()
    scans = []

    def scan(*args):
        scans.append(args)
        return column_scan_tensor_map(*args)

    monkeypatch.setattr(complexes, "tensor_map", scan)
    G = fx.torus_square_presheaf()
    assert len(scans) == len(F.adjacent) == len(G.adjacent)
    for arrow, f in F.adjacent.items():
        assert_same_entries(f, G.adjacent[arrow])


# ---------------------------------------------------------------------------
# the reduced-coordinate forms model, kept as an oracle for the change of basis
#
# Before the barycentric basis, OmegaModel eliminated t_0 = 1 - (t_1 + ... +
# t_p): a key (a, I) is t_1^a_1 ... t_p^a_p dt_I of weight |a| + |I| <= P.
# Sending t_0 to 1 - sum t is a map of models from the barycentric basis
# (the dehomogenization), so _model_map and _transport give tw -> the
# reduced tw under the naturality certificate, and it must be an
# isomorphism that carries integration, the Whitney section and the cutoff
# inclusion to their reduced counterparts.


class ReducedForm:
    """A form {(a, I): Fraction} in the reduced coordinates t_1..t_p."""

    def __init__(self, p, terms=None):
        self.p = p
        self.terms = {}
        for key, c in (terms or {}).items():
            _add(self.terms, key, c)

    @classmethod
    def const(cls, p):
        return cls(p, {((0,) * p, ()): Fraction(1)})

    @classmethod
    def coord(cls, p, j):
        """t_j (j >= 1), or 1 - sum(t) for j = 0."""
        if j:
            return cls(p, {(_unit_exps(p, j), ()): Fraction(1)})
        return cls(p, {((0,) * p, ()): Fraction(1),
                       **{(_unit_exps(p, w), ()): Fraction(-1)
                          for w in range(1, p + 1)}})

    @classmethod
    def dcoord(cls, p, j):
        """dt_j (j >= 1), or -sum(dt) for j = 0."""
        ws = [j] if j else range(1, p + 1)
        return cls(p, {((0,) * p, (w,)): Fraction(1 if j else -1) for w in ws})

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            _add(out, k, c)
        return ReducedForm(self.p, out)

    def scale(self, s):
        return ReducedForm(self.p, {k: c * s for k, c in self.terms.items()})

    def wedge(self, other):
        out = {}
        for (e1, I1), c1 in self.terms.items():
            for (e2, I2), c2 in other.terms.items():
                merged = _merge_odd(I1, I2)
                if merged is not None:
                    sign, I = merged
                    _add(out, (tuple(map(sum, zip(e1, e2))), I), c1 * c2 * sign)
        return ReducedForm(self.p, out)

    def d(self):
        out = {}
        for (exps, I), c in self.terms.items():
            for j in range(1, self.p + 1):
                a = exps[j - 1]
                merged = _merge_odd((j,), I)
                if a and merged is not None:
                    sign, J = merged
                    e = exps[:j - 1] + (a - 1,) + exps[j:]
                    _add(out, (e, J), c * a * sign)
        return ReducedForm(self.p, out)


def _add(acc, key, c):
    cur = acc.get(key, 0) + c
    if cur:
        acc[key] = cur
    else:
        acc.pop(key, None)


def _unit_exps(p, j):
    return tuple(int(w == j) for w in range(1, p + 1))


def _power(form, k):
    out = ReducedForm.const(form.p)
    for _ in range(k):
        out = out.wedge(form)
    return out


def reduced_pullback(f, form):
    """Substitute, for each codomain coordinate t_j, the coordinate of its
    preimage vertex (1 - sum t for vertex 0) or 0."""
    pre = {w: v for v, w in enumerate(f.verts)}
    out = ReducedForm(f.p)
    for (exps, I), c in form.terms.items():
        acc = ReducedForm(f.p, {((0,) * f.p, ()): c})
        for j in range(1, f.q + 1):
            t = (ReducedForm.coord(f.p, pre[j]) if j in pre
                 else ReducedForm(f.p))
            acc = acc.wedge(_power(t, exps[j - 1]))
        for j in I:
            acc = acc.wedge(ReducedForm.dcoord(f.p, pre[j]) if j in pre
                            else ReducedForm(f.p))
        out = out + acc
    return out


def reduced_face_integral(form, F):
    """(-1)^m prod_{v in F, v >= 1} a_v! / (k + |a|)! for t^a dt_I with a on
    F and I = F minus {v_m}."""
    k = len(F) - 1
    total = Fraction(0)
    for (exps, I), c in form.terms.items():
        if len(I) != k or not set(F).issuperset(I):
            continue
        if any(a and j not in F for j, a in enumerate(exps, 1)):
            continue
        num = prod(factorial(a) for a in exps)
        m = next(i for i, v in enumerate(F) if i == k or I[i] != v)
        total += c * Fraction(-num if m % 2 else num,
                              factorial(k + sum(exps)))
    return total


def reduced_integration_cochain(form):
    out = {}
    for n in range(form.p + 1):
        for F in combinations(range(form.p + 1), n + 1):
            val = reduced_face_integral(form, F)
            if val:
                out[F] = val
    return out


def reduced_whitney(p, F):
    """The Whitney form of delta_F, t_0 and dt_0 in reduced coordinates."""
    out = ReducedForm(p)
    for j, v in enumerate(F):
        term = ReducedForm.coord(p, v)
        for w in F[:j] + F[j + 1:]:
            term = term.wedge(ReducedForm.dcoord(p, w))
        out = out + term.scale((-1) ** j * factorial(len(F) - 1))
    return out


class ReducedOmegaModel:
    """Degree n: t^a dt_I with |I| = n and |a| + n <= P, ordered by I then
    a.  Pullbacks are memoized per injection."""

    def __init__(self, p, P):
        self.p = p
        self._basis = {n: [(a, I) for I in combinations(range(1, p + 1), n)
                           for a in _exps_upto(p, P - n)]
                       for n in range(p + 1)}
        self._index = {n: {k: i for i, k in enumerate(bs)}
                       for n, bs in self._basis.items()}
        self._pulled = {}
        diff = {n: SparseMatrix.from_entries(
            len(self._basis[n + 1]), len(self._basis[n]),
            [(r, col, v) for col, key in enumerate(self._basis[n])
             for r, v in self.to_vec(n + 1, ReducedForm(
                 p, {key: Fraction(1)}).d()).items()])
            for n in range(p)}
        self.cx = Complex(QQ, {n: len(bs) for n, bs in self._basis.items()},
                          diff, support=(0, p))

    def basis(self, n):
        return self._basis.get(n, [])

    def pullback(self, f, key):
        memo = self._pulled.setdefault(f, {})
        if key not in memo:
            memo[key] = reduced_pullback(f, ReducedForm(self.p, {key: 1}))
        return memo[key]

    def to_vec(self, n, form):
        out = {}
        for key, c in form.terms.items():
            assert len(key[1]) == n
            out[self._index[n][key]] = c
        return out


def _exps_upto(nvars, total):
    if total < 0:
        return []
    if nvars == 0:
        return [()]
    return [(h,) + t for h in range(total + 1)
            for t in _exps_upto(nvars - 1, total - h)]


class ReducedTw(TwComplex):
    def __init__(self, F, cutoff):
        self.weight_cutoff = cutoff
        EqualizerTotalization.__init__(
            self, F, [ReducedOmegaModel(p, cutoff) for p in range(F.n_sets)])


def dehomogenize(p, key):
    """t^b dt_I with t_0 replaced by 1 - (t_1 + ... + t_p)."""
    b, I = key
    mono = ReducedForm(p, {(b[1:], I): Fraction(1)})
    return _power(ReducedForm.coord(p, 0), b[0]).wedge(mono)


def to_reduced(W, R):
    return _transport(W, R, dehomogenize)


def assert_isomorphism(f):
    for n in f.source.degrees():
        m = f.mat(n)
        assert m.nrows == m.ncols == linalg_rank(m), n


CHANGE_OF_BASIS_COVERS = {
    **{name: (make, True) for name, make in CASES},
    **{f"random-N{N}-seed{seed}":
       (lambda N=N, seed=seed: fx.random_presheaf(
           random.Random(seed), N, max_dim=3, width=2)[0], True)
       for N in range(1, 5) for seed in range(2)},
    # ambient 7,208; the cutoff inclusion is left to the smaller covers
    "random-N5-seed4": (lambda: fx.random_presheaf(
        random.Random(4), 5, max_dim=4, width=4)[0], False),
}


@pytest.mark.parametrize("name", sorted(CHANGE_OF_BASIS_COVERS))
def test_the_barycentric_basis_is_a_change_of_basis(name):
    make, include = CHANGE_OF_BASIS_COVERS[name]
    F = make()
    N = F.n_sets
    T, W, R = tot(F), tw(F, N), ReducedTw(F, N)
    iso = to_reduced(W, R)
    assert_isomorphism(iso)
    reduced_integration = _transport(R, T, lambda p, key: (
        reduced_integration_cochain(ReducedForm(p, {key: Fraction(1)}))))
    assert reduced_integration.compose(iso) == tw_to_tot(W, T)
    reduced_section = _transport(T, R, reduced_whitney)
    assert iso.compose(whitney_section(T, W)) == reduced_section
    if include:
        W1, R1 = tw(F, N + 1), ReducedTw(F, N + 1)
        iso1 = to_reduced(W1, R1)
        assert_isomorphism(iso1)
        reduced_include = _transport(R, R1, lambda p, key: ReducedForm(
            p, {key: Fraction(1)}))
        assert iso1.compose(tw_include(W, W1)) == reduced_include.compose(iso)


# ---------------------------------------------------------------------------
# the two certificates trip on one mutated entry


def _bump(mat):
    """Add 1 to one stored entry of the last nonzero row, in place."""
    row = next(r for r in reversed(mat.rows) if r)
    c = next(iter(row))
    row[c] = row[c] + 1


def test_a_mutated_coface_pullback_fails_the_constraint_certificate(
        monkeypatch):
    F = fx.constant_presheaf(3, fx.circle_complex())
    real = presheaf._model_pullback

    def mutated(m_to, m_from, f):
        pb = real(m_to, m_from, f)
        if (f.p, f.verts) == (1, (0, 2)):    # coface 1 of level 1
            _bump(pb.mat(0))
        return pb

    monkeypatch.setattr(presheaf, "_model_pullback", mutated)
    with pytest.raises(ShapeMismatch, match="level 1, coface 1"):
        tw(F, 3)


def test_a_restriction_that_is_no_chain_map_fails_the_constraint_certificate():
    # the nerve side: F(1) -> F(1,2) is not a chain map, and level 0's
    # coface 1 restricts along it
    F = fx.constant_presheaf(2, fx.circle_complex())
    bad = dict(F.adjacent)
    f = bad[((1,), (1, 2))] = ChainMap.identity(F.value((1,)))
    _bump(f.mat(0))
    G = CoverPresheaf(2, dict(F.values), bad, check=False)
    with pytest.raises(ShapeMismatch, match="level 0, coface 1"):
        tw(G, 3)


@pytest.mark.parametrize("build, kinds", [
    (lambda W, T, W1: tw_to_tot(W, T), (OmegaModel, NCModel)),
    (lambda W, T, W1: whitney_section(T, W), (NCModel, OmegaModel)),
    (lambda W, T, W1: tw_include(W, W1), (OmegaModel, OmegaModel)),
], ids=["integration", "whitney", "inclusion"])
def test_a_mutated_level_map_fails_the_naturality_certificate(
        monkeypatch, build, kinds):
    F = fx.triangle_three_edge_presheaf()
    W, T, W1 = tw(F, 3), tot(F), tw(F, 4)
    real = presheaf._model_map

    def mutated(m_from, m_to, image):
        f = real(m_from, m_to, image)
        if (type(m_from), type(m_to)) == kinds and m_from.p == m_to.p == 1:
            _bump(f.mat(0))
        return f

    monkeypatch.setattr(presheaf, "_model_map", mutated)
    with pytest.raises(ShapeMismatch, match="coface . at level [01]"):
        build(W, T, W1)


def test_transport_needs_one_presheaf():
    W = tw(fx.triangle_three_edge_presheaf(), 3)
    with pytest.raises(ShapeMismatch, match="different presheaves"):
        tw_to_tot(W, tot(fx.triangle_three_edge_presheaf()))


if __name__ == "__main__":
    json.dump(all_digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
