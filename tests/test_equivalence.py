"""Totalization outputs pinned against a recorded digest.

Every differential and comparison map of the equalizer totalizations on a
few small seeded covers and the bundled triangle fixtures is hashed entry by
entry and compared with ``golden/totalization_digest.json``.  A rewrite of
the totalization code must leave every kernel basis, differential and
transport matrix exactly as it was; this test pins them.  Regenerate the
file (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_equivalence.py > tests/golden/totalization_digest.json

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
from pathlib import Path

import pytest

from descentlab import algebra, presheaf
from descentlab import fixtures as fx
from descentlab.algebra import tw_include
from descentlab.complexes import ChainMap
from descentlab.errors import ShapeMismatch
from descentlab.linalg import SparseMatrix, TrackedEchelon
from descentlab.presheaf import (TOP, CoverPresheaf, _model_map, tot, tw,
                                 tw_to_tot, whitney_section)
from descentlab.simplex import (NCModel, OmegaModel, PolyForm,
                                integration_cochain, whitney)

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
        assert W.represent(n, W.ambient_vector(n, 0)) == {0: Fraction(1)}
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


def oracle_transport(src, tgt, maps, n):
    columns = {(p, s): f.mat(s).transpose().rows
               for p, f in enumerate(maps) for s in f.source.degrees()}
    rep = oracle_represent(tgt, n)
    images = []
    for vec in src.kernel[n]:
        amb = {}
        for idx, v in vec.items():
            p, s, a, b = src.ambient_locate(n, idx)
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
    for E in (T, W, W1):
        for n in E.ambient.degrees():
            assert exact_entries(E.cx.d(n)) == exact_entries(
                oracle_differential(E, n))
    for got, (src, tgt, maps) in [
            (tw_to_tot(W, T), (W, T, _integration(W, T))),
            (whitney_section(T, W), (T, W, _whitney(T, W))),
            (tw_include(W, W1), (W, W1, _inclusion(W, W1)))]:
        for n in src.cx.degrees():
            assert exact_entries(got.mat(n)) == exact_entries(
                oracle_transport(src, tgt, maps, n))
    if F.has_top:
        for E in (T, W):
            got = E.augmentation()
            for n in F.value(TOP).degrees():
                assert exact_entries(got.mat(n)) == exact_entries(
                    oracle_augmentation(E, n))


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
    monkeypatch.setattr(algebra, "_model_map", mutated)
    with pytest.raises(ShapeMismatch, match="coface . at level [01]"):
        build(W, T, W1)


def test_transport_needs_one_presheaf():
    W = tw(fx.triangle_three_edge_presheaf(), 3)
    with pytest.raises(ShapeMismatch, match="different presheaves"):
        tw_to_tot(W, tot(fx.triangle_three_edge_presheaf()))


if __name__ == "__main__":
    json.dump(all_digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
