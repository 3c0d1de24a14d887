"""Seeded fixture generators with independently known invariants.

Random complexes are built from contractible intervals and degree dots and
then conjugated by unimodular changes of basis, so their homology is known by
construction.  Random chain maps are drawn from the full solution space of
the chain-map equations, not from any special family.
"""

import random
from fractions import Fraction

from .complexes import ChainMap, Complex, change_basis, direct_sum, single
from .errors import UnknownFixture
from .linalg import SparseMatrix, accumulate, add_into, kernel_basis, whole
from .scalars import QQ


def random_unimodular(rng: random.Random, n: int):
    """A random integer matrix with determinant +-1, and its exact inverse,
    made by 2n random elementary row operations."""
    u = SparseMatrix.identity(n)
    uinv = SparseMatrix.identity(n)
    if n <= 1:
        return u, uinv
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        s = rng.choice([-2, -1, 1, 2])
        # row op on u: row_i += s * row_j ; inverse gets the column op
        add_into(u.rows[i], u.rows[j], s)
        for row in uinv.rows:
            v = row.get(i)
            if v is not None:
                accumulate(row, j, -v * s)
    return u, uinv


def random_complex(rng: random.Random, lo=0, hi=2, max_cells=3, twist=True):
    """A Q-complex assembled from dots and intervals, optionally conjugated.

    Returns (complex, expected_betti).
    """
    parts, betti = [], {}
    for n in range(lo, hi + 1):
        betti.setdefault(n, 0)
        for _ in range(rng.randrange(max_cells)):
            parts.append(single(QQ, n, 1))
            betti[n] += 1
    for n in range(lo, hi):
        for _ in range(rng.randrange(max_cells)):
            d = SparseMatrix.from_entries(1, 1, [(0, 0, 1)])
            parts.append(Complex(QQ, {n: 1, n + 1: 1}, {n: d}))
    if not parts:
        parts.append(single(QQ, lo, 1))
        betti[lo] += 1
    cx = direct_sum(parts).cx
    if twist:
        mats, inv = {}, {}
        for n in cx.degrees():
            u, uinv = random_unimodular(rng, cx.dim(n))
            mats[n], inv[n] = u, uinv
        cx = change_basis(cx, mats, inv)
    return cx, betti


def chain_map_space(A: Complex, B: Complex):
    """Basis of the space of degree-0 chain maps A -> B.

    Unknowns are the entries of all blocks f^n; the chain-map condition
    d_B f = f d_A is one linear equation per matrix position of each
    composite.  Returns a list of {block-entry: value} dictionaries keyed by
    (n, row, col).
    """
    unknowns = []
    for n in A.degrees():
        for r in range(B.dim(n)):
            for c in range(A.dim(n)):
                unknowns.append((n, r, c))
    index = {u: i for i, u in enumerate(unknowns)}
    eqs = []
    for n in A.degrees():
        dB, dA_cols = B.d(n), A.d(n).transpose().rows
        for r in range(B.dim(n + 1)):
            for c in range(A.dim(n)):
                eq = {}
                for k, v in dB.rows[r].items():  # d_B f term
                    accumulate(eq, index[(n, k, c)], v)
                for k, v in dA_cols[c].items():  # f d_A term
                    accumulate(eq, index[(n + 1, r, k)], -v)
                if eq:
                    eqs.append(eq)
    m = SparseMatrix(len(eqs), len(unknowns), eqs)
    basis = []
    for vec in kernel_basis(m):
        basis.append({unknowns[i]: v for i, v in vec.items()})
    return basis


def random_chain_map(rng: random.Random, A: Complex, B: Complex) -> ChainMap:
    """A random point of the chain-map space (may be far from zero or id)."""
    basis = chain_map_space(A, B)
    mats = {n: SparseMatrix(B.dim(n), A.dim(n)) for n in A.degrees()}
    for b in basis:
        s = rng.randint(-2, 2)
        if not s:
            continue
        for (n, r, c), v in b.items():
            accumulate(mats[n].rows[r], c, v * s)
    for m in mats.values():     # a sum of Fractions can come out integral
        m.rows = [{c: whole(v) for c, v in row.items()} for row in m.rows]
    return ChainMap(A, B, mats)


def random_stabilizing_diagram(rng: random.Random, length: int):
    """Terms and maps whose telescope must compute H of the final term.

    The diagram wanders through random complexes and maps, then repeats its
    final term with identity maps for the last two steps so the directed
    system visibly stabilizes.
    """
    terms, maps = [], []
    prev = None
    for i in range(max(1, length - 2)):
        cx, _ = random_complex(rng)
        terms.append(cx)
        if prev is not None:
            maps.append(random_chain_map(rng, prev, cx))
        prev = cx
    while len(terms) < length:
        terms.append(prev)
        maps.append(ChainMap.identity(prev))
    return terms, maps


# ---------------------------------------------------------------------------
# cell-graph cochains (vertices and edges), used by the circle fixtures


def graph_cochains(verts, edges) -> Complex:
    """Cochain complex of a 1-dimensional cell complex.

    verts: iterable of vertex names; edges: iterable of (a, b) pairs, a < b.
    (dx)(a, b) = x(b) - x(a).  Labels record the cells for restrictions.
    """
    verts = sorted(verts)
    edges = sorted(tuple(e) for e in edges)
    vidx = {v: i for i, v in enumerate(verts)}
    entries = []
    for r, (a, b) in enumerate(edges):
        entries.append((r, vidx[a], -1))
        entries.append((r, vidx[b], 1))
    d0 = SparseMatrix.from_entries(len(edges), len(verts), entries)
    return Complex(QQ, {0: len(verts), 1: len(edges)}, {0: d0},
                   labels={0: list(verts), 1: list(edges)}, support=(0, 1))


def graph_restriction(big: Complex, small: Complex) -> ChainMap:
    """Restriction of cochains onto a subcomplex (projection on cell basis)."""
    mats = {}
    for n in (0, 1):
        cells_big = big.labels.get(n, []) if big.labels else []
        cells_small = small.labels.get(n, []) if small.labels else []
        pos = {c: i for i, c in enumerate(cells_big)}
        entries = []
        for r, cell in enumerate(cells_small):
            entries.append((r, pos[cell], 1))
        mats[n] = SparseMatrix.from_entries(len(cells_small), len(cells_big), entries)
    return ChainMap(big, small, mats)


def graph_cover_presheaf(pieces: dict, top_cells=None):
    """Cover presheaf of cochain complexes from named subgraphs.

    pieces: {j: (verts, edges)} for j = 1..N; values on larger J are cellwise
    intersections.  If top_cells is given, a top value (the union complex or
    any supplied ambient complex data) is attached with restriction maps.
    """
    from .presheaf import TOP, CoverPresheaf, all_subsets

    n = len(pieces)
    cells = {}
    for J in all_subsets(n):
        vs = set(pieces[J[0]][0])
        es = set(tuple(e) for e in pieces[J[0]][1])
        for j in J[1:]:
            vs &= set(pieces[j][0])
            es &= set(tuple(e) for e in pieces[j][1])
        cells[J] = (sorted(vs), sorted(es))
    values = {J: graph_cochains(*cells[J]) for J in all_subsets(n)}
    if top_cells is not None:
        values[TOP] = graph_cochains(*top_cells)
    return CoverPresheaf.generated(
        n, values, lambda src, dst: graph_restriction(values[src], values[dst]))


CIRCLE_VERTS = (0, 1, 2)
CIRCLE_EDGES = ((0, 1), (0, 2), (1, 2))


def circle_complex() -> Complex:
    """Boundary of the triangle: three vertices, three edges, betti (1, 1)."""
    return graph_cochains(CIRCLE_VERTS, CIRCLE_EDGES)


def triangle_two_arc_presheaf():
    """The circle covered by the arc 0-1-2 and the single edge {0,2}."""
    pieces = {
        1: ((0, 1, 2), ((0, 1), (1, 2))),
        2: ((0, 2), ((0, 2),)),
    }
    return graph_cover_presheaf(pieces, top_cells=(CIRCLE_VERTS, CIRCLE_EDGES))


def triangle_three_edge_presheaf():
    """The circle covered by its three closed edges; triple overlap empty."""
    pieces = {
        1: ((0, 1), ((0, 1),)),
        2: ((1, 2), ((1, 2),)),
        3: ((0, 2), ((0, 2),)),
    }
    return graph_cover_presheaf(pieces, top_cells=(CIRCLE_VERTS, CIRCLE_EDGES))


def disjoint_failure_presheaf():
    """Two disjoint pieces pretending to cover a connected space.

    Both sets get a point's worth of functions, the overlap is empty, and the
    claimed top is a single point whose restriction to each piece is the
    identity.  Structurally valid, but descent must fail in degree 0: the
    Cech complex sees two components where the top claims one.
    """
    from .presheaf import TOP, CoverPresheaf

    pt = graph_cochains((0,), ())
    empty = graph_cochains((), ())
    values = {(1,): pt, (2,): pt, (1, 2): empty, TOP: pt}
    return CoverPresheaf.generated(2, values, lambda src, dst: ChainMap(
        pt, values[dst], {0: SparseMatrix.identity(1) if src == TOP
                          else SparseMatrix(0, 1)}))


def constant_presheaf(n_sets: int, cx: Complex):
    """Every subset and the top get the same complex, identities everywhere."""
    from .presheaf import TOP, CoverPresheaf, all_subsets

    values = {J: cx for J in all_subsets(n_sets)}
    values[TOP] = cx
    return CoverPresheaf.generated(n_sets, values,
                                   lambda src, dst: ChainMap.identity(cx))


def torus_square_presheaf():
    """Product of two circle factors, covered by (arc) x (full circle).

    Values are tensor products of an arc complex with the full circle
    complex; restrictions act on the first factor only.
    """
    from .complexes import tensor, tensor_map
    from .presheaf import TOP, CoverPresheaf

    arcs = {
        1: ((0, 1, 2), ((0, 1), (1, 2))),
        2: ((0, 2), ((0, 2),)),
    }
    cells = dict(arcs)
    cells[(1, 2)] = ((0, 2), ())
    circle = circle_complex()
    first = {
        (1,): graph_cochains(*arcs[1]),
        (2,): graph_cochains(*arcs[2]),
        (1, 2): graph_cochains((0, 2), ()),
        TOP: circle,
    }
    tensors = {k: tensor(cx, circle) for k, cx in first.items()}
    values = {k: t.cx for k, t in tensors.items()}
    idc = ChainMap.identity(circle)
    return CoverPresheaf.generated(2, values, lambda src, dst: tensor_map(
        tensors[src], tensors[dst], graph_restriction(first[src], first[dst]), idc))


def triangle_pipeline_data():
    """Everything the two-set induction pipeline needs, on the 3-edge circle.

    Returns (F, G, aug_rest, aug_int): F the three-edge cover, G the
    coarsened two-set cover {first edge, union of the other two}, and the
    comparison augmentations into the Cech complexes of the sub-covers.
    """
    from .presheaf import (CechComplex, drop_first_restrict,
                           first_intersections)

    F = triangle_three_edge_presheaf()
    yv, ye = (0, 1, 2), ((0, 2), (1, 2))          # union of edges 2 and 3
    iv = (0, 1)                                   # meets of edge 1 with it
    pieces = {1: ((0, 1), ((0, 1),)), 2: (yv, ye)}
    G = graph_cover_presheaf(pieces, top_cells=(CIRCLE_VERTS, CIRCLE_EDGES))
    c2, cI = CechComplex(drop_first_restrict(F)), CechComplex(first_intersections(F))
    # augmentation of C(Y) into the Cech complex of Y's own two-edge cover
    y_cx, i_cx = G.value((2,)), G.value((1, 2))
    aug_rest = c2.into_singletons({1: graph_restriction(y_cx, F.value((2,))),
                                   2: graph_restriction(y_cx, F.value((3,)))})
    aug_int = cI.into_singletons({1: graph_restriction(i_cx, F.value((1, 2))),
                                  2: graph_restriction(i_cx, F.value((1, 3)))})
    return F, G, aug_rest, aug_int


# ---------------------------------------------------------------------------
# random cover presheaves with known descent behavior


def random_presheaf(rng: random.Random, n_sets: int, max_dim=3, width=3):
    """Gauge-twisted projection presheaf; descent holds by construction.

    A random complex W_S is chosen for each nonempty S inside {1..n}; the
    value on J is the sum of W_S over S containing J, the top value sums
    everything, and restrictions drop the summands that no longer qualify.
    Every value is then conjugated by a random unimodular change of basis in
    each degree, so nothing about the projection structure is visible in the
    matrices.  Returns (presheaf, expected total betti).
    """
    from .presheaf import TOP, CoverPresheaf, all_subsets

    supports = all_subsets(n_sets)
    blocks = {}
    expected = {}
    for S in supports:
        if rng.random() < 0.35:
            continue
        hi = rng.randrange(width)
        w, betti = random_complex(rng, 0, hi, max_cells=max(2, max_dim // 2),
                                  twist=False)
        blocks[S] = w
        for nn, b in betti.items():
            expected[nn] = expected.get(nn, 0) + b
    if not blocks:
        S = supports[rng.randrange(len(supports))]
        blocks[S], betti = random_complex(rng, 0, 0, twist=False)
        for nn, b in betti.items():
            expected[nn] = expected.get(nn, 0) + b

    def summands(key):
        if key == TOP:
            return [S for S in supports if S in blocks]
        return [S for S in supports if S in blocks and set(key) <= set(S)]

    sums, gauges = {}, {}
    keys = list(all_subsets(n_sets)) + [TOP]
    for key in keys:
        ss = summands(key)
        # a value with no summands is the sum of one zero complex
        ds = direct_sum([blocks[S] for S in ss] or [Complex(QQ, {0: 0}, {})])
        plain = ds.cx
        mats, inv = {}, {}
        for n in plain.degrees():
            u, uinv = random_unimodular(rng, plain.dim(n))
            mats[n], inv[n] = u, uinv
        sums[key] = (ds, ss, mats, inv)
        gauges[key] = change_basis(plain, mats, inv)

    def projection(src, dst):
        ds_s, ss_s, u_s, uinv_s = sums[src]
        ds_d, ss_d, u_d, uinv_d = sums[dst]
        srccx, dstcx = gauges[src], gauges[dst]
        # the summands of dst, each carried from its slot in src to its own
        keep = ds_d.between(ds_s, {(k, ss_s.index(S)): ChainMap.identity(blocks[S])
                                   for k, S in enumerate(ss_d)})
        mats = {}
        for n in srccx.degrees():
            m = keep.mat(n)
            if dstcx.dim(n) and srccx.dim(n):
                m = u_d[n] @ m @ uinv_s[n]
            mats[n] = m
        return ChainMap(srccx, dstcx, mats)

    return CoverPresheaf.generated(n_sets, gauges, projection), expected


# ---------------------------------------------------------------------------
# Novikov telescope diagrams


def novikov_telescope_terms(den: int, cutoff, length: int):
    """Length-L diagram R -> R -> ... with every map multiplication by T."""
    from .scalars import NovikovRing

    ring = NovikovRing(den, Fraction(cutoff))
    term = Complex(ring, {0: 1}, {})
    terms = [term] * length
    t_mat = SparseMatrix.from_entries(1, 1, [(0, 0, ring.T(Fraction(1, den)))])
    maps = [ChainMap(term, term, {0: t_mat}) for _ in range(length - 1)]
    return terms, maps


# ---------------------------------------------------------------------------
# registry used by the command line


def emit_fixture(name: str, seed=0):
    """Named fixture registry; returns objects the CLI knows how to print."""
    if name == "triangle-boundary":
        return triangle_two_arc_presheaf()
    if name == "three-edge":
        return triangle_three_edge_presheaf()
    if name == "torus-square":
        return torus_square_presheaf()
    if name == "disjoint":
        return disjoint_failure_presheaf()
    if name == "constant":
        return constant_presheaf(2, circle_complex())
    if name == "random":
        return random_presheaf(random.Random(seed), 3)[0]
    if name == "p1-polyvector":
        from .algebra import p1_polyvector_presheaf
        return p1_polyvector_presheaf(4)
    if name == "novikov-telescope":
        from .complexes import telescope
        terms, maps = novikov_telescope_terms(1, 3, 4)
        return telescope(terms, maps).cx
    raise UnknownFixture(f"no fixture named {name!r}")
