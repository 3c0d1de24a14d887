"""Presheaves of complexes on a finite cover, and their descent machinery.

A cover presheaf assigns a complex to every nonempty subset J of the index
set {1..N} and, separately, to the symbol "top" (the covered space itself --
which is a union, not an intersection, so it is never one of the J's).
Restriction maps run along inclusions J into J' and from top to every J.

From this data we build:

* the cosimplicial nerve, level p = direct sum over |J| = p+1;
* the Cech complex, the sum over subsets J of F(J) shifted by |J| - 1
  (any ring);
* the cochain totalization: the equalizer, inside the level-wise tensor with
  normalized simplicial cochains, of the coface constraints (rationals only);
* the weight-truncated polynomial-form totalization, with the integration
  comparison map and its exact Whitney one-sided inverse;
* the two-set decomposition of a Cech complex as a mapping cocone, and the
  induction pipeline built on it;
* descent certificates: is the augmentation from the top value a
  quasi-isomorphism, and if not, in which degree does it first fail.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations

from .complexes import (ChainMap, Complex, DirectSum, TensorComplex,
                        _first_spelling, betti_numbers, cocone, direct_sum,
                        is_quasi_iso, json_int, shift, tensor_map)
from .errors import (CosimplicialIdentityFailure, CutoffTooSmall,
                     FunctorialityFailure, InputError, NotAComplex,
                     RingMismatch, ShapeMismatch, UnsupportedRing)
from .linalg import (SparseMatrix, TrackedEchelon, accumulate, kernel_basis,
                     whole)
from .scalars import QQ
from .simplex import (InjMap, NCModel, OmegaModel, PolyForm, coface,
                      integration_cochain, whitney)

TOP = "top"


def subsets(n: int, size: int):
    """Size-`size` subsets of {1..n} as sorted tuples, in lex order."""
    return [tuple(c) for c in combinations(range(1, n + 1), size)]


def all_subsets(n: int):
    out = []
    for size in range(1, n + 1):
        out.extend(subsets(n, size))
    return out


def arrows(n: int):
    """The generating arrows J -> J u {j} among the subsets of {1..n}, as
    (J, j, J u {j}): J in all_subsets order, then ascending j."""
    for J in all_subsets(n):
        for j in range(1, n + 1):
            if j not in J:
                yield J, j, tuple(sorted(J + (j,)))


def format_key(key) -> str:
    if key == TOP:
        return TOP
    return ",".join(str(j) for j in key)


def parse_key(s: str):
    s = s.strip()
    if s == TOP:
        return TOP
    try:
        return tuple(sorted(int(t) for t in s.split(",")))
    except ValueError as exc:
        raise InputError(f"bad subset key {s!r}") from exc


class CoverPresheaf:
    """Values on subsets plus top, with generating restriction maps.

    ``adjacent`` holds the one-step maps: (J, J u {j}) for each j not in J,
    and (TOP, (j,)) for each singleton when a top value is present.  All
    other restrictions are composites; ``validate`` checks they are
    path-independent.
    """

    def __init__(self, n_sets: int, values: dict, adjacent: dict, check=True):
        self.n_sets = n_sets
        self.values = dict(values)
        self.adjacent = dict(adjacent)
        rings = {cx.ring for cx in self.values.values()}
        if len(rings) != 1:
            raise RingMismatch("presheaf values over mixed coefficient rings")
        self.ring = rings.pop()
        for J in all_subsets(n_sets):
            if J not in self.values:
                raise InputError(f"missing value on {format_key(J)}")
        self._res_cache = {}
        if check:
            self.validate()

    @classmethod
    def generated(cls, n_sets: int, values: dict, step) -> "CoverPresheaf":
        """The presheaf whose one-step restriction src -> dst is step(src,
        dst): over arrows(n_sets) in order, then top -> {j}, j ascending,
        when values has a top."""
        adjacent = {(J, J2): step(J, J2) for J, _, J2 in arrows(n_sets)}
        if TOP in values:
            for j in range(1, n_sets + 1):
                adjacent[(TOP, (j,))] = step(TOP, (j,))
        return cls(n_sets, values, adjacent)

    @property
    def has_top(self):
        return TOP in self.values

    def value(self, key) -> Complex:
        return self.values[key]

    def _step(self, src, dst) -> ChainMap:
        try:
            return self.adjacent[(src, dst)]
        except KeyError:
            raise InputError(f"missing restriction {format_key(src)} -> {format_key(dst)}")

    def res(self, src, dst) -> ChainMap:
        """Restriction along src <= dst, composed along the canonical chain
        (insert missing indices in increasing order; from top, go through the
        smallest singleton of dst)."""
        if src == dst:
            return ChainMap.identity(self.value(src))
        key = (src, dst)
        got = self._res_cache.get(key)
        if got is not None:
            return got
        if src == TOP:
            first = (dst[0],)
            f = self._step(TOP, first)
            if dst != first:
                f = self.res(first, dst).compose(f)
        else:
            if not set(src) <= set(dst):
                raise InputError(f"{format_key(src)} is not a subset of {format_key(dst)}")
            missing = sorted(set(dst) - set(src))
            mid = tuple(sorted(src + (missing[0],)))
            f = self._step(src, mid)
            if mid != dst:
                f = self.res(mid, dst).compose(f)
        self._res_cache[key] = f
        return f

    def validate(self):
        """Chain-map checks on generators (each from F(J) to F(K), not to a
        complex of the same dimensions), diamond and top-triangle commutation.

        The top triangles (one per arrow J -> Jj) are checked on the
        singleton pairs {k} -> {j,k} <- {j}, k ascending, then j < k
        ascending.  Exact, as the diamonds make restriction path-independent:
        for m = min J, step(J -> Jj) o res(top, J) is res({m} -> Jj) o top_m,
        res(top, Jj) is res({min Jj} -> Jj) o top_(min Jj), and they differ
        only if min Jj = j < m, when both factor through {j, m}, where the
        pair is checked.  The singleton arrows come first in arrows(n), so
        the first failing pair names the first failing arrow.
        """
        n = self.n_sets
        step = self._step
        for (src, dst), f in self.adjacent.items():
            for end, cx, key in (("source", f.source, src),
                                 ("target", f.target, dst)):
                if cx is not self.value(key) and cx != self.value(key):
                    raise InputError(f"restriction {format_key(src)}->"
                                     f"{format_key(dst)} has wrong {end}")
            f.validate()
        for J in all_subsets(n):
            rest = [j for j in range(1, n + 1) if j not in J]
            for a, b in combinations(rest, 2):
                Ja = tuple(sorted(J + (a,)))
                Jb = tuple(sorted(J + (b,)))
                Jab = tuple(sorted(J + (a, b)))
                left = step(Ja, Jab).compose(step(J, Ja))
                right = step(Jb, Jab).compose(step(J, Jb))
                if left != right:
                    raise FunctorialityFailure(
                        witness=(format_key(J), format_key(Jab)),
                    )
        if self.has_top:
            for k in range(2, n + 1):
                for j in range(1, k):
                    if (step((k,), (j, k)).compose(step(TOP, (k,))) !=
                            step((j,), (j, k)).compose(step(TOP, (j,)))):
                        raise FunctorialityFailure(witness=(TOP, format_key((j, k))))
        return True


# ---------------------------------------------------------------------------
# nerve


class Nerve:
    """Levelwise direct sums over equal-size subsets, with coface maps."""

    def __init__(self, F: CoverPresheaf):
        self.F = F
        n = F.n_sets
        self.level_subsets = [subsets(n, p + 1) for p in range(n)]
        self._sums = [direct_sum([F.value(J) for J in js]) for js in self.level_subsets]

    @property
    def n_levels(self):
        return self.F.n_sets

    def level(self, p) -> Complex:
        return self._sums[p].cx

    def locate(self, p, degree, index):
        """(J, local index) for a level-p coordinate in the given degree."""
        k, loc = self._sums[p].locate(degree, index)
        return self.level_subsets[p][k], loc

    def pos(self, degree, J, loc):
        """The coordinate of F(J)'s loc-th basis vector in level |J| - 1;
        inverse of locate."""
        p = len(J) - 1
        return self._sums[p].offsets[degree][self.level_subsets[p].index(J)] + loc

    def dmap(self, f: InjMap) -> ChainMap:
        """The map of levels induced by an injection [p] -> [q]:
        the component into J' (|J'| = q+1) restricts from the subset of J'
        picked out by the image of f."""
        p, q = f.p, f.q
        blocks = {}
        for k2, J2 in enumerate(self.level_subsets[q]):
            J1 = tuple(sorted(J2[v] for v in f.verts))
            blocks[(k2, self.level_subsets[p].index(J1))] = self.F.res(J1, J2)
        return self._sums[q].between(self._sums[p], blocks)

    def coface(self, p, i) -> ChainMap:
        return self.dmap(coface(p, i))

    def validate(self):
        d = cache(self.coface)    # each coface map built once per call
        for p in range(self.n_levels - 2):
            for i in range(p + 2):
                for j in range(i + 1, p + 3):
                    lhs = d(p + 1, j).compose(d(p, i))
                    rhs = d(p + 1, i).compose(d(p, j - 1))
                    if lhs != rhs:
                        raise CosimplicialIdentityFailure(f"levels {p}->{p+2}, (i,j)=({i},{j})")
        return True

    def augmentation_to_level(self, p) -> ChainMap:
        """F(top) -> level p, restricting into every component."""
        return self._sums[p].collect(self.F.value(TOP), {
            k: self.F.res(TOP, J) for k, J in enumerate(self.level_subsets[p])})


def nerve_cosimplicial(F: CoverPresheaf) -> Nerve:
    return Nerve(F)


# ---------------------------------------------------------------------------
# Cech complex


class CechComplex:
    """The direct sum over nonempty J, in all_subsets order, of F(J) shifted
    by p = |J| - 1, so degree n holds F(J) in internal degree n - p with
    differential (-1)^p d, plus the Cech differential, which sends F(J) to
    each F(J u {j}) by restriction at sign (-1)^(position of j in J u {j}).

    Works over any supported coefficient ring.
    """

    def __init__(self, F: CoverPresheaf):
        self.F = F
        N = F.n_sets
        self._part = {J: i for i, J in enumerate(all_subsets(N))}
        self._sum = direct_sum([shift(F.value(J), len(J) - 1) for J in self._part])
        self.cx = self._sum.cx
        for J, j, J2 in arrows(N):
            p = len(J) - 1
            sign = -1 if J2.index(j) % 2 else 1
            for q, m in F.res(J, J2).mats.items():
                if m.nrows and m.ncols:
                    self.cx.diff[p + q].paste(m, self.offset(p + q + 1, J2),
                                              self.offset(p + q, J), sign)

    def offset(self, n, J):
        """Where the block of J (at level |J| - 1) starts in degree n; None
        if it is empty."""
        if not self.F.value(J).dim(n - len(J) + 1):
            return None
        return self._sum.offsets[n][self._part[J]]

    def blocks(self, n):
        """(p, J, offset, internal degree) of each nonempty block of degree
        n, in the order of the sum."""
        out = []
        for J in self._part:
            off = self.offset(n, J)
            if off is not None:
                p = len(J) - 1
                out.append((p, J, off, n - p))
        return out

    def component(self, n, vec: dict, J) -> dict:
        """Extract the J component of a degree-n vector."""
        return self._sum.component(n, vec, self._part[J])

    def inject(self, n, J, ivec: dict) -> dict:
        off = self.offset(n, J)
        return {off + i: v for i, v in ivec.items()}

    def into_singletons(self, maps: dict) -> ChainMap:
        """The map S -> Cech whose component into F({j}) is maps[j] : S ->
        F({j})."""
        return self._sum.collect(next(iter(maps.values())).source,
                                 {self._part[(j,)]: f for j, f in maps.items()})

    def augmentation(self) -> ChainMap:
        """F(top) -> Cech, restricting into the singleton components."""
        if not self.F.has_top:
            raise InputError("presheaf has no top value")
        return self.into_singletons({j: self.F.res(TOP, (j,))
                                     for j in range(1, self.F.n_sets + 1)})


def cech(F: CoverPresheaf) -> CechComplex:
    return CechComplex(F)


# ---------------------------------------------------------------------------
# totalizations


def _model_map(m_from, m_to, image) -> ChainMap:
    """The degree-preserving map of simplex models (NC or forms) that sends
    each basis key k of m_from to image(k), an element of m_to."""
    mats = {}
    for s in m_from.cx.degrees():
        entries = []
        for col, key in enumerate(m_from.basis(s)):
            for r, v in m_to.to_vec(s, image(key)).items():
                entries.append((r, col, whole(v)))
        mats[s] = SparseMatrix.from_entries(
            len(m_to.basis(s)), len(m_from.basis(s)), entries)
    return ChainMap(m_from.cx, m_to.cx, mats)


def _model_pullback(m_to, m_from, f: InjMap) -> ChainMap:
    """Pullback along f as a chain map of simplex models (NC or forms)."""
    return _model_map(m_from, m_to, lambda key: m_from.pullback(f, key))


class EqualizerTotalization:
    """Kernel, levelwise, of the coface-compatibility constraints inside
    direct_sum_p (model_p (x) nerve level p); the simplex factor is written
    first, which is what makes top-face evaluation a sign-free chain map.

    Each constraint is (pullback along coface i of level p) tensor the
    identity, minus the identity tensor the nerve coface.  The pullback
    and the nerve coface are checked once to be chain maps; a tensor of
    degree-0 chain maps is one, and the ambient differential is
    block-diagonal, so the constraint is a chain map and the ambient
    differential preserves the kernel.
    ``kernel_basis`` returns each vector in free-column form: 1 at its own
    free column ``free[n][j]`` and 0 at every other.  So the coordinates of
    a vector known to lie in the kernel are its entries at the free
    columns, and the differential is the ambient one read at the free
    columns of the degree above.  The model pullbacks are kept as
    ``pullbacks[(p, i)]`` for the naturality check of ``_transport``.
    """

    def __init__(self, F: CoverPresheaf, models):
        if F.ring != QQ:
            raise UnsupportedRing("totalizations are implemented over Q only")
        self.F = F
        self.models = models
        self.nerve = Nerve(F)
        N = F.n_sets
        self.tensors = [TensorComplex(models[p].cx, self.nerve.level(p))
                        for p in range(N)]
        self._levels = direct_sum([t.cx for t in self.tensors])
        self.ambient = self._levels.cx
        # cross tensors and the two legs of each constraint
        constraints = []   # list of ChainMap from ambient
        self.pullbacks = {}
        for p in range(N - 1):
            cross = TensorComplex(models[p].cx, self.nerve.level(p + 1))
            id_model = ChainMap.identity(models[p].cx)
            id_nerve = ChainMap.identity(self.nerve.level(p + 1))
            for i in range(p + 2):
                pb = self.pullbacks[(p, i)] = _model_pullback(
                    models[p], models[p + 1], coface(p, i))
                cf = self.nerve.coface(p, i)
                try:
                    pb.validate()
                    cf.validate()
                except ShapeMismatch as exc:
                    raise ShapeMismatch(
                        f"coface constraint at level {p}, coface {i}: "
                        f"{exc}") from exc
                legA = tensor_map(self.tensors[p + 1], cross, pb, id_nerve)
                legB = tensor_map(self.tensors[p], cross, id_model, cf)
                constraints.append(self._levels.extract(p + 1, legA) +
                                   self._levels.extract(p, legB).scale(-1))
        self.kernel, self.free, self._echelons = {}, {}, {}
        for n in self.ambient.degrees():
            # every constraint block starts at column 0, so the stack is the
            # concatenation of their rows; sharing the row dicts is safe:
            # kernel_basis leaves its input rows unchanged (_forward copies)
            rows = [row for c in constraints for row in c.mat(n).rows]
            mat = SparseMatrix(len(rows), self.ambient.dim(n), rows)
            basis = kernel_basis(mat) if self.ambient.dim(n) else []
            self.kernel[n] = basis
            self.free[n] = [next(iter(vec)) for vec in basis]
        dims = {n: len(basis) for n, basis in self.kernel.items()}
        diff = {}
        for n in self.ambient.degrees():
            d = self.ambient.d(n)
            free = self.free.get(n + 1, [])
            d_free = SparseMatrix(len(free), d.ncols, [d.rows[c] for c in free])
            m = SparseMatrix(len(free), dims[n])
            for j, vec in enumerate(self.kernel[n]):
                for r, v in d_free.matvec(vec).items():
                    m.rows[r][j] = v
            diff[n] = m
        self.cx = Complex(QQ, dims, diff, support=self.ambient.support)

    def represent(self, n, ambient_vec: dict) -> dict:
        """Coordinates, in the kernel basis, of an ambient vector built
        outside the totalization (a unit tensor, a product); raises
        ShapeMismatch if it is not in the kernel.

        The check is exact.  On the first call in degree n the kernel basis
        is loaded into a TrackedEchelon with the free columns reindexed
        first (the k-th free column at position k), so every vector already
        leads with its own pivot and loading does no elimination; a vector
        is then represented by subtracting one basis vector per free entry,
        and whatever is left over is nonzero exactly off the kernel.
        """
        if not ambient_vec:
            return {}
        try:
            pos, te = self._echelons.get(n) or self._echelon(n)
            coords = te.represent({pos[i]: v for i, v in ambient_vec.items()})
        except KeyError:    # a degree or a position outside the ambient
            coords = None
        if coords is None:
            raise ShapeMismatch("vector does not satisfy the coface constraints")
        return coords

    def _echelon(self, n):
        free = self.free[n]
        taken = set(free)
        order = free + [c for c in range(self.ambient.dim(n)) if c not in taken]
        pos = {c: k for k, c in enumerate(order)}
        te = TrackedEchelon()
        for j, vec in enumerate(self.kernel[n]):
            te.add({pos[c]: v for c, v in vec.items()}, j)
        self._echelons[n] = pos, te
        return pos, te

    def level_component(self, n, ambient_vec, p):
        """The level-p tensor component of an ambient degree-n vector."""
        return self._levels.component(n, ambient_vec, p)

    def ambient_pos(self, n, p, s, a, b):
        """Ambient degree-n index of model basis vector a (form degree s)
        tensor level-p nerve basis vector b."""
        return self._levels.offsets[n][p] + self.tensors[p].pos(n, s, a, b)

    def unit_tensor(self, n, level_vecs) -> dict:
        """Kernel coordinates of the sum over p of the level-p model's unit
        tensor level_vecs[p], a degree-n vector of nerve level p."""
        amb = {}
        for p, (m, lvl) in enumerate(zip(self.models, level_vecs)):
            for a, u in m.to_vec(0, m.unit()).items():
                for b, v in lvl.items():
                    accumulate(amb, self.ambient_pos(n, p, 0, a, b), u * v)
        return self.represent(n, amb)

    def augmentation(self) -> ChainMap:
        """Top value -> totalization: each column is the unit tensor the
        levelwise restriction of a top basis vector (``unit_tensor``)."""
        if not self.F.has_top:
            raise InputError("presheaf has no top value")
        top = self.F.value(TOP)
        N = self.F.n_sets
        augs = [self.nerve.augmentation_to_level(p) for p in range(N)]
        mats = {}
        for n in top.degrees():
            m = SparseMatrix(self.cx.dim(n), top.dim(n))
            levels = [augs[p].mat(n).transpose().rows for p in range(N)]
            for col in range(top.dim(n)):
                coords = self.unit_tensor(n, [lvl[col] for lvl in levels])
                for r, v in coords.items():
                    m.rows[r][col] = v
            mats[n] = m
        return ChainMap(top, self.cx, mats)


def _transport(src: EqualizerTotalization, tgt: EqualizerTotalization,
               image) -> ChainMap:
    """A levelwise map of models, tensored with the identity of the nerve,
    as a chain map of totalizations in kernel coordinates.

    maps[p] sends each basis key k of src's level-p model to image(p, k),
    an element of tgt's.  They are checked to be natural: maps[p] after
    src's pullback along coface i of level p is tgt's pullback after
    maps[p+1].  A natural map sends the equalizer into the equalizer, so
    each image is in tgt's kernel, with its entries at tgt's free columns
    as coordinates: in degree n the map is R K, K the matrix of src's
    kernel vectors as columns and R the rows of sum_p maps[p] (x) id at
    tgt's free columns, and only those.  The free column at model basis
    vector a2 (form degree s) tensor nerve basis vector b of level p is
    row a2 of maps[p] in degree s, each entry a placed at (s, a, b).
    """
    if src.F is not tgt.F:
        raise ShapeMismatch("totalizations of different presheaves")
    maps = [_model_map(ms, mt, lambda key, p=p: image(p, key))
            for p, (ms, mt) in enumerate(zip(src.models, tgt.models))]
    for (p, i), pb in src.pullbacks.items():
        if maps[p].compose(pb) != tgt.pullbacks[(p, i)].compose(maps[p + 1]):
            raise ShapeMismatch(
                f"level maps do not commute with the pullback along coface "
                f"{i} at level {p}")
    mats = {}
    for n in src.cx.degrees():
        rows = []
        for c in tgt.free.get(n, []):
            p, loc = tgt._levels.locate(n, c)
            s, a2, b = tgt.tensors[p].locate(n, loc)
            rows.append({src.ambient_pos(n, p, s, a, b): v
                         for a, v in maps[p].mat(s).rows[a2].items()})
        width, kernel = src.ambient.dim(n), src.kernel[n]
        mats[n] = (SparseMatrix(len(rows), width, rows) @
                   SparseMatrix(len(kernel), width, kernel).transpose())
    return ChainMap(src.cx, tgt.cx, mats)


class TotComplex(EqualizerTotalization):
    """Simplicial-cochain totalization, isomorphic to the Cech complex by
    evaluation at top faces."""

    def __init__(self, F: CoverPresheaf):
        super().__init__(F, [NCModel(p) for p in range(F.n_sets)])
        self.cech = CechComplex(F)

    def to_cech(self) -> ChainMap:
        """Evaluate at the top face of each level; sign-free by the
        forms-first tensor ordering.  Of each kernel vector only the entries
        it holds are read, and those at (top face, b) are kept."""
        tops = [model.index(p, range(p + 1))
                for p, model in enumerate(self.models)]
        mats = {}
        for n in self.cx.degrees():
            m = SparseMatrix(self.cech.cx.dim(n), self.cx.dim(n))
            for j, vec in enumerate(self.kernel[n]):
                for p, top in enumerate(tops):
                    for col, v in self.level_component(n, vec, p).items():
                        s, a, b = self.tensors[p].locate(n, col)
                        if s == p and a == top:
                            J, loc = self.nerve.locate(p, n - p, b)
                            m.rows[self.cech.offset(n, J) + loc][j] = v
            mats[n] = m
        return ChainMap(self.cx, self.cech.cx, mats)


def tot(F: CoverPresheaf) -> TotComplex:
    return TotComplex(F)


class TwComplex(EqualizerTotalization):
    """Weight-truncated polynomial-form totalization."""

    def __init__(self, F: CoverPresheaf, weight_cutoff: int):
        if weight_cutoff < F.n_sets:
            raise CutoffTooSmall(
                f"weight cutoff {weight_cutoff} is below the number of levels {F.n_sets}")
        self.weight_cutoff = weight_cutoff
        super().__init__(F, [OmegaModel(p, weight_cutoff) for p in range(F.n_sets)])


def tw(F: CoverPresheaf, weight_cutoff: int) -> TwComplex:
    return TwComplex(F, weight_cutoff)


def tw_to_tot(twc: TwComplex, totc: TotComplex) -> ChainMap:
    """Levelwise elementwise integration, expressed kernel-to-kernel."""
    return _transport(twc, totc, lambda p, key: integration_cochain(
        PolyForm(p, {key: Fraction(1)})))


def whitney_section(totc: TotComplex, twc: TwComplex) -> ChainMap:
    """The Whitney map levelwise; a right inverse of tw_to_tot on the nose."""
    return _transport(totc, twc, lambda p, F: whitney(p, {F: Fraction(1)}))


# ---------------------------------------------------------------------------
# two-set decomposition and inclusion-exclusion


def _relabel(F: CoverPresheaf, sh) -> CoverPresheaf:
    """The presheaf J -> F(sh(J)) on {1..N-1}, for an inclusion-preserving
    relabeling sh of its subsets into those of {1..N}."""
    n = F.n_sets - 1
    values = {J: F.value(sh(J)) for J in all_subsets(n)}
    adjacent = {(J, J2): F.adjacent[(sh(J), sh(J2))]
                 for J, _, J2 in arrows(n)}
    return CoverPresheaf(n, values, adjacent, check=False)


def _after_first(J):
    """J -> J + 1: a subset of {1..N-1} read as one of {2..N}."""
    return tuple(j + 1 for j in J)


def _with_first(J):
    """J -> {1} u (J + 1)."""
    return (1,) + _after_first(J)


def drop_first_restrict(F: CoverPresheaf) -> CoverPresheaf:
    """The presheaf on {2..N}, relabeled to {1..N-1}."""
    return _relabel(F, _after_first)


def first_intersections(F: CoverPresheaf) -> CoverPresheaf:
    """J' -> F({1} u shifted J') on {1..N-1} index labels."""
    return _relabel(F, _with_first)


@dataclass
class TwoSetDecomposition:
    """Cech(F) recovered as the cocone of comparing against the first set.

    phi : A = F({1}) (+) Cech(F without 1)  ->  Cech(intersections with 1),
    phi(u, v) = rho(v) - aug(u); the cocone is isomorphic to Cech(F) by pure
    reindexing, recorded as an explicit invertible chain map psi.
    """

    cocone: DirectSum      # A (+) Cech(intersections with 1)[1]
    A: DirectSum           # F({1}) (+) Cech(F without 1), the source of phi
    psi: ChainMap
    ok: bool
    cech: CechComplex      # Cech(F), the target of psi


def _cech_map(src: CechComplex, tgt: CechComplex, key, lift=0,
              block=None) -> ChainMap:
    """Cech(src)[lift] -> Cech(tgt): block (p, J) of the source goes through
    block(J, q) (the identity if None) to block (p + lift, key(J))."""
    source = shift(src.cx, lift) if lift else src.cx
    mats = {}
    for n in source.degrees():
        m = mats[n] = SparseMatrix(tgt.cx.dim(n), source.dim(n))
        for p, J, off, q in src.blocks(n - lift):
            at = tgt.offset(n, key(J))
            if at is not None:
                m.paste(SparseMatrix.identity(src.F.value(J).dim(q))
                        if block is None else block(J, q), at, off)
    return ChainMap(source, tgt.cx, mats)


def _is_permutation(m: SparseMatrix) -> bool:
    """Every row holds a single 1, and the columns hit are all distinct and
    cover every column."""
    hit = [c for row in m.rows if len(row) == 1 for c, v in row.items() if v == 1]
    return len(hit) == m.nrows and sorted(hit) == list(range(m.ncols))


def inclusion_exclusion(F: CoverPresheaf) -> TwoSetDecomposition:
    if F.n_sets < 2:
        raise InputError("inclusion-exclusion needs at least two cover sets")
    c2, cI = CechComplex(drop_first_restrict(F)), CechComplex(first_intersections(F))
    cF = CechComplex(F)
    first = F.value((1,))
    A = direct_sum([first, c2.cx])
    # aug : F({1}) -> Cech(FI), via res {1} -> {1, j+1} into each singleton {j}
    aug_first = cI.into_singletons({j: F.res((1,), _with_first((j,)))
                                    for j in range(1, F.n_sets)})
    # rho : Cech(F2) -> Cech(FI), levelwise restriction J + 1 -> {1} u (J + 1)
    rho = _cech_map(c2, cI, lambda J: J, block=lambda J, q: F.res(
        _after_first(J), _with_first(J)).mat(q))
    phi = A.fold(cI.cx, {1: rho, 0: aug_first.scale(-1)})
    cc = cocone(phi)
    # psi : cocone -> Cech(F), identity reindexing without signs
    psi_A = A.fold(cF.cx, {
        0: cF.into_singletons({1: ChainMap.identity(first)}),
        1: _cech_map(c2, cF, _after_first)})
    psi = cc.fold(cF.cx, {0: psi_A, 1: _cech_map(cI, cF, _with_first, 1)})
    try:
        psi.validate()
        ok = all(_is_permutation(psi.mat(n)) for n in cc.cx.degrees())
    except ShapeMismatch:
        ok = False
    return TwoSetDecomposition(cc, A, psi, ok, cF)


@dataclass
class InductionPipelineReport:
    theta_ok: bool
    composite_ok: bool

    @property
    def ok(self):
        return self.theta_ok and self.composite_ok


def induction_pipeline(F: CoverPresheaf, G: CoverPresheaf, aug_rest: ChainMap,
                       aug_int: ChainMap) -> InductionPipelineReport:
    """Compare the two-set coarsening of a cover against inclusion-exclusion.

    G is a two-set cover presheaf whose first value is F({1}), whose second
    value maps by aug_rest into Cech(F without the first set), and whose
    intersection value maps by aug_int into Cech(intersections with 1).  The
    middle map theta : Cech(G) -> cocone(phi) is one map between sums: the
    blocks {1}, {2} and {1,2} of Cech(G) go into the cocone's parts F({1}),
    Cech(F without 1) and Cech(intersections with 1)[1]; we check it is a
    chain map and that it carries the augmentation of Cech(G) to the
    augmentation of Cech(F) under psi.
    """
    if G.n_sets != 2:
        raise InputError("the coarse cover must have exactly two sets")
    dec = inclusion_exclusion(F)
    cG = CechComplex(G)
    cc = dec.cocone
    # aug_int lifted by one, G({1,2})[1] -> Cech(intersections with 1)[1]
    lifted = ChainMap(shift(aug_int.source, 1), shift(aug_int.target, 1),
                      {n + 1: m for n, m in aug_int.mats.items()})
    # the cocone read as F({1}) (+) Cech(F without 1) (+) Cech(FI)[1]
    first = F.value((1,))
    parts = DirectSum(cc.cx, {n: [0, first.dim(n), offs[1]]
                              for n, offs in cc.offsets.items()})
    theta = parts.between(cG._sum, {
        (0, cG._part[(1,)]): ChainMap.identity(first),
        (1, cG._part[(2,)]): aug_rest,
        (2, cG._part[(1, 2)]): lifted})
    theta_ok = True
    try:
        theta.validate()
    except ShapeMismatch:
        theta_ok = False
    composite_ok = False
    if theta_ok and F.has_top and G.has_top:
        lhs = dec.psi.compose(theta.compose(cG.augmentation()))
        rhs = dec.cech.augmentation()
        composite_ok = lhs == rhs
    return InductionPipelineReport(theta_ok, composite_ok)


# ---------------------------------------------------------------------------
# descent certificates


@dataclass
class DescentReport:
    ok: bool
    witness_degree: int | None
    cech_betti: dict
    top_betti: dict

    def to_json(self):
        return {
            "descends": self.ok,
            "witness_degree": self.witness_degree,
            "cech_betti": {str(n): b for n, b in sorted(self.cech_betti.items())},
            "top_betti": {str(n): b for n, b in sorted(self.top_betti.items())},
        }


def verify_descent(F: CoverPresheaf) -> DescentReport:
    """Is the augmentation from the top value a quasi-isomorphism?"""
    if F.ring != QQ:
        raise UnsupportedRing("descent certificates are computed over Q")
    if not F.has_top:
        raise InputError("presheaf has no top value")
    c = CechComplex(F)
    cert = is_quasi_iso(c.augmentation())
    return DescentReport(cert.ok, cert.witness_degree,
                         {n: b for n, b in betti_numbers(c.cx).items() if b},
                         {n: b for n, b in betti_numbers(F.value(TOP)).items() if b})


# ---------------------------------------------------------------------------
# serialization


def presheaf_to_json(F: CoverPresheaf):
    from .complexes import chain_map_to_json, complex_to_json
    values = {format_key(k): complex_to_json(cx) for k, cx in F.values.items()}
    restrictions = {}
    for (src, dst), f in F.adjacent.items():
        restrictions[f"{format_key(src)}->{format_key(dst)}"] = chain_map_to_json(f)
    return {"n_sets": F.n_sets, "values": values, "restrictions": restrictions}


def presheaf_from_json(obj, check=True) -> CoverPresheaf:
    from .complexes import chain_map_from_json, complex_from_json
    try:
        n = json_int(obj["n_sets"], "n_sets")
        values, spelled = {}, {}
        for k, v in obj["values"].items():
            key = _first_spelling(spelled, parse_key(k), k, "subset")
            try:
                values[key] = complex_from_json(v)
            except (InputError, NotAComplex) as exc:
                raise InputError(f"value {k}: {exc}") from exc
        adjacent, spelled = {}, {}
        for arrow, blob in obj["restrictions"].items():
            src_s, dst_s = arrow.split("->")
            src, dst = _first_spelling(
                spelled, (parse_key(src_s), parse_key(dst_s)), arrow, "arrow")
            try:
                adjacent[(src, dst)] = chain_map_from_json(values[src],
                                                           values[dst], blob)
            except InputError as exc:
                raise InputError(f"restriction {arrow}: {exc}") from exc
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise InputError(f"malformed presheaf description: {exc}") from exc
    for src, dst in adjacent:
        arrow = f"{format_key(src)}->{format_key(dst)}"
        if not (len(dst) == 1 if src == TOP else dst != TOP and
                len(dst) == len(src) + 1 and set(src) <= set(dst)):
            raise InputError(f"restriction {arrow} is not one step "
                             f"J -> J u {{j}} or top -> {{j}}")
    if n < 1:
        raise InputError(f"n_sets is {n}; a cover has at least one set")
    for key in values:
        if key != TOP and (len(set(key)) < len(key) or key[0] < 1
                           or key[-1] > n):
            raise InputError(f"value on {format_key(key)}, which is not a "
                             f"subset of 1..{n}")
    # every key is now a distinct subset of 1..n, so the count settles
    # coverage; bit lengths first, so an absurd n_sets is not enumerated
    named = sum(1 for key in values if key != TOP)
    if named.bit_length() != n or named != (1 << n) - 1:
        raise InputError(f"n_sets is {n}, so every one of the 2^{n} - 1 "
                         f"nonempty subsets needs a value; {named} have one")
    return CoverPresheaf(n, values, adjacent, check=check)
