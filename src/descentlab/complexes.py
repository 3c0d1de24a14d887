"""Bounded cochain complexes over Q or a truncated Novikov ring.

Conventions fixed here and relied on everywhere else:

* differentials raise degree by one, d_n : C^n -> C^{n+1};
* shift is C[k]^n = C^{n-k} with differential (-1)^k d;
* cone(f)^n = C^{n+1} (+) D^n with d(c, x) = (-d c, d x - f c);
* cocone(f) = cone(f)[1], which maps onto the source of f;
* tensor differential uses the Koszul sign (-1)^{deg of the left factor}.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import itemgetter

from .errors import (InputError, NotAComplex, RingMismatch, ShapeMismatch,
                     UnsupportedRing)
from .linalg import (SparseMatrix, TrackedEchelon, accumulate, add_into,
                     kernel_basis, rank, whole)
from .scalars import (QQ, NovikovElem, NovikovRing, divide_by_u,
                      format_novikov, format_rational, parse_novikov,
                      u_terms, unit_inverse, valuation)


class Complex:
    """A bounded cochain complex with explicit sparse differentials.  A leaf
    complex built from named cells keeps them as labels[n][i]; a composite
    has none, since its DirectSum or TensorComplex locates each coordinate."""

    def __init__(self, ring, dims, diff, labels: dict | None = None,
                 support=None):
        self.ring = ring
        self.dims = {n: d for n, d in dims.items()}
        if support is None:
            if self.dims:
                support = (min(self.dims), max(self.dims))
            else:
                support = (0, 0)
        self.support = support
        for n in range(support[0], support[1] + 1):
            self.dims.setdefault(n, 0)
        self.diff = dict(diff)
        self.labels = labels

    # -- shape helpers ----------------------------------------------------

    def degrees(self):
        return range(self.support[0], self.support[1] + 1)

    def dim(self, n) -> int:
        return self.dims.get(n, 0)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def d(self, n) -> SparseMatrix:
        m = self.diff.get(n)
        if m is None:
            return SparseMatrix(self.dim(n + 1), self.dim(n))
        return m

    def validate(self):
        """Check shapes and d^2 = 0; raises NotAComplex / ShapeMismatch."""
        for n, m in self.diff.items():
            if (m.nrows, m.ncols) != (self.dim(n + 1), self.dim(n)):
                raise ShapeMismatch(
                    f"differential at degree {n} has shape {m.nrows}x{m.ncols}, "
                    f"expected {self.dim(n + 1)}x{self.dim(n)}")
        for n in self.degrees():
            if not (self.d(n + 1) @ self.d(n)).is_zero():
                raise NotAComplex(n)
        return True

    def __eq__(self, other):
        if not isinstance(other, Complex):
            return NotImplemented
        if self.ring != other.ring or self.support != other.support:
            return False
        if any(self.dim(n) != other.dim(n) for n in self.degrees()):
            return False
        return all(self.d(n) == other.d(n) for n in self.degrees())

    def __repr__(self):
        dims = {n: self.dim(n) for n in self.degrees() if self.dim(n)}
        return f"Complex(ring={self.ring!r}, dims={dims})"


def single(ring=QQ, degree=0, dim=1) -> Complex:
    """A complex concentrated in one degree with zero differential."""
    return Complex(ring, {degree: dim}, {})


class ChainMap:
    """Map of complexes f : C -> D of degree 0; mat(n) is C^n -> D^n."""

    def __init__(self, source: Complex, target: Complex, mats):
        if source.ring != target.ring:
            raise RingMismatch("chain map between different coefficient rings")
        self.source = source
        self.target = target
        self.mats = dict(mats)

    def mat(self, n) -> SparseMatrix:
        m = self.mats.get(n)
        if m is None:
            return SparseMatrix(self.target.dim(n), self.source.dim(n))
        return m

    def validate(self):
        for n, m in self.mats.items():
            if (m.nrows, m.ncols) != (self.target.dim(n), self.source.dim(n)):
                raise ShapeMismatch(f"chain map block at degree {n} has wrong shape")
        for n in self.source.degrees():
            if self.target.d(n) @ self.mat(n) != self.mat(n + 1) @ self.source.d(n):
                raise ShapeMismatch(f"does not commute with differentials at degree {n}")
        return True

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self after other (other then self)."""
        if other.target is not self.source and other.target != self.source:
            raise ShapeMismatch("composition target/source mismatch")
        mats = {n: self.mat(n) @ other.mat(n) for n in other.source.degrees()}
        return ChainMap(other.source, self.target, mats)

    def __add__(self, other: "ChainMap") -> "ChainMap":
        mats = {n: self.mat(n) + other.mat(n) for n in self.source.degrees()}
        return ChainMap(self.source, self.target, mats)

    def scale(self, s) -> "ChainMap":
        return ChainMap(self.source, self.target,
                        {n: m.scale(s) for n, m in self.mats.items()})

    def __eq__(self, other):
        if not isinstance(other, ChainMap):
            return NotImplemented
        return all(self.mat(n) == other.mat(n) for n in self.source.degrees())

    @classmethod
    def identity(cls, c: Complex) -> "ChainMap":
        mats = {n: SparseMatrix.identity(c.dim(n)) for n in c.degrees()}
        return cls(c, c, mats)

    @classmethod
    def zero(cls, source: Complex, target: Complex) -> "ChainMap":
        return cls(source, target, {})


# ---------------------------------------------------------------------------
# constructors


def shift(c: Complex, k: int) -> Complex:
    """C[k] with C[k]^n = C^{n-k} and differential (-1)^k d."""
    dims = {n + k: c.dim(n) for n in c.degrees()}
    sign = -1 if k % 2 else 1
    diff = {n + k: c.d(n).scale(sign) for n in c.degrees() if not c.d(n).is_zero()}
    return Complex(c.ring, dims, diff, support=(c.support[0] + k, c.support[1] + k))


@dataclass
class DirectSum:
    """P_0 (+) ... (+) P_{k-1} with the parts stacked in order.

    In degree n, coordinate j of part i sits at offsets[n][i] + j, where
    offsets[n][i] is the sum of P_m.dim(n) over m < i.
    """

    cx: Complex
    offsets: dict    # n -> [offset of each part]

    def locate(self, n, index):
        """(part i, coordinate j) of a degree-n index."""
        if not 0 <= index < self.cx.dim(n):
            raise ShapeMismatch(f"index {index} outside degree {n} of the sum")
        i = bisect_right(self.offsets[n], index) - 1
        return i, index - self.offsets[n][i]

    def component(self, n, vec: dict, i) -> dict:
        """The coordinates of part i in a degree-n vector of the sum; {} in
        a degree outside the sum."""
        offs = self.offsets.get(n)
        if offs is None:
            return {}
        lo = offs[i]
        hi = offs[i + 1] if i + 1 < len(offs) else self.cx.dim(n)
        return {k - lo: v for k, v in vec.items() if lo <= k < hi}

    def between(self, source: "DirectSum", maps: dict) -> ChainMap:
        """The sum over (i, j) of iota_i o maps[(i, j)] o pi_j, for
        maps[(i, j)] : part j of source -> part i; one matrix per degree of
        source, each block pasted once at the two sums' offsets."""
        mats = {}
        for n in source.cx.degrees():
            m = mats[n] = SparseMatrix(self.cx.dim(n), source.cx.dim(n))
            for (i, j), f in maps.items():
                blk = f.mat(n)
                if blk.nrows:
                    m.paste(blk, self.offsets[n][i], source.offsets[n][j])
        return ChainMap(source.cx, self.cx, mats)

    def collect(self, source: Complex, maps: dict) -> ChainMap:
        """The sum over i of iota_i o maps[i], for maps[i] : source -> part i;
        zero into each part that maps does not name."""
        return self.between(_one_part(source), {(i, 0): f for i, f in maps.items()})

    def fold(self, target: Complex, maps: dict) -> ChainMap:
        """The sum over i of maps[i] o pi_i, for maps[i] : part i -> target;
        zero on each part that maps does not name."""
        return _one_part(target).between(self, {(0, i): f for i, f in maps.items()})

    def extract(self, i, f: ChainMap) -> ChainMap:
        """f o pi_i, for f leaving part i."""
        return self.fold(f.target, {i: f})


def _one_part(cx: Complex) -> DirectSum:
    """cx as the sum of itself alone."""
    return DirectSum(cx, {n: [0] for n in cx.degrees()})


def direct_sum(parts) -> DirectSum:
    parts = list(parts)
    if not parts:
        raise ShapeMismatch("direct sum of no complexes")
    ring = parts[0].ring
    if any(p.ring != ring for p in parts):
        raise RingMismatch("direct sum over mixed rings")
    lo = min(p.support[0] for p in parts)
    hi = max(p.support[1] for p in parts)
    dims, offs = {}, {}
    for n in range(lo, hi + 1):
        off = []
        acc = 0
        for p in parts:
            off.append(acc)
            acc += p.dim(n)
        dims[n] = acc
        offs[n] = off
    diff = {}
    for n in range(lo, hi):
        m = SparseMatrix(dims[n + 1], dims[n])
        for i, p in enumerate(parts):
            m.paste(p.d(n), offs[n + 1][i], offs[n][i])
        diff[n] = m
    cx = Complex(ring, dims, diff, support=(lo, hi))
    return DirectSum(cx, offs)


def cone(f: ChainMap) -> DirectSum:
    """Mapping cone of a degree-0 chain map f : C -> D.

    The direct sum C[-1] (+) D, so degree n is C^{n+1} (+) D^n, with -f
    pasted into its differential: d(c, x) = (-d_C c, d_D x - f(c)).  The
    canonical maps are collect(D, {1: id_D}) and extract(0, id_{C[-1]}).
    """
    ds = direct_sum([shift(f.source, -1), f.target])
    for n, m in ds.cx.diff.items():
        m.paste(f.mat(n + 1), ds.offsets[n + 1][1], ds.offsets[n][0], -1)
    return ds


def cocone(f: ChainMap) -> DirectSum:
    """cocone(f) = cone(f)[1] = C (+) D[1] with +f pasted into its
    differential, d(c, x) = (d_C c, f(c) - d_D x); degree n is C^n (+)
    D^{n-1}, and the canonical map onto C is extract(0, id_C)."""
    ds = direct_sum([f.source, shift(f.target, 1)])
    for n, m in ds.cx.diff.items():
        m.paste(f.mat(n), ds.offsets[n + 1][1], ds.offsets[n][0])
    return ds


class TensorComplex:
    """Tensor product A (x) B with basis bookkeeping.

    Degree-n basis elements are triples (i, a, b): a runs over the basis of
    A^i and b over B^{n-i}, ordered by ascending i then a then b.  Block i
    of degree n is present when A^i and B^{n-i} are both nonzero, and
    (i, a, b) sits at pos(n, i, a, b) = start of block i + a dim B^{n-i} + b.
    """

    def __init__(self, A: Complex, B: Complex):
        if A.ring != B.ring:
            raise RingMismatch("tensor over mixed rings")
        self.A, self.B = A, B
        lo = A.support[0] + B.support[0]
        hi = A.support[1] + B.support[1]
        self._starts = {}   # n -> [(start, i)] of the present blocks
        self._start = {}    # (n, i) -> start of block i in degree n
        dims = {}
        for n in range(lo, hi + 1):
            starts, size = [], 0
            for i in A.degrees():
                block = A.dim(i) * B.dim(n - i)
                if block:
                    starts.append((size, i))
                    self._start[(n, i)] = size
                    size += block
            self._starts[n] = starts
            dims[n] = size
        diff = {}
        for n in range(lo, hi):
            m = SparseMatrix(dims[n + 1], dims[n])
            for i, j in self.blocks(n):
                sign = -1 if i % 2 else 1
                da = [A.d(i).column(a) for a in range(A.dim(i))]
                db = [B.d(j).column(b) for b in range(B.dim(j))]
                col = self.pos(n, i, 0, 0)
                for a, da_a in enumerate(da):
                    for b, db_b in enumerate(db):
                        for r, v in da_a.items():
                            m.rows[self.pos(n + 1, i + 1, r, b)][col] = v
                        for r, v in db_b.items():
                            m.rows[self.pos(n + 1, i, a, r)][col] = v * sign
                        col += 1
            diff[n] = m
        self.cx = Complex(A.ring, dims, diff, support=(lo, hi))

    def pos(self, n, i, a, b):
        return self._start[(n, i)] + a * self.B.dim(n - i) + b

    def locate(self, n, index):
        """(i, a, b) of a degree-n index; the inverse of pos."""
        if not 0 <= index < self.cx.dim(n):
            raise ShapeMismatch(f"index {index} outside degree {n} of the tensor")
        starts = self._starts[n]
        start, i = starts[bisect_right(starts, index, key=itemgetter(0)) - 1]
        a, b = divmod(index - start, self.B.dim(n - i))
        return i, a, b

    def blocks(self, n):
        """Pairs (i, j) with nonzero contribution in degree n."""
        return [(i, n - i) for _, i in self._starts.get(n, ())]


def tensor(A: Complex, B: Complex) -> TensorComplex:
    return TensorComplex(A, B)


def tensor_map(tsrc: TensorComplex, ttgt: TensorComplex, f: ChainMap,
               g: ChainMap) -> ChainMap:
    """f (x) g : tsrc -> ttgt, for degree-0 f and g (no Koszul signs),
    written from the factors' rows: in block i of degree n the entry at
    (ttgt.pos(n, i, a2, b2), tsrc.pos(n, i, a, b)) is f[a2][a] g[b2][b], so
    an identity factor costs one pass over its rows, not a column scan."""
    mats = {}
    for n in tsrc.cx.degrees():
        m = mats[n] = SparseMatrix(ttgt.cx.dim(n), tsrc.cx.dim(n))
        for i, j in tsrc.blocks(n):
            grows = g.mat(j).rows
            for a2, frow in enumerate(f.mat(i).rows):
                for a, va in frow.items():
                    col = tsrc.pos(n, i, a, 0)
                    for b2, grow in enumerate(grows):
                        row = m.rows[ttgt.pos(n, i, a2, b2)]
                        for b, vb in grow.items():
                            row[col + b] = va * vb
    return ChainMap(tsrc.cx, ttgt.cx, mats)


@dataclass
class Telescope:
    cone: DirectSum    # cone(kappa - incl); its complex is the telescope
    to_last: ChainMap  # quasi-isomorphism onto the final term

    @property
    def cx(self) -> Complex:
        return self.cone.cx


def telescope(terms, maps) -> Telescope:
    """Finite telescope of C_1 -> C_2 -> ... -> C_L.

    Modeled as cone(kappa - incl) where kappa - incl maps the sum of the
    first L-1 terms (zero when L = 1) into the sum of all L, sending c_i to
    kappa_i(c_i) - c_i.  The summing map onto C_L (compose the remaining
    kappas) is the canonical quasi-isomorphism.
    """
    terms = list(terms)
    maps = list(maps)
    L = len(terms)
    if L == 0 or len(maps) != L - 1:
        raise ShapeMismatch("telescope needs L terms and L-1 maps")
    tail = direct_sum(terms)
    if L == 1:
        # the empty head, placed so that the cone keeps C_1's support
        lo = terms[0].support[0] + 1
        g = ChainMap.zero(Complex(tail.cx.ring, {}, {}, support=(lo, lo)), tail.cx)
    else:
        head = direct_sum(terms[:-1])
        kappa = tail.between(head, {(i + 1, i): maps[i] for i in range(L - 1)})
        incl = tail.between(head, {(i, i): ChainMap.identity(terms[i])
                                   for i in range(L - 1)})
        g = ChainMap(head.cx, tail.cx,
                     {n: kappa.mat(n) - incl.mat(n) for n in head.cx.degrees()})
    mc = cone(g)
    # collapse onto the last term: (a, b) -> sum of pushforwards of b
    pushes = {L - 1: ChainMap.identity(terms[-1])}
    for i in range(L - 2, -1, -1):
        pushes[i] = maps[i] if i == L - 2 else pushes[i + 1].compose(maps[i])
    return Telescope(mc, mc.extract(1, tail.fold(terms[-1], pushes)))


def telescope_comparison(terms, maps, L1: int, L2: int):
    """Canonical map telescope(first L1) -> telescope(first L2), L1 <= L2.

    Inclusion of summands; used to probe which classes survive lengthening.
    """
    if not (1 <= L1 <= L2 <= len(terms)):
        raise ShapeMismatch("need 1 <= L1 <= L2 <= L")
    t1 = telescope(terms[:L1], maps[:L1 - 1])
    t2 = telescope(terms[:L2], maps[:L2 - 1])
    mats = {}
    for n in t1.cx.degrees():
        # t1's head and tail are prefixes of t2's head and tail
        (h1, b1), (h2, b2) = t1.cone.offsets[n], t2.cone.offsets[n]
        m = SparseMatrix(t2.cx.dim(n), t1.cx.dim(n))
        m.paste(SparseMatrix.identity(b1 - h1), h2, h1)
        m.paste(SparseMatrix.identity(t1.cx.dim(n) - b1), b2, b1)
        mats[n] = m
    return t1, t2, ChainMap(t1.cx, t2.cx, mats)


# ---------------------------------------------------------------------------
# homology


@dataclass
class HomologyReport:
    """Per-degree homology invariants.

    Over Q: ``betti`` holds dimensions.  Over a truncated Novikov ring:
    ``torsion`` maps degree to the multiset (sorted descending) of u-orders k,
    one per cyclic summand R/(u^k) where u = T^(1/den); k equal to the
    truncation order means the class is annihilated by nothing below the
    cutoff (a free summand).  The orders are the valuations of Smith-form
    pivots over R (Kaplansky: every finitely generated module over the
    chain ring R is a sum of cyclic ones); a unit pivot, order 0, is a zero
    summand and is left out.
    """

    ring_desc: str
    kind: str                      # "betti" or "torsion"
    betti: dict | None = None
    torsion: dict | None = None
    den: int | None = None
    truncation_order: int | None = None

    def to_json(self):
        out = {"ring": self.ring_desc, "kind": self.kind}
        if self.kind == "betti":
            out["betti"] = {str(n): b for n, b in sorted(self.betti.items())}
        else:
            out["torsion_u_orders"] = {str(n): list(ks) for n, ks in sorted(self.torsion.items())}
            out["den"] = self.den
            out["truncation_order"] = self.truncation_order
        return out

    def text(self):
        lines = [f"homology over {self.ring_desc}"]
        if self.kind == "betti":
            for n in sorted(self.betti):
                lines.append(f"  H^{n}: dim {self.betti[n]}")
        else:
            for n in sorted(self.torsion):
                ks = self.torsion[n]
                orders = ", ".join(f"T^({format_rational(Fraction(k, self.den))})" for k in ks)
                lines.append(f"  H^{n}: {len(ks)} cyclic summand(s) of order {orders or '-'}")
        return "\n".join(lines)


def betti_numbers(c: Complex) -> dict:
    if c.ring != QQ:
        raise UnsupportedRing("betti numbers require Q coefficients")
    ranks = {n: rank(c.d(n)) for n in c.degrees()}
    out = {}
    for n in c.degrees():
        out[n] = c.dim(n) - ranks.get(n, 0) - ranks.get(n - 1, 0)
    return out


def _q_block(blk: SparseMatrix, nrows: int, ncols: int, m: int) -> SparseMatrix:
    """The Q-matrix of a Novikov matrix in the bases e_j (x) u^t, 0 <= t < m,
    where e_j (x) u^t is coordinate j*m + t: a term c*u^k at (r, j) sends
    e_j (x) u^t to c e_r (x) u^(t+k).  The one place that knows this layout."""
    q = SparseMatrix(nrows, ncols)
    for r, row in enumerate(blk.rows):
        for j, x in row.items():
            for k, coeff in u_terms(x):
                for t in range(m - k):
                    q.rows[r * m + t + k][j * m + t] = coeff
    return q


def novikov_q_expansion(c: Complex):
    """Flatten a truncated-Novikov complex to Q: (qdims, qdiff) keyed by
    degree, in the bases e_j (x) u^t of _q_block."""
    m = c.ring.truncation_order
    qdims = {n: c.dim(n) * m for n in c.degrees()}
    qdiff = {n: _q_block(c.d(n), qdims.get(n + 1, 0), qdims[n], m)
             for n in c.degrees()}
    return qdims, qdiff


def novikov_q_expansion_complex(c: Complex) -> Complex:
    """The Q-complex underlying a truncated-Novikov complex."""
    qdims, qdiff = novikov_q_expansion(c)
    return Complex(QQ, qdims, qdiff, support=c.support)


def novikov_q_expansion_map(f: ChainMap, qsrc: Complex, qtgt: Complex) -> ChainMap:
    """The Q-linear chain map underlying a truncated-Novikov chain map;
    qsrc and qtgt must be the expansions of f's source and target."""
    m = f.source.ring.truncation_order
    mats = {n: _q_block(f.mat(n), qtgt.dim(n), qsrc.dim(n), m)
            for n in f.source.degrees()}
    return ChainMap(qsrc, qtgt, mats)


def _smith(rows, ncols: int, track=None) -> dict:
    """The Smith form over Λ = Q[u]/(u^m) of the matrix with the given
    rows ({column: scalar} each, consumed): its pivots as {column: valuation}.

    Each pivot is an entry u^v*w of least valuation (w a unit), taken from
    the shortest row of least valuation, ties broken by the sparsest column;
    a lazy heap keyed by (valuation, length, row) finds that row.  Its row
    is cleared by column operations col_j -= q*col_p, q = (y/u^v)*w^-1,
    which keep every valuation at least v; the row operations that clear
    its column then meet a lone pivot in the pivot row and only erase that
    column.  With ``track``, the rows of a matrix indexed by these columns
    (the previous differential), each column operation is applied to it as
    the inverse row operation row_p += q*row_j, so track ends in the new
    basis.
    """
    cols = [set() for _ in range(ncols)]
    for r, row in enumerate(rows):
        for j in row:
            cols[j].add(r)

    def key(r):
        return min(map(valuation, rows[r].values())), len(rows[r]), r

    heap = [key(r) for r, row in enumerate(rows) if row]
    heapify(heap)
    pivots = {}
    while heap:
        v, _, pr = top = heappop(heap)
        prow = rows[pr]
        if not prow or key(pr) != top:
            continue    # superseded by a later entry for the same row
        pc = min((j for j, x in prow.items() if valuation(x) == v),
                 key=lambda j: (len(cols[j]), j))
        winv = unit_inverse(divide_by_u(prow.pop(pc), v))
        below = cols[pc]
        below.discard(pr)
        for j, y in prow.items():
            q = divide_by_u(y, v) * winv
            cols[j].discard(pr)
            for r in below:
                accumulate(rows[r], j, -(q * rows[r][pc]))
                if j in rows[r]:
                    cols[j].add(r)
                else:
                    cols[j].discard(r)
            if track is not None:
                add_into(track[pc], track[j], q)
        prow.clear()
        for r in below:
            del rows[r][pc]
            if rows[r]:
                heappush(heap, key(r))
        below.clear()
        pivots[pc] = v
    return pivots


def _torsion_orders(c: Complex, n: int) -> list:
    """The u-orders of H^n over Λ = Q[u]/(u^m), from two Smith forms.

    d_n in Smith form, with its column operations carried to d_{n-1}, has
    pivots u^a at basis vectors e_p of C^n; ker d_n is generated by the
    u^(m-a) e_p (relation u^a) and the e_j off the pivots (free).  Row p of
    d_{n-1} in that basis then lies in u^(m-a)Λ exactly when d_n d_{n-1} = 0,
    and divided by u^(m-a) it writes im d_{n-1} in the kernel's generators.
    The pivots u^b of that presentation, with u^a added on each generator
    e_p, are the orders b; a generator left without a pivot is free, order m.
    """
    ring = c.ring
    m = ring.truncation_order
    prev = c.d(n - 1)
    gens = [dict(row) for row in prev.rows]
    pivots = _smith([dict(row) for row in c.d(n).rows], c.dim(n), gens)
    relations = prev.ncols
    for p, a in pivots.items():
        row = gens[p]
        if any(valuation(x) < m - a for x in row.values()):
            raise NotAComplex(n - 1)
        if a:
            gens[p] = {j: divide_by_u(x, m - a) for j, x in row.items()}
            gens[p][relations] = ring.T(Fraction(a, ring.den))
            relations += 1
    # a unit pivot's generator u^m e_p is zero
    gens = [row for p, row in enumerate(gens) if pivots.get(p) != 0]
    orders = list(_smith(gens, relations).values())
    orders += [m] * (len(gens) - len(orders))
    return sorted((b for b in orders if b), reverse=True)


def homology(c: Complex) -> HomologyReport:
    """Homology invariants; see HomologyReport for the two shapes.

    Over a truncated Novikov ring the orders come from two Smith forms over
    the ring per degree (``_torsion_orders``), with no expansion to Q.  An
    unvalidated complex whose d^2 is not zero in the ring raises
    NotAComplex.
    """
    if c.ring == QQ:
        return HomologyReport("Q", "betti", betti=betti_numbers(c))
    ring: NovikovRing = c.ring
    torsion = {n: _torsion_orders(c, n) for n in c.degrees()}
    desc = f"Novikov(den={ring.den}, cutoff={format_rational(ring.cutoff)})"
    return HomologyReport(desc, "torsion", torsion=torsion, den=ring.den,
                          truncation_order=ring.truncation_order)


class HomologySpace:
    """Cycle representatives and projection-to-coordinates in one degree."""

    def __init__(self, c: Complex, n: int):
        if c.ring != QQ:
            raise UnsupportedRing("homology spaces require Q coefficients")
        self.cx, self.n = c, n
        self._te = TrackedEchelon()
        prev = c.d(n - 1)
        for j in range(prev.ncols):
            self._te.add(prev.column(j), ("b", j))
        self.reps = []
        for z in kernel_basis(c.d(n)):
            if self._te.add(z, ("h", len(self.reps))):
                self.reps.append(z)

    @property
    def dim(self):
        return len(self.reps)

    def project(self, vec: dict):
        """Coordinates of a cycle's class in the representative basis."""
        if self.cx.d(self.n).matvec(vec):
            raise ShapeMismatch("vector is not a cycle")
        coords = self._te.represent(vec)
        if coords is None:
            raise ShapeMismatch("cycle not in span of boundaries and representatives")
        return {i: v for (tag, i), v in coords.items() if tag == "h"}


def _induced(mat: SparseMatrix, hs: HomologySpace, ht: HomologySpace):
    """The matrix, in the representative bases, of the map hs -> ht that a
    cycle-preserving mat induces on homology."""
    m = SparseMatrix(ht.dim, hs.dim)
    for j, z in enumerate(hs.reps):
        for i, v in ht.project(mat.matvec(z)).items():
            m.rows[i][j] = v
    return m


def homology_map(f: ChainMap, n: int):
    """Matrix of H^n(f) in the HomologySpace representative bases."""
    hs, ht = HomologySpace(f.source, n), HomologySpace(f.target, n)
    return _induced(f.mat(n), hs, ht), hs, ht


def novikov_induced_rank(f: ChainMap, n: int) -> int:
    """The Q-rank of H^n(f) for a chain map f of truncated-Novikov complexes,
    read on the Q-expansions: 0 exactly when f kills every class of H^n."""
    qsrc = novikov_q_expansion_complex(f.source)
    qtgt = novikov_q_expansion_complex(f.target)
    induced, _, _ = homology_map(novikov_q_expansion_map(f, qsrc, qtgt), n)
    return rank(induced)


@dataclass
class QuasiIsoCertificate:
    ok: bool
    cone_betti: dict
    witness_degree: int | None

    def to_json(self):
        return {"quasi_iso": self.ok,
                "cone_betti": {str(n): b for n, b in sorted(self.cone_betti.items())},
                "witness_degree": self.witness_degree}


def is_quasi_iso(f: ChainMap) -> QuasiIsoCertificate:
    """f is a quasi-isomorphism iff cone(f) is acyclic (field coefficients)."""
    if f.source.ring != QQ:
        raise UnsupportedRing("quasi-isomorphism certificates require Q coefficients")
    cb = betti_numbers(cone(f).cx)
    witness = None
    for n in sorted(cb):
        if cb[n] != 0:
            witness = n
            break
    return QuasiIsoCertificate(witness is None, cb, witness)


def change_basis(c: Complex, mats: dict, inv: dict) -> Complex:
    """Conjugate the differential by degreewise isomorphisms U (with inverses)."""
    diff = {}
    for n in c.degrees():
        U1 = mats.get(n + 1, SparseMatrix.identity(c.dim(n + 1)))
        Uinv = inv.get(n, SparseMatrix.identity(c.dim(n)))
        diff[n] = U1 @ c.d(n) @ Uinv
    return Complex(c.ring, dict(c.dims), diff, support=c.support)


# ---------------------------------------------------------------------------
# serialization


def scalar_to_str(x) -> str:
    if isinstance(x, NovikovElem):
        return format_novikov(x)
    return format_rational(x)


def ring_to_json(ring):
    if ring == QQ:
        return "Q"
    return {"novikov": {"den": ring.den, "cutoff": format_rational(ring.cutoff)}}


def json_int(x, field):
    """x when it is a JSON integer (an int, not a bool); otherwise an
    InputError naming field, so that 2.9 or true is never read as 2 or 1."""
    if type(x) is int:
        return x
    raise InputError(f"{field} must be an integer, not {json.dumps(x)}")


def ring_from_json(obj):
    if obj == "Q":
        return QQ
    if isinstance(obj, dict) and "novikov" in obj:
        nv = obj["novikov"]
        return NovikovRing(json_int(nv["den"], "den"), Fraction(str(nv["cutoff"])))
    raise ValueError(f"unknown ring descriptor {obj!r}")


def _is_digits(text):
    return text.isascii() and text.isdigit()


def parse_scalar(ring, s):
    """A JSON entry as a scalar of ring.  Over Q the value is that of
    Fraction(str(s)), with its exceptions, in canonical form (an int when
    it is integral, see ``linalg.whole``).  An int, or a str spelled
    -?digits or -?digits/digits, is read by int(); anything else goes
    through Fraction(str(s)), so a float is read as its decimal."""
    if ring != QQ:
        return parse_novikov(ring, str(s))
    if type(s) is int:
        return s
    if type(s) is str:
        num, slash, den = s.partition("/")
        if _is_digits(num[1:] if num[:1] == "-" else num) and (
                not slash or _is_digits(den)):
            return whole(Fraction(int(num), int(den))) if slash else int(num)
    return whole(Fraction(str(s)))


def complex_to_json(c: Complex):
    return {
        "coeff": ring_to_json(c.ring),
        "support": [c.support[0], c.support[1]],
        "dims": {str(n): c.dim(n) for n in c.degrees()},
        "diff": {str(n): [[r, col, scalar_to_str(v)] for r, col, v in sorted(c.d(n).entries())]
                 for n in c.degrees() if not c.d(n).is_zero()},
    }


def _check_shape(lo, hi, dims, diff_degrees):
    """InputError, naming the degree, unless the support is an interval
    holding every dimension (none negative) and every nonzero
    differential d_n (n and n + 1 both in it), and each of its degrees
    has a dimension.  A missing one is found by counting, so a huge support
    with few dimensions is refused without walking it."""
    if lo > hi:
        raise InputError(f"support [{lo}, {hi}] is empty: {lo} > {hi}")
    for n, d in sorted(dims.items()):
        if not lo <= n <= hi:
            raise InputError(f"dimension given at degree {n}, outside the "
                             f"support [{lo}, {hi}]")
        if d < 0:
            raise InputError(f"negative dimension {d} at degree {n}")
    for n in sorted(diff_degrees):
        if not lo <= n < hi:
            raise InputError(f"differential at degree {n} leaves the "
                             f"support [{lo}, {hi}]")
    if hi - lo + 1 != len(dims):
        missing = next(n for n in range(lo, hi + 1) if n not in dims)
        raise InputError(f"no dimension given at degree {missing}, inside "
                         f"the support [{lo}, {hi}]")


def _first_spelling(spelled: dict, key, spelling: str, what: str):
    """Record spelling as the one JSON key for key, and return key; a
    second spelling of one degree, subset or arrow is an input error."""
    if key in spelled:
        raise InputError(f"{spelled[key]!r} and {spelling!r} name the same "
                         f"{what}; give each {what} once")
    spelled[key] = spelling
    return key


def _by_degree(table):
    """table's values keyed by the degrees its keys spell; two spellings
    of one degree ("0" and "+0") are an input error."""
    spelled = {}
    return {_first_spelling(spelled, int(k), k, "degree"): v
            for k, v in table.items()}


def _matrix_from_json(ring, triples, nrows: int, ncols: int, field: str):
    """The nrows x ncols matrix of JSON [row, column, scalar] triples, an
    entry given twice summed.  Every index and scalar is read before
    ``SparseMatrix.from_entries`` refuses a position outside the shape."""
    return SparseMatrix.from_entries(nrows, ncols, [
        (json_int(r, f"{field} row"), json_int(c, f"{field} column"),
         parse_scalar(ring, v)) for r, c, v in triples])


def complex_from_json(obj) -> Complex:
    """Load a complex and validate it: support, dimensions, shapes, and
    d^2 = 0.

    Raises InputError on a malformed description (missing keys, bad
    scalars, a shape outside the support) and NotAComplex when d^2 != 0;
    both are input faults.
    """
    try:
        ring = ring_from_json(obj["coeff"])
        lo, hi = obj["support"]
        lo, hi = json_int(lo, "support"), json_int(hi, "support")
        dims = {n: json_int(d, f"dims at degree {n}")
                for n, d in _by_degree(obj["dims"]).items()}
        triples_at = _by_degree(obj.get("diff", {}))
        _check_shape(lo, hi, dims, [n for n, t in triples_at.items() if t])
        diff = {n: _matrix_from_json(ring, triples, dims.get(n + 1, 0),
                                     dims.get(n, 0), "diff")
                for n, triples in triples_at.items()}
    except (KeyError, ValueError, TypeError, ZeroDivisionError,
            AttributeError) as exc:
        raise InputError(f"malformed complex description: {exc!r}") from exc
    c = Complex(ring, dims, diff, support=(lo, hi))
    c.validate()
    return c


def chain_map_to_json(f: ChainMap):
    return {
        "shift": 0,
        "mats": {str(n): [[r, c, scalar_to_str(v)] for r, c, v in sorted(f.mat(n).entries())]
                 for n in f.source.degrees() if not f.mat(n).is_zero()},
    }


def chain_map_from_json(source: Complex, target: Complex, obj) -> ChainMap:
    """Load a chain map between given complexes; InputError when malformed
    or when its "shift" is present and not 0 (chain maps have degree 0)."""
    try:
        s = json_int(obj.get("shift", 0), "shift")
        if s:
            raise InputError(f"shift is {s}, not 0: a chain map has degree 0")
        mats = {n: _matrix_from_json(source.ring, triples, target.dim(n),
                                     source.dim(n), "mats")
                for n, triples in _by_degree(obj.get("mats", {})).items()}
    except (KeyError, ValueError, TypeError, ZeroDivisionError,
            AttributeError) as exc:
        raise InputError(f"malformed chain map description: {exc!r}") from exc
    return ChainMap(source, target, mats)
