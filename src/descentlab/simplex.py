"""Cochain models of the standard simplex.

Two models of the p-simplex on vertices {0, ..., p} are implemented:

* normalized simplicial cochains over Q, with basis the indicator cochains
  of nonempty vertex subsets F (degree |F| - 1);
* Sullivan's polynomial differential forms in the barycentric coordinates
  t_0, ..., t_p (t_0 + ... + t_p = 1, so dt_0 = -(dt_1 + ... + dt_p)),
  graded by form degree and cut off at weight = polynomial degree + form
  degree.  A face map sends each t_w to a t_v or to 0, so pulling a
  monomial back along one relabels it.

Between them run the elementwise integration map (forms -> cochains, via
integrating over faces) and the Whitney map (cochains -> forms), which is a
one-sided inverse: integrate(whitney(x)) == x exactly.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial, prod

from .complexes import Complex
from .errors import ShapeMismatch
from .linalg import SparseMatrix, accumulate, whole
from .polyvec import Polyvector, _merge_odd
from .scalars import QQ


class InjMap:
    """Order-preserving injection [p] -> [q], stored by its vertex images."""

    __slots__ = ("verts", "q")

    def __init__(self, verts, q):
        verts = tuple(verts)
        if any(verts[i] >= verts[i + 1] for i in range(len(verts) - 1)):
            raise ShapeMismatch("vertex images must be strictly increasing")
        if verts and not (0 <= verts[0] and verts[-1] <= q):
            raise ShapeMismatch("vertex image out of range")
        self.verts = verts
        self.q = q

    @property
    def p(self):
        return len(self.verts) - 1

    def __eq__(self, other):
        return isinstance(other, InjMap) and (self.verts, self.q) == (other.verts, other.q)

    def __hash__(self):
        return hash((self.verts, self.q))

    def __repr__(self):
        return f"InjMap({list(self.verts)} -> [{self.q}])"

    def preimage_tuple(self, F):
        """Sorted tuple of f^{-1}(F), or None if F is not inside the image."""
        pos = {w: i for i, w in enumerate(self.verts)}
        out = []
        for w in F:
            if w not in pos:
                return None
            out.append(pos[w])
        return tuple(sorted(out))


def coface(p: int, i: int) -> InjMap:
    """The i-th coface [p] -> [p+1], skipping vertex i."""
    if not 0 <= i <= p + 1:
        raise ShapeMismatch(f"coface index {i} out of range for [{p}]")
    return InjMap(tuple(v for v in range(p + 2) if v != i), p + 1)


# ---------------------------------------------------------------------------
# normalized simplicial cochains
#
# A cochain is a dict {sorted vertex tuple F: scalar}; degree of F is
# |F| - 1.  All maps below are linear in that representation.


def nc_d_on(p: int, x: dict) -> dict:
    """Coboundary of a cochain on the p-simplex."""
    out = {}
    for F, val in x.items():
        Fs = set(F)
        for w in range(p + 1):
            if w in Fs:
                continue
            F2 = tuple(sorted(F + (w,)))
            accumulate(out, F2, -val if F2.index(w) % 2 else val)
    return out


def nc_pullback(f: InjMap, x: dict) -> dict:
    """(f^* x)(F) = x(f(F)): delta_G pulls back to delta on the preimage of G
    when G lies inside the image of f, and to zero otherwise."""
    out = {}
    for G, v in x.items():
        F = f.preimage_tuple(G)
        if F is not None:
            accumulate(out, F, v)
    return out


class _SimplexModel:
    """A cochain model of the p-simplex in degrees 0..p: basis(n) lists the
    degree-n basis keys, and the differential has one column per key, read
    off d_on(key), the (key, coefficient) pairs of that key's coboundary."""

    def __init__(self, p: int, basis, d_on):
        self.p = p
        self._basis = {n: basis(n) for n in range(p + 1)}
        self._index = {n: {k: i for i, k in enumerate(bs)}
                       for n, bs in self._basis.items()}
        dims = {n: len(bs) for n, bs in self._basis.items()}
        diff = {}
        for n in range(p):
            index = self._index[n + 1]
            entries = [(index[k2], col, whole(c))
                       for col, k in enumerate(self._basis[n])
                       for k2, c in d_on(k)]
            diff[n] = SparseMatrix.from_entries(dims[n + 1], dims[n], entries)
        self.cx = Complex(QQ, dims, diff, support=(0, p))

    def basis(self, n):
        return self._basis.get(n, [])


class NCModel(_SimplexModel):
    """The normalized-cochain complex of the p-simplex over Q, with basis
    indexing."""

    def __init__(self, p: int):
        super().__init__(p, lambda n: list(combinations(range(p + 1), n + 1)),
                         lambda F: nc_d_on(p, {F: Fraction(1)}).items())

    def index(self, n, F):
        return self._index[n][tuple(F)]

    def unit(self) -> dict:
        """The constant cochain 1: the sum of the vertices."""
        return {(v,): Fraction(1) for v in range(self.p + 1)}

    def pullback(self, f: InjMap, F) -> dict:
        """The pullback along f of the basis cochain delta_F."""
        return nc_pullback(f, {F: Fraction(1)})

    def to_vec(self, n, x: dict) -> dict:
        out = {}
        for F, v in x.items():
            if len(F) - 1 != n:
                raise ShapeMismatch("mixed-degree cochain")
            if v:
                out[self._index[n][F]] = v
        return out


# ---------------------------------------------------------------------------
# polynomial forms


class PolyForm(Polyvector):
    """A form on the p-simplex: a polyvector in the barycentric coordinates
    t_0..t_p (nvars = p + 1) whose odd generators are dt_1..dt_p, so its
    wedge is the polyvector wedge.  A key (b, I) is a length-(p+1) exponent
    tuple and the sorted tuple of dt indices, drawn from 1..p (dt_0 =
    -(dt_1 + ... + dt_p)); the weight of a monomial is |b| + |I|.  Since
    t_0 + ... + t_p = 1, many dicts represent one form, and == compares
    representations: a form of weight w is also the form of weight w + 1
    got by multiplying by t_0 + ... + t_p, but the two compare unequal.
    """

    __slots__ = ()

    def __init__(self, p: int, terms=None):
        self.nvars = p + 1
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    @property
    def p(self):
        return self.nvars - 1

    @classmethod
    def zero(cls, p):
        return cls._trusted(p + 1, {})

    @classmethod
    def const(cls, p, c=Fraction(1)):
        return cls(p, {((0,) * (p + 1), ()): Fraction(c)})

    @classmethod
    def coord(cls, p, j):
        """The barycentric coordinate t_j, 0 <= j <= p."""
        b = [0] * (p + 1)
        b[j] = 1
        return cls(p, {(tuple(b), ()): Fraction(1)})

    @classmethod
    def dcoord(cls, p, j):
        """dt_j (j >= 1), or -sum_{w >= 1} dt_w for j = 0: the coordinates
        sum to 1, so their differentials sum to 0."""
        flat = (0,) * (p + 1)
        if j == 0:
            return cls(p, {(flat, (w,)): Fraction(-1) for w in range(1, p + 1)})
        return cls(p, {(flat, (j,)): Fraction(1)})

    def d(self) -> "PolyForm":
        acc = {}
        for key, c in self.terms.items():
            for key2, s in _d_monomial(key):
                accumulate(acc, key2, c * s)
        return PolyForm(self.p, acc)

    def degrees(self):
        return sorted({len(I) for (_, I) in self.terms})

    def homogeneous(self, n) -> "PolyForm":
        return PolyForm(self.p, {k: c for k, c in self.terms.items() if len(k[1]) == n})

    def __repr__(self):
        return f"PolyForm(p={self.p}, nnz={len(self.terms)})"


def _d_monomial(key):
    """d(t^b dt_I) = sum_j b_j t^(b - e_j) dt_j ^ dt_I, for key = (b, I),
    as (key, integer coefficient) pairs, with dt_0 expanded; the keys are
    distinct, d keeps the weight, and d(t_0 + ... + t_p) = 0."""
    b, I = key
    out = []
    for j, a in enumerate(b):
        if not a:
            continue
        lower = b[:j] + (a - 1,) + b[j + 1:]
        for w in (range(1, len(b)) if j == 0 else (j,)):
            merged = _merge_odd((w,), I)
            if merged is not None:   # dt_w ^ dt_I = 0 otherwise
                sign, J = merged
                out.append(((lower, J), -a * sign if j == 0 else a * sign))
    return out


def pf_pullback(f: InjMap, form: PolyForm) -> PolyForm:
    """Pull a form on the f-codomain simplex back along the affine map of f.

    A relabeling: the coordinate t_w of the codomain restricts to t_v when
    w = f(v), and to 0 when w misses the image, so t^b dt_I goes to one
    monomial or to 0.  The one expansion is dt_0 = -(dt_1 + ... + dt_p), when
    f(0) lies in I.
    """
    q, p = f.q, f.p
    if form.p != q:
        raise ShapeMismatch("form lives on the wrong simplex")
    pre = {w: v for v, w in enumerate(f.verts)}
    out = {}
    for (b, I), c in form.terms.items():
        e = tuple(b[w] for w in f.verts)
        if sum(e) != sum(b) or any(w not in pre for w in I):
            continue
        J = tuple(pre[w] for w in I)
        if not J or J[0]:
            accumulate(out, (e, J), c)
            continue
        for w in range(1, p + 1):
            merged = _merge_odd((w,), J[1:])
            if merged is not None:
                sign, K = merged
                accumulate(out, (e, K), c if sign < 0 else -c)
    return PolyForm._trusted(p + 1, out)


def integrate_over_face(form: PolyForm, F) -> Fraction:
    """Integral of the form's restriction to the face with vertex set F.

    In closed form, with no pullback.  With F = (v_0 < ... < v_k), the
    monomial t^b dt_I integrates to

        (-1)^m * prod_{v in F} b_v! / (k + |b|)!

    when b is supported on F and I = F minus {v_m}, and to 0 otherwise: the
    coordinates t_{v_0}, ..., t_{v_k} restrict to the face's barycentric
    coordinates (the Dirichlet integral, b_{v_0} included), and dt_I to
    (-1)^m times its volume form.  When v_0 = 0 only m = 0 occurs, since I
    holds no 0.
    """
    F = tuple(sorted(F))
    k = len(F) - 1
    on_face = set(F)
    total = Fraction(0)
    for (b, I), c in form.terms.items():
        if len(I) != k or not on_face.issuperset(I):
            continue
        num, size = 1, 0
        for v in F:
            num *= factorial(b[v])
            size += b[v]
        if size != sum(b):
            continue
        m = next(i for i, v in enumerate(F) if i == k or I[i] != v)
        total += c * Fraction(-num if m % 2 else num, factorial(k + size))
    return total


def integration_cochain(form: PolyForm) -> dict:
    """Elementwise integration: the cochain F -> integral over F.

    Only faces of dimension equal to a form degree present can contribute.
    """
    p = form.p
    out = {}
    for n in form.degrees():
        part = form.homogeneous(n)
        for F in combinations(range(p + 1), n + 1):
            val = integrate_over_face(part, F)
            if val:
                out[F] = val
    return out


def whitney(p: int, x: dict) -> PolyForm:
    """Whitney form of a cochain: on delta_F with F = (v_0 .. v_k),

        k! * sum_j (-1)^j t_{v_j} dt_{v_0} ^ ... omit j ... ^ dt_{v_k},

    in the barycentric coordinates themselves (weight k + 1), with dt_0
    written as -(dt_1 + ... + dt_p).
    """
    out = PolyForm.zero(p)
    for F, c in x.items():
        if not c:
            continue
        k = len(F) - 1
        acc = PolyForm.zero(p)
        for j in range(k + 1):
            term = PolyForm.coord(p, F[j])
            for i in range(k + 1):
                if i == j:
                    continue
                term = term.wedge(PolyForm.dcoord(p, F[i]))
            acc = acc + term.scale(Fraction((-1) ** j))
        out = out + acc.scale(Fraction(c) * factorial(k))
    return out


class OmegaModel(_SimplexModel):
    """The weight-truncated polynomial form complex of the p-simplex.

    Degree-n basis: monomials t^b dt_I in t_0..t_p with |I| = n and weight
    exactly P, ordered by I then exponents.  Multiplying by (t_0 + ... +
    t_p)^(P - w) does not change a form of weight w, so these span every
    form of weight <= P.  The differential preserves weight, so this is a
    subcomplex on the nose.
    """

    def __init__(self, p: int, P: int):
        self.P = P
        super().__init__(p, lambda n: [
            (b, I) for I in combinations(range(1, p + 1), n)
            for b in _exps(p + 1, P - n)], _d_monomial)

    def unit(self) -> PolyForm:
        """The degree-0 unit of the wedge product: the constant 1, whose
        vector is (t_0 + ... + t_p)^P."""
        return PolyForm.const(self.p)

    def pullback(self, f: InjMap, key) -> PolyForm:
        """The pullback along f of the basis monomial key."""
        return pf_pullback(f, PolyForm(self.p, {key: Fraction(1)}))

    def to_vec(self, n, form: PolyForm) -> dict:
        """Coordinates of a degree-n form of weight <= P: a term of weight
        w < P is first multiplied by (t_0 + ... + t_p)^(P - w)."""
        index = self._index.get(n, {})
        out, lighter = {}, []
        for key, c in form.terms.items():
            if len(key[1]) != n:
                raise ShapeMismatch("inhomogeneous form")
            idx = index.get(key)
            if idx is None:
                lighter.append((key, c))
            else:
                out[idx] = c
        for (b, I), c in lighter:
            lift = self.P - n - sum(b)
            if lift < 0:
                raise ShapeMismatch("monomial exceeds the weight cutoff")
            for e in _exps(self.p + 1, lift):
                key = (tuple(x + y for x, y in zip(b, e)), I)
                m = factorial(lift) // prod(map(factorial, e))
                accumulate(out, index[key], c * m)
        return out


def _exps(nvars: int, total: int):
    """All exponent tuples of nvars >= 1 variables with sum exactly total,
    lexicographically."""
    if total < 0:
        return []
    if nvars == 1:
        return [(total,)]
    return [(head,) + tail for head in range(total + 1)
            for tail in _exps(nvars - 1, total - head)]
