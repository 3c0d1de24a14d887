"""Sparse exact linear algebra.

Vectors are dicts index -> scalar (zero entries absent).  A stored scalar is
an int, a Fraction or a NovikovElem, and it is zero exactly when it is
falsy, so ``not x`` is the package's one zero test.  This module owns
dict-vector accumulation: ``accumulate`` and ``add_into`` are the one "add,
drop the key if the sum cancels" step, for callers in every layer.

A rational scalar has one canonical form, spelled by ``whole``: an int
when it is integral, else a Fraction with denominator > 1.  It reads ints
and Fractions alike, and writes products (``@``, ``matvec``), RREF rows,
kernel vectors, ``represent``'s coordinates and identities in that form;
sums (``accumulate``, ``paste``, ``+``) keep what their terms' arithmetic
gives.

Matrices keep one dict per row.  Structural operations (multiply, add,
blocks) work over any coefficient ring whose elements support +, * and
unary -; the product is one loop for every ring, multiplying entries as
they are stored, so integral matrices multiply on ints and a Fraction is
built only where a factor holds one.  Elimination (rank, RREF, kernels)
requires rational scalars, ints or Fractions.

Pivots during elimination are chosen Markowitz-style, preferring entries
whose row and column are sparsest, which keeps fill-in tolerable on the
equalizer systems produced by the descent machinery.  Elimination runs on
primitive integer rows (fraction-free, with the gcd divided out after each
combination, as in Bareiss, Math. Comp. 22, 1968); its pivots and outputs
are those of elimination over Fractions.  ``rank`` is the pivot count of the
forward pass; only ``rref`` (and so ``kernel_basis``) back-substitutes and
divides each pivot row by its pivot, keeping a unit-pivot row's integers.

``TrackedEchelon`` (coordinates of vectors in inserted generators) is
fraction-free too: each pivot stores a primitive integer vector and its
coordinates as an integer dict over one positive integer denominator, a
vector is reduced as a*x - b*V with the gcd of the pivot entries divided
out, and ``represent`` divides the coordinates by their denominator only
in its result.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .errors import ShapeMismatch


def whole(q):
    """The canonical form of a rational q (an int or a Fraction): an int
    when q is integral, else q itself, whose denominator is then > 1."""
    return q.numerator if q.denominator == 1 else q


# ---------------------------------------------------------------------------
# dict-vectors
#
# Both helpers work in place and keep key order: a new key goes to the end,
# an updated key keeps its place, and a key whose sum is zero is deleted.


def accumulate(acc: dict, key, c):
    """acc[key] += c, dropping key when the sum is zero."""
    cur = acc.get(key)
    if cur is None:
        if c:
            acc[key] = c
    else:
        cur = cur + c
        if cur:
            acc[key] = cur
        else:
            del acc[key]


def add_into(acc: dict, terms: dict, c=1) -> dict:
    """acc += c * terms, one ``accumulate`` per entry; returns acc."""
    if not c:
        return acc
    plain = c == 1
    for key, v in terms.items():
        accumulate(acc, key, v if plain else v * c)
    return acc


def vec_scale(a: dict, s) -> dict:
    if not s:
        return {}
    return {i: v * s for i, v in a.items()}


class SparseMatrix:
    """Shape-checked sparse matrix, rows stored as dicts col -> scalar."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [dict() for _ in range(nrows)] if rows is None else rows

    @classmethod
    def from_entries(cls, nrows, ncols, entries):
        """entries: iterable of (row, col, scalar)."""
        m = cls(nrows, ncols)
        for r, c, v in entries:
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise ShapeMismatch(f"entry ({r},{c}) outside {nrows}x{ncols}")
            accumulate(m.rows[r], c, v)
        return m

    @classmethod
    def identity(cls, n):
        m = cls(n, n)
        for i in range(n):
            m.rows[i][i] = 1
        return m

    def entries(self):
        for r, row in enumerate(self.rows):
            for c, v in row.items():
                yield r, c, v

    def is_zero(self) -> bool:
        return all(not row for row in self.rows)

    def nnz(self) -> int:
        return sum(len(row) for row in self.rows)

    def transpose(self) -> "SparseMatrix":
        t = SparseMatrix(self.ncols, self.nrows)
        for r, c, v in self.entries():
            t.rows[c][r] = v
        return t

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and self.rows == other.rows

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeMismatch("matrix add shape mismatch")
        return SparseMatrix(self.nrows, self.ncols,
                            [add_into(dict(a), b) for a, b in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, s) -> "SparseMatrix":
        """s times self; a sign costs a copy or a negation, not a product."""
        if s == 1:
            rows = [dict(r) for r in self.rows]
        elif s == -1:
            rows = [{c: -v for c, v in r.items()} for r in self.rows]
        else:
            rows = [vec_scale(r, s) for r in self.rows]
        return SparseMatrix(self.nrows, self.ncols, rows)

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        """One loop over every ring: each left row's entries read the right
        rows they index, zero sums are dropped, and a Fraction output entry
        is written in canonical form.  An int factor costs no type pass and
        no rescaled copy, and a factor with no entry multiplies nothing."""
        if self.ncols != other.nrows:
            raise ShapeMismatch(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        orows = other.rows
        rows = []
        for row in self.rows:
            acc = {}
            for k, v in row.items():
                for c, w in orows[k].items():
                    u = acc.get(c)
                    acc[c] = v * w if u is None else u + v * w
            rows.append({c: whole(u) if type(u) is Fraction else u
                         for c, u in acc.items() if u})
        return SparseMatrix(self.nrows, other.ncols, rows)

    def matvec(self, vec: dict) -> dict:
        """Apply to a column vector given as dict col -> scalar; a rational
        output entry is in canonical form."""
        acc = {}
        for r, row in enumerate(self.rows):
            s = None
            for c, v in row.items():
                w = vec.get(c)
                if w is not None:
                    s = v * w if s is None else s + v * w
            if s:
                acc[r] = whole(s) if type(s) is Fraction else s
        return acc

    def column(self, c) -> dict:
        return {r: row[c] for r, row in enumerate(self.rows) if c in row}

    def paste(self, other: "SparseMatrix", roff: int, coff: int, factor=1):
        """Add factor*other into self at the given offset (in place); a sign
        factor negates instead of multiplying.  Zero entries and sums that
        cancel are not stored."""
        plain, neg = factor == 1, factor == -1
        for r, orow in enumerate(other.rows):
            if not orow:
                continue
            row = self.rows[r + roff]
            for c, v in orow.items():
                if neg:
                    v = -v
                elif not plain:
                    v = v * factor
                cc = c + coff
                w = row.get(cc)
                if w is None:
                    if v:
                        row[cc] = v
                    continue
                w = w + v
                if w:
                    row[cc] = w
                else:
                    del row[cc]

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"


# ---------------------------------------------------------------------------
# elimination over Q


def _divide_content(row: dict) -> dict:
    """Divide an integer row by the gcd of its entries, in place."""
    g = gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g
    return row


def _integer_multiple(row: dict):
    """(den, den * row) for a rational row, den the lcm of its entries'
    denominators: a new integer dict, same keys, same order."""
    den = 1
    for v in row.values():
        if v.denominator != 1:
            den = lcm(den, v.denominator)
    return den, {c: v.numerator * (den // v.denominator)
                 for c, v in row.items()}


def _cancel(orow: dict, oid, row: dict, pc, col_rows):
    """orow <- (pv*orow - s*row) / content, in place, where pv and s are the
    entries of row and orow at pc; col_rows follows orow's support."""
    pv, s = row[pc], orow[pc]
    g = gcd(pv, s)
    a, b = pv // g, s // g
    if a != 1:
        for c in orow:
            orow[c] *= a
    for c, v in row.items():
        w = orow.get(c)
        if w is None:
            orow[c] = -b * v
            col_rows[c].add(oid)
        else:
            w -= b * v
            if w:
                orow[c] = w
            else:
                del orow[c]
                col_rows[c].discard(oid)
    if orow:
        _divide_content(orow)


def _forward(rows):
    """Markowitz-flavored forward elimination, fraction-free.

    rows: the rows of a matrix (dicts of rationals), left unchanged.
    Returns the pivots as (col, row) in the order they are found, each row
    a primitive integer row holding no earlier pivot column; their number
    is the rank.

    Each row is kept as its primitive integer multiple, and a pivot row
    (pivot value pv) cancels its column from another row (entry s there)
    as pv*orow - s*row with the gcd divided out.  That row is a nonzero
    multiple of the one Fraction elimination would produce, with the same
    support, so the Markowitz choices (sparsest row, ties by id, then its
    sparsest column, ties by index) are those of Fraction elimination.
    The sparsest row comes from a lazy heap keyed by (len, id).
    """
    rows = {rid: _divide_content(_integer_multiple(row)[1])
            for rid, row in enumerate(rows) if row}
    col_rows = {}
    for rid, row in rows.items():
        for c in row:
            col_rows.setdefault(c, set()).add(rid)
    heap = [(len(row), rid) for rid, row in rows.items()]
    heapify(heap)
    found = []
    while heap:
        n, rid = heappop(heap)
        row = rows.get(rid)
        if row is None or len(row) != n:
            continue    # superseded by a later entry for the same row
        del rows[rid]
        pc = min(row, key=lambda c: (len(col_rows[c]), c))
        for c in row:
            col_rows[c].discard(rid)
        for oid in list(col_rows[pc]):
            orow = rows[oid]
            _cancel(orow, oid, row, pc, col_rows)
            if orow:
                heappush(heap, (len(orow), oid))
            else:
                del rows[oid]
        found.append((pc, row))
    return found


def _back_substitute(found):
    """The RREF from _forward's pivots: (col, row dict of canonical
    rationals) sorted by column, each row 1 at its own pivot and 0 at every
    other pivot column, as Fraction Gauss-Jordan elimination would produce
    it.  A unit-pivot row's integers are handed back as they are.

    A pivot row holds no earlier pivot column, and the later pivot rows it
    holds are already reduced when it is reached (newest first), so one
    common multiple clears them all.
    """
    where = {pc: i for i, (pc, _) in enumerate(found)}
    for i in range(len(found) - 1, -1, -1):
        pc, row = found[i]
        later = [(c, s) for c, s in row.items() if c != pc and c in where]
        if not later:
            continue
        m = lcm(*(found[where[c]][1][c] for c, _ in later))
        row = {c: v * m for c, v in row.items() if c == pc or c not in where}
        for c, s in later:
            urow = found[where[c]][1]
            f = s * (m // urow[c])
            for k, w in urow.items():
                if k != c:
                    x = row.get(k, 0) - f * w
                    if x:
                        row[k] = x
                    else:
                        del row[k]
        found[i] = (pc, _divide_content(row))
    pivots = []
    for pc, row in found:
        pv = row[pc]
        if pv != 1:
            row = {c: whole(Fraction(v, pv)) for c, v in row.items()}
        pivots.append((pc, row))
    pivots.sort(key=lambda t: t[0])
    return pivots


def rref(mat: SparseMatrix):
    """Reduced row echelon data: list of (pivot_col, row dict)."""
    return _back_substitute(_forward(mat.rows))


def rank(mat: SparseMatrix) -> int:
    """The number of pivots of the forward pass."""
    return len(_forward(mat.rows))


def kernel_basis(mat: SparseMatrix):
    """Basis of the right kernel, one dict-vector per free column.

    Deterministic: vectors are indexed by ascending free column.  Each
    vector is in RREF free-column form: its first key is its own free
    column, where it is 1, and it is 0 at every other vector's free column
    (its remaining keys are pivot columns, ascending).  So the coordinates
    of any kernel vector in this basis are its entries at the free columns.
    """
    pivots = rref(mat)
    pivot_cols = {c for c, _ in pivots}
    basis = {j: {j: 1} for j in range(mat.ncols) if j not in pivot_cols}
    for c, row in pivots:
        for j, v in row.items():
            if j != c:
                basis[j][c] = -v
    return list(basis.values())


class TrackedEchelon:
    """Echelon basis remembering coordinates in the inserted generators.

    Supports expressing arbitrary vectors as combinations of the generators,
    which is how induced differentials on kernels and homology classes get
    their coordinates.

    Fraction-free: the pivot p stores (V, C, D), where V is a primitive
    integer vector whose smallest index is p and the integers C (gen_id ->
    int) over the positive integer D are its coordinates, D*V = sum over k
    of C[k] * (generator k).  A vector is reduced at pivot p as a*x - b*V,
    with the gcd of V[p] and x[p] divided out of a and b, as in ``_cancel``.
    Every stored and reduced vector is a nonzero multiple of the one
    Fraction elimination would hold, so the pivots, the support and the key
    order are those of Fraction elimination; ``represent`` divides once per
    output coordinate, in canonical form.
    """

    def __init__(self):
        self.pivots = {}  # pivot index -> (V, C, D)

    def _reduce(self, vec: dict, coords: dict, sign):
        """Clear the integer vector vec at its pivot positions in increasing
        order, in place.  At pivot p it becomes a*vec - b*V with a > 0, and
        coords, over a denominator that starts at 1, becomes
        a*coords + sign*b*C over the lcm of that denominator and D.
        Returns (the first position left without a pivot, or None once vec
        is zero; the product mu of the factors a; the denominator)."""
        pivots = self.pivots
        heap = list(vec)
        heapify(heap)
        mu = den = 1
        while heap:
            p = heappop(heap)
            s = vec.get(p)
            if s is None:
                continue    # cleared since it was pushed
            hit = pivots.get(p)
            if hit is None:
                return p, mu, den
            prow, pcoords, pden = hit
            pv = prow[p]
            g = gcd(pv, s)
            a, b = pv // g, s // g
            if a < 0:
                a, b = -a, -b
            if a != 1:
                mu *= a
                for k in vec:
                    vec[k] *= a
            for k, v in prow.items():    # every k >= p; k = p is cleared
                w = vec.get(k)
                if w is None:
                    vec[k] = -b * v
                    heappush(heap, k)
                else:
                    w -= b * v
                    if w:
                        vec[k] = w
                    else:
                        del vec[k]
            if pden == den:
                f = sign * b
            else:
                g = gcd(den, pden)
                a *= pden // g
                f = sign * b * (den // g)
                den *= pden // g
            if a != 1:
                for k in coords:
                    coords[k] *= a
            for k, v in pcoords.items():
                w = coords.get(k)
                w = v * f if w is None else w + v * f
                if w:
                    coords[k] = w
                else:
                    del coords[k]
        return None, mu, den

    def add(self, vec: dict, gen_id) -> bool:
        """Insert vec as generator gen_id; True if it enlarged the span."""
        scale, vec = _integer_multiple(vec)
        coords = {gen_id: scale}
        p, _, den = self._reduce(vec, coords, -1)
        if p is None:
            return False
        content = gcd(*vec.values())
        if content > 1:
            for k in vec:
                vec[k] //= content
            den *= content
        g = gcd(den, *coords.values())
        if g > 1:
            den //= g
            for k in coords:
                coords[k] //= g
        self.pivots[p] = (vec, coords, den)
        return True

    def represent(self, vec: dict):
        """Coordinates of vec in the generators, or None if outside the span.
        The argument is not changed."""
        scale, vec = _integer_multiple(vec)
        coords = {}
        p, mu, den = self._reduce(vec, coords, 1)
        if p is not None:
            return None
        den *= scale * mu
        return {k: whole(Fraction(v, den)) for k, v in coords.items()}
