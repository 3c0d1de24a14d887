"""Sparse exact linear algebra.

Vectors are dicts index -> scalar (zero entries absent).  Matrices keep one
dict per row.  Structural operations (multiply, add, blocks) work over any
coefficient ring whose elements support +, *, unary - and compare to 0;
elimination (rank, kernels, solving) requires field scalars, i.e. Fractions.

Pivots during elimination are chosen Markowitz-style, preferring entries
whose row and column are sparsest, which keeps fill-in tolerable on the
equalizer systems produced by the descent machinery.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ShapeMismatch
from .scalars import scalar_is_zero


# ---------------------------------------------------------------------------
# vector helpers


def vec_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for i, v in b.items():
        w = out.get(i)
        w = v if w is None else w + v
        if scalar_is_zero(w):
            out.pop(i, None)
        else:
            out[i] = w
    return out


def vec_scale(a: dict, s) -> dict:
    if scalar_is_zero(s):
        return {}
    return {i: v * s for i, v in a.items()}


def vec_axpy(a: dict, b: dict, s) -> dict:
    """a + s*b without building an intermediate."""
    if scalar_is_zero(s):
        return dict(a)
    out = dict(a)
    for i, v in b.items():
        w = out.get(i)
        w = v * s if w is None else w + v * s
        if scalar_is_zero(w):
            out.pop(i, None)
        else:
            out[i] = w
    return out


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
            if not scalar_is_zero(v):
                w = m.rows[r].get(c)
                w = v if w is None else w + v
                if scalar_is_zero(w):
                    m.rows[r].pop(c, None)
                else:
                    m.rows[r][c] = w
        return m

    @classmethod
    def identity(cls, n, one=Fraction(1)):
        m = cls(n, n)
        for i in range(n):
            m.rows[i][i] = one
        return m

    def entries(self):
        for r, row in enumerate(self.rows):
            for c, v in row.items():
                yield r, c, v

    def get(self, r, c, default=0):
        return self.rows[r].get(c, default)

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
                            [vec_add(a, b) for a, b in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, s) -> "SparseMatrix":
        return SparseMatrix(self.nrows, self.ncols, [vec_scale(r, s) for r in self.rows])

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.ncols != other.nrows:
            raise ShapeMismatch(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        out = SparseMatrix(self.nrows, other.ncols)
        orows = other.rows
        for r, row in enumerate(self.rows):
            acc = {}
            for k, v in row.items():
                for c, w in orows[k].items():
                    u = acc.get(c)
                    u = v * w if u is None else u + v * w
                    acc[c] = u
            out.rows[r] = {c: u for c, u in acc.items() if not scalar_is_zero(u)}
        return out

    def matvec(self, vec: dict) -> dict:
        """Apply to a column vector given as dict col -> scalar."""
        acc = {}
        for r, row in enumerate(self.rows):
            s = None
            for c, v in row.items():
                w = vec.get(c)
                if w is not None:
                    s = v * w if s is None else s + v * w
            if s is not None and not scalar_is_zero(s):
                acc[r] = s
        return acc

    def column(self, c) -> dict:
        return {r: row[c] for r, row in enumerate(self.rows) if c in row}

    def paste(self, other: "SparseMatrix", roff: int, coff: int, factor=1):
        """Add factor*other into self at the given offset (in place)."""
        for r, c, v in other.entries():
            rr, cc = r + roff, c + coff
            w = self.rows[rr].get(cc)
            w = v * factor if w is None else w + v * factor
            if scalar_is_zero(w):
                self.rows[rr].pop(cc, None)
            else:
                self.rows[rr][cc] = w

    def to_dense(self):
        return [[self.rows[r].get(c, 0) for c in range(self.ncols)] for r in range(self.nrows)]

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"


# ---------------------------------------------------------------------------
# elimination over Q


def _eliminate(rows, ncols):
    """Markowitz-flavored Gaussian elimination.

    rows: dict row_id -> row dict (consumed).  Returns (pivots, reduced) where
    pivots is a list of (col, row dict) with pivot entry normalized to 1 and
    the pivot column eliminated from every other pivot row (full RREF among
    pivot rows).
    """
    col_rows = {}
    for rid, row in rows.items():
        for c in row:
            col_rows.setdefault(c, set()).add(rid)
    pivots = []
    while rows:
        # pick the sparsest available row, then its sparsest column
        rid = min(rows, key=lambda r: (len(rows[r]), r))
        row = rows.pop(rid)
        if not row:
            continue
        pc = min(row, key=lambda c: (len(col_rows.get(c, ())), c))
        pv = row[pc]
        row = {c: v / pv for c, v in row.items()}
        for c in row:
            col_rows.get(c, set()).discard(rid)
        # eliminate pc from remaining rows
        for other_id in list(col_rows.get(pc, ())):
            if other_id not in rows:
                continue
            orow = rows[other_id]
            s = orow.get(pc)
            if s is None:
                continue
            for c in orow:
                col_rows.get(c, set()).discard(other_id)
            orow = vec_axpy(orow, row, -s)
            rows[other_id] = orow
            for c in orow:
                col_rows.setdefault(c, set()).add(other_id)
        # eliminate pc from existing pivot rows (back substitution as we go)
        new_pivots = []
        for qc, qrow in pivots:
            s = qrow.get(pc)
            if s is not None:
                qrow = vec_axpy(qrow, row, -s)
            new_pivots.append((qc, qrow))
        pivots = new_pivots
        pivots.append((pc, row))
    pivots.sort(key=lambda t: t[0])
    return pivots


def rref(mat: SparseMatrix):
    """Reduced row echelon data: list of (pivot_col, row dict)."""
    rows = {i: dict(r) for i, r in enumerate(mat.rows) if r}
    return _eliminate(rows, mat.ncols)


def rank(mat: SparseMatrix) -> int:
    return len(rref(mat))


def kernel_basis(mat: SparseMatrix):
    """Basis of the right kernel, one dict-vector per free column.

    Deterministic: vectors are indexed by ascending free column.  Each
    vector is in RREF free-column form: its first key is its own free
    column, where it is 1, and it is 0 at every other vector's free column
    (its remaining keys are pivot columns).  So the coordinates of any
    kernel vector in this basis are its entries at the free columns.
    """
    pivots = rref(mat)
    pivot_cols = {c: row for c, row in pivots}
    basis = []
    for j in range(mat.ncols):
        if j in pivot_cols:
            continue
        vec = {j: Fraction(1)}
        for c, row in pivots:
            v = row.get(j)
            if v is not None:
                vec[c] = -v
        basis.append(vec)
    return basis


def image_basis(mat: SparseMatrix):
    """Basis of the column space, as dict-vectors of length nrows."""
    ech = Echelon()
    out = []
    for c in range(mat.ncols):
        col = mat.column(c)
        if ech.add(col):
            out.append(col)
    return out


class Echelon:
    """Incremental echelon basis of a subspace of dict-vectors."""

    def __init__(self):
        self.pivots = {}  # pivot index -> normalized vector

    def reduce(self, vec: dict) -> dict:
        vec = dict(vec)
        while vec:
            p = min(vec)
            prow = self.pivots.get(p)
            if prow is None:
                return vec
            vec = vec_axpy(vec, prow, -vec[p])
        return vec

    def add(self, vec: dict) -> bool:
        """Insert vec; True if it enlarged the space."""
        res = self.reduce(vec)
        if not res:
            return False
        p = min(res)
        self.pivots[p] = vec_scale(res, 1 / res[p])
        return True

    @property
    def dim(self) -> int:
        return len(self.pivots)


class TrackedEchelon:
    """Echelon basis remembering coordinates in the inserted generators.

    Supports expressing arbitrary vectors as combinations of the generators,
    which is how induced differentials on kernels and homology classes get
    their coordinates.
    """

    def __init__(self):
        self.pivots = {}  # pivot index -> (vector, coords dict gen_id -> scalar)
        self.ngens = 0

    def add(self, vec: dict, gen_id=None) -> bool:
        if gen_id is None:
            gen_id = self.ngens
        vec, coords = dict(vec), {gen_id: Fraction(1)}
        while vec:
            p = min(vec)
            hit = self.pivots.get(p)
            if hit is None:
                s = 1 / vec[p]
                self.pivots[p] = (vec_scale(vec, s), vec_scale(coords, s))
                self.ngens += 1
                return True
            prow, pcoords = hit
            s = -vec[p]
            vec = vec_axpy(vec, prow, s)
            coords = vec_axpy(coords, pcoords, s)
        self.ngens += 1
        return False

    def represent(self, vec: dict):
        """Coordinates of vec in the generators, or None if outside the span."""
        vec, coords = dict(vec), {}
        while vec:
            p = min(vec)
            hit = self.pivots.get(p)
            if hit is None:
                return None
            prow, pcoords = hit
            s = vec[p]
            vec = vec_axpy(vec, prow, -s)
            coords = vec_axpy(coords, pcoords, s)
        return coords


def solve(mat: SparseMatrix, rhs: dict):
    """One solution x of mat @ x = rhs (dicts), or None."""
    te = TrackedEchelon()
    for c in range(mat.ncols):
        te.add(mat.column(c), c)
    return te.represent(rhs)


def express_in_columns(columns, vec):
    """Coordinates of vec in the given list of dict-columns, or None."""
    te = TrackedEchelon()
    for i, col in enumerate(columns):
        te.add(col, i)
    return te.represent(vec)


def matrix_from_columns(columns, nrows) -> SparseMatrix:
    m = SparseMatrix(nrows, len(columns))
    for j, col in enumerate(columns):
        for i, v in col.items():
            m.rows[i][j] = v
    return m
