import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descentlab.errors import ShapeMismatch
from descentlab.linalg import (SparseMatrix, TrackedEchelon, accumulate,
                               add_into, kernel_basis, rank, rref, vec_scale)
from descentlab.scalars import NovikovElem, NovikovRing
from test_liveness import _tokens


# ---------------------------------------------------------------------------
# oracles: the zero test and the copying vector sums linalg once exported,
# written out in full; the in-place helpers must agree with them


def scalar_is_zero(x) -> bool:
    if isinstance(x, NovikovElem):
        return not x.terms
    return x == 0


def canonical(q) -> bool:
    """q is a rational in canonical form: an int (never a bool) when it is
    integral, else a Fraction with denominator > 1."""
    return type(q) is int or (type(q) is Fraction and q.denominator > 1)


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


def rand_matrix(rng, nrows, ncols, density=0.5):
    entries = []
    for r in range(nrows):
        for c in range(ncols):
            if rng.random() < density:
                entries.append((r, c, Fraction(rng.randint(-4, 4))))
    return SparseMatrix.from_entries(nrows, ncols, entries)


@st.composite
def matrices(draw, max_n=5):
    nrows = draw(st.integers(0, max_n))
    ncols = draw(st.integers(0, max_n))
    seed = draw(st.integers(0, 10**6))
    return rand_matrix(random.Random(seed), nrows, ncols)


def dense(mat):
    return [[mat.rows[r].get(c, 0) for c in range(mat.ncols)]
            for r in range(mat.nrows)]


def span_dim(vectors):
    """Dimension of the span of dict-vectors, by the Fraction oracle below."""
    ncols = 1 + max((c for v in vectors for c in v), default=-1)
    return len(oracle_rref(SparseMatrix(len(vectors), ncols, list(vectors))))


def dense_rank(mat):
    """Plain dense Gaussian elimination, as an independent cross-check."""
    rows = dense(mat)
    ncols = mat.ncols
    rk, prow = 0, 0
    for c in range(ncols):
        piv = next((i for i in range(prow, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[prow], rows[piv] = rows[piv], rows[prow]
        pv = rows[prow][c]
        rows[prow] = [x / pv for x in rows[prow]]
        for i in range(len(rows)):
            if i != prow and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[prow])]
        rk += 1
        prow += 1
    return rk


class TestSparseMatrix:
    def test_from_entries_accumulates(self):
        m = SparseMatrix.from_entries(2, 2, [(0, 0, Fraction(1)), (0, 0, Fraction(-1))])
        assert m.is_zero()

    def test_out_of_range(self):
        with pytest.raises(ShapeMismatch):
            SparseMatrix.from_entries(1, 1, [(1, 0, Fraction(1))])

    def test_matmul_shapes(self):
        a = rand_matrix(random.Random(0), 2, 3)
        b = rand_matrix(random.Random(1), 3, 4)
        assert (a @ b).nrows == 2 and (a @ b).ncols == 4
        with pytest.raises(ShapeMismatch):
            b @ a

    @given(matrices(), st.integers(0, 10**6))
    def test_matmul_matches_dense(self, a, seed):
        b = rand_matrix(random.Random(seed), a.ncols, 3)
        prod = dense(a @ b)
        ad, bd = dense(a), dense(b)
        for i in range(a.nrows):
            for j in range(3):
                assert prod[i][j] == sum(ad[i][k] * bd[k][j] for k in range(a.ncols))

    def test_paste_and_transpose(self):
        a = rand_matrix(random.Random(3), 2, 2)
        big = SparseMatrix(4, 4)
        big.paste(a, 1, 2, Fraction(2))
        for r, c, v in a.entries():
            assert big.rows[r + 1].get(c + 2) == 2 * v
        at = a.transpose()
        assert all(at.rows[c].get(r) == v for r, c, v in a.entries())

    def test_paste_stores_no_zero_novikov_entry(self):
        ring = NovikovRing(1, Fraction(3))
        block = SparseMatrix(1, 2, [{0: ring.zero(), 1: ring.T(1)}])
        big = SparseMatrix(2, 3)
        big.paste(block, 1, 1)
        assert big.rows == [{}, {2: ring.T(1)}]

    def test_paste_cancels_onto_the_negative(self):
        x = SparseMatrix(2, 2, [{0: Fraction(3, 2)}, {1: Fraction(-1)}])
        big = SparseMatrix(2, 2)
        big.paste(x, 0, 0)
        big.paste(x.scale(-1), 0, 0)
        assert big.rows == [{}, {}] and big.is_zero()

    def test_paste_with_a_sign_factor_negates(self):
        x = SparseMatrix(1, 2, [{0: Fraction(2), 1: Fraction(-5, 3)}])
        big = SparseMatrix(1, 3, [{2: Fraction(7)}])
        big.paste(x, 0, 0, -1)
        assert big.rows == [{0: Fraction(-2), 1: Fraction(5, 3), 2: Fraction(7)}]
        big.paste(x, 0, 0, -1)
        big.paste(x, 0, 0, 2)
        assert big.rows == [{2: Fraction(7)}]


# ---------------------------------------------------------------------------
# the zero contract: a stored scalar is zero exactly when it is falsy, and
# no accumulation stores a zero


R = NovikovRing(2, Fraction(2))
HALF = R.T(Fraction(1, 2))


class TestZeroContract:
    def test_falsy_exactly_at_zero(self):
        for zero in (0, Fraction(0), Fraction(3, 4) - Fraction(3, 4), R.zero(),
                     HALF - HALF, R.T(Fraction(3, 2)) * R.T(Fraction(1, 2)),
                     R.T(1) * R.T(1), R.T(Fraction(5, 2))):
            assert not zero and scalar_is_zero(zero)
        for nonzero in (1, -3, Fraction(1, 7), R.one(), HALF, -HALF,
                        R.T(Fraction(1, 2)) * R.T(1), R.scalar(Fraction(-2, 5))):
            assert nonzero and not scalar_is_zero(nonzero)

    @pytest.mark.parametrize("x", [Fraction(2, 3), HALF],
                             ids=["fraction", "novikov"])
    def test_accumulate_drops_a_cancelling_sum(self, x):
        acc = {"a": x, "b": x, "c": x}
        accumulate(acc, "b", -x)
        assert list(acc) == ["a", "c"]
        accumulate(acc, "d", x - x)
        assert list(acc) == ["a", "c"]
        accumulate(acc, "b", x)
        accumulate(acc, "a", x)
        assert list(acc) == ["a", "c", "b"] and acc["a"] == x + x

    @pytest.mark.parametrize("x", [Fraction(2, 3), HALF],
                             ids=["fraction", "novikov"])
    def test_add_into_matches_the_copying_oracle(self, x):
        a = {3: x, 1: x + x, 4: x}
        b = {1: -(x + x), 5: x, 3: x, 4: -x}
        for c in (1, -1, 2, 0, Fraction(1, 2)):
            want = vec_axpy(a, b, c)
            acc = dict(a)
            assert add_into(acc, b, c) is acc
            assert list(acc.items()) == list(want.items())
        acc = dict(a)
        add_into(acc, b)
        assert list(acc.items()) == list(vec_add(a, b).items()) == [(3, x + x), (5, x)]

    @pytest.mark.parametrize("x", [Fraction(2, 3), HALF],
                             ids=["fraction", "novikov"])
    def test_matrix_sums_store_no_zero(self, x):
        m = SparseMatrix.from_entries(2, 3, [(0, 2, x), (0, 0, x), (0, 2, -x),
                                             (1, 1, x - x), (1, 0, x)])
        assert m.rows == [{0: x}, {0: x}]
        assert list(m.rows[0]) == [0]
        n = SparseMatrix(2, 3, [{1: x, 0: -x}, {2: x}])
        total = m + n
        assert total.rows == [{1: x}, {0: x, 2: x}]
        assert [list(r) for r in total.rows] == [[1], [0, 2]]
        assert (m - m).is_zero() and (m - m).rows == [{}, {}]


class TestElimination:
    @given(matrices())
    def test_rank_matches_dense(self, m):
        assert rank(m) == dense_rank(m)

    @given(matrices())
    def test_kernel_basis(self, m):
        ker = kernel_basis(m)
        assert len(ker) == m.ncols - rank(m)
        for v in ker:
            assert all(x == 0 for x in m.matvec(v).values())
        # independence: the kernel vectors span a space of full dimension
        assert span_dim(ker) == len(ker)

    @given(matrices())
    def test_kernel_basis_free_column_form(self, m):
        # each vector leads with its own free column, holds 1 there, and
        # is 0 at every other free column (its other keys are pivots)
        ker = kernel_basis(m)
        free = [next(iter(v)) for v in ker]
        assert free == sorted(set(free))
        pivot_cols = {pc for pc, _ in rref(m)}
        assert not pivot_cols & set(free)
        for v, f in zip(ker, free):
            assert v[f] == 1
            assert all(c == f or c in pivot_cols for c in v)

    @given(matrices())
    def test_rref_structure(self, m):
        pivots = rref(m)
        cols = [pc for pc, _ in pivots]
        assert cols == sorted(cols)
        assert len(cols) == rank(m)
        for pc, row in pivots:
            assert row[pc] == 1
            # fully reduced: no pivot column of another row appears here
            for qc, _ in pivots:
                if qc != pc:
                    assert qc not in row


class TestTrackedEchelon:
    def test_represent_recovers_coordinates(self):
        rng = random.Random(5)
        cols = [{0: Fraction(1), 2: Fraction(2)}, {1: Fraction(1)}, {2: Fraction(1)}]
        te = TrackedEchelon()
        for i, c in enumerate(cols):
            assert te.add(c, ("g", i))
        v = vec_add(vec_scale(cols[0], Fraction(3)), vec_scale(cols[2], Fraction(-2)))
        coords = te.represent(v)
        assert coords == {("g", 0): Fraction(3), ("g", 2): Fraction(-2)}

    def test_represent_outside_span(self):
        te = TrackedEchelon()
        te.add({0: Fraction(1)}, "a")
        assert te.represent({1: Fraction(1)}) is None


# ---------------------------------------------------------------------------
# fraction-free elimination against Fraction elimination
#
# The oracle is the elimination this package used before it went
# fraction-free: Markowitz pivots (sparsest row by (len, id), then its
# sparsest column), every row a dict of Fractions, each pivot row scaled to
# 1 and cancelled from the other rows and from the earlier pivot rows.  It
# lives only here; rref, rank and kernel_basis must reproduce it exactly.


def _oracle_eliminate(rows):
    col_rows = {}
    for rid, row in rows.items():
        for c in row:
            col_rows.setdefault(c, set()).add(rid)
    pivots = []
    while rows:
        rid = min(rows, key=lambda r: (len(rows[r]), r))
        row = rows.pop(rid)
        if not row:
            continue
        pc = min(row, key=lambda c: (len(col_rows.get(c, ())), c))
        pv = row[pc]
        row = {c: v / pv for c, v in row.items()}
        for c in row:
            col_rows.get(c, set()).discard(rid)
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


def oracle_rref(mat):
    """Fraction elimination of mat; int entries are read as Fractions (the
    oracle would divide ints into floats)."""
    return _oracle_eliminate({i: {c: Fraction(v) for c, v in r.items()}
                              for i, r in enumerate(mat.rows) if r})


def oracle_kernel_basis(mat, pivots):
    """kernel_basis as it was built from the oracle's pivots."""
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


def _entry(rng, kind):
    """A nonzero scalar: small Fraction, int, or one whose numerator or
    denominator has more than 100 bits."""
    if kind == "int":
        return rng.choice([-3, -2, -1, 1, 2, 5])
    if kind == "big":
        num = rng.getrandbits(rng.choice([8, 110, 140])) + 1
        den = rng.getrandbits(rng.choice([1, 105, 130])) + 1
        return Fraction(rng.choice([-1, 1]) * num, den)
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 4))


def oracle_matrix(rng):
    """A seeded sparse matrix with zero rows, repeated and scaled rows and
    a mix of entry kinds."""
    nrows, ncols = rng.randint(1, 24), rng.randint(1, 24)
    density = rng.choice([0.08, 0.2, 0.4])
    kinds = rng.choice([["small"], ["int"], ["big"], ["small", "int", "big"]])
    rows = []
    for _ in range(nrows):
        roll = rng.random()
        if roll < 0.1:
            rows.append({})
        elif roll < 0.25 and rows:
            s = _entry(rng, rng.choice(kinds))
            rows.append({c: v * s for c, v in rng.choice(rows).items()})
        else:
            rows.append({c: _entry(rng, rng.choice(kinds))
                         for c in range(ncols) if rng.random() < density})
    if rng.random() < 0.3:     # one row the sum of two others
        a, b = rng.choice(rows), rng.choice(rows)
        rows.append(vec_add(a, b))
    return SparseMatrix(len(rows), ncols, rows)


class TestEliminationOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_fraction_elimination(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            m = oracle_matrix(rng)
            before = [dict(r) for r in m.rows]
            want = oracle_rref(m)
            got = rref(m)
            assert got == want
            assert all(canonical(v) for _, row in got for v in row.values())
            assert m.rows == before     # rref does not consume the input
            assert rank(m) == len(want)
            assert m.rows == before     # nor does rank
            ker = kernel_basis(m)
            assert [list(v.items()) for v in ker] == \
                [list(v.items()) for v in oracle_kernel_basis(m, want)]
            assert all(canonical(x) for v in ker for x in v.values())
            assert m.rows == before     # nor does kernel_basis


class TestTrackedEchelonGeneric:
    """represent on echelons built by add in random order, so stored vectors
    hold other pivots' positions (the echelon is not reduced)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_represent(self, seed):
        rng = random.Random(100 + seed)
        dim = rng.randint(3, 14)
        gens = []
        for _ in range(rng.randint(1, dim + 3)):
            if gens and rng.random() < 0.3:      # a dependent generator
                a, b = rng.choice(gens), rng.choice(gens)
                gens.append(vec_axpy(a, b, Fraction(rng.randint(-3, 3))))
            else:
                gens.append({i: Fraction(rng.choice([-4, -1, 1, 3]), rng.randint(1, 3))
                             for i in range(dim) if rng.random() < 0.5})
        gens = [g for g in gens if g]
        te = TrackedEchelon()
        for gid in rng.sample(range(len(gens)), len(gens)):
            te.add(gens[gid], gid)
        span = span_dim(gens)
        for _ in range(20):
            vec = {}
            for gid, g in enumerate(gens):
                vec = vec_axpy(vec, g, Fraction(rng.randint(-2, 2)))
            arg = dict(vec)
            coords = te.represent(arg)
            assert arg == vec
            rebuilt = {}
            for gid, s in coords.items():
                rebuilt = vec_axpy(rebuilt, gens[gid], s)
            assert rebuilt == vec
            off = vec_axpy(vec, {rng.randrange(dim + 2): Fraction(1)}, Fraction(1))
            arg = dict(off)
            inside = span_dim(gens + [off]) == span
            got = te.represent(arg)
            assert arg == off
            assert (got is None) == (not inside)


# ---------------------------------------------------------------------------
# products over Q on integers against the Fraction loop
#
# The oracle is the ring-generic product: a plain triple loop over the left
# row, its entries' right rows and their entries, summing Fractions (an int
# entry is read as one) and dropping zero sums.  SparseMatrix.__matmul__
# must give the same rows with the same key order, whatever the
# denominators, each rational entry in canonical form and every other
# entry of the oracle's type.


def _as_fraction(x):
    return x if isinstance(x, NovikovElem) else Fraction(x)


def oracle_matmul(a, b):
    out = []
    for row in a.rows:
        acc = {}
        for k, v in row.items():
            v = _as_fraction(v)
            for c, w in b.rows[k].items():
                w = _as_fraction(w)
                acc[c] = acc[c] + v * w if c in acc else v * w
        out.append({c: u for c, u in acc.items() if not scalar_is_zero(u)})
    return out


def assert_generic_product(a, b):
    prod = a @ b
    want = oracle_matmul(a, b)
    assert (prod.nrows, prod.ncols) == (a.nrows, b.ncols)
    assert prod.rows == want
    assert [list(row) for row in prod.rows] == [list(row) for row in want]
    for row, wrow in zip(prod.rows, want):
        for v, w in zip(row.values(), wrow.values()):
            assert canonical(v) if type(w) is Fraction else type(v) is type(w)
    return prod


# coprime denominators up to 10^6 (two primes, a power of 2, one of 3, and
# 10^6 itself), then any denominator in range; or an int
RATIONALS = st.builds(
    Fraction, st.integers(-10**6, 10**6).filter(bool),
    st.sampled_from([1, 999983, 999979, 2**19, 3**12, 10**6])
    | st.integers(1, 10**6)) | st.integers(-10**6, 10**6).filter(bool)


@st.composite
def rational_matrices(draw, nrows, ncols):
    """Rows in drawn key order, often empty; any shape, 0 x k and k x 0
    included."""
    rows = []
    for _ in range(nrows):
        cols = draw(st.lists(st.integers(0, max(ncols - 1, 0)), unique=True,
                             max_size=ncols))
        rows.append({c: draw(RATIONALS) for c in cols})
    return SparseMatrix(nrows, ncols, rows)


@st.composite
def product_pairs(draw):
    m, n, p = (draw(st.integers(0, 5)) for _ in range(3))
    a, b = draw(rational_matrices(m, n)), draw(rational_matrices(n, p))
    if draw(st.booleans()):
        # [a | a] @ [b; -b'] with b' part of b: a @ (b - b'), so every sum
        # that reads only kept entries cancels to 0
        keep = [{c: v for c, v in row.items() if draw(st.booleans())}
                for row in b.rows]
        a = SparseMatrix(m, 2 * n, [{**row, **{k + n: v for k, v in row.items()}}
                                    for row in a.rows])
        b = SparseMatrix(2 * n, p, b.rows + [{c: -v for c, v in row.items()}
                                             for row in keep])
    return a, b


class TestIntegerProduct:
    @settings(max_examples=300, deadline=None)
    @given(product_pairs())
    def test_matches_the_fraction_loop(self, pair):
        a, b = pair
        prod = assert_generic_product(a, b)
        assert all(canonical(v) and v != 0
                   for row in prod.rows for v in row.values())

    def test_cancelling_sums_are_absent(self):
        a = SparseMatrix(2, 2, [{1: Fraction(1, 999983), 0: Fraction(2, 3)}, {}])
        b = SparseMatrix(2, 3, [{2: Fraction(1, 2), 0: Fraction(1, 999983)},
                                {0: Fraction(-2, 3), 1: Fraction(5, 7)}])
        prod = assert_generic_product(a, b)
        assert prod.rows == [{1: Fraction(5, 6999881), 2: Fraction(1, 3)}, {}]
        assert list(prod.rows[0]) == [1, 2]

    def test_empty_shapes(self):
        for m, n, p in [(0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 0)]:
            prod = assert_generic_product(SparseMatrix(m, n), SparseMatrix(n, p))
            assert prod.rows == [{} for _ in range(m)]

    def test_a_factor_with_no_entry_gives_the_zero_matrix(self):
        full = SparseMatrix(2, 2, [{1: Fraction(1, 3), 0: 2}, {0: -1}])
        for a, b in [(SparseMatrix(3, 2), full), (full, SparseMatrix(2, 4))]:
            prod = assert_generic_product(a, b)
            assert prod.rows == [{} for _ in range(a.nrows)]

    def test_a_fraction_the_left_factor_never_reads_is_not_built(self):
        a = SparseMatrix(2, 3, [{2: 3, 0: -1}, {}])
        b = SparseMatrix(3, 2, [{1: 2}, {0: Fraction(1, 7)}, {0: 5, 1: 4}])
        prod = assert_generic_product(a, b)
        assert prod.rows == [{0: 15, 1: 10}, {}]
        assert all(type(v) is int for v in prod.rows[0].values())

    def test_novikov_in_either_factor_takes_the_generic_loop(self):
        ring = NovikovRing(2, Fraction(3))
        for side in (0, 1):
            rng = random.Random(7)
            a, b = rand_matrix(rng, 3, 4, 0.7), rand_matrix(rng, 4, 3, 0.7)
            read = {k for row in a.rows for k in row}
            m = (a, b)[side]
            r, c = next((r, c) for r, c, _ in m.entries()
                        if m is a or r in read)
            m.rows[r][c] = ring.T(Fraction(1, 2), 3)
            prod = assert_generic_product(a, b)
            assert any(isinstance(v, type(ring.T(1)))
                       for row in prod.rows for v in row.values())

    def test_novikov_times_a_fraction_identity(self):
        ring = NovikovRing(1, Fraction(4))
        n = SparseMatrix(2, 3, [{2: ring.T(1, -2), 0: ring.scalar(Fraction(1, 3))},
                                {1: ring.T(2) + ring.T(3)}])
        prod = assert_generic_product(n, SparseMatrix.identity(3))
        assert prod.rows == n.rows

    def test_shape_mismatch_still_raises(self):
        with pytest.raises(ShapeMismatch):
            SparseMatrix(2, 3) @ SparseMatrix(2, 3)
        with pytest.raises(ShapeMismatch):
            SparseMatrix.identity(2) @ SparseMatrix(0, 2)


# ---------------------------------------------------------------------------
# no public name of linalg without a caller outside the tests

ROOT = Path(__file__).resolve().parent.parent
LINALG = ROOT / "src" / "descentlab" / "linalg.py"


def test_every_public_name_has_a_caller_outside_the_tests():
    """Every public top-level name and public method of linalg is read in
    src/, scripts/ or perfbench/, either directly or from the body of a
    linalg name that is; a class's private methods count as its body."""
    units = {}     # name -> (public, tokens of its body)
    for node in ast.parse(LINALG.read_text()).body:
        if isinstance(node, ast.ClassDef):
            body = []
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    units[f"{node.name}.{item.name}"] = (True, _tokens(item))
                else:
                    body.append(item)
            units[node.name] = (not node.name.startswith("_"),
                                _tokens(ast.Module(body, [])))
        elif isinstance(node, ast.FunctionDef):
            units[node.name] = (not node.name.startswith("_"), _tokens(node))
    read = set()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").rglob("*.py"),
                 *(ROOT / "perfbench").rglob("*.py")]:
        if path != LINALG:
            read |= _tokens(ast.parse(path.read_text()))
    live, todo = set(), [u for u in units if u.rsplit(".", 1)[-1] in read]
    while todo:
        unit = todo.pop()
        if unit not in live:
            live.add(unit)
            todo.extend(u for u in units if u.rsplit(".", 1)[-1] in units[unit][1])
    dead = sorted(u for u, (public, _) in units.items()
                  if public and u not in live)
    assert not dead, dead
