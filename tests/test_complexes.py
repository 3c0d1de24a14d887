import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descentlab.complexes import (ChainMap, Complex, HomologySpace,
                                  betti_numbers, chain_map_from_json,
                                  chain_map_to_json, change_basis, cocone,
                                  complex_from_json, complex_to_json, cone,
                                  direct_sum, homology, homology_map,
                                  _matrix_from_json, is_quasi_iso,
                                  parse_scalar, shift, single,
                                  Telescope, telescope,
                                  telescope_comparison, tensor)
from descentlab.errors import (InputError, NotAComplex, ShapeMismatch,
                               UnsupportedRing)
from descentlab.fixtures import (novikov_telescope_terms, random_chain_map,
                                 random_complex, random_stabilizing_diagram,
                                 random_unimodular)
from descentlab.linalg import SparseMatrix, rank
from descentlab.scalars import QQ, NovikovRing
from test_linalg import canonical


def strip(betti):
    return {n: b for n, b in betti.items() if b}


seeds = st.integers(0, 10**6)


# ---------------------------------------------------------------------------


class TestValidation:
    def test_d_squared_nonzero_rejected(self):
        d0 = SparseMatrix.from_entries(1, 1, [(0, 0, Fraction(1))])
        d1 = SparseMatrix.from_entries(1, 1, [(0, 0, Fraction(1))])
        c = Complex(QQ, {0: 1, 1: 1, 2: 1}, {0: d0, 1: d1})
        with pytest.raises(NotAComplex) as ei:
            c.validate()
        assert ei.value.degree == 0

    def test_shape_mismatch(self):
        d0 = SparseMatrix.from_entries(2, 1, [(0, 0, Fraction(1))])
        c = Complex(QQ, {0: 1, 1: 1}, {0: d0})
        with pytest.raises(ShapeMismatch):
            c.validate()

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_random_complexes_validate(self, seed):
        cx, betti = random_complex(random.Random(seed))
        cx.validate()
        assert strip(betti_numbers(cx)) == strip(betti)


class TestShift:
    @given(seeds, st.integers(-2, 2))
    @settings(max_examples=20, deadline=None)
    def test_shift_betti(self, seed, k):
        cx, _ = random_complex(random.Random(seed))
        sh = shift(cx, k)
        sh.validate()
        assert strip(betti_numbers(sh)) == {n + k: b for n, b in strip(betti_numbers(cx)).items()}

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_shift_inverse(self, seed):
        cx, _ = random_complex(random.Random(seed))
        assert shift(shift(cx, 3), -3) == cx

    def test_shift_sign(self):
        d0 = SparseMatrix.from_entries(1, 1, [(0, 0, Fraction(5))])
        c = Complex(QQ, {0: 1, 1: 1}, {0: d0})
        assert shift(c, 1).d(1).rows[0].get(0, 0) == -5
        assert shift(c, 2).d(2).rows[0].get(0, 0) == 5


class TestConeCocone:
    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_cone_long_exact_sequence_dimensions(self, seed):
        rng = random.Random(seed)
        A, _ = random_complex(rng)
        B, _ = random_complex(rng)
        f = random_chain_map(rng, A, B)
        f.validate()
        mc = cone(f)
        mc.cx.validate()
        mc.collect(B, {1: ChainMap.identity(B)}).validate()
        mc.extract(0, ChainMap.identity(shift(A, -1))).validate()
        hc = betti_numbers(mc.cx)
        ha, hb = betti_numbers(A), betti_numbers(B)
        for n in hc:
            rk_n = rank(homology_map(f, n)[0]) if ha.get(n) else 0
            rk_n1 = rank(homology_map(f, n + 1)[0]) if ha.get(n + 1) else 0
            expect = hb.get(n, 0) - rk_n + ha.get(n + 1, 0) - rk_n1
            assert hc[n] == expect

    def test_cone_of_identity_acyclic(self):
        cx, _ = random_complex(random.Random(3))
        mc = cone(ChainMap.identity(cx))
        assert strip(betti_numbers(mc.cx)) == {}

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_cocone_maps_to_source(self, seed):
        rng = random.Random(seed)
        A, _ = random_complex(rng)
        B, _ = random_complex(rng)
        f = random_chain_map(rng, A, B)
        cc = cocone(f)
        cc.cx.validate()
        cc.extract(0, ChainMap.identity(A)).validate()

    def test_cocone_of_zero_splits(self):
        rng = random.Random(9)
        A, _ = random_complex(rng)
        B, _ = random_complex(rng)
        cc = cocone(ChainMap.zero(A, B))
        expect = betti_numbers(direct_sum([A, shift(B, 1)]).cx)
        assert strip(betti_numbers(cc.cx)) == strip(expect)


class TestTensor:
    @given(seeds)
    @settings(max_examples=12, deadline=None)
    def test_kunneth(self, seed):
        rng = random.Random(seed)
        A, _ = random_complex(rng, max_cells=2)
        B, _ = random_complex(rng, max_cells=2)
        t = tensor(A, B)
        t.cx.validate()
        ba, bb, bt = betti_numbers(A), betti_numbers(B), betti_numbers(t.cx)
        for n in bt:
            assert bt[n] == sum(ba.get(i, 0) * bb.get(n - i, 0) for i in ba)


def summed_telescope(terms, maps) -> Telescope:
    """The oracle: kappa - incl and the collapse onto C_L as sums of
    full-size iota o extract pieces (one-part collects), one piece per
    part."""
    L = len(terms)
    tail = direct_sum(terms)
    if L == 1:
        lo = terms[0].support[0] + 1
        g = ChainMap.zero(Complex(tail.cx.ring, {}, {}, support=(lo, lo)), tail.cx)
    else:
        head = direct_sum(terms[:-1])
        kappa = [tail.collect(head.cx, {i + 1: head.extract(i, maps[i])})
                 for i in range(L - 1)]
        incl = [tail.collect(head.cx, {i: head.extract(i, ChainMap.identity(terms[i]))})
                for i in range(L - 1)]
        mats = {}
        for n in head.cx.degrees():
            m = SparseMatrix(tail.cx.dim(n), head.cx.dim(n))
            for k, inc in zip(kappa, incl):
                m = m + k.mat(n) - inc.mat(n)
            mats[n] = m
        g = ChainMap(head.cx, tail.cx, mats)
    mc = cone(g)
    push = ChainMap.identity(terms[-1])
    collapse = tail.extract(L - 1, push)
    for i in range(L - 2, -1, -1):
        push = maps[i] if i == L - 2 else push.compose(maps[i])
        collapse = collapse + tail.extract(i, push)
    return Telescope(mc, mc.extract(1, collapse))


def check_against_summed(terms, maps):
    tel, oracle = telescope(terms, maps), summed_telescope(terms, maps)
    assert tel.cx == oracle.cx
    assert tel.cone.offsets == oracle.cone.offsets
    assert tel.to_last == oracle.to_last


class TestTelescope:
    @pytest.mark.parametrize("length", [1, 2, 3, 5])
    @pytest.mark.parametrize("seed", range(6))
    def test_blockwise_build_matches_summed_oracle(self, seed, length):
        check_against_summed(*random_stabilizing_diagram(random.Random(seed), length))

    @pytest.mark.parametrize("den", [1, 2])
    @pytest.mark.parametrize("e", ["2", "5/2", "3", "7/2", "4"])
    def test_novikov_build_matches_summed_oracle(self, den, e):
        m = NovikovRing(den, Fraction(e)).truncation_order
        for length in (m + 1, m + 2):
            check_against_summed(*novikov_telescope_terms(den, Fraction(e), length))

    @given(seeds, st.integers(1, 5))
    @settings(max_examples=12, deadline=None)
    def test_telescope_computes_final_homology(self, seed, length):
        rng = random.Random(seed)
        terms, maps = random_stabilizing_diagram(rng, length)
        for f in maps:
            f.validate()
        tel = telescope(terms, maps)
        tel.cx.validate()
        tel.to_last.validate()
        assert is_quasi_iso(tel.to_last).ok
        assert strip(betti_numbers(tel.cx)) == strip(betti_numbers(terms[-1]))

    def test_length_one_is_identity(self):
        cx, _ = random_complex(random.Random(1))
        tel = telescope([cx], [])
        assert tel.cx == cx
        assert tel.to_last == ChainMap.identity(cx)

    @given(seeds)
    @settings(max_examples=8, deadline=None)
    def test_comparison_compatible_with_collapse(self, seed):
        rng = random.Random(seed)
        terms, maps = random_stabilizing_diagram(rng, 4)
        t1, t2, cmp12 = telescope_comparison(terms, maps, 2, 4)
        cmp12.validate()
        # collapse after comparison equals the pushforward after collapse
        push = maps[2].compose(maps[1])
        lhs = t2.to_last.compose(cmp12)
        rhs = push.compose(t1.to_last)
        assert lhs == rhs


class TestHomologyNovikov:
    def test_multiplication_by_T(self):
        R = NovikovRing(1, Fraction(2))
        d = SparseMatrix.from_entries(1, 1, [(0, 0, R.T(1))])
        c = Complex(R, {0: 1, 1: 1}, {0: d})
        c.validate()
        rep = homology(c)
        assert rep.torsion == {0: [1], 1: [1]}

    def test_zero_differential_free_modules(self):
        R = NovikovRing(1, Fraction(3))
        c = Complex(R, {0: 2, 1: 1}, {})
        rep = homology(c)
        m = R.truncation_order
        assert rep.torsion == {0: [m, m], 1: [m]}

    def test_unit_differential_acyclic(self):
        R = NovikovRing(1, Fraction(3))
        d = SparseMatrix.from_entries(1, 1, [(0, 0, R.one())])
        c = Complex(R, {0: 1, 1: 1}, {0: d})
        assert homology(c).torsion == {0: [], 1: []}

    def test_diagonal_powers(self):
        R = NovikovRing(1, Fraction(4))
        d = SparseMatrix.from_entries(2, 2, [(0, 0, R.T(1)), (1, 1, R.T(3))])
        c = Complex(R, {0: 2, 1: 2}, {0: d})
        rep = homology(c)
        assert rep.torsion == {0: [3, 1], 1: [3, 1]}

    def test_fractional_exponents(self):
        R = NovikovRing(2, Fraction(3, 2))
        d = SparseMatrix.from_entries(1, 1, [(0, 0, R.T(Fraction(1, 2)))])
        c = Complex(R, {0: 1, 1: 1}, {0: d})
        rep = homology(c)
        assert rep.torsion == {0: [1], 1: [1]}
        assert rep.truncation_order == 3

    def test_report_text_mentions_fractional_order(self):
        R = NovikovRing(2, Fraction(3, 2))
        d = SparseMatrix.from_entries(1, 1, [(0, 0, R.T(Fraction(1, 2)))])
        c = Complex(R, {0: 1, 1: 1}, {0: d})
        assert "T^(1/2)" in homology(c).text()

    def test_column_operations_reach_the_previous_differential(self):
        # d1 = [u u] needs col_1 -= col_0, so d0 = (1, -1) must be read as
        # (0, -1): H^1 is generated by (u, 0), killed by u
        R = NovikovRing(1, 2)
        d0 = SparseMatrix.from_entries(2, 1, [(0, 0, 1), (1, 0, -1)])
        d1 = SparseMatrix.from_entries(1, 2, [(0, 0, R.T(1)), (0, 1, R.T(1))])
        c = Complex(R, {0: 1, 1: 2, 2: 1}, {0: d0, 1: d1})
        c.validate()
        assert homology(c).torsion == {0: [], 1: [1], 2: [1]}

    @pytest.mark.parametrize("a, b", [(1, 1), (0, 0), (0, 2), (2, 1)])
    def test_nonzero_square_raises_not_a_complex(self, a, b):
        """Λ --u^a--> Λ --u^b--> Λ with a + b < m, unvalidated, at degrees
        1..3: d^2 = u^(a+b) is not zero in Λ."""
        R = NovikovRing(1, 4)
        da = SparseMatrix.from_entries(1, 1, [(0, 0, R.T(a))])
        db = SparseMatrix.from_entries(1, 1, [(0, 0, R.T(b))])
        c = Complex(R, {1: 1, 2: 1, 3: 1}, {1: da, 2: db})
        with pytest.raises(NotAComplex) as raised:
            c.validate()
        assert raised.value.degree == 1
        with pytest.raises(NotAComplex) as raised:
            homology(c)
        assert raised.value.degree == 1

    def test_nonzero_square_after_a_change_of_basis(self):
        R = NovikovRing(2, 2)
        u = R.T(Fraction(1, 2))
        d0 = SparseMatrix.from_entries(2, 1, [(0, 0, u), (1, 0, 1 + u)])
        d1 = SparseMatrix.from_entries(1, 2, [(0, 0, 1 - u), (0, 1, u * u)])
        c = Complex(R, {0: 1, 1: 2, 2: 1}, {0: d0, 1: d1})
        assert not (d1 @ d0).is_zero()
        with pytest.raises(NotAComplex) as raised:
            homology(c)
        assert raised.value.degree == 0


class TestHomologySpaces:
    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_project_representatives(self, seed):
        cx, _ = random_complex(random.Random(seed))
        for n in cx.degrees():
            hs = HomologySpace(cx, n)
            for i, z in enumerate(hs.reps):
                assert hs.project(z) == {i: Fraction(1)}
            # boundaries project to zero
            prev = cx.d(n - 1)
            for j in range(prev.ncols):
                col = prev.column(j)
                assert hs.project(col) == {}

    def test_project_non_cycle_rejected(self):
        d0 = SparseMatrix.from_entries(1, 1, [(0, 0, Fraction(1))])
        c = Complex(QQ, {0: 1, 1: 1}, {0: d0})
        hs = HomologySpace(c, 0)
        with pytest.raises(ShapeMismatch):
            hs.project({0: Fraction(1)})


class TestQuasiIso:
    def test_zero_map_witness(self):
        a = single(QQ, 0, 1)
        b = single(QQ, 0, 1)
        cert = is_quasi_iso(ChainMap.zero(a, b))
        assert not cert.ok
        assert cert.witness_degree == -1  # shifted source appears one lower

    def test_requires_rational_coefficients(self):
        R = NovikovRing(1, Fraction(2))
        c = Complex(R, {0: 1}, {})
        with pytest.raises(UnsupportedRing):
            is_quasi_iso(ChainMap.identity(c))


def _read(parse, s):
    try:
        return parse(s)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("s", ["+3", " 3 ", "007", "-0", "1_000", "1e3",
                               "1.5", "1/-2", "-1/2", "1/0", "", "\u0663",
                               0.1, True, 2**80, "12/18", "-", "--1", "1/",
                               "1/2/3"])
def test_parse_scalar_reads_as_fraction_of_its_text(s):
    # int() reads only an int and -?digits(/digits)?; every other entry
    # keeps Fraction(str(s))'s value and its exception with its message,
    # and a value is in canonical form
    got = _read(lambda t: parse_scalar(QQ, t), s)
    assert got == _read(lambda t: Fraction(str(t)), s)
    assert type(got) is tuple or canonical(got)


def test_matrix_reader_sums_entries_in_canonical_form():
    m = _matrix_from_json(QQ, [[0, 0, "1"], [1, 1, "-2"], [0, 0, "-1"],
                               [1, 0, "3/4"], [0, 1, 2], [1, 1, "-0"],
                               [0, 1, "007"], [1, 1, "2"]], 2, 2, "diff")
    assert m.rows == [{1: 9}, {0: Fraction(3, 4)}]
    assert all(canonical(v) for row in m.rows for v in row.values())


def test_matrix_reader_reads_every_entry_before_the_bounds():
    # a bad scalar after a position outside the shape is what is reported
    with pytest.raises(ValueError, match="'x'"):
        _matrix_from_json(QQ, [[2, 0, "1"], [0, 0, "x"]], 2, 2, "diff")
    with pytest.raises(ShapeMismatch, match=r"^entry \(0,5\) outside 2x2$"):
        _matrix_from_json(QQ, [[0, 0, "1"], [0, 5, "1"]], 2, 2, "diff")
    with pytest.raises(InputError, match="^diff row must be an integer, not 0.5$"):
        _matrix_from_json(QQ, [[0.5, 0, "1"]], 2, 2, "diff")
    with pytest.raises(InputError, match="^mats column must be an integer, not true$"):
        _matrix_from_json(QQ, [[0, True, "1"]], 2, 2, "mats")


class TestSerde:
    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_roundtrip_rational(self, seed):
        cx, _ = random_complex(random.Random(seed))
        blob = json.dumps(complex_to_json(cx), sort_keys=True)
        assert complex_from_json(json.loads(blob)) == cx

    def test_roundtrip_novikov(self):
        R = NovikovRing(2, Fraction(3, 2))
        x = R.one() + R.T(Fraction(1, 2), Fraction(-2, 3))
        d = SparseMatrix.from_entries(2, 1, [(0, 0, x), (1, 0, R.T(1))])
        c = Complex(R, {0: 1, 1: 2}, {0: d})
        back = complex_from_json(json.loads(json.dumps(complex_to_json(c))))
        assert back == c and back.ring == R

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_roundtrip_chain_map(self, seed):
        rng = random.Random(seed)
        A, _ = random_complex(rng)
        B, _ = random_complex(rng)
        f = random_chain_map(rng, A, B)
        blob = json.dumps(chain_map_to_json(f), sort_keys=True)
        g = chain_map_from_json(A, B, json.loads(blob))
        assert g == f


class TestEuler:
    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_euler_characteristic(self, seed):
        cx, _ = random_complex(random.Random(seed))
        betti = betti_numbers(cx)
        chi_dim = sum((-1) ** n * cx.dim(n) for n in cx.degrees())
        chi_b = sum((-1) ** n * b for n, b in betti.items())
        assert chi_dim == chi_b
