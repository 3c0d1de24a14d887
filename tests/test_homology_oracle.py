"""Novikov homology over Λ = Q[u]/(u^m) against its Q-expansion oracle.

`oracle_torsion` below is the earlier Novikov branch of
descentlab.complexes.homology: expand each cell to m Q-coordinates, take
homology spaces of the expanded complex, and read the u-orders as the
Jordan block sizes of the action of u on them (`nilpotent_partition`, the
ranks of every power).  The package now reads the orders from two Smith
forms over Λ per degree; every table must agree.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descentlab import fixtures as fx
from descentlab.complexes import (ChainMap, Complex, change_basis, direct_sum,
                                  homology, homology_map,
                                  novikov_q_expansion_complex,
                                  novikov_q_expansion_map, telescope)
from descentlab.linalg import SparseMatrix, rank
from descentlab.scalars import NovikovRing

# ---------------------------------------------------------------------------
# the oracle


def nilpotent_partition(mat: SparseMatrix, dim: int):
    """Jordan block sizes of a nilpotent operator, largest first."""
    if dim == 0:
        return []
    ranks = [dim]
    power = mat
    while ranks[-1] > 0:
        ranks.append(rank(power))
        power = power @ mat
    blocks = []
    for s in range(1, len(ranks)):
        b_s = ranks[s - 1] - ranks[s]
        b_next = ranks[s] - ranks[s + 1] if s + 1 < len(ranks) else 0
        blocks.extend([s] * (b_s - b_next))
    return sorted(blocks, reverse=True)


def oracle_torsion(c: Complex) -> dict:
    """The u-orders of each H^n, from the Q-expansion and the u-action."""
    ring = c.ring
    qc = novikov_q_expansion_complex(c)
    u = ChainMap.identity(c).scale(ring.T(Fraction(1, ring.den)))
    uact = novikov_q_expansion_map(u, qc, qc)
    out = {}
    for n in c.degrees():
        induced, hs, _ = homology_map(uact, n)
        out[n] = nilpotent_partition(induced, hs.dim)
    return out


# ---------------------------------------------------------------------------
# complexes with a known table: sums of pieces over degrees 0..2


def u_power(ring, a):
    """u^a, zero from a = m on."""
    return ring.T(Fraction(a, ring.den))


def line(entries):
    """Λ in each degree 0..2 with a cell, d_n = the given entry."""
    dims = {n: 0 for n in range(3)}
    diff = {}
    for n, x in entries.items():
        dims[n] = dims[n + 1] = 1
        diff[n] = SparseMatrix.from_entries(1, 1, [(0, 0, x)])
    return dims, diff


def piece(ring, kind, n, a):
    """One summand and its table: "free" is Λ in degree n; "two" is
    Λ --u^a--> Λ in degrees n, n+1; "trap" is Λ --u^(m-a)--> Λ --u^a--> Λ
    in degrees 0..2, exact in the middle."""
    m = ring.truncation_order
    table = {0: [], 1: [], 2: []}
    if kind == "free":
        dims, diff = {k: int(k == n) for k in range(3)}, {}
        table[n] = [m]
    elif kind == "two":
        dims, diff = line({n: u_power(ring, a)})
        table[n] = table[n + 1] = [a] if a else []
    else:
        dims, diff = line({0: u_power(ring, m - a), 1: u_power(ring, a)})
        table[0] = [m - a] if m - a else []
        table[2] = [a] if a else []
    return Complex(ring, dims, diff, support=(0, 2)), table


def direct_sum_of(ring, drawn):
    parts, table = [], {0: [], 1: [], 2: []}
    for kind, n, a in drawn:
        cx, t = piece(ring, kind, n, a)
        parts.append(cx)
        for k, orders in t.items():
            table[k] = sorted(table[k] + orders, reverse=True)
    return direct_sum(parts).cx, table


def elementary(dim, ops):
    """U = E_1 ... E_k and its inverse, for transvections E = I + s*E_ij
    (i != j) and rational scalings E = c*E_ii + (I - E_ii)."""
    U, Uinv = SparseMatrix.identity(dim), SparseMatrix.identity(dim)
    for i, j, s in ops:
        e, einv = SparseMatrix.identity(dim), SparseMatrix.identity(dim)
        if i == j:
            e.rows[i][i], einv.rows[i][i] = s, 1 / s
        else:
            e.rows[i][j], einv.rows[i][j] = s, -s
        U, Uinv = U @ e, einv @ Uinv
    return U, Uinv


DENS = [1, 2, 3]
CUTOFFS = [Fraction(1), Fraction(4, 3), Fraction(3, 2), Fraction(2),
           Fraction(3), Fraction(4)]
small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def conjugated_sums(draw):
    """A sum of free, two-term and trap pieces at small m, its table, and
    the same complex conjugated by elementary matrices over Λ in each
    degree, so that most entries mix several powers of u.  A trap's d^2 is
    u^m, zero only modulo u^m."""
    ring = NovikovRing(draw(st.sampled_from(DENS)),
                       draw(st.sampled_from(CUTOFFS)))
    m = ring.truncation_order
    drawn = draw(st.lists(st.one_of(
        st.tuples(st.just("free"), st.integers(0, 2), st.just(0)),
        st.tuples(st.just("two"), st.integers(0, 1), st.integers(0, m)),
        st.tuples(st.just("trap"), st.just(0), st.integers(0, m))),
        min_size=2, max_size=4))
    c, table = direct_sum_of(ring, drawn)
    exps = st.integers(0, m - 1).map(lambda k: Fraction(k, ring.den))
    elems = st.dictionaries(exps, small.filter(bool), min_size=1,
                            max_size=3).map(ring.elem)
    mats, inv = {}, {}
    for n in c.degrees():
        dim = c.dim(n)
        if dim < 2:
            continue
        idx = st.integers(0, dim - 1)
        ops = draw(st.lists(st.one_of(
            st.tuples(idx, idx, elems).filter(lambda t: t[0] != t[1]),
            st.tuples(idx, small.filter(bool)).map(
                lambda t: (t[0], t[0], t[1]))), min_size=dim,
            max_size=3 * dim))
        mats[n], inv[n] = elementary(dim, ops)
    return change_basis(c, mats, inv), table


@settings(max_examples=150, deadline=None)
@given(conjugated_sums())
def test_conjugated_sums_match_the_oracle_and_their_pieces(drawn):
    c, table = drawn
    c.validate()
    got = homology(c).torsion
    assert got == table
    assert got == oracle_torsion(c)


@pytest.mark.parametrize("den, cutoff", [(1, 1), (1, 3), (2, Fraction(3, 2)),
                                         (3, Fraction(4, 3)), (3, 2)])
def test_seeded_telescopes_match_the_oracle(den, cutoff):
    m = NovikovRing(den, Fraction(cutoff)).truncation_order
    for length in range(1, m + 3):
        terms, maps = fx.novikov_telescope_terms(den, cutoff, length)
        c = telescope(terms, maps).cx
        assert homology(c).torsion == oracle_torsion(c)


# ---------------------------------------------------------------------------
# the trap: Λ --u^(m-a)--> Λ --u^a--> Λ is exact in the middle


@pytest.mark.parametrize("den, cutoff", [(1, 4), (2, Fraction(3, 2)),
                                         (3, Fraction(5, 3))])
def test_the_trap_is_exact_in_the_middle(den, cutoff):
    ring = NovikovRing(den, Fraction(cutoff))
    m = ring.truncation_order
    for a in range(m + 1):
        c, table = piece(ring, "trap", 0, a)
        c.validate()
        assert table == {0: [m - a] if a < m else [], 1: [],
                         2: [a] if a else []}
        assert homology(c).torsion == table == oracle_torsion(c)


def test_the_trap_at_m_4_as_the_expansion_gave_it():
    ring = NovikovRing(1, 4)
    assert homology(piece(ring, "trap", 0, 1)[0]).torsion == {
        0: [3], 1: [], 2: [1]}
    assert homology(piece(ring, "trap", 0, 4)[0]).torsion == {
        0: [], 1: [], 2: [4]}
