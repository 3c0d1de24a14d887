"""Fraction-free `TrackedEchelon` against its Fraction oracle.

`FractionTrackedEchelon` is the earlier implementation of
linalg.TrackedEchelon: every stored vector scaled to 1 at its pivot and
every coordinate a Fraction.  The package now keeps primitive integer
vectors with integer coordinates over one denominator, and builds a
Fraction only for `represent`'s result.  `add` must say the same thing
about the span, `represent` must give the same coordinates (same keys in
the same order, or None), and neither may change its argument.  The oracle
is fed Fraction copies of int entries: it divides by a pivot value, which
is a float for an int.
"""

import random
from fractions import Fraction
from heapq import heapify, heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descentlab import complexes, presheaf
from descentlab import fixtures as fx
from descentlab.complexes import (homology_map, novikov_q_expansion_complex,
                                  novikov_q_expansion_map, telescope_comparison)
from descentlab.linalg import TrackedEchelon
from descentlab.presheaf import tw
from descentlab.scalars import NovikovRing
from test_linalg import canonical

# ---------------------------------------------------------------------------
# the oracle


class FractionTrackedEchelon:
    """Echelon basis remembering coordinates in the inserted generators;
    each stored vector is 1 at its pivot, its smallest index."""

    def __init__(self):
        self.pivots = {}  # pivot index -> (vector, coords dict gen_id -> scalar)

    def _reduce(self, vec, coords, sign):
        pivots = self.pivots
        heap = list(vec)
        heapify(heap)
        while heap:
            p = heappop(heap)
            s = vec.get(p)
            if s is None:
                continue
            hit = pivots.get(p)
            if hit is None:
                return p
            prow, pcoords = hit
            for k, v in prow.items():
                w = vec.get(k)
                if w is None:
                    vec[k] = -s * v
                    heappush(heap, k)
                else:
                    w -= s * v
                    if w:
                        vec[k] = w
                    else:
                        del vec[k]
            s = sign * s
            for k, v in pcoords.items():
                w = coords.get(k)
                w = v * s if w is None else w + v * s
                if w:
                    coords[k] = w
                else:
                    del coords[k]
        return None

    def add(self, vec, gen_id):
        vec, coords = dict(vec), {gen_id: Fraction(1)}
        p = self._reduce(vec, coords, -1)
        if p is None:
            return False
        if vec[p] != 1:
            s = 1 / vec[p]
            vec = {i: v * s for i, v in vec.items()}
            coords = {i: v * s for i, v in coords.items()}
        self.pivots[p] = (vec, coords)
        return True

    def represent(self, vec):
        vec, coords = dict(vec), {}
        if self._reduce(vec, coords, 1) is not None:
            return None
        return coords


def as_fractions(vec):
    return {i: Fraction(v) for i, v in vec.items()}


# ---------------------------------------------------------------------------
# interleaved add / represent sequences

entry = st.one_of(
    st.integers(-6, 6).filter(bool),
    st.builds(Fraction, st.integers(-9, 9).filter(bool),
              st.sampled_from([1, 2, 3, 4, 6, 7, 12])))


def combine(gens, factors):
    out = {}
    for g, f in zip(gens, factors):
        for i, v in g.items():
            w = out.get(i, 0) + f * v
            if w:
                out[i] = w
            else:
                out.pop(i, None)
    return out


@st.composite
def vector(draw, dim, gens):
    """A fresh vector, a combination of earlier generators (in the span,
    often zero or dependent), or such a combination moved off the span."""
    kind = draw(st.sampled_from(["fresh", "span", "off"] if gens else ["fresh"]))
    if kind == "fresh":
        idx = draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim,
                            unique=True))
        return {i: draw(entry) for i in idx}
    picks = draw(st.lists(st.sampled_from(gens), min_size=1, max_size=4))
    vec = combine(picks, draw(st.lists(entry, min_size=len(picks),
                                       max_size=len(picks))))
    if kind == "off":
        i = draw(st.integers(0, dim))
        vec = combine([vec, {i: 1}], [1, draw(entry)])
    return vec


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_add_and_represent_match_the_oracle(data):
    dim = data.draw(st.integers(1, 9))
    te, oracle = TrackedEchelon(), FractionTrackedEchelon()
    gens = []
    for step in range(data.draw(st.integers(1, 24))):
        vec = data.draw(vector(dim, gens))
        arg = dict(vec)
        if data.draw(st.booleans()):
            gen_id = ("g", step)
            got = te.add(arg, gen_id)
            assert got == oracle.add(as_fractions(vec), gen_id)
            gens.append(vec)
        else:
            got = te.represent(arg)
            want = oracle.represent(as_fractions(vec))
            if want is None:
                assert got is None
            else:
                assert list(got.items()) == list(want.items())
                assert all(canonical(v) for v in got.values())
        assert list(arg.items()) == list(vec.items())
        assert [type(v) for v in arg.values()] == [type(v) for v in vec.values()]


# ---------------------------------------------------------------------------
# end to end: homology classes and kernel coordinates are unchanged


def _rows(mat):
    return [list(row.items()) for row in mat.rows]


@pytest.mark.parametrize("den, e", [(1, Fraction(3)), (2, Fraction(3, 2)),
                                    (3, Fraction(5, 3))])
def test_telescope_homology_map_matches_the_oracle(monkeypatch, den, e):
    m = NovikovRing(den, e).truncation_order
    length = m + 2
    terms, maps = fx.novikov_telescope_terms(den, e, length)
    t1, t2, comp = telescope_comparison(terms, maps, length - m, length)
    q1 = novikov_q_expansion_complex(t1.cx)
    q2 = novikov_q_expansion_complex(t2.cx)
    qmap = novikov_q_expansion_map(comp, q1, q2)

    def run():
        induced, hs, ht = homology_map(qmap, 0)
        return (_rows(induced), [list(z.items()) for z in hs.reps],
                [list(z.items()) for z in ht.reps])

    got = run()
    monkeypatch.setattr(complexes, "TrackedEchelon", FractionTrackedEchelon)
    want = run()
    assert got == want
    assert got[1]    # the comparison's source has classes


def test_tw_augmentation_matches_the_oracle(monkeypatch):
    F, _ = fx.random_presheaf(random.Random(5), 4, max_dim=3, width=2)

    def run():
        aug = tw(F, 4).augmentation()
        return {n: _rows(aug.mat(n)) for n in aug.target.degrees()}

    got = run()
    monkeypatch.setattr(presheaf, "TrackedEchelon", FractionTrackedEchelon)
    want = run()
    assert got == want
    assert any(any(rows) for rows in got.values())
