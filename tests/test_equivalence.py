"""Totalization outputs pinned against a recorded digest.

Every differential and comparison map of the equalizer totalizations on a
few small seeded covers and the bundled triangle fixtures is hashed entry by
entry and compared with ``golden/totalization_digest.json``.  A rewrite of
the totalization code must leave every kernel basis, differential and
transport matrix exactly as it was; this test pins them.  Regenerate the
file (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_equivalence.py > tests/golden/totalization_digest.json
"""

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from descentlab import fixtures as fx
from descentlab.algebra import tw_include
from descentlab.errors import ShapeMismatch
from descentlab.presheaf import tot, tw, tw_to_tot, whitney_section

GOLDEN = Path(__file__).parent / "golden" / "totalization_digest.json"

# (name, factory): seeded random covers at N=3 and N=4, then the fixtures
CASES = [
    ("random-n3-s0", lambda: fx.random_presheaf(random.Random(0), 3, max_dim=4, width=3)[0]),
    ("random-n3-s11", lambda: fx.random_presheaf(random.Random(11), 3, max_dim=4, width=3)[0]),
    ("random-n4-s5", lambda: fx.random_presheaf(random.Random(5), 4, max_dim=3, width=2)[0]),
    ("random-n4-s9", lambda: fx.random_presheaf(random.Random(9), 4, max_dim=3, width=2)[0]),
    ("triangle-two-arc", fx.triangle_two_arc_presheaf),
    ("triangle-three-edge", fx.triangle_three_edge_presheaf),
]


def _hash_blocks(degrees, block):
    h = hashlib.sha256()
    for n in degrees:
        m = block(n)
        h.update(f"{n}:{m.nrows}x{m.ncols};".encode())
        for r, c, v in sorted(m.entries()):
            h.update(f"{r},{c},{v};".encode())
    return h.hexdigest()


def _complex_digest(cx):
    return _hash_blocks(cx.degrees(), cx.d)


def _map_digest(f):
    return _hash_blocks(f.source.degrees(), f.mat)


def case_digests(F):
    N = F.n_sets
    T, W, W1 = tot(F), tw(F, N), tw(F, N + 1)
    return {
        "tot": _complex_digest(T.cx),
        "tw": _complex_digest(W.cx),
        "tw+1": _complex_digest(W1.cx),
        "tw_to_tot": _map_digest(tw_to_tot(W, T)),
        "whitney_section": _map_digest(whitney_section(T, W)),
        "augmentation": _map_digest(T.augmentation()),
        "tw_augmentation": _map_digest(W.augmentation()),
        "to_cech": _map_digest(T.to_cech()),
        "tw_include": _map_digest(tw_include(W, W1)),
    }


def all_digests():
    out = {}
    for name, make in CASES:
        for key, digest in case_digests(make()).items():
            out[f"{name}/{key}"] = digest
    return out


def test_totalization_digest_unchanged():
    expected = json.loads(GOLDEN.read_text())
    got = all_digests()
    assert sorted(got) == sorted(expected)
    changed = [k for k in sorted(got) if got[k] != expected[k]]
    assert not changed, f"outputs changed: {changed}"


def test_represent_rejects_vector_outside_kernel():
    F = fx.triangle_three_edge_presheaf()
    W = tw(F, 3)
    for n in W.ambient.degrees():
        basis = W.kernel[n]
        if not basis:
            continue
        # a kernel vector is read back as its own coordinate
        assert W.represent(n, W.ambient_vector(n, 0)) == {0: Fraction(1)}
        # its first key is a free column; moving its weight onto a pivot
        # column leaves the kernel
        pivot_cols = set().union(*basis) - {next(iter(v)) for v in basis}
        if pivot_cols:
            with pytest.raises(ShapeMismatch):
                W.represent(n, {min(pivot_cols): Fraction(1)})
            return
    raise AssertionError("no degree with a pivot column to test")


if __name__ == "__main__":
    json.dump(all_digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
