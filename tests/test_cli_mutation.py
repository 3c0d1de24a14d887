"""Mutated fixtures through the command line: a fault, never a crash.

Each example takes an emitted fixture (or one value complex of it), the
bundled covers-check job or a telescope diagram, applies a few mutations --
a dropped key, a corrupted scalar, a bumped dimension or number of cover
sets, a truncated list, an edited support -- and runs one subcommand
in-process on the result.  Whatever the input, the exit status is 0, 1 or
2 and no exception escapes; a homology table printed with exit 0 over Q is
a possible one (Betti numbers >= 0, Euler characteristic that of the chain
groups).
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from descentlab import cli
from descentlab import fixtures as fx
from descentlab.complexes import (ChainMap, Complex, chain_map_to_json,
                                  complex_from_json, complex_to_json)
from descentlab.presheaf import presheaf_to_json
from descentlab.scalars import QQ

PRESHEAVES = ("triangle-boundary", "three-edge", "torus-square")
PRESHEAF_COMMANDS = ("validate", "cech", "descent", "incl-excl", "tot")
BAD_LEAVES = ("1/x", "1/0", "", "x", "2*T^(1/2)", "1 - 3*T^(1)", "3/2",
              -1, 0, 2, 1.5, True, None, [], {})
DIM_BUMPS = (-3, -1, 1, 2)
KINDS = ("drop", "scalar", "dims", "n_sets", "truncate", "support")


def _fixture_doc(name):
    obj = fx.emit_fixture(name)
    if isinstance(obj, Complex):
        return complex_to_json(obj)
    return presheaf_to_json(obj)


DOCS = {name: _fixture_doc(name)
        for name in PRESHEAVES + ("novikov-telescope",)}


def _diagram_doc(terms, maps):
    return {"terms": [complex_to_json(c) for c in terms],
            "maps": [chain_map_to_json(f) for f in maps]}


CIRCLE = fx.circle_complex()
# each job document with the subcommand that reads it
JOBS = {
    "covers": ("covers-check", cli._DEFAULT_COVER_JOB),
    "telescope-q": ("telescope", _diagram_doc(
        [CIRCLE] * 3, [ChainMap.identity(CIRCLE)] * 2)),
    "telescope-novikov": ("telescope", _diagram_doc(
        *fx.novikov_telescope_terms(1, 3, 4))),
}


def _nodes(doc, path=()):
    """(path, value) for every node of a JSON tree, in document order."""
    yield path, doc
    if isinstance(doc, dict):
        for k in sorted(doc):
            yield from _nodes(doc[k], path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _nodes(v, path + (i,))


def _parent(doc, path):
    for k in path[:-1]:
        doc = doc[k]
    return doc


def _mutate(doc, kind, pick, arg):
    """Apply one mutation in place; a mutation with no target is a no-op."""
    nodes = list(_nodes(doc))
    if kind == "drop":
        cands = [p for p, _ in nodes if p and isinstance(_parent(doc, p), dict)]
    elif kind == "scalar":
        cands = [p for p, v in nodes if p and isinstance(v, (str, int))]
    elif kind == "dims":
        cands = [p for p, v in nodes
                 if len(p) >= 2 and p[-2] == "dims" and isinstance(v, int)]
    elif kind == "n_sets":
        cands = [p for p, v in nodes if p == ("n_sets",) and isinstance(v, int)]
    elif kind == "truncate":
        cands = [p for p, v in nodes if isinstance(v, list) and v]
    else:
        cands = [p for p, v in nodes if p and p[-1] == "support"
                 and isinstance(v, list) and len(v) == 2
                 and all(isinstance(x, int) for x in v)]
    if not cands:
        return
    path = cands[pick % len(cands)]
    if kind == "truncate":
        lst = _parent(doc, path + (0,))
        del lst[arg % len(lst):]
        return
    holder, key = _parent(doc, path), path[-1]
    if kind == "drop":
        del holder[key]
    elif kind == "scalar":
        holder[key] = copy.deepcopy(BAD_LEAVES[arg % len(BAD_LEAVES)])
    elif kind in ("dims", "n_sets"):
        holder[key] += DIM_BUMPS[arg % len(DIM_BUMPS)]
    else:
        lo, hi = holder[key]
        holder[key] = [[hi, lo], [lo - 1, hi], [lo + 1, hi], [lo, hi - 1],
                       [lo, hi + 1], [lo, lo], [hi, hi]][arg % 7]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _euler(c):
    return sum((-1) ** (n % 2) * c.dim(n) for n in c.degrees())


mutations = st.lists(st.tuples(st.sampled_from(KINDS),
                               st.integers(0, 255),
                               st.integers(0, 255)),
                     min_size=1, max_size=3)


@settings(derandomize=True, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(DOCS)),
       command=st.sampled_from(PRESHEAF_COMMANDS + ("homology",)),
       value_pick=st.integers(0, 255), muts=mutations)
def test_mutated_inputs_fail_cleanly(name, command, value_pick, muts):
    doc = copy.deepcopy(DOCS[name])
    if "values" in doc and command == "homology":
        keys = sorted(doc["values"])
        doc = doc["values"][keys[value_pick % len(keys)]]
    elif "values" not in doc:
        command = "homology"
    for kind, pick, arg in muts:
        _mutate(doc, kind, pick, arg)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, out, err = _run([command, "--input", path])
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    if code == 2:
        assert not out and err.startswith("descentlab: ")
    if command == "homology" and code == 0:
        c = complex_from_json(doc)
        if c.ring == QQ:
            betti = {int(n): b for n, b in
                     json.loads(out)["checks"][0]["betti"].items()}
            assert all(b >= 0 for b in betti.values()), betti
            assert sum((-1) ** (n % 2) * b
                       for n, b in betti.items()) == _euler(c), betti


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(JOBS)), muts=mutations)
# the leaf "1/0" as a sequence and as a set (scalar leaves 7 and 10 of the
# covers job)
@example(name="covers", muts=[("scalar", 7, BAD_LEAVES.index("1/0"))])
@example(name="covers", muts=[("scalar", 10, BAD_LEAVES.index("1/0"))])
def test_mutated_jobs_fail_cleanly(name, muts):
    command, doc = JOBS[name]
    doc = copy.deepcopy(doc)
    for kind, pick, arg in muts:
        _mutate(doc, kind, pick, arg)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, out, err = _run([command, "--input", path])
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    if code == 2:
        assert not out and err.startswith("descentlab: ")
