"""The truncated Novikov format has one owner, descentlab.scalars.

An element's ``terms`` ({k: c} over int powers of u) is built only in
scalars.py, where ``NovikovRing.elem`` checks every T-exponent once; the
modules that carry Novikov scalars read them through ``scalars.u_terms``
and never through ``.terms``.  The check reads the syntax tree, as the
liveness rule next to it does.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "descentlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "scalars.py")
# the modules that store or move Novikov scalars; polyvec, simplex and
# involutive have ``terms`` of their own
NO_TERMS = ["complexes.py", "linalg.py", "presheaf.py", "cli.py",
            "fixtures.py", "algebra.py"]


def _calls(tree, name):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and f.id == name) or (
                    isinstance(f, ast.Attribute) and f.attr == name):
                yield node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_scalars_builds_novikov_elements(path):
    assert list(_calls(ast.parse(path.read_text()), "NovikovElem")) == []


@pytest.mark.parametrize("name", NO_TERMS)
def test_novikov_carriers_read_no_terms(name):
    tree = ast.parse((PACKAGE / name).read_text())
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "terms"]
    assert reads == []


# Novikov homology is read from Smith forms over the ring; the m-fold
# expansion to Q and the ranks of powers of u stay out of it.
Q_EXPANSION = {"novikov_q_expansion", "novikov_q_expansion_complex",
               "novikov_q_expansion_map", "HomologySpace", "_induced",
               "homology_map", "_nilpotent_partition"}


def test_novikov_homology_builds_no_q_expansion():
    """The calls of complexes.homology, followed through the module's own
    functions, reach none of the Q-expansion path."""
    tree = ast.parse((PACKAGE / "complexes.py").read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    called, todo = set(), ["homology"]
    while todo:
        name = todo.pop()
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Call):
                f = node.func
                callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if callee and callee not in called:
                    called.add(callee)
                    if callee in functions:
                        todo.append(callee)
    assert "_smith" in called
    assert called & Q_EXPANSION == set()


def test_no_nilpotent_partition_in_the_package():
    defined = [(path.name, node.name) for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)
               and node.name == "_nilpotent_partition"]
    assert defined == []


# Poly arithmetic is exact: no int / int may reach a float on its hot path.
# cover_monotonicity_report divides floats on purpose and is not on it.
EXACT_ROOTS = ["Poly.__mul__", "Poly.__pow__", "Poly.diff", "Poly.compose",
               "poisson_bracket"]


def test_poly_hot_path_has_no_float():
    """The roots, followed through the functions and Poly methods of
    involutive.py they call, hold no true division and no float() call."""
    tree = ast.parse((PACKAGE / "involutive.py").read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    poly = next(node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "Poly")
    functions.update({f"Poly.{node.name}": node for node in poly.body
                      if isinstance(node, ast.FunctionDef)})
    seen, todo, faults = set(), list(EXACT_ROOTS), []
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) \
                    or isinstance(node, ast.AugAssign) \
                    and isinstance(node.op, ast.Div):
                faults.append((name, node.lineno, "/"))
            if isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, ast.Name):
                    if f.id == "float":
                        faults.append((name, node.lineno, "float()"))
                    elif f.id in ("Poly", "cls"):
                        todo.append("Poly.__init__")
                    elif f.id in functions:
                        todo.append(f.id)
                elif isinstance(f, ast.Attribute) \
                        and f"Poly.{f.attr}" in functions:
                    todo.append(f"Poly.{f.attr}")
    assert {"_mul_into", "_diff", "_whole", "_coefficient"} <= seen
    assert faults == []


# Rational matrices are exact: no int / int may reach a float in the Q
# product, the elimination or the JSON reader, and what they write is in
# the canonical form of linalg.whole (an int when integral).
Q_EXACT_ROOTS = ["SparseMatrix.__matmul__", "_forward", "_back_substitute",
                 "kernel_basis", "parse_scalar"]


def test_rational_matrix_path_has_no_float():
    """The roots (the product method of SparseMatrix among them), followed
    through the functions of linalg.py and complexes.py they call by name,
    hold no true division and no float() call."""
    functions = {}
    for name in ("linalg.py", "complexes.py"):
        tree = ast.parse((PACKAGE / name).read_text())
        functions.update({node.name: node for node in tree.body
                          if isinstance(node, ast.FunctionDef)})
        functions.update({f"{node.name}.{item.name}": item
                          for node in tree.body
                          if isinstance(node, ast.ClassDef)
                          and node.name == "SparseMatrix"
                          for item in node.body
                          if isinstance(item, ast.FunctionDef)})
    seen, todo, faults = set(), list(Q_EXACT_ROOTS), []
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                    and isinstance(node.op, ast.Div):
                faults.append((name, node.lineno, "/"))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id == "float":
                    faults.append((name, node.lineno, "float()"))
                elif node.func.id in functions:
                    todo.append(node.func.id)
    assert {"SparseMatrix.__matmul__", "whole", "_cancel", "_divide_content",
            "_integer_multiple", "rref"} <= seen
    assert faults == []


def test_rational_matrices_are_written_in_canonical_form():
    """On the equivalence oracle's covers, every entry of each tot and tw
    differential, of each kernel_basis vector, of each rref row and of each
    column of tot's augmentation is an int when integral, else a Fraction
    with denominator > 1; so is every entry of a seeded random chain map
    (a sum of Fractions)."""
    import random

    from test_equivalence import ORACLE_COVERS
    from test_linalg import canonical

    from descentlab.fixtures import random_chain_map, random_complex
    from descentlab.linalg import kernel_basis, rref
    from descentlab.presheaf import tot, tw
    from descentlab.simplex import NCModel, coface

    for seed in range(10):
        rng = random.Random(seed)
        A, B = random_complex(rng)[0], random_complex(rng)[0]
        f = random_chain_map(rng, A, B)
        assert all(canonical(v) for n in A.degrees()
                   for _, _, v in f.mat(n).entries()), seed

    for name, make in sorted(ORACLE_COVERS.items()):
        F = make()
        T = tot(F)
        for E in (T, tw(F, F.n_sets), tw(F, F.n_sets + 1)):
            for n in E.ambient.degrees():
                d = E.cx.d(n)
                written = [v for _, _, v in d.entries()]
                for vec in [*E.kernel[n], *kernel_basis(d)]:
                    written.extend(vec.values())
                for _, row in rref(d):
                    written.extend(row.values())
                assert all(canonical(v) for v in written), (name, n)
        if F.has_top:
            aug = T.augmentation()
            assert all(canonical(v) for n in aug.source.degrees()
                       for _, _, v in aug.mat(n).entries()), name

    # the NC cochains behind those columns: the unit and each basis
    # cochain's pullback along a coface hold ints, not integral Fractions
    for p in range(4):
        nc, above = NCModel(p), NCModel(p + 1)
        cochains = [nc.unit()] + [
            above.pullback(coface(p, i), key)
            for i in range(p + 2) for n in range(p + 2)
            for key in above.basis(n)]
        assert all(type(v) is int for x in cochains for v in x.values()), p


# TrackedEchelon eliminates on integers: its reduction and its insertion
# divide nothing and build no Fraction; only represent's result does.
ECHELON_ROOTS = ["TrackedEchelon._reduce", "TrackedEchelon.add",
                 "TrackedEchelon.represent"]


def test_tracked_echelon_is_fraction_free():
    """The roots, followed through the functions and TrackedEchelon methods
    of linalg.py they call, hold no true division and no Fraction call,
    except the Fraction calls in represent's return statement."""
    tree = ast.parse((PACKAGE / "linalg.py").read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    echelon = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef)
                   and node.name == "TrackedEchelon")
    functions.update({f"TrackedEchelon.{node.name}": node
                      for node in echelon.body
                      if isinstance(node, ast.FunctionDef)})
    allowed = {id(node)
               for ret in ast.walk(functions["TrackedEchelon.represent"])
               if isinstance(ret, ast.Return)
               for node in ast.walk(ret) if isinstance(node, ast.Call)}
    seen, todo, faults, built = set(), list(ECHELON_ROOTS), [], 0
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                    and isinstance(node.op, ast.Div):
                faults.append((name, node.lineno, "/"))
            if isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, ast.Name):
                    if f.id == "Fraction":
                        if id(node) in allowed:
                            built += 1
                        else:
                            faults.append((name, node.lineno, "Fraction()"))
                    elif f.id in functions:
                        todo.append(f.id)
                elif isinstance(f, ast.Attribute) \
                        and isinstance(f.value, ast.Name) \
                        and f.value.id == "self" \
                        and f"TrackedEchelon.{f.attr}" in functions:
                    todo.append(f"TrackedEchelon.{f.attr}")
    assert "_integer_multiple" in seen
    assert built == 1
    assert faults == []


# The telescope purity rank has one owner, complexes.novikov_induced_rank:
# the CLI and the demos ask it, and never read the Q-expansion path it
# runs on, so replacing that path changes one function body.
PURITY_PATH = {"homology_map", "novikov_q_expansion_complex",
               "novikov_q_expansion_map"}
PURITY_CALLERS = [PACKAGE / "cli.py",
                  *sorted((PACKAGE.parent.parent / "scripts").glob("*.py"))]


@pytest.mark.parametrize("path", PURITY_CALLERS, ids=lambda p: p.name)
def test_purity_rank_is_read_only_through_its_owner(path):
    named = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name)
    assert named & PURITY_PATH == set()


# SparseMatrix.column scans every row of its matrix.  A tensor of maps is
# written from its factors' rows (complexes.tensor_map); the two callers
# left are the tensor differential and the homology boundaries, which the
# benchmark's wrap target linalg:SparseMatrix.column still needs reached.
COLUMN_CALLERS = {("complexes.py", "TensorComplex.__init__"),
                  ("complexes.py", "HomologySpace.__init__")}


def _column_callers(path):
    """(module, enclosing Class.function) of each ``.column(...)`` call."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) \
                    and isinstance(child.func, ast.Attribute) \
                    and child.func.attr == "column":
                found.add((path.name, ".".join(scope)))
            visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return found


def test_column_scans_live_only_where_they_are_pinned():
    callers = set().union(*map(_column_callers, PACKAGE.glob("*.py")))
    assert callers <= COLUMN_CALLERS


# A map between direct sums is placed from its blocks by DirectSum.between,
# each block pasted once at the two sums' offsets; collect and fold are its
# one-part cases.  A block that is itself an inject or extract is pasted
# into a full-width map first and then pasted again.
PLACERS = {"collect", "fold", "between"}


def _method_calls(node, names):
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute) and call.func.attr in names]


def _map_values(tree):
    """The map arguments of each collect/fold/between call in a function,
    with what the function assigns to one that is passed by name (``x =
    ...`` or ``x[k] = ...``)."""
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        assigned = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        target = target.value
                    if isinstance(target, ast.Name):
                        assigned.setdefault(target.id, []).append(node.value)
        for call in _method_calls(fn, PLACERS):
            for value in [*call.args[1:], *(k.value for k in call.keywords)]:
                yield value
                if isinstance(value, ast.Name):
                    yield from assigned.get(value.id, [])


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_block_is_placed_twice(path):
    nested = [(inner.lineno, inner.func.attr)
              for value in _map_values(ast.parse(path.read_text()))
              for inner in _method_calls(value, {"inject", "extract"})]
    assert nested == []


def test_direct_sum_has_one_paste_loop():
    tree = ast.parse((PACKAGE / "complexes.py").read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "DirectSum")
    assert len(_method_calls(cls, {"paste"})) == 1
    methods = {f.name: f for f in cls.body if isinstance(f, ast.FunctionDef)}
    for name in ("collect", "fold"):
        calls = _method_calls(methods[name], PLACERS | {"paste"})
        assert [call.func.attr for call in calls] == ["between"]
