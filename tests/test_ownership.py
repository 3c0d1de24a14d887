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
