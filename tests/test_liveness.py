"""Every public name of the package has a reader outside the unit tests.

A public top-level name or public method of a module in src/descentlab is
live when it is read in another file under src/ (the exports in __init__
count), in scripts/, in perfbench/ (the "module:Attr.path" wrap-target
strings count) or in tests/test_acceptance.py, whose nine criteria are the
package's specification; or when it is read in the body of a live name of
its own module.  A name that only its own unit tests read belongs in those
tests.

The rule reads name tokens, so it cannot tell two classes apart: a method
whose name another class also defines is live as soon as either one is read
(CechComplex.inject looks live because DirectSum.inject is).  Such a method
still needs a grep.

Every field of a dataclass in src/descentlab must be read as an attribute
somewhere under src/, scripts/, perfbench/ or tests/; here a unit test's
read counts, since the constructor keeps the field either way.
"""

import ast
import re
from pathlib import Path

import pytest

import descentlab

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "descentlab"
PROGRAM = [p for d in ("src", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py")]
READERS = [*PROGRAM, ROOT / "tests" / "test_acceptance.py"]
FIELD_READERS = [*PROGRAM, *(ROOT / "tests").rglob("*.py")]


def _tokens(tree):
    """Names, attribute names and imported names read in tree, and the
    parts of wrap-target strings such as "linalg:TrackedEchelon.add"."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            hit = re.fullmatch(r"\w+:([\w.]+)", node.value)
            if hit:
                out.update(hit.group(1).split("."))
    return out


def dead_names(path):
    """The public names and methods of the module at path that nothing
    outside its unit tests reads; a class's private methods count as its
    body."""
    units = {}     # name -> (public, tokens of its body)
    for node in ast.parse(path.read_text()).body:
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
    for reader in READERS:
        if reader != path:
            read |= _tokens(ast.parse(reader.read_text()))
    live, todo = set(), [u for u in units if u.rsplit(".", 1)[-1] in read]
    while todo:
        unit = todo.pop()
        if unit not in live:
            live.add(unit)
            todo.extend(u for u in units if u.rsplit(".", 1)[-1] in units[unit][1])
    return sorted(u for u, (public, _) in units.items()
                  if public and u not in live)


@pytest.mark.parametrize("module", sorted(
    p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"))
def test_every_public_name_has_a_reader(module):
    dead = dead_names(PACKAGE / f"{module}.py")
    assert not dead, dead


def _is_dataclass(node):
    decorators = [d.func if isinstance(d, ast.Call) else d
                  for d in node.decorator_list]
    return any(getattr(d, "id", None) == "dataclass" for d in decorators)


def test_every_dataclass_field_is_read():
    fields = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields.extend((node.name, item.target.id) for item in node.body
                              if isinstance(item, ast.AnnAssign)
                              and isinstance(item.target, ast.Name))
    read = {node.attr for reader in FIELD_READERS
            for node in ast.walk(ast.parse(reader.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{cls}.{name}" for cls, name in fields if name not in read]
    assert fields
    assert not unread, unread


def test_the_export_list_resolves():
    names = descentlab.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(descentlab, name) for name in names)
    star = {}
    exec("from descentlab import *", star)
    assert set(names) <= set(star)
