"""Every CLI report pinned by digest.

Each case runs ``descentlab`` in-process and records the SHA-256 of its
standard output together with its exit status.  The cases are every
subcommand on its bundled default in both formats, every ``emit-fixture``
output, the input-driven subcommands on two seeded N=3 random covers and on
the emitted fixtures, and a few runs that exit 1 or 2.  The BV axiom count
behind ``bv-check`` (about 0.5 s) is computed once and shared by both of
its formats.  A change to the program that is meant to keep reports
byte-identical must leave ``golden/cli_report_digest.json`` as it is.  Regenerate the file (only when
a change of output is intended) with

    PYTHONPATH=src python tests/test_cli_digest.py > tests/golden/cli_report_digest.json
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from descentlab import cli, polyvec

GOLDEN = Path(__file__).parent / "golden" / "cli_report_digest.json"

FORMATS = ("json", "text")
FIXTURES = ("triangle-boundary", "three-edge", "torus-square", "disjoint",
            "constant", "random", "p1-polyvector", "novikov-telescope")
COVER_SEEDS = (6, 25)
COVER_COMMANDS = ("validate", "cech", "tot", "tw", "compare", "descent",
                  "incl-excl")
FIXTURE_COMMANDS = ("validate", "cech", "descent", "incl-excl")


def _inputs():
    """(input name, emit-fixture argv) for every file the cases read."""
    out = [(f"random-s{s}", ["emit-fixture", "random", "--seed", str(s)])
           for s in COVER_SEEDS]
    out += [(name, ["emit-fixture", name]) for name in FIXTURES
            if name not in ("random", "p1-polyvector")]
    return out


def cases():
    """(case id, argv); "{name}" in an argv is the path of that input."""
    out = []
    for cmd in cli.COMMANDS:
        if cmd == "emit-fixture":
            continue
        for fmt in FORMATS:
            out.append((f"bundled/{cmd}.{fmt}", [cmd, "--format", fmt]))
    for name in FIXTURES:
        for fmt in FORMATS:
            out.append((f"emit/{name}.{fmt}",
                        ["emit-fixture", name, "--format", fmt]))
    for s in COVER_SEEDS:
        out.append((f"emit/random-s{s}.json",
                    ["emit-fixture", "random", "--seed", str(s)]))
        for cmd in COVER_COMMANDS:
            for fmt in FORMATS:
                out.append((f"random-s{s}/{cmd}.{fmt}",
                            [cmd, "--input", f"{{random-s{s}}}",
                             "--format", fmt]))
    for name in ("triangle-boundary", "three-edge", "torus-square",
                 "disjoint", "constant"):
        for cmd in FIXTURE_COMMANDS:
            out.append((f"{name}/{cmd}.json",
                        [cmd, "--input", f"{{{name}}}"]))
    out.append(("novikov-telescope/homology.json",
                ["homology", "--input", "{novikov-telescope}"]))
    out.append(("options/tw-cutoff-5.json",
                ["tw", "--weight-cutoff", "5"]))
    out.append(("options/p1-demo-laurent-6.text",
                ["p1-demo", "--laurent-cutoff", "6", "--format", "text"]))
    out.append(("options/telescope-den-2.json",
                ["telescope", "--novikov-den", "2", "--novikov-e", "5/2",
                 "--weight-cutoff", "6"]))
    out.append(("options/homology-window.text",
                ["homology", "--degree-window", "0:0", "--format", "text"]))
    out.append(("exit2/tw-cutoff-1.json", ["tw", "--weight-cutoff", "1"]))
    out.append(("exit2/telescope-short.json",
                ["telescope", "--weight-cutoff", "2"]))
    return out


_BV_ONCE = functools.cache(polyvec.bv_axiom_check)


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return {"sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest(),
            "exit": code}


def _emit_inputs(workdir):
    paths = {}
    for name, argv in _inputs():
        paths[name] = str(Path(workdir) / f"{name}.json")
        assert _run(argv + ["--out", paths[name]])["exit"] == 0
    return paths


def _resolve(argv, paths):
    return [a.format(**paths) if a.startswith("{") else a for a in argv]


def all_digests(workdir):
    paths = _emit_inputs(workdir)
    return {cid: _run(_resolve(argv, paths)) for cid, argv in cases()}


@pytest.fixture(scope="module")
def input_paths(tmp_path_factory):
    return _emit_inputs(tmp_path_factory.mktemp("cli-inputs"))


@pytest.fixture(autouse=True)
def stable_env(monkeypatch):
    monkeypatch.delenv("DESCENTLAB_THREADS", raising=False)
    monkeypatch.setattr(cli, "bv_axiom_check", _BV_ONCE)


def test_golden_lists_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == \
        sorted(cid for cid, _ in cases())


@pytest.mark.parametrize("cid,argv", cases(), ids=[c for c, _ in cases()])
def test_report_digest(input_paths, cid, argv):
    expected = json.loads(GOLDEN.read_text())[cid]
    assert _run(_resolve(argv, input_paths)) == expected


if __name__ == "__main__":
    os.environ.pop("DESCENTLAB_THREADS", None)
    cli.bv_axiom_check = _BV_ONCE
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(all_digests(tmp), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
