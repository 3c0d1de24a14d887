"""Batch front end: reports, exit codes, golden files."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from descentlab import cli, complexes
from descentlab import fixtures as fx
from descentlab.complexes import (ChainMap, Complex, betti_numbers,
                                  chain_map_to_json, complex_to_json, single)
from descentlab.errors import AxiomFailure
from descentlab.involutive import Poly
from descentlab.linalg import SparseMatrix
from descentlab.presheaf import (presheaf_from_json, presheaf_to_json,
                                 verify_descent)
from descentlab.scalars import QQ

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def stable_threads(monkeypatch):
    monkeypatch.delenv("DESCENTLAB_THREADS", raising=False)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# exit codes on the bundled fixtures


def test_descent_bundled_triangle_passes(capsys):
    code, out, _ = run_cli(capsys, "descent")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["seed"] == 0
    check = report["checks"][0]
    assert check["id"] == "descent-quasi-iso"
    assert check["cech_betti"] == {"0": 1, "1": 1}


def test_descent_disjoint_fixture_fails(tmp_path, capsys):
    path = tmp_path / "disjoint.json"
    assert cli.main(["emit-fixture", "disjoint", "--out", str(path)]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "descent", "--input", str(path))
    assert code == 1
    check = json.loads(out)["checks"][0]
    assert not check["ok"] and check["witness_degree"] == 0


def test_malformed_json_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("this is not json {")
    code, _, err = run_cli(capsys, "homology", "--input", str(bad))
    assert code == 2 and "malformed JSON" in err


def test_missing_input_file_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, "cech", "--input", "/nonexistent.json")
    assert code == 2 and "cannot read" in err


def test_unknown_fixture_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, "emit-fixture", "nope")
    assert code == 2 and "nope" in err


def test_small_weight_cutoff_is_an_option_error(capsys):
    code, _, err = run_cli(capsys, "tw", "--weight-cutoff", "1")
    assert code == 2 and "cutoff" in err


# ---------------------------------------------------------------------------
# load-time validation: unusable complexes exit 2 with a message


def _q_complex(diff, dims=None, support=(0, 2)):
    return {"coeff": "Q", "support": list(support),
            "dims": dims or {"0": 1, "1": 1, "2": 1}, "diff": diff}


def _narrowed_novikov_telescope():
    """The emitted Novikov telescope with its support cut to degree -1."""
    blob = complex_to_json(fx.emit_fixture("novikov-telescope"))
    blob["support"] = [-1, -1]
    return blob


def _novikov_edge(text):
    """One Novikov-valued differential C^0 -> C^1 with the entry ``text``."""
    return {"coeff": {"novikov": {"den": 1, "cutoff": "3"}}, "support": [0, 1],
            "dims": {"0": 1, "1": 1}, "diff": {"0": [[0, 0, text]]}}


@pytest.mark.parametrize("text", ["1 - 3*T^(1)", "1-3*T^(1)",
                                  "-3*T^(1) + 1"])
def test_novikov_binary_minus(tmp_path, capsys, text):
    # a minus between terms reads as adding the negated term
    reports = []
    for entry in (text, "1 + -3*T^(1)"):
        path = tmp_path / "cx.json"
        path.write_text(json.dumps(_novikov_edge(entry)))
        code, out, err = run_cli(capsys, "homology", "--input", str(path))
        assert code == 0 and not err
        reports.append(out)
    assert reports[0] == reports[1]


def test_novikov_leading_unary_minus(tmp_path, capsys):
    # '-T^(1/2)' is '-1*T^(1/2)', as '1 - T^(1/2)' already was
    reports = []
    for entry in ("-T^(1/2)", "-1*T^(1/2)"):
        path = tmp_path / "cx.json"
        blob = _novikov_edge(entry)
        blob["coeff"]["novikov"]["den"] = 2
        path.write_text(json.dumps(blob))
        code, out, err = run_cli(capsys, "homology", "--input", str(path))
        assert code == 0 and not err
        reports.append(out)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("text", ["-", "--T^(1)", "T^(1/2) -"])
def test_novikov_stray_minus_is_an_input_error(tmp_path, capsys, text):
    path = tmp_path / "cx.json"
    blob = _novikov_edge(text)
    blob["coeff"]["novikov"]["den"] = 2
    path.write_text(json.dumps(blob))
    code, out, err = run_cli(capsys, "homology", "--input", str(path))
    assert code == 2 and not out
    assert err.startswith("descentlab: ") and "Traceback" not in err


@pytest.mark.parametrize("blob", [
    # d o d != 0: both differentials are [1]
    _q_complex({"0": [[0, 0, "1"]], "1": [[0, 0, "1"]]}),
    # a scalar that is not a rational
    _q_complex({"0": [[0, 0, "1/x"]]}),
    # no "support" key
    {"coeff": "Q", "dims": {"0": 1}, "diff": {}},
    # Novikov text the parser does not accept
    _novikov_edge("1 -"),
    _novikov_edge("- - 3"),
    # a negative dimension, in the top or the bottom degree
    _q_complex({}, dims={"0": 1, "1": -1}, support=(0, 1)),
    _q_complex({}, dims={"0": -2, "1": 1}, support=(0, 1)),
    # a support with lo > hi
    _q_complex({}, dims={"0": 1}, support=(2, 0)),
    # a dimension outside the support
    _q_complex({}, dims={"0": 1, "3": 1}),
    # a differential whose target degree lies outside the support
    _q_complex({"2": [[0, 0, "1"]]}),
    # the emitted Novikov telescope, support narrowed below its dims
    _narrowed_novikov_telescope(),
    # integer fields given as JSON floats or booleans, which int() would
    # read as 2, 1, 1 and 1
    _q_complex({}, dims={"0": 2.9, "1": 1, "2": 1}),
    _q_complex({"0": [[0, 1.7, "1"]]}, dims={"0": 2, "1": 1, "2": 1}),
    _q_complex({}, dims={"0": True, "1": 1, "2": 1}),
    _q_complex({}, dims={"0": 1, "1": 1}, support=(0, 1.5)),
], ids=["d-squared-nonzero", "bad-scalar", "missing-support",
        "novikov-trailing-minus", "novikov-double-minus", "negative-dim-top", "negative-dim-bottom",
        "reversed-support", "dim-outside-support", "diff-outside-support",
        "novikov-narrowed-support", "fractional-dim", "fractional-column",
        "boolean-dim", "fractional-support"])
def test_unusable_complex_is_an_input_error(tmp_path, capsys, blob):
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(blob))
    code, out, err = run_cli(capsys, "homology", "--input", str(path))
    assert code == 2 and not out
    assert err.startswith("descentlab: ") and "Traceback" not in err


@pytest.mark.parametrize("blob,degree", [
    (_q_complex({}, dims={"0": 1, "1": -1}, support=(0, 1)), "degree 1"),
    (_q_complex({}, dims={"0": 1}, support=(2, 0)), "[2, 0]"),
    (_q_complex({}, dims={"0": 1, "3": 1}), "degree 3"),
    (_q_complex({"2": [[0, 0, "1"]]}), "degree 2"),
    (_narrowed_novikov_telescope(), "degree 0"),
    # every support degree needs a dimension, as complex_to_json writes it;
    # a support the dims do not fill used to be walked degree by degree
    (_q_complex({}, dims={"0": 1}, support=(0, 3)), "degree 1"),
    (_q_complex({}, dims={"0": 1}, support=(0, 10**6)), "degree 1"),
], ids=["negative-dim", "reversed-support", "dim-outside-support",
        "diff-outside-support", "novikov-narrowed-support",
        "dim-missing-in-support", "dim-missing-in-huge-support"])
def test_shape_fault_names_the_degree(tmp_path, capsys, blob, degree):
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(blob))
    code, out, err = run_cli(capsys, "homology", "--input", str(path))
    assert code == 2 and not out and degree in err


@pytest.mark.parametrize("n_sets,key", [(0, None), (-1, None),
                                        (2, "1,2,3"), (3, "1,1"), (4, None),
                                        (26, None), (10**9, None),
                                        (2.5, None), (3.0, None),
                                        (True, None)])
def test_presheaf_index_set_is_checked(tmp_path, capsys, n_sets, key):
    # n_sets 26 would list 2^26 - 1 subsets if coverage were checked by
    # enumeration; the count of values is compared first
    blob = presheaf_to_json(fx.emit_fixture("three-edge"))
    blob["n_sets"] = n_sets
    if key is not None:
        blob["values"][key] = blob["values"]["1"]
    path = tmp_path / "F.json"
    path.write_text(json.dumps(blob))
    for command in ("validate", "cech", "tot", "descent"):
        code, out, err = run_cli(capsys, command, "--input", str(path))
        assert code == 2 and not out and err.startswith("descentlab: ")
        assert ("n_sets" if key is None else "not a subset") in err


def _shifted_restriction(blob):
    """triangle-boundary without its top value, with 1->1,2 replaced by a
    zero map of degree 1."""
    del blob["values"]["top"]
    blob["restrictions"] = {a: m for a, m in blob["restrictions"].items()
                            if not a.startswith("top->")}
    blob["restrictions"]["1->1,2"] = {"shift": 1, "mats": {}}


def _two_step_restriction(blob):
    """three-edge with an extra arrow 1->1,2,3 beside the one-step ones."""
    blob["restrictions"]["1->1,2,3"] = {"shift": 0, "mats": {}}


def _half_shift_restriction(blob):
    """three-edge with the shift of 1->1,2 given as 0.5, which int() would
    read as 0."""
    blob["restrictions"]["1->1,2"]["shift"] = 0.5


def _half_support_value(blob):
    """three-edge with the support of the value on {1} given as [0, 1.5]; the
    error names the value, as it names the arrow of a bad restriction."""
    blob["values"]["1"]["support"] = [0, 1.5]


@pytest.mark.parametrize("fixture,edit,arrow", [
    ("triangle-boundary", _shifted_restriction, "1->1,2"),
    ("three-edge", _two_step_restriction, "1->1,2,3"),
    ("three-edge", _half_shift_restriction, "1->1,2"),
    ("three-edge", _half_support_value, "value 1:")])
def test_presheaf_restriction_arrows_are_checked(tmp_path, capsys, fixture,
                                                 edit, arrow):
    blob = presheaf_to_json(fx.emit_fixture(fixture))
    edit(blob)
    path = tmp_path / "F.json"
    path.write_text(json.dumps(blob))
    for command in ("validate", "cech", "tot", "compare", "incl-excl"):
        code, out, err = run_cli(capsys, command, "--input", str(path))
        assert code == 2 and not out and err.startswith("descentlab: ")
        assert arrow in err


@pytest.mark.parametrize("section,first,second", [
    ("values", "1,2", "2,1"), ("values", "1,2", "1, 2"),
    ("restrictions", "1,2->1,2,3", "1,2->3,2,1")])
def test_two_spellings_of_one_key_are_an_input_error(tmp_path, capsys, section,
                                                     first, second):
    # both spellings parse to one subset or arrow, so accepting both would
    # let the later one replace the earlier unseen
    blob = presheaf_to_json(fx.emit_fixture("three-edge"))
    blob[section][second] = blob[section][first]
    path = tmp_path / "F.json"
    path.write_text(json.dumps(blob))
    for command in ("validate", "cech", "tot", "descent"):
        code, out, err = run_cli(capsys, command, "--input", str(path))
        assert code == 2 and not out and err.startswith("descentlab: ")
        assert repr(first) in err and repr(second) in err


def _q_diagram(mats):
    """A telescope diagram Q -> Q in degree 0 whose map has the given mats."""
    term = complex_to_json(single(QQ, 0, 1))
    return {"terms": [term, term], "maps": [{"shift": 0, "mats": mats}]}


@pytest.mark.parametrize("command,blob,first,second", [
    ("homology", _q_complex({"0": [[0, 0, "1"]]}, dims={"0": 1, "1": 1,
                                                        "00": 2},
                            support=(0, 1)), "0", "00"),
    # acyclic, but with d_0 replaced by the empty "+0" it read as
    # Betti {0: 1, 1: 1}
    ("homology", _q_complex({"0": [[0, 0, "1"]], "+0": []},
                            dims={"0": 1, "1": 1}, support=(0, 1)), "0", "+0"),
    ("telescope", _q_diagram({"0": [[0, 0, "1"]], " 0": []}), "0", " 0"),
], ids=["dims", "diff", "mats"])
def test_two_spellings_of_one_degree_are_an_input_error(tmp_path, capsys,
                                                        command, blob, first,
                                                        second):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(blob))
    code, out, err = run_cli(capsys, command, "--input", str(path))
    assert code == 2 and not out and err.startswith("descentlab: ")
    assert repr(first) in err and repr(second) in err


def _bundled_q_complexes():
    """The default homology input and every value of the bundled presheaf
    fixtures."""
    yield "circle", None
    for name in ("triangle-boundary", "three-edge", "torus-square",
                 "disjoint", "constant", "random"):
        F = fx.emit_fixture(name)
        for key in sorted(F.values, key=str):
            yield f"{name}:{key}", F.values[key]


def test_homology_betti_numbers_are_consistent(tmp_path, capsys):
    checked = 0
    for label, cx in _bundled_q_complexes():
        argv = ["homology"]
        if cx is None:
            cx = fx.circle_complex()
        else:
            path = tmp_path / "cx.json"
            path.write_text(json.dumps(complex_to_json(cx)))
            argv += ["--input", str(path)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, label
        betti = {int(n): b for n, b in
                 json.loads(out)["checks"][0]["betti"].items()}
        assert all(b >= 0 for b in betti.values()), label
        euler = sum((-1) ** (n % 2) * cx.dim(n) for n in cx.degrees())
        assert sum((-1) ** (n % 2) * b for n, b in betti.items()) == euler, \
            label
        checked += 1
    assert checked > 20


# ---------------------------------------------------------------------------
# fixture emission


def test_emitted_triangle_is_directly_consumable(tmp_path, capsys):
    path = tmp_path / "tri.json"
    assert cli.main(["emit-fixture", "triangle-boundary",
                     "--out", str(path)]) == 0
    capsys.readouterr()
    F = presheaf_from_json(json.loads(path.read_text()))
    assert verify_descent(F).ok
    code, _, _ = run_cli(capsys, "compare", "--input", str(path))
    assert code == 0


def test_emitted_p1_presheaf_validates(tmp_path, capsys):
    path = tmp_path / "p1.json"
    assert cli.main(["emit-fixture", "p1-polyvector", "--out", str(path)]) == 0
    capsys.readouterr()
    code, _, _ = run_cli(capsys, "validate", "--input", str(path))
    assert code == 0


def test_seeded_emission_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["emit-fixture", "random", "--seed", "5",
                     "--out", str(a)]) == 0
    assert cli.main(["emit-fixture", "random", "--seed", "5",
                     "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.json"
    assert cli.main(["emit-fixture", "random", "--seed", "6",
                     "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_validate_reports_broken_restriction(tmp_path, capsys):
    path = tmp_path / "tri.json"
    assert cli.main(["emit-fixture", "triangle-boundary",
                     "--out", str(path)]) == 0
    capsys.readouterr()
    data = json.loads(path.read_text())
    for arrow in sorted(data["restrictions"]):
        mats = data["restrictions"][arrow]["mats"]
        for deg in sorted(mats):
            if mats[deg]:
                mats[deg][0][2] = "1/3"
                broken = tmp_path / "broken.json"
                broken.write_text(json.dumps(data))
                code, out, _ = run_cli(capsys, "validate",
                                       "--input", str(broken))
                assert code == 1
                report = json.loads(out)
                fails = [c for c in report["checks"] if not c["ok"]]
                assert fails and "witness" in fails[0]
                return
    raise AssertionError("no nonzero restriction entry found to corrupt")


# ---------------------------------------------------------------------------
# report determinism and golden files


def test_reports_are_byte_identical_across_runs(capsys):
    _, out1, _ = run_cli(capsys, "descent")
    _, out2, _ = run_cli(capsys, "descent")
    assert out1 == out2
    _, txt1, _ = run_cli(capsys, "descent", "--format", "text")
    _, txt2, _ = run_cli(capsys, "descent", "--format", "text")
    assert txt1 == txt2


@pytest.mark.parametrize("golden,argv", [
    ("descent_triangle.json", ("descent",)),
    ("descent_triangle.txt", ("descent", "--format", "text")),
    ("telescope_novikov.json", ("telescope",)),
    ("incl_excl_triangle.txt", ("incl-excl", "--format", "text")),
    ("compare_triangle.txt", ("compare", "--format", "text")),
    ("tot_triangle.json", ("tot",)),
])
def test_golden_reports(capsys, golden, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_golden_novikov_homology(tmp_path, capsys):
    path = tmp_path / "novikov.json"
    assert cli.main(["emit-fixture", "novikov-telescope",
                     "--out", str(path)]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "homology", "--input", str(path))
    assert code == 0
    assert out == (GOLDEN / "homology_novikov_telescope.json").read_text()


@pytest.mark.parametrize("den, m", [(20, 2000), (200, 20000)])
def test_one_novikov_cell_is_not_quadratic_in_the_truncation_order(
        tmp_path, capsys, den, m):
    """One free cell at cutoff 100: the torsion table is read over the ring,
    so m = den * 100 costs nothing like m ranks of m x m matrices."""
    path = tmp_path / "cell.json"
    path.write_text(json.dumps(
        {"coeff": {"novikov": {"den": den, "cutoff": "100"}},
         "support": [0, 0], "dims": {"0": 1}}))
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "homology", "--input", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 0
    check = json.loads(out)["checks"][0]
    assert check["torsion_u_orders"] == {"0": [m]}
    assert check["truncation_order"] == m


# ---------------------------------------------------------------------------
# options plumbing


def test_degree_window_filters_table(capsys):
    code, out, _ = run_cli(capsys, "homology", "--degree-window", "0:0")
    assert code == 0
    assert json.loads(out)["checks"][0]["betti"] == {"0": 1}


def test_degree_window_cuts_the_torsion_table(tmp_path, capsys):
    path = tmp_path / "novikov.json"
    assert cli.main(["emit-fixture", "novikov-telescope",
                     "--out", str(path)]) == 0
    capsys.readouterr()
    for window, want in (("0:0", {"0": [3]}), ("5:6", {})):
        code, out, _ = run_cli(capsys, "homology", "--input", str(path),
                               "--degree-window", window)
        assert code == 0
        assert json.loads(out)["checks"][0]["torsion_u_orders"] == want


def test_bad_degree_window_is_rejected(capsys):
    for command, window in [("homology", "zero"), ("homology", "3:1"),
                            ("cech", "3:1")]:
        with pytest.raises(SystemExit) as err:
            cli.main([command, "--degree-window", window])
        assert err.value.code == 2
        assert "degree-window" in capsys.readouterr().err


# a valid value for each option that only some subcommands take
_FLAG_VALUES = {"--input": "in.json", "--degree-window": "0:0",
                "--weight-cutoff": "9", "--laurent-cutoff": "5",
                "--novikov-den": "2", "--novikov-e": "3/2"}


def _positional(command):
    return ["triangle-boundary"] if command == "emit-fixture" else []


def test_every_option_is_in_the_flag_table():
    assert set(_FLAG_VALUES) | {"fixture", "--out", "--format", "--seed"} \
        == set(cli._OPTIONS)


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_each_option_of_a_subcommand_is_read(command):
    # the body runs on its bundled default with a job that records every
    # attribute read from it; an option the parser adds but the body never
    # reads is one a user could set to no effect
    body, options = cli._BODIES[command]
    job = cli.job_from_args(cli._parser().parse_args([command,
                                                      *_positional(command)]))
    read = set()

    class RecordingJob:
        def __getattr__(self, name):
            read.add(name)
            return getattr(job, name)

    body(RecordingJob())
    unread = {opt for opt in options
              if opt.lstrip("-").replace("-", "_") not in read}
    assert not unread, unread


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_a_flag_the_subcommand_does_not_read_exits_2(capsys, command):
    foreign = [f for f in _FLAG_VALUES if f not in cli._BODIES[command][1]]
    assert foreign
    for flag in foreign:
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *_positional(command), flag,
                      _FLAG_VALUES[flag]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def _bundled_input(command):
    """What --input names for a body: its bundled default as JSON, a
    two-term Q diagram for telescope and the bundled covers job."""
    if command == "homology":
        return complex_to_json(fx.circle_complex())
    if command == "telescope":
        return _q_diagram({"0": [[0, 0, "1"]]})
    if command == "covers-check":
        return cli._DEFAULT_COVER_JOB
    fixture = "three-edge" if command == "incl-excl" else "triangle-boundary"
    return presheaf_to_json(fx.emit_fixture(fixture))


@pytest.mark.parametrize("command", [c for c in cli.COMMANDS
                                     if "--input" in cli._BODIES[c][1]])
def test_each_option_of_a_subcommand_is_read_beside_input(tmp_path, command):
    # test_each_option_of_a_subcommand_is_read on an input file: an option
    # that only the bundled default uses must be rejected here, which reads
    # it too
    path = tmp_path / "in.json"
    path.write_text(json.dumps(_bundled_input(command)))
    body, options = cli._BODIES[command]
    job = cli.job_from_args(cli._parser().parse_args([command, "--input",
                                                      str(path)]))
    read = set()

    class RecordingJob:
        def __getattr__(self, name):
            read.add(name)
            return getattr(job, name)

    body(RecordingJob())
    unread = {opt for opt in options
              if opt.lstrip("-").replace("-", "_") not in read}
    assert not unread, unread


@pytest.mark.parametrize("flag", ["--novikov-den", "--novikov-e",
                                  "--weight-cutoff"])
def test_bundled_telescope_flags_are_refused_beside_input(tmp_path, capsys,
                                                          flag):
    path = tmp_path / "tel.json"
    path.write_text(json.dumps(_q_diagram({"0": [[0, 0, "1"]]})))
    code, out, err = run_cli(capsys, "telescope", "--input", str(path),
                             flag, _FLAG_VALUES[flag])
    assert code == 2 and not out
    assert flag in err and "bundled" in err


def test_threads_env_is_recorded(monkeypatch, capsys):
    monkeypatch.setenv("DESCENTLAB_THREADS", "3")
    code, out, _ = run_cli(capsys, "descent")
    assert code == 0 and json.loads(out)["threads"] == 3
    monkeypatch.setenv("DESCENTLAB_THREADS", "zebra")
    code, _, err = run_cli(capsys, "descent")
    assert code == 2 and "DESCENTLAB_THREADS" in err


def test_novikov_telescope_options(capsys):
    code, out, _ = run_cli(capsys, "telescope", "--novikov-den", "2",
                           "--novikov-e", "3/2", "--weight-cutoff", "5")
    assert code == 0
    check = json.loads(out)["checks"][0]
    assert check["torsion_u_orders"]["0"] == [3]
    assert check["induced_rank"] == 0
    code, _, err = run_cli(capsys, "telescope", "--weight-cutoff", "2")
    assert code == 2 and "truncation order" in err


@pytest.mark.parametrize("argv", [["--weight-cutoff", "2"],
                                  ["--novikov-e", "100000"]])
def test_short_bundled_telescope_exits_before_homology(capsys, monkeypatch,
                                                        argv):
    # a length at most the truncation order is refused from the ring alone,
    # so an expansion of order 100000 is never built
    def refuse(*args, **kwargs):
        raise AssertionError("called before the length check")

    monkeypatch.setattr(cli, "homology", refuse)
    monkeypatch.setattr(cli, "telescope", refuse)
    monkeypatch.setattr(cli, "telescope_comparison", refuse)
    code, out, err = run_cli(capsys, "telescope", *argv)
    assert code == 2 and not out
    assert "truncation order" in err


@pytest.mark.parametrize("argv", [["--weight-cutoff", "100000"],
                                  ["--weight-cutoff", "9"],
                                  ["--novikov-den", "2", "--novikov-e", "3/2",
                                   "--weight-cutoff", "9"]])
def test_long_bundled_telescope_exits_before_homology(capsys, monkeypatch,
                                                       argv):
    # a length over 2*(m + 1) is refused from the ring alone, so neither the
    # terms nor the telescope nor its homology is built; both cases have
    # m = 3
    def refuse(*args, **kwargs):
        raise AssertionError("called before the length check")

    monkeypatch.setattr(cli, "homology", refuse)
    monkeypatch.setattr(cli, "telescope", refuse)
    monkeypatch.setattr(cli, "telescope_comparison", refuse)
    monkeypatch.setattr(cli.fx, "novikov_telescope_terms", refuse)
    code, out, err = run_cli(capsys, "telescope", *argv)
    assert code == 2 and not out
    assert "truncation order m = 3" in err and "use 4 to 8 terms" in err


@pytest.mark.parametrize("argv, m", [(["--novikov-e", "49"], 49),
                                     (["--novikov-den", "32", "--novikov-e",
                                       "2"], 64)])
def test_high_order_bundled_telescope_exits_before_homology(capsys,
                                                            monkeypatch,
                                                            argv, m):
    # a truncation order over the cap is refused from the ring alone, before
    # any term, telescope or homology is built
    def refuse(*args, **kwargs):
        raise AssertionError("called before the order check")

    monkeypatch.setattr(cli, "homology", refuse)
    monkeypatch.setattr(cli, "telescope", refuse)
    monkeypatch.setattr(cli, "telescope_comparison", refuse)
    monkeypatch.setattr(cli, "novikov_induced_rank", refuse)
    monkeypatch.setattr(cli.fx, "novikov_telescope_terms", refuse)
    code, out, err = run_cli(capsys, "telescope", *argv)
    assert code == 2 and not out
    assert f"truncation order m = {m}" in err and "cap 48" in err


def test_bundled_telescope_builds_the_full_telescope_once(capsys,
                                                          monkeypatch):
    # the torsion table is read off the comparison's target, so the run
    # builds only the comparison's two telescopes
    calls = []
    build = complexes.telescope

    def counted(terms, maps):
        calls.append(len(terms))
        return build(terms, maps)

    monkeypatch.setattr(complexes, "telescope", counted)
    code, _, _ = run_cli(capsys, "telescope")
    assert code == 0 and calls == [1, 4]


def test_highest_order_bundled_telescope_runs(capsys):
    # m = 32 * 3/2 = 48 is the cap itself
    code, out, _ = run_cli(capsys, "telescope", "--novikov-den", "32",
                           "--novikov-e", "3/2", "--weight-cutoff", "49")
    assert code == 0
    check = json.loads(out)["checks"][0]
    assert check["torsion_u_orders"]["0"] == [48]
    assert check["induced_rank"] == 0


def test_longest_bundled_telescope_runs(capsys):
    # 2*(m + 1) itself is allowed
    code, out, _ = run_cli(capsys, "telescope", "--weight-cutoff", "8")
    assert code == 0
    check = json.loads(out)["checks"][0]
    assert check["torsion_u_orders"]["0"] == [3]
    assert check["induced_rank"] == 0


# ---------------------------------------------------------------------------
# remaining subcommands end to end


def test_q_telescope_input(tmp_path, capsys):
    terms = [single(QQ, 0, 1) for _ in range(3)]
    maps = [ChainMap(terms[i], terms[i + 1], {0: SparseMatrix.identity(1)})
            for i in range(2)]
    blob = {"terms": [complex_to_json(c) for c in terms],
            "maps": [chain_map_to_json(m) for m in maps]}
    path = tmp_path / "tel.json"
    path.write_text(json.dumps(blob))
    code, out, _ = run_cli(capsys, "telescope", "--input", str(path))
    assert code == 0
    check = json.loads(out)["checks"][0]
    assert check["telescope_betti"] == check["last_term_betti"] == {"0": 1}


def test_telescope_map_must_be_a_chain_map(tmp_path, capsys):
    # on C: Q -> Q (d = 1), the identity in degree 0 and zero in degree 1
    # does not commute with d
    C = Complex(QQ, {0: 1, 1: 1}, {0: SparseMatrix.identity(1)})
    f = ChainMap(C, C, {0: SparseMatrix.identity(1)})
    blob = {"terms": [complex_to_json(C), complex_to_json(C)],
            "maps": [chain_map_to_json(f)]}
    path = tmp_path / "tel.json"
    path.write_text(json.dumps(blob))
    code, out, err = run_cli(capsys, "telescope", "--input", str(path))
    assert code == 2 and not out and "commute" in err


def test_telescope_map_must_have_degree_0(tmp_path, capsys):
    blob = _q_diagram({"0": [[0, 0, "1"]]})
    blob["maps"][0]["shift"] = 1
    path = tmp_path / "tel.json"
    path.write_text(json.dumps(blob))
    code, out, err = run_cli(capsys, "telescope", "--input", str(path))
    assert code == 2 and not out and "shift" in err


def test_covers_check_reports_violations(tmp_path, capsys):
    job = {
        "pairs": 1,
        "sequences": [["q1 - 1", "q1 - 1"]],
        "sets": ["q1"],
        "grid": [["-1", "1", "1"], ["-1", "1", "1"]],
    }
    path = tmp_path / "covers.json"
    path.write_text(json.dumps(job))
    code, out, _ = run_cli(capsys, "covers-check", "--input", str(path))
    assert code == 1
    check = json.loads(out)["checks"][0]
    bullets = {v["bullet"] for v in check["violations"]}
    assert "strictly-increasing" in bullets


def test_covers_check_monotonicity_floats_are_pinned(tmp_path, capsys):
    # the only report whose bytes hold floats of smoothed values: 25
    # left/right pairs of stages that fail to increase
    job = {"pairs": 1, "sequences": [["q1 - 1", "q1 - 1/2"]],
           "sets": ["q1 - 1"],
           "grid": [["-1", "1", "1/2"], ["-1", "1", "1/2"]],
           "smoothing": {"mode": "intersection", "deltas": ["1", "1/2"],
                         "f1": ["q1", "q1"], "f2": ["p1", "p1"]}}
    path = tmp_path / "covers.json"
    path.write_text(json.dumps(job))
    code, out, _ = run_cli(capsys, "covers-check", "--input", str(path))
    assert code == 1
    mono = json.loads(out)["checks"][1]
    assert mono["id"] == "stage-monotonicity" and len(mono["violations"]) == 25
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "789ccc1e31ad8b06bf3ef50bd2d360926e941c8516b261d67b0bea27edbc39c4")


def test_covers_check_union_floats_are_pinned(tmp_path, capsys):
    # three union stages whose inputs fall back on both steps: 21 float
    # pairs across steps 0 and 1, and a ceiling bound for each step
    job = {"pairs": 1, "sequences": [["q1 - 1", "q1 - 1/2", "q1 - 1/4"]],
           "sets": ["q1 - 1"],
           "grid": [["-1", "1", "1/2"], ["-1", "1", "1/2"]],
           "smoothing": {"mode": "union", "deltas": ["1", "1/2", "1/4"],
                         "f1": ["q1", "q1 - 1/2", "q1 - 1/2"],
                         "f2": ["p1", "p1", "p1 - 1/4"]}}
    path = tmp_path / "covers.json"
    path.write_text(json.dumps(job))
    code, out, _ = run_cli(capsys, "covers-check", "--input", str(path))
    assert code == 1
    mono = json.loads(out)["checks"][1]
    assert [v["step"] for v in mono["violations"]] == sorted(
        v["step"] for v in mono["violations"])
    assert {v["step"] for v in mono["violations"]} == {0, 1}
    assert [b["kind"] for b in mono["step_bounds"]] == ["max_next_delta"] * 2
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d66efb58b242cf6a934299b7cd513f580b56c382247980ceb8891b1018e92545")


@pytest.mark.parametrize("grid_range", [["-2", "2"], ["-2", "2", "1/2", "1"],
                                        ["-2", "2", "1/0"], [True, "2", "1"]])
def test_malformed_covers_job_is_an_input_error(tmp_path, capsys, grid_range):
    job = {"pairs": 1, "sequences": [["q1 - 1"]], "sets": ["q1"],
           "grid": [["-1", "1", "1"], grid_range]}
    path = tmp_path / "covers.json"
    path.write_text(json.dumps(job))
    code, out, err = run_cli(capsys, "covers-check", "--input", str(path))
    assert code == 2 and not out
    assert "bad grid range" in err and repr(grid_range) in err


def test_covers_grid_reads_a_float_step_as_its_decimal(tmp_path, capsys):
    # 0.1 is 1/10, as in a complex entry, not its binary expansion (which
    # is a little above 1/10 and so leaves 1/2 off each axis)
    sizes = []
    for step in (0.1, "1/10"):
        job = {"pairs": 1, "sequences": [["q1 - 1"]], "sets": ["q1"],
               "grid": [[0, "1/2", step], [0, "1/2", step]]}
        path = tmp_path / "covers.json"
        path.write_text(json.dumps(job))
        code, out, _ = run_cli(capsys, "covers-check", "--input", str(path))
        assert code != 2
        sizes.append(json.loads(out)["options"]["grid_size"])
    assert sizes == [36, 36]


@pytest.mark.parametrize("pairs,named", [(10**9, "grid"), (-1, "pairs"),
                                        (1.5, "pairs")])
def test_covers_job_pairs_are_checked_before_names_are_built(tmp_path, capsys,
                                                            pairs, named):
    # the grid is compared with pairs before 2 * pairs variable names are
    # built, so 10**9 pairs costs nothing
    job = {"pairs": pairs, "sequences": [["q1 - 1"]], "sets": ["q1"],
           "grid": [["-1", "1", "1"], ["-1", "1", "1"]]}
    path = tmp_path / "covers.json"
    path.write_text(json.dumps(job))
    code, out, err = run_cli(capsys, "covers-check", "--input", str(path))
    assert code == 2 and not out and named in err and str(pairs) in err


@pytest.mark.parametrize("grid, points", [
    ([["-2", "2", "1/1000"], ["-2", "2", "1/1000"]], 4001 ** 2),
    ([["0", "10", "1"]] * 10, 11 ** 10)])
def test_covers_grid_over_the_cap_exits_before_it_is_built(
        tmp_path, capsys, monkeypatch, grid, points):
    def refuse(*args, **kwargs):
        raise AssertionError("grid built before the cap check")

    monkeypatch.setattr(cli, "grid_points", refuse)
    job = {"pairs": len(grid) // 2, "sequences": [], "sets": [], "grid": grid}
    path = tmp_path / "covers.json"
    path.write_text(json.dumps(job))
    code, out, err = run_cli(capsys, "covers-check", "--input", str(path))
    assert code == 2 and not out
    assert f"{points} points" in err and "cap 100000" in err


def test_covers_grid_at_the_cap_passes_the_check(tmp_path, capsys,
                                                 monkeypatch):
    seen = []

    def small(ranges):
        seen.append(ranges)
        return [(0, 0)]

    monkeypatch.setattr(cli, "grid_points", small)
    job = {"pairs": 1, "sequences": [], "sets": [],
           "grid": [["0", "99999", "1"], ["0", "0", "1"]]}
    path = tmp_path / "covers.json"
    path.write_text(json.dumps(job))
    code, out, _ = run_cli(capsys, "covers-check", "--input", str(path))
    assert code == 0 and len(seen) == 1
    assert json.loads(out)["options"]["grid_size"] == 1


def test_covers_job_with_no_pairs_is_accepted(tmp_path, capsys):
    path = tmp_path / "covers.json"
    path.write_text(json.dumps({"pairs": 0, "sequences": [], "sets": [],
                                "grid": []}))
    code, out, _ = run_cli(capsys, "covers-check", "--input", str(path))
    assert code == 0 and json.loads(out)["options"] == {"grid_size": 1,
                                                        "pairs": 0}


def test_zero_smoothing_denominator_is_an_input_error(tmp_path, capsys):
    job = {"pairs": 1, "sequences": [["q1 - 1"]], "sets": ["q1"],
           "grid": [["-1", "1", "1"], ["-1", "1", "1"]],
           "smoothing": {"mode": "sum", "deltas": ["1/0"], "f1": ["q1"],
                         "f2": ["p1"]}}
    path = tmp_path / "covers.json"
    path.write_text(json.dumps(job))
    code, out, err = run_cli(capsys, "covers-check", "--input", str(path))
    assert code == 2 and not out and "malformed smoothing block" in err


@pytest.mark.parametrize("where", ["sequences", "sets", "smoothing"])
def test_zero_denominator_in_a_covers_polynomial_is_an_input_error(
        tmp_path, capsys, where):
    job = {"pairs": 1, "sequences": [["q1 - 1"]], "sets": ["q1"],
           "grid": [["0", "1", "1"], ["0", "1", "1"]]}
    if where == "smoothing":
        job["smoothing"] = {"mode": "sum", "deltas": ["1/2"],
                            "f1": ["q1 - 1/0"], "f2": ["p1"]}
    else:
        job[where] = [["q1 - 1/0"]] if where == "sequences" else ["q1 - 1/0"]
    path = tmp_path / "covers.json"
    path.write_text(json.dumps(job))
    code, out, err = run_cli(capsys, "covers-check", "--input", str(path))
    assert code == 2 and not out and err.startswith("descentlab: ")
    assert "'1/0'" in err


def test_covers_check_bundled_job_passes(capsys):
    code, out, _ = run_cli(capsys, "covers-check")
    assert code == 0
    report = json.loads(out)
    assert [c["id"] for c in report["checks"]] == \
        ["weak-cover-bullets", "stage-monotonicity"]


_BUNDLED_COVERS = cli._DEFAULT_COVER_JOB


@pytest.mark.parametrize("edit, field", [
    ({"grid": [["-2", "2", "1/2"], "021"]}, "grid[1]"),
    ({"grid": "ab"}, "grid"),
    ({"sequences": "q1"}, "sequences"),
    ({"sequences": ["q1 - 1"]}, "sequences[0]"),
    ({"sets": "q1"}, "sets"),
    ({"smoothing": {**_BUNDLED_COVERS["smoothing"], "deltas": "12"}}, "deltas"),
    ({"smoothing": {**_BUNDLED_COVERS["smoothing"], "f1": "q1"}}, "f1"),
    ({"smoothing": {**_BUNDLED_COVERS["smoothing"], "f2": "p1"}}, "f2"),
], ids=["grid-axis", "grid", "sequences", "sequence", "sets", "deltas", "f1",
        "f2"])
def test_covers_job_refuses_a_string_where_it_reads_a_list(tmp_path, capsys,
                                                          edit, field):
    # read character by character, the axis "021" would pass as
    # ["0", "2", "1"] and "q1" as the sequence ["q", "1"]
    path = tmp_path / "covers.json"
    path.write_text(json.dumps({**_BUNDLED_COVERS, **edit}))
    code, out, err = run_cli(capsys, "covers-check", "--input", str(path))
    assert code == 2 and not out
    assert f"{field} must be a JSON list, not " in err


@pytest.mark.parametrize("job, check", [
    ({"pairs": 1, "sequences": [["q1^10000"]], "sets": ["q1"],
      "grid": [["-2", "2", "1/2"], ["-2", "2", "1/2"]]},
     "weak-cover-bullets"),
    ({**_BUNDLED_COVERS, "smoothing": {**_BUNDLED_COVERS["smoothing"],
                                       "f1": ["q1^600", "q1^600"]}},
     "stage-monotonicity"),
    ({**_BUNDLED_COVERS,
      "grid": [["-1e200", "0", "1e200"], _BUNDLED_COVERS["grid"][1]],
      "smoothing": {**_BUNDLED_COVERS["smoothing"], "f1": ["q1", "q1"]}},
     "stage-monotonicity"),
], ids=["integer-too-long-to-print", "quotient-past-float",
        "square-past-float"])
def test_covers_check_value_out_of_range_is_an_input_error(tmp_path, capsys,
                                                          job, check):
    path = tmp_path / "covers.json"
    path.write_text(json.dumps(job))
    code, out, err = run_cli(capsys, "covers-check", "--input", str(path))
    assert code == 2 and not out
    assert err.startswith(f"descentlab: {check}: ") and "Traceback" not in err


def test_covers_exponent_over_the_cap_exits_before_any_power(tmp_path, capsys,
                                                             monkeypatch):
    def refuse(self, k):
        raise AssertionError("power taken before the exponent check")

    monkeypatch.setattr(Poly, "__pow__", refuse)
    job = {"pairs": 1, "sequences": [["q1^99999999"]], "sets": ["q1"],
           "grid": [["-2", "2", "1/2"], ["-2", "2", "1/2"]]}
    path = tmp_path / "covers.json"
    path.write_text(json.dumps(job))
    code, out, err = run_cli(capsys, "covers-check", "--input", str(path))
    assert code == 2 and not out
    assert "exponent 99999999 is over the cap 10000" in err


def test_covers_product_over_the_cap_exits_before_any_product(tmp_path, capsys,
                                                            monkeypatch):
    def refuse(self, other):
        raise AssertionError("polynomials multiplied before the degree check")

    monkeypatch.setattr(Poly, "__mul__", refuse)
    job = {"pairs": 1, "sequences": [["q1^10000*q1"]], "sets": ["q1"],
           "grid": [["-2", "2", "1/2"], ["-2", "2", "1/2"]]}
    path = tmp_path / "covers.json"
    path.write_text(json.dumps(job))
    code, out, err = run_cli(capsys, "covers-check", "--input", str(path))
    assert code == 2 and not out
    assert "a product of degree 10001 is over the cap 10000" in err


def test_bv_check_failure_is_reported(monkeypatch, capsys):
    witness = ("leibniz", "x1*xi1", "xi2", "x2")

    def failing(**_):
        raise AxiomFailure(witness=witness)

    monkeypatch.setattr(cli, "bv_axiom_check", failing)
    code, out, err = run_cli(capsys, "bv-check")
    assert code == 1 and not err
    check = json.loads(out)["checks"][0]
    assert check == {"id": "bv-axioms", "ok": False, "axiom": "leibniz",
                     "witness": ["x1*xi1", "xi2", "x2"]}
    code, out, err = run_cli(capsys, "bv-check", "--format", "text")
    assert code == 1 and not err
    assert 'FAIL bv-axioms  {"axiom": "leibniz", "witness": ' \
        '["x1*xi1", "xi2", "x2"]}' in out.splitlines()
    assert out.endswith("overall: FAIL\n")


def test_p1_demo(capsys):
    code, out, _ = run_cli(capsys, "p1-demo", "--laurent-cutoff", "5")
    assert code == 0
    ids = [c["id"] for c in json.loads(out)["checks"]]
    assert ids == ["p1-cech-betti", "p1-slice-oracle", "p1-chart-discrepancy"]


def test_module_entrypoint_subprocess():
    env = dict(os.environ)
    env.pop("DESCENTLAB_THREADS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "descentlab.cli", "validate"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"]


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert cli._parser() is cli._parser()
    code, out, _ = run_cli(capsys, "tw", "--weight-cutoff", "5")
    assert code == 0
    assert json.loads(out)["options"] == {"weight_cutoff": 5}
    code, out, _ = run_cli(capsys, "tw")
    assert code == 0
    # the bundled triangle has two sets, the default cutoff
    assert json.loads(out)["options"] == {"weight_cutoff": 2}
