"""Each demo under scripts/ runs to completion on small arguments."""

import argparse
import importlib.util
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from descentlab import complexes, presheaf

ROOT = Path(__file__).resolve().parent.parent

DEMOS = [
    ["bv_bracket_demo.py", "--max-degree", "2"],
    ["corner_smoothing_demo.py", "--grid-steps", "11"],
    ["descent_survey.py", "--count", "3"],
    ["p1_polyvector_demo.py", "--windows", "4"],
    ["telescope_torsion_demo.py", "--length", "3"],
]


def test_every_script_has_a_case():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == \
        sorted(argv[0] for argv in DEMOS)


def _run(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]),
                           *argv[1:]], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("argv", DEMOS, ids=[argv[0] for argv in DEMOS])
def test_demo_exits_cleanly(argv):
    assert _run(argv).strip()


def test_smoothing_demo_verdicts():
    # every exact sign agrees with the region, the diagonal translation
    # identity holds, and the three bundled stages increase
    lines = _run(["corner_smoothing_demo.py", "--grid-steps", "11"]).splitlines()
    survey = [line.split() for line in lines if "delta=" in line]
    assert sorted(words[:2] for words in survey) == sorted(
        [mode, f"delta={d}:"] for mode in ("intersection", "union")
        for d in ("1", "1/2", "1/4"))
    for words in survey:
        assert " ".join(words[2:]) == \
            "121 points, 0 sign mismatches, translation ok"
    assert "stage monotonicity on 289 points: ok" in lines


def test_telescope_demo_reads_the_rings_truncation_order(capsys):
    # den*E = 5/2: the ring keeps ceil(5/2) = 3 powers of u, so a length-5
    # telescope is compared from length 2 and its torsion is pure
    spec = importlib.util.spec_from_file_location(
        "telescope_torsion_demo", ROOT / "scripts" / "telescope_torsion_demo.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.run_job(demo.TelescopeJob(2, Fraction(5, 4), 5))
    out = capsys.readouterr().out
    assert "(truncation order 3)" in out and "torsion pure" in out


def test_telescope_demo_verdicts():
    lines = _run(["telescope_torsion_demo.py", "--length", "3"]).splitlines()
    settings = [line for line in lines if line.startswith("den=")]
    verdicts = [line for line in lines if "comparison from length" in line]
    assert len(settings) == len(verdicts) == 3
    assert all(line.endswith("torsion pure") for line in verdicts)


@pytest.mark.parametrize("den, exponent, length, built", [
    (1, Fraction(3), 5, [2, 5]),       # m = 3: the comparison's two ends
    (2, Fraction(5, 4), 2, [2]),       # m = 3: too short to compare
], ids=["length-over-m", "length-under-m"])
def test_telescope_demo_builds_each_telescope_once(capsys, monkeypatch, den,
                                                   exponent, length, built):
    spec = importlib.util.spec_from_file_location(
        "telescope_torsion_demo", ROOT / "scripts" / "telescope_torsion_demo.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    calls = []
    build = complexes.telescope

    def counted(terms, maps):
        calls.append(len(terms))
        return build(terms, maps)

    monkeypatch.setattr(complexes, "telescope", counted)
    monkeypatch.setattr(demo, "telescope", counted)
    demo.run_job(demo.TelescopeJob(den, exponent, length))
    assert calls == built


def test_survey_builds_one_cech_complex_per_seed(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "descent_survey", ROOT / "scripts" / "descent_survey.py")
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    built = []
    init = presheaf.CechComplex.__init__

    def counted(self, F):
        built.append(F)
        init(self, F)

    monkeypatch.setattr(presheaf.CechComplex, "__init__", counted)
    args = argparse.Namespace(max_sets=3, max_dim=3, width=3)
    for seed in range(3):
        built.clear()
        survey.survey_one(args, seed)
        assert len(built) == 1
