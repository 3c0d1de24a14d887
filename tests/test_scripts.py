"""Each demo under scripts/ runs to completion on small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("argv", DEMOS, ids=[argv[0] for argv in DEMOS])
def test_demo_exits_cleanly(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]),
                           *argv[1:]], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
