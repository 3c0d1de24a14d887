"""Every wrap target of the traced benchmark run exists in the package.

``perfbench/spans.py`` names its targets as "module:attribute path"; a
renamed or deleted function would otherwise surface only when a traced
benchmark run fails with WrapTargetMissing.  The file is loaded by path and
only read.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return [target for _, target, _, _ in mod.TARGETS]


def test_every_span_target_resolves():
    targets = _targets()
    assert targets
    missing = []
    for target in targets:
        modname, path = target.split(":")
        obj = importlib.import_module(f"descentlab.{modname}")
        for attr in path.split("."):
            obj = vars(obj).get(attr) if hasattr(obj, "__dict__") else None
            if obj is None:
                missing.append(target)
                break
    assert not missing, missing
