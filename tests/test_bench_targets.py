"""Every wrap target of the traced benchmark run exists and is reached.

``perfbench/spans.py`` names its targets as "module:attribute path"; a
renamed or deleted function would otherwise surface only when a traced
benchmark run fails with WrapTargetMissing, and a target that the ``forms``,
``scalar`` or ``cli`` workload no longer calls only when its traced run
reports it unreached.
The benchmark files are loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _targets():
    return [target for _, target, _, _ in _load("spans").TARGETS]


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


def _run_tour(name, workdir):
    """The tour of one workload, run in process under the span wrappers as
    a traced benchmark run does (seed 1); the tracer that recorded it."""
    spans, workloads = _load("spans"), _load("workloads")
    work = workloads.WORKLOADS[name]()
    work.plan(1)
    work.setup(1, str(workdir))
    tracer = spans.Tracer()
    for i, job in enumerate(work.tour()):
        inp = work.fresh(job)
        tracer.install(i)
        try:
            ok, detail = work.run(job, inp)
        finally:
            tracer.uninstall()
        assert ok, detail
    return tracer


def test_forms_tour_reaches_every_forms_target(tmp_path):
    assert _run_tour("forms", tmp_path).unreached("forms") == []


def test_scalar_tour_reaches_every_scalar_target(tmp_path):
    assert _run_tour("scalar", tmp_path).unreached("scalar") == []


def test_cli_tour_reaches_every_cli_target(tmp_path):
    assert _run_tour("cli", tmp_path).unreached("cli") == []
