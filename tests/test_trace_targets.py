"""The benchmark's traced run wraps program functions by name.

``perfbench/spans.py`` lists them in ``TARGETS``; ``Tracer.install`` looks
each one up in its module, so a renamed or deleted target would make every
``--trace 1`` run fail. This test installs and removes the wrappers once
and reads nothing else of ``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

import equity_audit.cli  # noqa: F401  (imports every module the targets live in)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module_name: str, attr: str):
    owner = sys.modules[f"equity_audit.{module_name}"]
    if "." in attr:
        cls_name, attr = attr.split(".")
        return vars(getattr(owner, cls_name))[attr]
    return getattr(owner, attr)


def test_every_trace_target_resolves_and_is_restored():
    spans = load_spans()
    originals = {(m, a): resolve(m, a) for m, a, _, _ in spans.TARGETS}
    tracer = spans.Tracer()
    try:
        tracer.install()
        wrapped = {id(original) for _, _, original in tracer._saved}
        for key, original in originals.items():
            assert id(original) in wrapped, f"{key} was not wrapped"
            assert resolve(*key) is not original, f"{key} still points at the original"
    finally:
        tracer.uninstall()
    for key, original in originals.items():
        assert resolve(*key) is original, f"{key} was not restored"
