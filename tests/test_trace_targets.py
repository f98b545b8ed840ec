"""The benchmark's traced run wraps program functions by name.

``perfbench/spans.py`` lists them in ``TARGETS``; ``Tracer.install`` looks
each one up in its module, so a renamed or deleted target would make every
``--trace 1`` run fail. One test installs and removes the wrappers once;
another runs one operation of each workload made by
``perfbench/workloads.py`` and pins which targets it never calls. Neither
edits anything under ``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

import equity_audit.cli  # imports every module the targets live in

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
WORKLOADS = SPANS.parent / "workloads.py"


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


# the targets no workload's operation calls, so their spans read 0 (ROADMAP
# item 2): no command calls the first four, and the last two run only under
# ``--format csv``, which no workload asks for
UNREACHED = {
    ("metrics", "model_access"),
    ("metrics", "utilization"),
    ("loopsim", "curate_ground_truth"),
    ("scoring", "ScoringTrace.to_json"),
    ("scoring", "ScoringTrace.to_csv"),
    ("reports", "long_csv"),
}


def test_only_the_known_targets_go_uncalled(tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses looks the module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    argvs = []
    for name, workload in workloads.WORKLOADS.items():
        # the loop's regime that fits group thresholds
        kind = workloads.LOOP_REGIMES.index("access_and_outcome") if name == "loop" else 0
        argvs += workload.make_op(1, 0, kind, tmp_path / name).argvs
    targets = {resolve(m, a).__code__: (m, a) for m, a, _, _ in load_spans().TARGETS}
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in targets:
            called.add(targets[frame.f_code])

    sys.setprofile(profile)
    try:
        statuses = [equity_audit.cli.main(argv) for argv in argvs]
    finally:
        sys.setprofile(None)
    assert statuses == [0] * len(argvs)
    uncalled = set(targets.values()) - called
    assert uncalled == UNREACHED, (
        "the benchmark's spans should wrap what the workloads run; retarget or delete "
        f"these as ROADMAP item 2 says: newly uncalled {sorted(uncalled - UNREACHED)}, "
        f"called again {sorted(UNREACHED - uncalled)}"
    )
