"""Spans for the traced run, recorded from outside the program.

:class:`Tracer` replaces each timed public function at every place the
program binds it (``train`` is imported by name into ``loopsim``,
``scoring`` and ``dataio``; ``restrict`` is a method) with a wrapper that
records a span: layer, start, end, parent and, for some layers, a count of
the work done. Spans stay in memory until the run writes them out.
Functions called once per person (``Individual.__post_init__``,
``obstacle_magnitude``, ``apply_policy``) are not wrapped: at about 10^5
calls per operation a wrapper there would measure itself.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter


def _rows(index):
    return lambda args, kwargs, result: len(args[index])


def _result_len(args, kwargs, result):
    # a student table, a population, or the (preds, labels, groups, y_tt) tuple
    return len(result[0]) if isinstance(result, tuple) else len(result)


def _text_bytes(args, kwargs, result):
    return len(result.encode())


def _file_bytes(args, kwargs, result):
    return Path(args[1]).stat().st_size


def repeat_candidates(records) -> int:
    """Utilization candidates that repeat one already tried in the same iteration."""
    seen, repeats = set(), 0
    for r in records:
        if r["phase"] == "utilization":
            key = (r["iter"], r["spec_id"], r["policy_id"])
            repeats += key in seen
            seen.add(key)
    return repeats


def _search(args, kwargs, result):
    records = [r.to_dict() for r in result.records]
    return (len(records), repeat_candidates(records))


# (module, attribute, layer, count): the functions the traced run times
TARGETS = (
    ("learner", "train", "learner.train", _rows(2)),
    ("learner", "predict", "learner.predict", None),
    ("learner", "predict_proba", "learner.predict", None),
    ("learner", "predict_with_group_thresholds", "learner.predict", None),
    ("learner", "fit_group_thresholds", "learner.thresholds", None),
    ("learner", "candidate_group_thresholds", "learner.thresholds", None),
    ("core", "reveal_population", "core.reveal", _rows(0)),
    ("core", "Population.restrict", "core.restrict", None),
    ("loopsim", "generate_cohort", "loopsim.cohort", None),
    ("loopsim", "curate_ground_truth", "loopsim.curate", None),
    ("loopsim", "run_inequity_loop", "loopsim.loop", None),
    ("loopsim", "trajectory_to_csv", "reports.write", _text_bytes),
    ("metrics", "model_access", "metrics.access", None),
    ("metrics", "eo_violation", "metrics.outcome", None),
    ("metrics", "utilization", "metrics.utilization", _rows(0)),
    ("metrics", "compute_gap_report", "metrics.gaps", None),
    ("scoring", "run_equity_scoring", "scoring.search", _search),
    ("scoring", "ScoringTrace.to_json", "reports.write", _text_bytes),
    ("scoring", "ScoringTrace.to_csv", "reports.write", _text_bytes),
    ("dataio", "load_uci_students", "dataio.load", _result_len),
    ("dataio", "load_population_csv", "dataio.load", _result_len),
    ("dataio", "load_audit_csv", "dataio.load", _result_len),
    ("dataio", "load_model_document", "dataio.load", None),
    ("dataio", "build_case_study_views", "dataio.views", None),
    ("dataio", "run_case_study", "dataio.casestudy", None),
    ("reports", "write_json", "reports.write", _file_bytes),
    ("reports", "long_csv", "reports.write", _text_bytes),
    ("cli", "main", "cli", None),
)

# per-layer metric -> (layer, what): "self" is self time in seconds,
# "calls" the number of spans, "count" the summed counts and "count2" the
# summed second counts (the repeated candidates of a search)
LAYER_METRICS = {
    "learner.train_s": ("learner.train", "self"),
    "learner.train_calls": ("learner.train", "calls"),
    "learner.train_rows": ("learner.train", "count"),
    "learner.predict_s": ("learner.predict", "self"),
    "learner.thresholds_s": ("learner.thresholds", "self"),
    "core.reveal_s": ("core.reveal", "self"),
    "core.reveal_rows": ("core.reveal", "count"),
    "core.restrict_s": ("core.restrict", "self"),
    "loopsim.cohort_s": ("loopsim.cohort", "self"),
    "loopsim.curate_s": ("loopsim.curate", "self"),
    "loopsim.self_s": ("loopsim.loop", "self"),
    "metrics.access_s": ("metrics.access", "self"),
    "metrics.outcome_s": ("metrics.outcome", "self"),
    "metrics.utilization_s": ("metrics.utilization", "self"),
    "metrics.utilization_records": ("metrics.utilization", "count"),
    "metrics.gaps_s": ("metrics.gaps", "self"),
    "scoring.self_s": ("scoring.search", "self"),
    "scoring.candidates": ("scoring.search", "count"),
    "scoring.repeat_candidates": ("scoring.search", "count2"),
    "dataio.load_s": ("dataio.load", "self"),
    "dataio.load_rows": ("dataio.load", "count"),
    "dataio.views_s": ("dataio.views", "self"),
    "dataio.casestudy_self_s": ("dataio.casestudy", "self"),
    "reports.write_s": ("reports.write", "self"),
    "reports.bytes": ("reports.write", "count"),
    "cli.self_s": ("cli", "self"),
}


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record."""

    def __init__(self):
        self.layer: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.count: list = []
        self.op: list[int] = []
        self._stack = [-1]
        self._current_op = -1
        self._saved: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- recording

    def _wrap(self, fn, layer: str, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.layer)
            self.layer.append(layer)
            self.parent.append(self._stack[-1])
            self.op.append(self._current_op)
            self.count.append(0)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()
            if count is not None:
                self.count[i] = count(args, kwargs, result)
            return result

        return traced

    def begin_op(self, index: int) -> int:
        """Open the root span of one operation."""
        self._current_op = index
        i = len(self.layer)
        self.layer.append("op")
        self.parent.append(-1)
        self.op.append(index)
        self.count.append(0)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack = [i]
        return i

    def end_op(self, span: int) -> None:
        self.end[span] = perf_counter()
        self._stack = [-1]
        self._current_op = -1

    # ------------------------------------------------------ installation

    def install(self) -> None:
        """Wrap every target at every module attribute bound to it."""
        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("equity_audit") and m]
        for module_name, attr, layer, count in TARGETS:
            home = sys.modules[f"equity_audit.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, layer, count))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, layer, count)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved = []

    # ------------------------------------------------------------ summary

    def op_metrics(self) -> dict[int, dict[str, float]]:
        """Per operation: every per-layer metric of :data:`LAYER_METRICS`."""
        child_time = [0.0] * len(self.layer)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        per_op: dict[int, dict[str, dict]] = {}
        for i, layer in enumerate(self.layer):
            acc = per_op.setdefault(self.op[i], {}).setdefault(layer, {"self": 0.0, "calls": 0, "count": 0, "count2": 0})
            acc["self"] += self.end[i] - self.start[i] - child_time[i]
            acc["calls"] += 1
            c = self.count[i]
            if isinstance(c, tuple):
                acc["count"] += c[0]
                acc["count2"] += c[1]
            else:
                acc["count"] += c
        empty = {"self": 0.0, "calls": 0, "count": 0, "count2": 0}
        return {
            op: {m: layers.get(layer, empty)[what] for m, (layer, what) in LAYER_METRICS.items()}
            for op, layers in per_op.items()
        }

    def medians(self) -> dict[str, float]:
        per_op = list(self.op_metrics().values())
        return {m: statistics.median(op[m] for op in per_op) for m in LAYER_METRICS}

    def write(self, path: Path) -> None:
        names = sorted(set(self.layer))
        code = {n: k for k, n in enumerate(names)}
        path.write_text(json.dumps({
            "layers": names,
            "columns": ["layer", "op", "parent", "start", "end", "count"],
            "spans": [
                [code[self.layer[i]], self.op[i], self.parent[i], self.start[i], self.end[i], self.count[i]]
                for i in range(len(self.layer))
            ],
        }) + "\n")
