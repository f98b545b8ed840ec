"""The four workloads: the inputs each one makes and what one operation runs.

Every operation is one or two ``equity-audit`` commands driven in-process
through ``equity_audit.cli.main``. Inputs are written by this module, never
by the program's generators, and every operation gets its own seed and its
own files, so nothing the program might keep between calls can be reused.

A workload's operations come in rounds. A round is the same list of
operation kinds in every run (the four regimes for ``loop``, the picked
search seeds for ``score``), so every run times the same mix.
"""

from __future__ import annotations

import functools
import importlib.util
import json
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

LOOP_REGIMES = ("no_equity", "access_only", "access_and_outcome", "full_equity")
LOOP_ROUNDS = 10
# people per simulated round in the CLI's default loop configuration
LOOP_COHORT = 4000

# search seeds for ``score``: each converges after walking past 8 to 10
# rejected candidates (README.md lists the walk of each)
SCORE_SEARCH_SEEDS = (40, 66, 75, 43, 62, 86, 76, 55)
SCORE_ROWS = 2000
SCORE_MAX_OUTER = 100
SCORE_MAX_INNER = 25

STUDENT_ROWS = 395
CASESTUDY_REGIMES = 8

AUDIT_ROWS = 200_000


def op_seed(run_seed: int, workload: str, index: int) -> int:
    """The 31-bit seed of the ``index``-th operation of a run."""
    tag = sum(ord(c) << (8 * i) for i, c in enumerate(workload[:4]))
    state = np.random.SeedSequence([run_seed, tag, index]).generate_state(1)[0]
    return int(state) & 0x7FFFFFFF


@dataclass
class Op:
    """One operation: the commands to time and what its checks need."""

    workload: str
    index: int
    seed: int
    work_dir: Path
    argvs: list[list[str]]
    context: dict = field(default_factory=dict)

    @property
    def out_dir(self) -> Path:
        return self.work_dir / "out"

    def argvs_into(self, out_dir: Path) -> list[list[str]]:
        """The same commands, writing to (and reading outputs from) ``out_dir``."""
        old, new = str(self.out_dir), str(out_dir)
        return [[new + a[len(old):] if a == old or a.startswith(old + "/") else a for a in argv] for argv in self.argvs]


# --------------------------------------------------------------------- loop


def make_loop_op(run_seed: int, index: int, kind: int, work_dir: Path) -> Op:
    seed = op_seed(run_seed, "loop", index)
    regime = LOOP_REGIMES[kind]
    out = work_dir / "out"
    argv = [
        "--seed", str(seed), "--out", str(out),
        "simulate-loop", "--regime", regime, "--rounds", str(LOOP_ROUNDS),
    ]
    return Op("loop", index, seed, work_dir, [argv], {"regime": regime})


def loop_items(op: Op) -> int:
    return LOOP_ROUNDS * LOOP_COHORT


# -------------------------------------------------------------------- score

# Proxy (decision-side) features. ``a*`` read the latent score with little
# noise, ``a2`` is degraded by obstacles, ``b*`` mostly encode the group.
PROXY_FEATURES = ("a0", "a1", "a2", "b0", "b1")
PROXY_ALPHA = (0.0, 0.0, 1.0, 0.0, 0.0)
PROXY_SPECS = (("a0", "a1"), ("a0", "a2"), ("b0",), ("b1",))
# Intended (evaluation-side) features: ``t*`` read the latent score,
# ``t1``/``t2`` are degraded by obstacles, ``u*`` are weak or pure noise.
INTENDED_FEATURES = ("t0", "t1", "t2", "u0", "u1")
INTENDED_ALPHA = (0.0, 1.0, 1.0, 0.0, 0.0)
INTENDED_SPECS = (("t1", "t2"), ("u0", "u1"), ("u1",), ("t0", "u0"))
SCORE_POLICIES = (0.0, 0.3, "inf")


def policy_delta(value) -> float:
    return float("inf") if value == "inf" else float(value)


def make_score_population(seed: int, n: int = SCORE_ROWS) -> dict:
    """Both views of one seeded population, as plain arrays.

    The label is the sign of a latent score. About 15 % of group 0 and
    45 % of group 1 face obstacles, which lower the affected features by
    an exponential amount with mean 3 (``z - x``); the label does not move.
    The gates then have wide margins: unaffected or fully alleviated views
    keep every access rate at 1 and the odds gap small, while an
    unalleviated obstacle or a group-coded feature misses its gate by far.
    """
    rng = np.random.default_rng([seed, 5501])
    latent = rng.normal(size=n)
    grp = (rng.random(n) < 0.5).astype(int)
    flagged = rng.random(n) < np.where(grp == 1, 0.45, 0.15)
    y = (latent > 0).astype(int)

    def view(cols: dict, alpha: tuple) -> tuple[np.ndarray, np.ndarray]:
        z = np.column_stack(list(cols.values()))
        deg = rng.exponential(3.0, size=z.shape)
        affected = np.array(alpha) > 0
        x = np.where(flagged[:, None] & affected[None, :], z - deg, z)
        return np.round(x, 6), np.round(z, 6)

    proxy_x, proxy_z = view(
        {
            "a0": latent + rng.normal(scale=0.15, size=n),
            "a1": latent + rng.normal(scale=0.15, size=n),
            "a2": latent + rng.normal(scale=0.15, size=n),
            "b0": 2.0 * grp + 0.3 * latent + rng.normal(scale=0.3, size=n),
            "b1": -2.0 * grp + 0.3 * latent + rng.normal(scale=0.3, size=n),
        },
        PROXY_ALPHA,
    )
    intended_x, intended_z = view(
        {
            "t0": 0.2 * latent + rng.normal(size=n),
            "t1": latent + rng.normal(scale=0.15, size=n),
            "t2": latent + rng.normal(scale=0.15, size=n),
            "u0": rng.normal(size=n),
            "u1": 0.3 * latent + rng.normal(size=n),
        },
        INTENDED_ALPHA,
    )
    ids = [f"p{seed}-{i}" for i in range(n)]
    return {
        "ids": ids, "group": grp, "y": y,
        "proxy": (proxy_x, proxy_z), "intended": (intended_x, intended_z),
    }


def write_population_csv(path: Path, names, ids, grp, y, x, z) -> None:
    header = ["id", "group", "y", "y_prime"] + [f"x_{f}" for f in names] + [f"z_{f}" for f in names]
    lines = [",".join(header)]
    for i in range(len(ids)):
        cells = [ids[i], str(grp[i]), str(y[i]), str(y[i])]
        cells += [repr(float(v)) for v in x[i]] + [repr(float(v)) for v in z[i]]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def _space_doc(dataset: Path, alpha, specs) -> dict:
    return {
        "dataset": str(dataset),
        "alpha": list(alpha),
        "specs": [{"features": list(s)} for s in specs],
        "policies": list(SCORE_POLICIES),
    }


def make_score_op(run_seed: int, index: int, kind: int, work_dir: Path) -> Op:
    data_seed = op_seed(run_seed, "score", index)
    pop = make_score_population(data_seed)
    work_dir.mkdir(parents=True, exist_ok=True)
    proxy_csv = work_dir / "proxy.csv"
    intended_csv = work_dir / "intended.csv"
    write_population_csv(proxy_csv, PROXY_FEATURES, pop["ids"], pop["group"], pop["y"], *pop["proxy"])
    write_population_csv(intended_csv, INTENDED_FEATURES, pop["ids"], pop["group"], pop["y"], *pop["intended"])
    spaces = work_dir / "spaces.json"
    spaces.write_text(json.dumps({
        # absolute dataset paths: the CLI resolves relative ones against
        # the current directory, not against the spaces file
        "proxy": _space_doc(proxy_csv.resolve(), PROXY_ALPHA, PROXY_SPECS),
        "intended": _space_doc(intended_csv.resolve(), INTENDED_ALPHA, INTENDED_SPECS),
    }, indent=2))
    search_seed = SCORE_SEARCH_SEEDS[kind]
    argv = ["--seed", str(search_seed), "--out", str(work_dir / "out"), "score", str(spaces)]
    return Op("score", index, data_seed, work_dir, [argv], {
        "proxy_csv": proxy_csv, "search_seed": search_seed,
    })


def score_items(op: Op) -> int:
    doc = json.loads((op.out_dir / "scoring_trace.json").read_text())
    return len(doc["records"])


# ---------------------------------------------------------------- casestudy


@functools.cache
def _student_module():
    path = ROOT / "scripts" / "make_student_sample.py"
    spec = importlib.util.spec_from_file_location("make_student_sample", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_casestudy_op(run_seed: int, index: int, kind: int, work_dir: Path) -> Op:
    students_module = _student_module()
    seed = op_seed(run_seed, "casestudy", index)
    work_dir.mkdir(parents=True, exist_ok=True)
    students = work_dir / "students.csv"
    students_module.write_csv(students_module.generate(seed=seed, n=STUDENT_ROWS), students)
    out = work_dir / "out"
    return Op("casestudy", index, seed, work_dir, [
        ["--seed", str(seed), "--out", str(out), "casestudy", str(students)],
        ["--out", str(out), "gaps", str(out / "proxy_model.json"), str(out / "intended_model.json")],
    ])


def casestudy_items(op: Op) -> int:
    return STUDENT_ROWS * CASESTUDY_REGIMES


# -------------------------------------------------------------------- audit


def make_audit_arrays(seed: int, n: int = AUDIT_ROWS) -> dict:
    """A prediction log whose error rates differ by group."""
    rng = np.random.default_rng([seed, 7703])
    group = (rng.random(n) < 0.45).astype(np.int64)
    label = (rng.random(n) < np.where(group == 1, 0.35, 0.5)).astype(np.int64)
    hit = np.where(label == 1, np.where(group == 1, 0.7, 0.8), np.where(group == 1, 0.1, 0.2))
    pred = (rng.random(n) < hit).astype(np.int64)
    y_tt = (rng.random(n) < np.where(label == 1, 0.9, 0.25)).astype(np.int64)
    return {"pred": pred, "label": label, "group": group, "y_tt": y_tt}


def make_audit_op(run_seed: int, index: int, kind: int, work_dir: Path) -> Op:
    seed = op_seed(run_seed, "audit", index)
    arrays = make_audit_arrays(seed)
    work_dir.mkdir(parents=True, exist_ok=True)
    log = work_dir / "predictions.csv"
    body = np.column_stack([arrays["pred"], arrays["label"], arrays["group"], arrays["y_tt"]])
    rows = (",".join(map(str, r)) for r in body.tolist())
    log.write_text("pred,label,group,y_tt\n" + "\n".join(rows) + "\n")
    argv = ["--out", str(work_dir / "out"), "audit", str(log)]
    return Op("audit", index, seed, work_dir, [argv], {"arrays": arrays})


def audit_items(op: Op) -> int:
    return AUDIT_ROWS


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: int  # operations per round
    make_op: Callable[[int, int, int, Path], Op]  # (run seed, index, kind, work dir)
    items: Callable[[Op], int]


WORKLOADS = {
    "loop": Workload("loop", len(LOOP_REGIMES), make_loop_op, loop_items),
    "score": Workload("score", len(SCORE_SEARCH_SEEDS), make_score_op, score_items),
    "casestudy": Workload("casestudy", 1, make_casestudy_op, casestudy_items),
    "audit": Workload("audit", 1, make_audit_op, audit_items),
}
