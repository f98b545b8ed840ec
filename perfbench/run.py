#!/usr/bin/env python3
"""Benchmark of the equity-audit CLI: four workloads, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload loop --seed 1 --seconds 14 --trace 0

Workloads are ``loop``, ``score``, ``casestudy`` and ``audit`` (see
README.md). One process drives ``equity_audit.cli.main`` in-process, one
operation at a time, in whole rounds until ``--seconds`` have passed. Every
operation's outputs are checked outside the timed region.

With ``--trace 0`` the run reports the end-to-end metrics (``setup_s``,
``op_p50_s``, ``items_per_s``, ``peak_rss_mib``). With ``--trace 1`` each
operation is run twice on distinct inputs, once with span recording and
once without, and the run reports the per-layer metrics plus the tracing
overhead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Per-operation times,
the reference-loop time and (traced runs) the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 7
REFERENCE_REPEATS = 5


def load_cli():
    """Import the program from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "equity_audit" / "__init__.py").is_file():
        raise ImportError(f"no equity_audit package under {src}")
    sys.path.insert(0, str(src))
    from equity_audit import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"equity_audit was imported from {cli.__file__}, not {src}")
    return cli


def reference_ms() -> float:
    """A fixed pure-Python loop that calls no code of the program."""
    t0 = perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return (perf_counter() - t0) * 1000.0


def setup_probe(workload: str, seed: int, probe_dir: Path) -> None:
    """Child-process body: import the program, make the first inputs, report."""
    load_cli()
    import workloads

    wl = workloads.WORKLOADS[workload]
    wl.make_op(seed, 0, 0, probe_dir)
    print("ready", flush=True)


class SetupTimer:
    """Times set-up in fresh processes, spread over the run.

    Set-up is the wall time from starting a process to having imported the
    program and written the first operation's inputs. Probes are taken at
    evenly spaced points of the run, so that they sample the machine's
    state across the run and not at one moment.
    """

    def __init__(self, args, run_dir: Path):
        self.args = args
        self.run_dir = run_dir
        self.samples: list[float] = []
        self.spent = 0.0  # wall time taken by probes, which the run does not count

    def probe(self) -> None:
        probe_dir = self.run_dir / f"probe{len(self.samples)}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--seconds", "0", "--trace", "0",
               "--setup-probe", str(probe_dir)]
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.close()
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            self.spent += perf_counter() - t0
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode} without reporting ready")
        self.samples.append(elapsed)
        shutil.rmtree(probe_dir, ignore_errors=True)

    def catch_up(self, elapsed: float) -> None:
        """Take the probes that are due ``elapsed`` seconds into the operations."""
        while len(self.samples) < SETUP_PROBES and elapsed >= len(self.samples) * self.args.seconds / (SETUP_PROBES - 1):
            self.probe()

    def finish(self) -> float:
        while len(self.samples) < SETUP_PROBES:
            self.probe()
        return statistics.median(self.samples)


def run_commands(cli, argvs) -> tuple[float, list[int]]:
    """Time one operation's commands; their standard output is kept, not shown."""
    sink = io.StringIO()
    codes = []
    t0 = perf_counter()
    with contextlib.redirect_stdout(sink):
        for argv in argvs:
            codes.append(cli.main(argv))
    return perf_counter() - t0, codes


def run_op(cli, op, check, tracer=None) -> tuple[float, list[str]]:
    """Run, time and check one operation; returns its time and any problems."""
    try:
        if tracer is None:
            elapsed, codes = run_commands(cli, op.argvs)
        else:
            tracer.install()
            span = tracer.begin_op(op.index)
            try:
                elapsed, codes = run_commands(cli, op.argvs)
            finally:
                tracer.end_op(span)
                tracer.uninstall()
        if any(codes):
            return elapsed, [f"{op.workload} op {op.index}: exit codes {codes}"]
        return elapsed, check(op)
    except Exception:  # one broken operation must not end the run
        return 0.0, [f"{op.workload} op {op.index}: {traceback.format_exc()}"]


def repeat_problems(cli, op) -> list[str]:
    """Byte stability: the operation again, on the same input files."""
    repeat_dir = op.work_dir / "repeat"
    try:
        _, codes = run_commands(cli, op.argvs_into(repeat_dir))
    except Exception:
        return [f"repeat: {traceback.format_exc()}"]
    if any(codes):
        return [f"repeat: exit codes {codes}"]
    import checks

    return checks.compare_outputs(op.out_dir, repeat_dir)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("loop", "score", "casestudy", "audit"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", type=Path, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = load_cli()
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe is not None:
        setup_probe(args.workload, args.seed, args.setup_probe)
        return 0

    import checks
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    check = checks.CHECKS[args.workload]
    run_dir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    # set-up is an end-to-end metric; the traced run does not time it
    setup = None if tracer else SetupTimer(args, run_dir)
    times, traced_times, problems = [], [], []
    items = attempted = failed = rounds = 0
    try:
        reference_before = [reference_ms() for _ in range(REFERENCE_REPEATS)]
        first_failed = False
        start = perf_counter()

        def measured() -> float:
            return perf_counter() - start - (setup.spent if setup else 0.0)

        while rounds == 0 or measured() < args.seconds:
            for kind in range(wl.kinds):
                # traced runs time each kind twice, on distinct inputs, once
                # with spans and once without; which goes first alternates
                for traced in ((rounds % 2 == 0), (rounds % 2 == 1)) if tracer else (False,):
                    if setup:
                        setup.catch_up(measured())
                    op = wl.make_op(args.seed, attempted, kind, run_dir / f"op{attempted}")
                    elapsed, op_problems = run_op(cli, op, check, tracer if traced else None)
                    if op_problems:
                        failed += 1
                        problems += op_problems
                    elif traced:
                        traced_times.append(elapsed)
                    else:
                        times.append(elapsed)
                        items += wl.items(op)
                    if attempted == 0:
                        first, first_failed = op, bool(op_problems)
                    else:
                        shutil.rmtree(op.work_dir, ignore_errors=True)
                    attempted += 1
            rounds += 1
        stability = repeat_problems(cli, first)
        if stability:
            problems += stability
            failed += 0 if first_failed else 1
        setup_s = setup.finish() if setup else None
        reference_after = [reference_ms() for _ in range(REFERENCE_REPEATS)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if tracer:
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in tracer.medians().items()}
        overhead = statistics.median(traced_times) - statistics.median(times) if times and traced_times else 0.0
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        busy = sum(times)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_p50_s": {"value": statistics.median(times) if times else 0.0, "unit": "s"},
            "items_per_s": {"value": items / busy if busy else 0.0, "unit": "items/s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
        }

    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": rounds, "op_times_s": times, "traced_op_times_s": traced_times, "items": items,
        "setup_samples_s": setup.samples if setup else [],
        "reference_loop_ms": {"before": reference_before, "after": reference_after},
        "problems": problems, "metrics": metrics,
    }, indent=1) + "\n")

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload}: {rounds} rounds, {attempted} operations, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  reference loop (not a metric): {statistics.median(reference_before):.2f} ms before, "
          f"{statistics.median(reference_after):.2f} ms after")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    raise SystemExit(main())
