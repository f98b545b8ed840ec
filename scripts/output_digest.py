#!/usr/bin/env python3
"""Print one sha256 per report file of a fixed set of runs, and of the listing.

Runs, in this process and into a temporary directory, one operation of
every kind the benchmark times (the four ``simulate-loop`` regimes, the
eight ``score`` search seeds, ``casestudy`` followed by ``gaps``, and
``audit``, on inputs made by ``perfbench/workloads.py``), plus
``casestudy --seed 7`` on the bundled student sample in both report
formats and under each regime filter of ``FILTERS``, given by a
``--config`` file. It then prints ``<sha256>  <path>`` for every output
file, sorted by path, then ``<sha256>  stdout/<nn>-<command>`` for what
the nn-th command printed, and last the sha256 of all those lines. Two
checkouts that print the same listing hash wrote byte-identical reports
and printed the same text. Run from anywhere:

    python3 scripts/output_digest.py [--seed N] [--against FILE]

``--seed`` is the benchmark run seed the inputs derive from (default 1).
``--against FILE`` compares with a listing this script printed before
(saved to FILE, say from another checkout at the same seed): it prints
only the paths whose hashes differ, each marked ``changed``, ``new`` (not
in FILE) or ``gone`` (only in FILE), and then a count. The program is
imported from ``src/`` of the same checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = ROOT / "tests" / "data" / "student_sample.csv"

# regime filters the sample's case study runs under: name -> config file text
FILTERS = {
    "eq_acc": "equal_access = true\n",
    "uneq_out-eq_util": "equal_outcome = false\nequal_utilization = true\n",
    "uneq_acc-eq_out-uneq_util": "equal_access = false\nequal_outcome = true\nequal_utilization = false\n",
}


def commands(run_seed: int, base: Path) -> list[list[str]]:
    """Every command to run, in order, writing under ``base``."""
    import workloads

    argvs = []
    for name, wl in workloads.WORKLOADS.items():
        for kind in range(wl.kinds):
            op = wl.make_op(run_seed, kind, kind, base / name / f"op{kind}")
            argvs += op.argvs
    for fmt in ("json", "csv"):
        argvs.append(["--seed", "7", "--format", fmt, "--out", str(base / "sample" / fmt / "out"), "casestudy", str(SAMPLE)])
    for name, text in FILTERS.items():
        config = base / "filters" / name / "run.toml"
        config.parent.mkdir(parents=True)
        config.write_text(text)
        argvs.append(["--config", str(config), "--seed", "7", "--out", str(config.parent / "out"), "casestudy", str(SAMPLE)])
    return argvs


def digest_lines(base: Path) -> list[str]:
    """``<sha256>  <path>`` for every output file under ``base``; inputs are left out."""
    files = sorted(p for p in base.rglob("*") if p.is_file() and "out" in p.relative_to(base).parts)
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(base).as_posix()}" for p in files]


def parse_listing(text: str) -> dict[str, str]:
    """``{path: sha256}`` of a listing; its closing ``listing`` line is left out."""
    pairs = (line.split("  ", 1) for line in text.splitlines() if line.strip())
    return {path: sha for sha, path in pairs if path != "listing"}


def compare(saved: dict[str, str], current: dict[str, str]) -> list[str]:
    """One line per path whose hash differs between the listings, then a count."""
    lines = []
    for path in sorted(saved.keys() | current.keys()):
        if path not in saved:
            lines.append(f"new      {path}")
        elif path not in current:
            lines.append(f"gone     {path}")
        elif saved[path] != current[path]:
            lines.append(f"changed  {path}")
    total = len(saved.keys() | current.keys())
    return lines + [f"{len(lines)} of {total} paths differ"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="benchmark run seed of the inputs")
    parser.add_argument("--against", type=Path, help="a saved listing to compare with")
    args = parser.parse_args(argv)
    saved = None if args.against is None else parse_listing(args.against.read_text())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from equity_audit import cli

    parser = cli.build_parser()
    printed = []
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        for k, argv_ in enumerate(commands(args.seed, base)):
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                code = cli.main(argv_)
            if code:
                print(f"error: exit {code} from {' '.join(argv_)}", file=sys.stderr)
                return 1
            sha = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
            printed.append(f"{sha}  stdout/{k:02d}-{parser.parse_args(argv_).command}")
        lines = digest_lines(base) + printed
    if saved is not None:
        for line in compare(saved, parse_listing("\n".join(lines))):
            print(line)
        return 0
    for line in lines:
        print(line)
    listing = "".join(line + "\n" for line in lines)
    print(f"{hashlib.sha256(listing.encode()).hexdigest()}  listing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
