"""Alternating benchmark pairs of a parent revision and the working tree.

    python3 tools/pairs.py --parent HEAD~1 --workload factorization --pairs 10 --seconds 8 --seed 7

Run from anywhere inside a git checkout.  The parent revision is checked out
into a temporary ``git worktree``, which is removed on exit, also after an
error or an interrupt.  Each pair runs ``perfbench/run.py`` once from the
parent's worktree and once from the working tree, one after the other and
never in parallel; the side that goes first alternates from pair to pair,
so a drift in machine speed does not favour one side.

For every end-to-end metric (read from the working tree's
``BENCHMARK.json``) it prints each pair's two values, each side's median
and quartiles, and how many pairs the working tree won: a pair is won when
its value is better in the metric's direction, and a tie is won by
neither side.  Standard library only.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def git(*args: str, cwd: Path) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                          capture_output=True).stdout.strip()


def run_bench(checkout: Path, args) -> dict:
    """{metric: value} from the last line of one perfbench run in ``checkout``."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds)],
        cwd=checkout, check=True, text=True, capture_output=True).stdout
    last = json.loads(out.strip().splitlines()[-1])
    if not last["correct"] or last["failed"]:
        raise SystemExit(f"pairs: incorrect or failed operations in {checkout}: {last}")
    return {name: m["value"] for name, m in last["metrics"].items()}


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(metrics: list, parent: list, change: list) -> None:
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a = [run[name] for run in parent]
        b = [run[name] for run in change]
        won = sum(y < x if lower else y > x for x, y in zip(a, b))
        print(f"\n{name} ({m['unit']}, {m['better']} is better)")
        for i, (x, y) in enumerate(zip(a, b)):
            ratio = y / x if x else float("nan")
            print(f"  pair {i + 1:2d}: parent {x:.6g}  change {y:.6g}  ratio {ratio:.4f}")
        for side, values in (("parent", a), ("change", b)):
            q1, q2, q3 = quartiles(values)
            print(f"  {side}: median {q2:.6g}  quartiles {q1:.6g} .. {q3:.6g}  IQR {q3 - q1:.6g}")
        print(f"  change won {won} of {len(a)} pairs")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("--pairs and --seconds must be positive")
    root = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    metrics = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    tmp = Path(tempfile.mkdtemp(prefix="pairs-"))
    worktree = tmp / "parent"
    try:
        git("worktree", "add", "--detach", str(worktree), args.parent, cwd=root)
        parent, change = [], []
        for i in range(args.pairs):
            sides = [(worktree, parent), (root, change)]
            for checkout, runs in (sides if i % 2 == 0 else sides[::-1]):
                runs.append(run_bench(checkout, args))
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
        print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
              f"parent={git('rev-parse', '--short', args.parent, cwd=root)} change=working tree")
        report(metrics, parent, change)
    finally:
        if worktree.exists():
            subprocess.run(["git", "worktree", "remove", "--force", str(worktree)], cwd=root,
                           capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=root, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
