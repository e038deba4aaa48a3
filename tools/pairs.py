"""Alternating benchmark pairs of a parent revision and the working tree.

    python3 tools/pairs.py --parent HEAD~1 --workload factorization --pairs 10 --seconds 8 --seed 7
    python3 tools/pairs.py --parent HEAD~1 --workload kan-lifting --json BENCH_27.json
    python3 tools/pairs.py --trajectory

Run from anywhere inside a git checkout.  Both sides run from copies in one
temporary directory, which is removed on exit, also after an error or an
interrupt: the parent revision as ``git archive`` writes it, and the
working tree as its files that git tracks or does not ignore.  A side run
from the checkout itself read peak_rss_mb about 1 % higher than the same
code run from a copy, so neither side runs there.  Each pair runs
``perfbench/run.py`` once from each copy, one after the other and never in
parallel; the side that goes first alternates from pair to pair, so a
drift in machine speed does not favour one side.

For every end-to-end metric (read from the working tree's
``BENCHMARK.json``) it prints each pair's two values, each side's median
and quartiles, and how many pairs the working tree won: a pair is won when
its value is better in the metric's direction, and a tie is won by
neither side.

``--json PATH`` also writes the comparison to PATH: both revisions (the
working tree as its base commit and a digest of its diff under ``src/`` and
``perfbench/``), the Python version, the core count, the seed, the run
length and the number of pairs; every end-to-end metric with each side's
values per pair, median and quartiles, and the pairs won; and every item's
per-pair medians on each side, read from ``perfbench/out/*-trace0.json``,
with their median and quartiles.

``--trajectory`` runs nothing: it prints, as one Markdown table, pass_s and
op_ms_p50 of every ``BENCH_<n>.json`` committed at HEAD, in the order of n,
each as the parent's median -> the change's median with the pairs won.

Standard library only.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SCHEMA = 1
TRAJECTORY = ("pass_s", "op_ms_p50")


def git(*args: str, cwd: Path) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                          capture_output=True).stdout.strip()


def copy_parent(root: Path, rev: str, dest: Path) -> None:
    """The files of revision ``rev`` in ``dest``, as ``git archive`` writes them."""
    with subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=root,
                          stdout=subprocess.PIPE) as proc:
        with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
            tar.extractall(dest)
    if proc.returncode:
        raise SystemExit(f"pairs: git archive {rev} failed")


def copy_working_tree(root: Path, dest: Path) -> None:
    """The working tree's files that git tracks or does not ignore, in ``dest``."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard", cwd=root)
    for name in filter(None, names.split("\0")):
        if (root / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest / name)


def run_bench(checkout: Path, args) -> tuple:
    """({metric: value} from the last line of one perfbench run in
    ``checkout``, {item: median ms} from the output file of that run)."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds)],
        cwd=checkout, check=True, text=True, capture_output=True).stdout
    last = json.loads(out.strip().splitlines()[-1])
    if not last["correct"] or last["failed"]:
        raise SystemExit(f"pairs: incorrect or failed operations in {checkout}: {last}")
    details = checkout / "perfbench" / "out" / f"{args.workload}-seed{args.seed}-trace0.json"
    items = json.loads(details.read_text())["items"]
    return ({name: m["value"] for name, m in last["metrics"].items()},
            {item["name"]: item["median_ms"] for item in items})


def run_pairs(parent_checkout: Path, change_checkout: Path, args) -> tuple:
    """(parent runs, change runs), one ``run_bench`` result per pair and
    side, the side that goes first alternating."""
    parent, change = [], []
    for i in range(args.pairs):
        sides = [(parent_checkout, parent), (change_checkout, change)]
        for checkout, runs in (sides if i % 2 == 0 else sides[::-1]):
            runs.append(run_bench(checkout, args))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    return parent, change


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def side(values: list) -> dict:
    q1, q2, q3 = quartiles(values)
    return {"values": values, "median": q2, "q1": q1, "q3": q3}


def describe(root: Path, parent_rev: str, args) -> dict:
    """The revisions, the machine and the run settings of a comparison."""
    diff = git("diff", "HEAD", "--", "src", "perfbench", cwd=root)
    return {
        "schema": SCHEMA,
        "workload": args.workload,
        "parent": {"rev": git("rev-parse", parent_rev, cwd=root)},
        "change": {"base": git("rev-parse", "HEAD", cwd=root),
                   "diff_sha256": hashlib.sha256(diff.encode()).hexdigest()},
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
    }


def summary(metrics: list, parent: list, change: list, about: dict) -> dict:
    """``about`` with every end-to-end metric in ``metrics`` (the entries of
    BENCHMARK.json) and every item that each run of both sides reports."""
    out = dict(about, metrics={}, items={})
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a = [run[0][name] for run in parent]
        b = [run[0][name] for run in change]
        out["metrics"][name] = {
            "unit": m["unit"], "better": m["better"], "parent": side(a), "change": side(b),
            "change_won": sum(y < x if lower else y > x for x, y in zip(a, b))}
    for name in parent[0][1]:
        if all(name in run[1] for run in parent + change):
            out["items"][name] = {"parent": side([run[1][name] for run in parent]),
                                  "change": side([run[1][name] for run in change])}
    return out


def report(s: dict) -> None:
    print(f"# {s['workload']} seed={s['seed']} seconds={s['seconds']} "
          f"parent={s['parent']['rev'][:7]} change=working tree on {s['change']['base'][:7]}")
    for name, m in s["metrics"].items():
        a, b = m["parent"]["values"], m["change"]["values"]
        print(f"\n{name} ({m['unit']}, {m['better']} is better)")
        for i, (x, y) in enumerate(zip(a, b)):
            ratio = y / x if x else float("nan")
            print(f"  pair {i + 1:2d}: parent {x:.6g}  change {y:.6g}  ratio {ratio:.4f}")
        for label in ("parent", "change"):
            q = m[label]
            print(f"  {label}: median {q['median']:.6g}  quartiles {q['q1']:.6g} .. "
                  f"{q['q3']:.6g}  IQR {q['q3'] - q['q1']:.6g}")
        print(f"  change won {m['change_won']} of {len(a)} pairs")


def committed_benches(root: Path) -> list:
    """(file name, record) of every BENCH_<n>.json committed at HEAD, by n."""
    names = git("ls-tree", "--name-only", "HEAD", cwd=root).splitlines()
    found = sorted((int(m.group(1)), name) for name in names
                   if (m := re.fullmatch(r"BENCH_(\d+)\.json", name)))
    return [(name, json.loads(git("show", f"HEAD:{name}", cwd=root))) for _, name in found]


def trajectory(benches: list) -> str:
    """The Markdown table of ``--trajectory`` for (file name, record) pairs."""
    rows = ["| file | workload | seed | pairs | parent | "
            + " | ".join(f"{name} parent -> change (won)" for name in TRAJECTORY) + " |",
            "| --- | --- | ---: | ---: | --- |" + " ---: |" * len(TRAJECTORY)]
    for file, b in benches:
        cells = []
        for name in TRAJECTORY:
            m = b["metrics"][name]
            cells.append(f"{m['parent']['median']:#.4g} -> {m['change']['median']:#.4g} "
                         f"({m['change_won']}/{b['pairs']})")
        rows.append(f"| {file} | {b['workload']} | {b['seed']} | {b['pairs']} | "
                    f"{b['parent']['rev'][:7]} | " + " | ".join(cells) + " |")
    return "\n".join(rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="revision to compare against")
    ap.add_argument("--workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--json", type=Path, help="also write the comparison to this file")
    ap.add_argument("--trajectory", action="store_true",
                    help="print the committed BENCH_<n>.json files as one table, run nothing")
    args = ap.parse_args(argv)
    root = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    if args.trajectory:
        print(trajectory(committed_benches(root)))
        return 0
    if not (args.parent and args.workload):
        ap.error("--parent and --workload are required unless --trajectory is given")
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("--pairs and --seconds must be positive")
    metrics = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    tmp = Path(tempfile.mkdtemp(prefix="pairs-"))
    try:
        copy_parent(root, args.parent, tmp / "parent")
        copy_working_tree(root, tmp / "change")
        s = summary(metrics, *run_pairs(tmp / "parent", tmp / "change", args),
                    describe(root, args.parent, args))
        report(s)
        if args.json:
            args.json.write_text(json.dumps(s, indent=1) + "\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
