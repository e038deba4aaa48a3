"""Closed-loop benchmark of the sccat decision procedures.

    python3 perfbench/run.py --workload kan-lifting --seed 1 --seconds 30 --trace 0

Workloads: kan-lifting, weak-equivalence, factorization (see workloads.py).

Run from the root of a checkout; the package is imported from ./src.  One
caller in one process and one thread sends the next operation only after
the previous one returned.  The run repeats passes over the workload's
item list until ``--seconds`` have elapsed, finishing the pass under way;
the seed fixes each pass's item order and vertex relabelling.  Each
operation builds its inputs and makes one call inside the timed region;
its answer is checked against the hand-written expectation outside it.

Times are reported at a reference interpreter speed.  Where cores are
shared with other work, the speed of the same Python code can drift by 2x
over minutes, which would swamp any change worth measuring.  So a short
fixed calibration loop is timed right before and right after each timed
region (the loop after one region serves as the one before the next), and
the region's time is multiplied by ``CALIBRATION_REF_S`` over the mean of
the two.  Raw times are kept in the diagnostics file.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the run first makes untraced
passes, then wraps each layer's public functions and reports per-layer
metrics, including the tracing overhead.  Environment, per-item medians
and failures go to ``perfbench/out/`` (all spans too, when tracing).
"""
from __future__ import annotations

import argparse
import gzip
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import NamedTuple

import tracing
import workloads as wl

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
MODULES = ("verdict", "intmat", "sset", "homology", "pi1", "ssetcheck", "cat", "scat",
           "constructions_basic", "search", "words", "model")
SETUP_REPEATS = 15          # set-up is short; report the median of several
TRACE_UNTRACED_SHARE = 0.4  # share of a traced run spent on untraced passes
CALIBRATION_REF_S = 0.003   # calibration time that defines the reference speed


class BenchError(Exception):
    """The benchmark cannot run here (no package to measure)."""


class Op(NamedTuple):
    item: int
    seconds: float       # raw, timed region only
    scale: float         # to the reference speed
    outcome: str
    detail: str
    definite: bool
    verdict_key: str | None


def calibration_s() -> float:
    """Best of three timings of a fixed dict-, tuple- and int-bound loop."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        table = {}
        for i in range(4000):
            key = (i, i ^ 5, i % 7)
            table[key] = table.get(key[1:], 0) + len(key) + i * i
        best = min(best, perf_counter() - t0)
    return best


class Clock:
    """Times regions at the reference speed.  The calibration taken right
    after one region also serves as the one before the next."""

    def __init__(self):
        self.calibration = calibration_s()

    def time(self, fn):
        """(fn's result, raw seconds, scale to the reference speed)."""
        t0 = perf_counter()
        result = fn()
        seconds = perf_counter() - t0
        after = calibration_s()
        scale = CALIBRATION_REF_S / ((self.calibration + after) / 2)
        self.calibration = after
        return result, seconds, scale


def import_package() -> SimpleNamespace:
    """A fresh import of every sccat module from ./src."""
    if not (SRC / "sccat" / "__init__.py").is_file():
        raise BenchError(f"no sccat package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "sccat" or n.startswith("sccat.")]:
        del sys.modules[name]
    mods = {n: importlib.import_module(f"sccat.{n}") for n in MODULES}
    if Path(mods["sset"].__file__).resolve().parent != (SRC / "sccat").resolve():
        raise BenchError(f"sccat was imported from {mods['sset'].__file__}, not ./src")
    return SimpleNamespace(**mods)


def load(workload: str):
    S = import_package()
    return S, wl.build_items(workload, S)


def setup(workload: str):
    """(median seconds at reference speed, raw times, modules, items) of a
    fresh import plus the item list."""
    clock = Clock()
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        (S, items), seconds, scale = clock.time(lambda: load(workload))
        raw.append(seconds)
        scaled.append(seconds * scale)
    return statistics.median(scaled), raw, S, items


def is_definite(S, result) -> bool:
    """A yes/no verdict, a complete factorization or a stabilized pushout;
    other constructions count as definite once they return."""
    if isinstance(result, S.verdict.Verdict):
        return result.is_definite
    if isinstance(result, S.model.FactorResult):
        return result.complete
    if isinstance(result, S.words.PushoutResult):
        return result.stabilized
    return True


def run_op(S, clock: Clock, index: int, item, labels: dict, tracer) -> Op:
    scope = tracer.span(f"op.{item.name}") if tracer else nullcontext()

    def call():
        try:
            with scope:
                return item.run(labels)
        except Exception as exc:  # any raise is this operation's failure
            return exc
    out, seconds, scale = clock.time(call)
    if isinstance(out, Exception):
        return Op(index, seconds, scale, wl.RAISED, type(out).__name__, False, "raised")
    inputs, result = out
    outcome, detail = item.check(inputs, result)
    key = None
    if isinstance(result, S.verdict.Verdict) and result.kind == "unknown":
        key = f"unknown.{result.reason}"
    return Op(index, seconds, scale, outcome, detail, is_definite(S, result), key)


def run_passes(S, items, seed: int, first_pass: int, seconds: float, tracer=None):
    """Whole passes until ``seconds`` have elapsed."""
    passes = []
    clock = Clock()
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        pass_no = first_pass + len(passes)
        order = list(range(len(items)))
        random.Random(f"{seed}:{pass_no}:order").shuffle(order)
        labels = wl.relabellings(seed, pass_no)
        ops = [run_op(S, clock, i, items[i], labels, tracer) for i in order]
        passes.append({"ops": ops, "trace": tracer.take_pass() if tracer else None,
                       "raw_s": sum(op.seconds for op in ops),
                       "s": sum(op.seconds * op.scale for op in ops)})
    return passes


def end_to_end(passes, setup_s: float) -> dict:
    latencies = [op.seconds * op.scale * 1000.0 for p in passes for op in p["ops"]]
    ops = [op for p in passes for op in p["ops"]]
    p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(p["s"] for p in passes), "s"),
        "op_ms_p50": (statistics.median(latencies), "ms"),
        "op_ms_p90": (p90, "ms"),
        "decided_ratio": (sum(op.definite for op in ops) / len(ops), "ratio"),
        "ok_ratio": (sum(op.outcome == wl.OK for op in ops) / len(ops), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(untraced, traced) -> dict:
    per_pass = [tracing.pass_metrics(*p["trace"], [op.scale for op in p["ops"]])
                for p in traced]
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    for key in ("unknown.budget-exhausted", "unknown.undecided-group",
                "unknown.dimension-bound", "raised"):
        out[f"verdict.{key}"] = statistics.median(
            sum(op.verdict_key == key for op in p["ops"]) for p in traced)
    out["trace.overhead_ratio"] = (
        statistics.median(p["s"] for p in traced) / statistics.median(p["s"] for p in untraced))
    units = {name: "s" if name.endswith("_s") else
             "ratio" if name.endswith("_ratio") else "count" for name in out}
    return {name: (value, units[name]) for name, value in out.items()}


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def diagnostics(args, items, passes, setup_raw: list) -> dict:
    """Environment, per-item medians, raw pass times and every distinct failure."""
    per_item = {}
    failures = {}
    for p in passes:
        for op in p["ops"]:
            per_item.setdefault(op.item, []).append(
                (op.seconds * op.scale * 1000.0, op.seconds * 1000.0))
            if op.outcome != wl.OK:
                failures.setdefault(items[op.item].name, f"{op.outcome}: {op.detail}")
    return {
        "env": {"python": platform.python_version(),
                "implementation": platform.python_implementation(),
                "git_sha": git_sha(), "nproc": os.cpu_count(),
                "platform": platform.platform(), "workload": args.workload,
                "seed": args.seed, "run_seconds": args.seconds, "trace": args.trace,
                "setup_repeats": SETUP_REPEATS, "calibration_ref_s": CALIBRATION_REF_S},
        "setup_raw_s": setup_raw,
        "passes": [{"s": p["s"], "raw_s": p["raw_s"]} for p in passes],
        "op_samples": sum(len(p["ops"]) for p in passes),
        "items": [{"name": it.name, "budget": it.budget, "probe": it.probe,
                   "samples": len(per_item[i]),
                   "median_ms": statistics.median(t for t, _ in per_item[i]),
                   "raw_median_ms": statistics.median(r for _, r in per_item[i]),
                   "roadmap_ms": it.roadmap_ms}
                  for i, it in enumerate(items)],
        "failures": failures,
    }


def write_spans(path: Path, traced) -> None:
    """All spans of the traced passes (raw seconds), one JSON array per pass."""
    with gzip.open(path, "wt") as fh:
        for p in traced:
            fh.write(json.dumps(p["trace"][0]))
            fh.write("\n")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        setup_s, setup_raw, S, items = setup(args.workload)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        untraced = run_passes(S, items, args.seed, 0, args.seconds * TRACE_UNTRACED_SHARE)
        tracer = tracing.Tracer()
        tracer.install(vars(S))
        traced = run_passes(S, items, args.seed, len(untraced),
                            args.seconds * (1 - TRACE_UNTRACED_SHARE), tracer)
        passes = untraced + traced
        metrics = per_layer(untraced, traced)
    else:
        passes = run_passes(S, items, args.seed, 0, args.seconds)
        metrics = end_to_end(passes, setup_s)

    ops = [op for p in passes for op in p["ops"]]
    correct = not any(op.outcome == wl.WRONG
                      or (op.outcome == wl.RAISED and not items[op.item].probe)
                      for op in ops)
    report = diagnostics(args, items, passes, setup_raw)
    report["metrics"] = {name: value for name, (value, _) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        write_spans(OUT / f"{stem}-spans.jsonl.gz", traced)
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} "
          f"op_samples={len(ops)} failures={report['failures']} "
          f"details: perfbench/out/{stem}.json")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(op.outcome != wl.OK for op in ops),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
