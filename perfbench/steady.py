"""Steadiness report for the benchmark.

    python3 perfbench/steady.py [--runs 10] [--seed 1] [--workloads analyze,screen]
                                [--repeat]

Runs ``run.py`` ``--runs`` times per workload, with seeds ``--seed``,
``--seed + 1``, ..., for ``run_seconds`` from BENCHMARK.json each, and
prints every end-to-end metric with its unit, sample count, median,
quartiles (``statistics.quantiles(values, n=4)``) and spread, the quartile
distance as a share of the median.  One traced run per workload adds
``trace.overhead_s``.

``--repeat`` runs the same seeds a second time and checks the two sets
against the bounds in BENCHMARK.json: every spread except that of
``setup_s`` within its bound, and every second median no worse than the
first by more than the bound.  The exit code is 1 if a check fails or a
run reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def run_set(label: str, bench: dict, workloads: list[str], runs: int, seed: int) -> tuple[dict, bool]:
    """Summaries per workload and metric, and whether every run was correct."""
    correct = True
    result = {}
    for w in workloads:
        rows = []
        for i in range(runs):
            row = run_once(w, seed + i, bench["run_seconds"], 0)
            correct &= row["correct"] and row["failed"] == 0
            rows.append(row)
            print(f"  [{label}] {w} seed {seed + i}: "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in row["metrics"].items()),
                  file=sys.stderr, flush=True)
        result[w] = {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in rows])
                     for m in bench["end_to_end"]}
    return result, correct


def print_set(label: str, bench: dict, result: dict) -> bool:
    ok = True
    print(f"\n{label}")
    print(f"{'workload':14s} {'metric':12s} {'unit':5s} {'n':>3s} {'median':>10s} "
          f"{'q1':>10s} {'q3':>10s} {'spread':>7s} {'bound':>6s}  verdict")
    for w, metrics in result.items():
        for m in bench["end_to_end"]:
            s = metrics[m["name"]]
            if m["name"] == "setup_s":
                verdict = "not checked"
            elif s["spread"] > m["bound"]:
                verdict, ok = "SPREAD > BOUND", False
            elif s["spread"] >= m["bound"] / 3:
                verdict = "within bound, above a third of it"
            else:
                verdict = "ok"
            print(f"{w:14s} {m['name']:12s} {m['unit']:5s} {s['n']:3d} {s['median']:10.4f} "
                  f"{s['q1']:10.4f} {s['q3']:10.4f} {s['spread']:7.4f} {m['bound']:6.2f}  {verdict}")
    return ok


def compare(bench: dict, first: dict, second: dict) -> bool:
    ok = True
    print("\nsecond set against the first (worsening as a share of the first median)")
    for w in first:
        for m in bench["end_to_end"]:
            a, b = first[w][m["name"]]["median"], second[w][m["name"]]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
            ok &= worse <= m["bound"]
            print(f"{w:14s} {m['name']:12s} {a:10.4f} -> {b:10.4f}  {worse:+.4f}  "
                  f"bound {m['bound']:.2f}  {verdict}")
    return ok


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--repeat", action="store_true")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    unknown = set(workloads) - set(names)
    if unknown:
        parser.error(f"unknown workloads: {', '.join(sorted(unknown))}")

    print(f"nproc {os.cpu_count()} (usable {len(os.sched_getaffinity(0))}), "
          f"python {sys.version.split()[0]}, run_seconds {bench['run_seconds']}, "
          f"runs {args.runs} per workload, seeds {args.seed}..{args.seed + args.runs - 1}")
    first, correct = run_set("set 1", bench, workloads, args.runs, args.seed)
    ok = print_set("set 1", bench, first)
    if args.repeat:
        second, correct2 = run_set("set 2", bench, workloads, args.runs, args.seed)
        ok &= print_set("set 2", bench, second)
        ok &= compare(bench, first, second)
        correct &= correct2

    print("\ntraced run per workload (seed %d)" % args.seed)
    for w in workloads:
        row = run_once(w, args.seed, bench["run_seconds"], 1)
        correct &= row["correct"]
        overhead = row["metrics"]["trace.overhead_s"]["value"]
        print(f"{w:14s} trace.overhead_s {overhead:+.4f} s  correct {row['correct']}")
    print(f"\nall runs correct: {correct}; checks {'passed' if ok else 'FAILED'}")
    return 0 if ok and correct else 1


if __name__ == "__main__":
    sys.exit(main())
