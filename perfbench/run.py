"""kahlercheck benchmark: one seeded workload, measured in this process.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; nothing needs to be installed.
Operations go through ``kahlercheck.cli.main`` in-process, one at a time
(a closed loop with one client), with stdout and stderr captured in
buffers.  The operations of the workload are cycled in seeded order until
``--seconds`` have passed, and every operation runs at least once.  Every
result is checked against the references in ``data/references.json``.

The last line of stdout is one JSON object.  With ``--trace 0`` it holds
the end-to-end metrics:

  wall_s       one pass over the workload: the sum over its operations of
               each operation's median time
  peak_rss_mb  peak resident memory of this process
  setup_s      median time from starting a fresh interpreter until
               ``kahlercheck.cli`` is imported and its parser built, over
               starts spread through the run, after a warm-up start that
               compiles the bytecode

With ``--trace 1`` the first half of the time runs untraced and the second
half traced (see ``tracer.py``), and the line holds the per-layer metrics,
per pass.  The spans of one traced sample of each operation are written
to ``perfbench/_traces/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_STARTS = 21
SETUP_CODE = ("import sys\nfrom kahlercheck import cli\ncli.build_parser()\n"
              "sys.stdout.write('ready\\n')\nsys.stdout.flush()\n")


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def start_until_ready(env: dict[str, str]) -> float:
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line != b"ready\n" or code != 0:
        raise RuntimeError(f"setup probe exited {code} with {line!r}")
    return elapsed


class Runner:
    """Runs operations through ``cli.main`` and keeps the tally."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.attempted = 0
        self.failed = 0

    def call(self, op: workloads.Op) -> tuple[float, str | None]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            code = self.cli.main(list(op.argv), out=out, err=err)
        except (Exception, SystemExit) as exc:
            elapsed = time.perf_counter() - start
            return elapsed, f"raised {type(exc).__name__}: {str(exc)[:200]}"
        elapsed = time.perf_counter() - start
        return elapsed, op.check(code, out.getvalue(), err.getvalue())

    def run(self, op: workloads.Op) -> float:
        elapsed, problem = self.call(op)
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            print(f"perfbench: {op.name}: {problem}", file=sys.stderr)
        return elapsed

    def cycle(self, ops, seconds: float, after=None) -> dict[str, list[float]]:
        """Run ops in order, round and round, for at least one pass and
        until ``seconds`` have passed; returns the times per operation."""
        times: dict[str, list[float]] = {op.name: [] for op in ops}
        deadline = time.perf_counter() + seconds
        i = 0
        while i < len(ops) or time.perf_counter() < deadline:
            op = ops[i % len(ops)]
            times[op.name].append(self.run(op))
            if after is not None:
                after(op)
            i += 1
        return times


def pass_seconds(times: dict[str, list[float]]) -> float:
    """One pass: the sum over operations of each one's median time."""
    return sum(statistics.median(t) for t in times.values())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(runner: Runner, ops, seconds: float) -> dict:
    """Time the operations and, spread evenly between them so that both see
    the same machine, about ``SETUP_STARTS`` fresh-interpreter starts."""
    env = child_env()
    start_until_ready(env)  # warm-up: writes the bytecode caches
    starts: list[float] = []
    every = seconds / SETUP_STARTS
    next_start = time.perf_counter()

    def after(op) -> None:
        nonlocal next_start
        if time.perf_counter() >= next_start:
            starts.append(start_until_ready(env))
            next_start += every

    times = runner.cycle(ops, seconds, after=after)
    return {
        "wall_s": {"value": pass_seconds(times), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        "setup_s": {"value": statistics.median(starts), "unit": "s"},
    }


def per_layer(runner: Runner, ops, seconds: float, workload: str, seed: int,
              probes_raised: int) -> dict:
    from layers import LayerMetrics
    from tracer import Tracer

    untraced = runner.cycle(ops, seconds / 2)
    tracer = Tracer()
    metrics = LayerMetrics()
    tracer.install()
    try:
        traced = runner.cycle(ops, seconds / 2,
                              after=lambda op: metrics.add(op.name, tracer.take()))
    finally:
        tracer.uninstall()
    values = metrics.per_pass()
    values["cli.probes_raised"] = (probes_raised, "count")
    values["trace.overhead_s"] = (pass_seconds(traced) - pass_seconds(untraced), "s")
    dump = HERE / "_traces" / f"{workload}-{seed}.json"
    dump.parent.mkdir(exist_ok=True)
    dump.write_text(json.dumps(metrics.dump(untraced, traced), indent=1) + "\n",
                    encoding="utf-8")
    print(f"perfbench: spans written to {dump.relative_to(ROOT)}", file=sys.stderr)
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run_probes(runner: Runner, work: Path) -> int:
    """Count the hostile inputs on which the CLI raises instead of exiting 2."""
    raised = 0
    for op in workloads.probes(work):
        _, problem = runner.call(op)
        if problem is not None:
            print(f"perfbench: probe {op.name} (known defect): {problem}", file=sys.stderr)
            raised += problem.startswith("raised")
    return raised


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kahlercheck" / "cli.py").is_file():
        print(f"perfbench: no kahlercheck sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from kahlercheck import cli

    work = HERE / "_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ops = workloads.build(args.workload, args.seed, work)
        runner = Runner(cli)
        probes_raised = run_probes(runner, work) if args.workload == "analyze" else 0
        if args.trace:
            metrics = per_layer(runner, ops, args.seconds, args.workload, args.seed,
                                probes_raised)
        else:
            metrics = end_to_end(runner, ops, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
