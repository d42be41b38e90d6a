"""One workload in one fresh interpreter: set up, then run passes back to back.

Started by ``run.py``; not meant to be run by hand.  It prints one JSON
line with the monotonic-clock instant set-up finished (``ready``), the
per-pass timings, the gate outcomes, the peak resident memory and, when
traced, the per-layer figures of every traced pass.

The loop is closed, with one client: the next operation starts when the
previous one returned.  A pass runs every operation of the workload once.
Passes repeat until starting another would likely end after ``--seconds``;
at least one pass always runs.  A traced run alternates an untraced and a
traced pass and counts the pair as one.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

import posetgroups  # noqa: E402

if not os.path.abspath(posetgroups.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"posetgroups was imported from {posetgroups.__file__}, not from this checkout")

import workloads  # noqa: E402

MAX_PROBLEMS = 5  # gate messages kept for the report


class Runner:
    """Runs passes and counts attempted and failed operations."""

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, tracer=None) -> dict[str, float]:
        """Every operation once; returns seconds per operation name.

        With a ``tracer``, each operation runs inside a root span of its own.
        """
        times = {}
        for op in self.workload.ops:
            self.attempted += 1
            start = time.perf_counter()
            try:
                output = tracer.span(f"op.{op.name}", op.run) if tracer else op.run()
            except Exception as exc:  # a raising operation is a failed one
                times[op.name] = time.perf_counter() - start
                self._fail(op.name, [f"raised {type(exc).__name__}: {exc}"])
                continue
            times[op.name] = time.perf_counter() - start
            try:
                problems = op.check(output)
            except Exception as exc:  # so is one whose output breaks its gate
                problems = [f"gate raised {type(exc).__name__}: {exc}"]
            if problems:
                self._fail(op.name, problems)
        return times

    def _fail(self, name: str, problems: list[str]) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(f"{name}: {'; '.join(problems)}")


def run_passes(run_pass, seconds: float, start: float) -> list[dict]:
    """Calls ``run_pass`` until another pass would likely end ``seconds`` after ``start``."""
    passes, walls = [], []
    while True:
        began = time.perf_counter()
        passes.append(run_pass())
        walls.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload = workloads.make(args.workload, args.seed, workdir)
        ready = time.perf_counter()
        result = {"ready": ready}
        if not args.setup_only:
            result.update(measure(workload, args, ready))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(workload: workloads.Workload, args, start: float) -> dict:
    out: dict = {"largest": workload.largest}
    runner = Runner(workload)
    if not args.trace:
        out["passes"] = run_passes(runner.run_pass, args.seconds, start)
    else:
        import tracing

        # Untraced and traced passes alternate, so the overhead estimate
        # sees the same machine conditions on both sides.
        tracer = tracing.Tracer()
        out["untraced"], out["layers"] = [], []

        def pair():
            out["untraced"].append(runner.run_pass())
            first, counts = len(tracer.spans), tracer.counts.copy()
            tracer.install()
            try:
                times = runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            figures = tracing.layer_metrics(tracer.spans, first, len(tracer.spans))
            figures.update(tracer.counts - counts)
            figures["trace.spans"] = len(tracer.spans) - first
            out["layers"].append(figures)
            return times

        out["passes"] = run_passes(pair, args.seconds, start)
        out["spans_file"] = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        tracer.write(out["spans_file"])
    out["attempted"], out["failed"], out["problems"] = (
        runner.attempted, runner.failed, runner.problems
    )
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


if __name__ == "__main__":
    raise SystemExit(main())
