"""posetgroups benchmark: seeded workloads over group -> space -> Aut -> homology.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S      # both workloads, as a table

Each run starts the workload in fresh interpreters of its own, one at a
time, with ``src`` of this checkout as the only import path for the
package.  ``--trace 0`` measures the end-to-end metrics: the median pass
and largest-operation times, the peak resident memory of the measuring
interpreter, and set-up time (interpreter start to first timed operation)
as the median over several interpreter starts.  ``--trace 1`` wraps the
package's layer entry points from outside and reports per-layer calls,
self time and work counts.  Metric names and units come from
``BENCHMARK.json``.  The last line of output is one JSON object; a
workload with any failed operation reports ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_STARTS = 5  # interpreters whose set-up time is sampled per untraced run
CHILD_TIMEOUT = 160  # seconds; a run must finish inside three minutes


class BenchError(Exception):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def start_worker(args: list[str], timeout: float) -> tuple[dict, float]:
    """Run one worker interpreter; returns its result and its set-up seconds."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    began = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            capture_output=True, text=True, env=env, timeout=timeout,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker failed (exit {proc.returncode}):\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready"] - began


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    worker_args = [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    deadline = time.perf_counter() + CHILD_TIMEOUT
    setups = []
    if not trace:
        # Set-up-only starts come first, so the measured one finds the
        # bytecode cache in the same state as every later run.
        for _ in range(SETUP_STARTS - 1):
            setups.append(start_worker(worker_args + ["--setup-only"],
                                       deadline - time.perf_counter())[1])
    result, setup = start_worker(worker_args, deadline - time.perf_counter())
    result["setups"] = setups + [setup]
    return result


def summarize(result: dict, trace: int, spec: dict) -> tuple[dict, list[str]]:
    """Metric values by name, and the human-readable lines that go with them."""
    passes = result["passes"]
    totals = [sum(p.values()) for p in passes]
    n = len(passes)
    attempted, failed = result["attempted"], result["failed"]
    lines = [_line("fail_frac", failed / attempted, "fraction",
                   f"{failed} of {attempted} operations")]
    if not trace:
        values = {
            "pass_s": statistics.median(totals),
            "largest_op_s": statistics.median(p[result["largest"]] for p in passes),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(result["setups"]),
        }
        notes = {
            "pass_s": f"median of {n} passes",
            "largest_op_s": f"{result['largest']}, median of {n} passes",
            "peak_rss_mb": "measuring interpreter, 1 sample",
            "setup_s": f"median of {len(result['setups'])} interpreter starts",
        }
        metrics = spec["end_to_end"]
    else:
        untraced = statistics.median(sum(p.values()) for p in result["untraced"])
        values = {}
        for figures in result["layers"]:
            for key, value in figures.items():
                values.setdefault(key, []).append(value)
        values = {key: statistics.median(v + [0] * (n - len(v))) for key, v in values.items()}
        values["trace.overhead_s"] = statistics.median(totals) - untraced
        values["trace.overhead_frac"] = values["trace.overhead_s"] / untraced
        notes = dict.fromkeys(
            ("trace.overhead_s", "trace.overhead_frac"),
            f"median of {n} traced against median of {n} untraced passes",
        )
        metrics = spec["per_layer"]
        lines.append(f"spans written to {os.path.relpath(result['spans_file'], ROOT)}")
    out = {}
    for m in metrics:
        value = values.get(m["name"], 0)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        note = notes.get(m["name"], f"median of {n} traced passes" if trace else "")
        lines.append(_line(m["name"], value, m["unit"], note))
    return out, lines + [f"problem: {p}" for p in result["problems"]]


def _line(name: str, value: float, unit: str, note: str) -> str:
    return f"{name:<44} {value:<12.6g} {unit:<8} {note}".rstrip()


def run_one(args, spec: dict) -> int:
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    metrics, lines = summarize(result, args.trace, spec)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {'on' if args.trace else 'off'}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload in turn, untraced, as one table."""
    print(f"seed {args.seed}, {args.seconds:g} s per workload")
    for workload in (w["name"] for w in spec["workloads"]):
        result = run_workload(workload, args.seed, args.seconds, 0)
        _, lines = summarize(result, 0, spec)
        print(f"\n{workload}")
        print("\n".join("  " + line for line in lines))
    return 0


def main(argv=None) -> int:
    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print(f"benchmark error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 1
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        help="one workload (default: all of them, untraced)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run_one(args, spec) if args.workload else run_all(args, spec)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
