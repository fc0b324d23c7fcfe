"""Measure how steady the benchmark is: run-to-run and pass-to-pass spreads.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads flat-kernel ...]
        [--seconds 10] [--write]

Runs ``run.py`` once per workload and seed, one run at a time, and prints
for every end-to-end metric the median of the runs and their spread: the
distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median -- the
figure each metric's ``bound`` in ``BENCHMARK.json`` must stay above.  The
pass-to-pass spread is the same statistic over the per-pass update rates
inside one run, taken as the median over runs.  ``--write`` stores the
figures in the ``steadiness`` section of ``perfbench/ledger.json``.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def parse_seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float):
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} failed ({completed.returncode}): "
            f"{completed.stderr[-2000:]}"
        )
    stamp = json.loads(lines[0])
    return json.loads(lines[-1]), stamp["info"]


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument(
        "--workloads", nargs="+", default=[w["name"] for w in benchmark["workloads"]]
    )
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {row["name"]: row["bound"] for row in benchmark["end_to_end"]}

    figures = {}
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        pass_spreads = []
        for seed in seeds:
            result, info = run_once(workload, seed, args.seconds)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            if "pass_rates" in info:
                pass_spreads.append(spread(info["pass_rates"]))
            print(
                f"{workload} seed={seed} "
                + " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()),
                flush=True,
            )
        entry = {
            "seeds": seeds,
            "metrics": {
                name: {
                    "median": statistics.median(v),
                    "run_to_run_spread": spread(v),
                    "bound": bounds[name],
                }
                for name, v in values.items()
            },
        }
        if pass_spreads:
            entry["pass_to_pass_spread"] = statistics.median(pass_spreads)
        figures[workload] = entry
        for name, row in entry["metrics"].items():
            flag = "" if name == "setup_s" or row["run_to_run_spread"] <= bounds[name] / 3 else "  <-- above bound/3"
            print(
                f"  {workload:18s} {name:20s} median={row['median']:.6g} "
                f"spread={row['run_to_run_spread']:.4f} bound={bounds[name]}{flag}"
            )
        if pass_spreads:
            print(f"  {workload:18s} pass-to-pass spread={entry['pass_to_pass_spread']:.4f}")

    if args.write:
        ledger_path = BENCH_DIR / "ledger.json"
        ledger = json.loads(ledger_path.read_text(encoding="utf-8"))
        section = ledger.setdefault("steadiness", {})
        section["measured_with"] = {
            "seconds": args.seconds,
            "python": platform.python_version(),
            "machine": platform.machine(),
        }
        section.setdefault("workloads", {}).update(figures)
        ledger_path.write_text(json.dumps(ledger, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
