"""The repo benchmark: one workload, measured end to end or traced per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload flat-kernel --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``flat-kernel`` -- a flat k=16 network replaying an ``.npz`` trace of long
  same-site runs through ``engine="arrays"``: the span kernel's closed form.
* ``tree-high-touch`` -- a million-site 4-level tree fed 16-update segments:
  tree-direct routing, lazy leaves and replay fallback.
* ``lossy-tree-async`` -- a 3-level tree over the asynchronous transport
  with 10% i.i.d. loss and close repair: event scheduling and ARQ.
* ``live-ingest`` -- a ``repro serve`` process fed over TCP while
  ``/metrics`` is scraped.

Batch workloads go through ``RunSpec.build()`` -> ``BuiltRun.run()`` in a
child process (``worker.py``); the live one through ``repro serve``.  With
``--trace 0`` the run reports the ``end_to_end`` metrics of
``BENCHMARK.json``; with ``--trace 1`` it reports the ``per_layer`` ones,
from an untraced half and a traced half of the run.  Every run checks the
program's outputs (see ``workloads.oracle_mismatches`` and
``live.run_live``); a failed check makes the exit code 1.  The last stdout
line is the JSON result; the lines before it stamp the seed and environment
and print each metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("flat-kernel", "tree-high-touch", "lossy-tree-async", "live-ingest")
#: Layer metrics that are counts read from run results, not tracer spans.
RESULT_COUNTS = (
    "faults.dropped", "faults.retransmitted", "faults.duplicates",
    "faults.goodput", "async.in_flight_max", "runner.records",
)


class Outcome:
    """Metric values, operation counts and failed checks of one run."""

    def __init__(self) -> None:
        self.values: Dict[str, float] = {}
        self.info: Dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, ok: bool, message: str) -> None:
        """One attempted output check; a failed one is reported."""
        self.attempted += 1
        if not ok:
            self.fail(1, message)

    def fail(self, count: int, message: str) -> None:
        """``count`` failed operations (already counted as attempted)."""
        self.failed += count
        self.failures.append(message)


def _preflight() -> dict:
    """The BENCHMARK.json metric table; exits 2 without a repro checkout."""
    benchmark = ROOT / "BENCHMARK.json"
    package = ROOT / "src" / "repro" / "__init__.py"
    if not benchmark.is_file() or not package.is_file():
        print(
            f"perfbench: expected {benchmark} and {package}; run from the root "
            "of a repro checkout",
            file=sys.stderr,
        )
        sys.exit(2)
    return json.loads(benchmark.read_text(encoding="utf-8"))


def _median(values):
    return statistics.median(values) if values else 0.0


def _p90(values) -> float:
    """The 90th percentile of ``values``, interpolated in range."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(BENCH_DIR)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env["PYTHONHASHSEED"] = "0"
    return env


# -- layer metrics -------------------------------------------------------------


def _layer_values(layers: dict, per: float, wall: float) -> dict:
    """Per-pass ``<layer>.calls`` / ``<layer>.self_s`` plus derived counts.

    ``per`` is the number of traced passes and ``wall`` the mean traced pass
    wall time; ``trace.untraced_s`` is the part of that wall no traced layer
    accounts for.
    """
    from tracer import TARGETS

    values = {}
    traced_self = 0.0
    for target in TARGETS:
        row = layers.get(target.name, {"calls": 0, "self_s": 0.0, "items": 0})
        values[f"{target.name}.calls"] = row["calls"] / per
        values[f"{target.name}.self_s"] = row["self_s"] / per
        traced_self += row["self_s"] / per
    segments = layers.get("kernel.segment_cuts", {}).get("items", 0)
    replayed = layers.get("kernel.replay", {}).get("items", 0)
    batched = layers.get("core.receive_batch", {}).get("items", 0)
    values["kernel.segments"] = segments / per
    values["async.events"] = values["async.events.calls"]
    values["kernel.replay_share"] = replayed / batched if batched else 0.0
    values["trace.untraced_s"] = wall - traced_self
    return values


def _fill_layer_defaults(values: dict) -> None:
    for name in RESULT_COUNTS + ("live.scrape_ms_p50", "live.scrape_ms_p90"):
        values.setdefault(name, 0.0)


# -- batch workloads -------------------------------------------------------------


def run_batch(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    import workloads

    outcome = Outcome()
    inputs = workloads.BATCH_WORKLOADS[name](seed, workdir)
    mismatches = workloads.oracle_mismatches(inputs)
    outcome.check(not mismatches, "; ".join(mismatches))

    request = workdir / "request.json"
    request.write_text(
        json.dumps(
            {
                "specs": [spec.to_dict() for spec in inputs.specs],
                "epsilon": workloads.EPSILON,
                "seconds": seconds,
                "trace": trace,
            }
        ),
        encoding="utf-8",
    )
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(request)],
        cwd=str(ROOT),
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=seconds + 120,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"worker failed: {completed.stderr[-2000:]}")
    report = json.loads(completed.stdout.strip().splitlines()[-1])

    summaries = []
    for index, state in enumerate(report["instances"]):
        outcome.attempted += len(state["passes"])
        summary = state["summary"]
        outcome.check(summary is not None, f"instance {index} never completed")
        if summary is None:
            continue
        summaries.append(summary)
        outcome.check(
            len(set(state["digests"])) <= 1,
            f"instance {index}: outputs differ between passes",
        )
        outcome.check(
            summary["last_true_value"] == inputs.true_values[index],
            f"instance {index}: last record's true value "
            f"{summary['last_true_value']} != sum of deltas "
            f"{inputs.true_values[index]}",
        )
        if inputs.specs[index].transport.loss > 0:
            outcome.check(
                summary["retransmitted"] == summary["dropped"] + summary["duplicates"],
                f"instance {index}: retransmitted != dropped + duplicates",
            )
    if report["errors"]:
        outcome.fail(len(report["errors"]), "runs raised: " + "; ".join(report["errors"]))
    if outcome.failures:
        return outcome

    updates = sum(inputs.updates)
    messages = sum(s["messages"] for s in summaries)
    records = sum(s["records"] for s in summaries)
    retransmitted = sum(s["retransmitted"] for s in summaries)
    outcome.info["violation_frac"] = sum(s["violations"] for s in summaries) / records
    outcome.info["updates_per_pass"] = updates

    if not trace:
        setups = [p[0] for state in report["instances"] for p in state["passes"] if p]
        pass_rates = [
            n / p[1]
            for n, state in zip(inputs.updates, report["instances"])
            for p in state["passes"]
            if p
        ]
        outcome.info["pass_rates"] = pass_rates
        outcome.values.update(
            {
                # The best pass, not the median: on a shared 2-core host a
                # neighbour was measured slowing every pass by up to 1.75x
                # for stretches from seconds to over a minute.  A pass does
                # fixed work, so none reads faster than the uncontended
                # machine (see ledger.json).
                "updates_per_s": max(pass_rates),
                "setup_s": _median(setups),
                "messages_per_update": messages / updates,
                "bits_per_update": sum(s["bits"] for s in summaries) / updates,
                "mean_rel_err": sum(s["rel_err_sum"] for s in summaries)
                / sum(s["rel_err_count"] for s in summaries),
                "peak_rss_mb": report["peak_rss_mb"],
            }
        )
        return outcome

    traced_walls = report["traced_cycle_walls"]
    untraced_walls = report["untraced_cycle_walls"]
    values = _layer_values(
        report["layers"], len(traced_walls), sum(traced_walls) / len(traced_walls)
    )
    values["trace.overhead"] = min(traced_walls) / min(untraced_walls) - 1.0
    values["runner.records"] = records
    values["faults.dropped"] = sum(s["dropped"] for s in summaries)
    values["faults.retransmitted"] = retransmitted
    values["faults.duplicates"] = sum(s["duplicates"] for s in summaries)
    values["faults.goodput"] = messages / (messages + retransmitted) if messages else 0.0
    values["async.in_flight_max"] = max(s["in_flight_max"] for s in summaries)
    _fill_layer_defaults(values)
    outcome.values.update(values)
    outcome.info["missing_layers"] = report["missing"]
    outcome.info["unresolved_paths"] = report["unresolved_paths"]
    return outcome


# -- live workload ----------------------------------------------------------------


def _ingest_rate(session: dict, lines: int) -> float:
    """The 90th percentile of the session's windowed ingest rates.

    The fast end for the same reason batch workloads take their best pass;
    a percentile rather than the maximum because each window's rate rests
    on two client-side scrape timestamps and carries their jitter.

    Falls back to lines over the whole ingest time when the session was too
    short for three windows.
    """
    rates = session["window_rates"]
    if len(rates) >= 3:
        return _p90(rates)
    return lines / session["ingest_s"]


def run_live_workload(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    from live import run_live

    outcome = Outcome()
    raw = run_live(ROOT, workdir, _child_env(), seed, seconds, trace)
    lines = raw["lines"]
    expected = raw["reference"]
    for label, result in raw["sessions"].items():
        status = result["status"]
        outcome.attempted += lines + len(result["scrape_ms"])
        feed_errors = status["feed"]["errors"]
        if feed_errors:
            outcome.fail(feed_errors, f"{label}: {feed_errors} feed lines rejected")
        if result["scrapes_failed"]:
            outcome.fail(
                result["scrapes_failed"],
                f"{label}: {result['scrapes_failed']} /metrics scrapes failed",
            )
        outcome.check(
            status["updates"] == lines,
            f"{label}: /status shows {status['updates']} updates, sent {lines}",
        )
        for key in ("estimate", "true_value", "total_messages", "total_bits",
                    "messages_by_kind", "violations"):
            outcome.check(
                status[key] == expected[key],
                f"{label}: /status {key}={status[key]!r} but the in-process "
                f"LiveTracker gives {expected[key]!r}",
            )
    if outcome.failures:
        return outcome

    untraced = raw["sessions"]["untraced"]
    status = untraced["status"]
    scrapes = untraced["scrape_ms"]
    outcome.info["violation_frac"] = status["violation_fraction"]
    outcome.info["scrapes"] = len(scrapes)
    outcome.info["scraper_max_lateness_s"] = untraced["scraper_max_lateness_s"]
    outcome.info["pass_rates"] = untraced["window_rates"]
    outcome.info["ingest_s"] = untraced["ingest_s"]
    if not trace:
        outcome.values.update(
            {
                "updates_per_s": _ingest_rate(untraced, lines),
                "setup_s": _median(raw["setups"]),
                "messages_per_update": status["total_messages"] / lines,
                "bits_per_update": status["total_bits"] / lines,
                "mean_rel_err": expected["mean_rel_err"],
                "peak_rss_mb": untraced["peak_rss_mb"],
            }
        )
        return outcome

    traced = raw["sessions"]["traced"]
    wall = traced["ingest_s"]
    ledger = raw["ledger"]
    values = _layer_values(ledger["layers"], 1, wall)
    values["trace.overhead"] = wall / untraced["ingest_s"] - 1.0
    values["faults.goodput"] = 1.0 if traced["status"]["total_messages"] else 0.0
    values["live.scrape_ms_p50"] = _median(scrapes)
    values["live.scrape_ms_p90"] = _p90(scrapes)
    _fill_layer_defaults(values)
    outcome.values.update(values)
    outcome.info["missing_layers"] = ledger["missing"]
    outcome.info["unresolved_paths"] = ledger["unresolved_paths"]
    return outcome


# -- entry point ---------------------------------------------------------------------


def _stamp(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "child_PYTHONHASHSEED": "0",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    benchmark = _preflight()
    sys.path.insert(0, str(ROOT / "src"))
    trace = bool(args.trace)
    table = benchmark["per_layer" if trace else "end_to_end"]

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "live-ingest":
            outcome = run_live_workload(args.seed, args.seconds, trace, workdir)
        else:
            outcome = run_batch(args.workload, args.seed, args.seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    failed = outcome.failed
    attempted = max(outcome.attempted, 1)
    correct = not outcome.failures
    print(json.dumps({"stamp": _stamp(args), "info": outcome.info}))
    for failure in outcome.failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(f"failed_frac {failed / attempted!r} ratio ({failed}/{attempted})")
    metrics = {}
    for row in table:
        if correct:
            value = float(outcome.values[row["name"]])
            metrics[row["name"]] = {"value": value, "unit": row["unit"]}
            print(f"{row['name']} {value!r} {row['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
