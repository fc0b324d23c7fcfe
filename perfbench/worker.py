"""Child process that times one batch workload through the RunSpec front door.

Usage: ``python3 perfbench/worker.py REQUEST.json`` with ``src`` on
``PYTHONPATH``.  The request (written by ``run.py``) lists the workload's
RunSpec documents -- one per input instance -- and the time to measure.
The worker replays the instances round-robin, each pass as
``RunSpec.build()`` then ``BuiltRun.run()``, until the time is used up,
and prints one JSON document on its last stdout line: per-instance timings,
result fingerprints and cost totals, its own peak RSS, and -- in a traced
run -- the layer aggregates of the traced half.

Running in its own process keeps the peak RSS that of the workload alone,
not of input generation or of the output checks.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

import numpy as np

from repro.api import RunSpec


def _clear_trace_cache() -> None:
    """Make every build load its trace from disk, as a fresh process would."""
    try:
        from repro.api.trace_cache import clear_trace_cache
    except ImportError:
        return
    clear_trace_cache()


def fingerprint(result) -> dict:
    """The result's observable outputs: records, totals and per-kind counts."""
    records = [
        (r.time, r.true_value, float(r.estimate), r.messages, r.bits)
        for r in result.records
    ]
    data = {
        "records": records,
        "total_messages": int(result.total_messages),
        "total_bits": int(result.total_bits),
        "messages_by_kind": sorted(
            (str(kind), int(count)) for kind, count in result.messages_by_kind.items()
        ),
    }
    for name in ("dropped", "retransmitted", "duplicates"):
        if hasattr(result, name):
            data[name] = int(getattr(result, name))
    return data


def digest(data: dict) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def summarize(result, epsilon: float) -> dict:
    """Cost and accuracy totals of one instance's result."""
    true_values = np.array([r.true_value for r in result.records], dtype=float)
    estimates = np.array([r.estimate for r in result.records], dtype=float)
    nonzero = true_values != 0
    relative = np.abs(true_values[nonzero] - estimates[nonzero]) / np.abs(
        true_values[nonzero]
    )
    staleness = getattr(result, "staleness", None)
    return {
        "messages": int(result.total_messages),
        "bits": int(result.total_bits),
        "records": len(result.records),
        "rel_err_sum": float(relative.sum()),
        "rel_err_count": int(relative.size),
        "violations": int(result.error_violations(epsilon)),
        "last_true_value": int(result.records[-1].true_value) if result.records else 0,
        "dropped": int(getattr(result, "dropped", 0)),
        "retransmitted": int(getattr(result, "retransmitted", 0)),
        "duplicates": int(getattr(result, "duplicates", 0)),
        "in_flight_max": int(getattr(staleness, "inflight_highwater", 0) or 0),
    }


def run_passes(specs, epsilon, seconds, instances, errors):
    """Replay every instance round-robin until ``seconds`` of passes ran.

    Each instance runs at least once.  Returns the per-cycle walls (build
    plus run over all instances), appending to ``instances`` in place.
    """
    cycle_walls = []
    start = time.perf_counter()
    while not cycle_walls or time.perf_counter() - start < seconds:
        cycle_wall = 0.0
        for spec, state in zip(specs, instances):
            _clear_trace_cache()
            t0 = time.perf_counter()
            try:
                built = spec.build()
                t1 = time.perf_counter()
                result = built.run()
                t2 = time.perf_counter()
            except Exception as exc:  # a raising run is a failed operation
                errors.append(f"{type(exc).__name__}: {exc}")
                state["passes"].append(None)
                continue
            state["passes"].append([t1 - t0, t2 - t1])
            cycle_wall += t2 - t0
            state["digests"].append(digest(fingerprint(result)))
            if state["summary"] is None:
                state["summary"] = summarize(result, epsilon)
        cycle_walls.append(cycle_wall)
    return cycle_walls


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as handle:
        request = json.load(handle)
    specs = [RunSpec.from_dict(doc) for doc in request["specs"]]
    epsilon = float(request["epsilon"])
    seconds = float(request["seconds"])
    errors: list = []
    instances = [{"passes": [], "digests": [], "summary": None} for _ in specs]
    output = {"errors": errors, "instances": instances}
    if request["trace"]:
        from tracer import Tracer

        untraced = run_passes(specs, epsilon, seconds / 2, instances, errors)
        tracer = Tracer().install()
        try:
            traced = run_passes(specs, epsilon, seconds / 2, instances, errors)
        finally:
            tracer.uninstall()
        output["untraced_cycle_walls"] = untraced
        output["traced_cycle_walls"] = traced
        output["layers"] = tracer.report()
        output["missing"] = tracer.missing
        output["unresolved_paths"] = tracer.unresolved_paths
    else:
        output["cycle_walls"] = run_passes(specs, epsilon, seconds, instances, errors)
    # ru_maxrss is in KiB on Linux.
    output["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
