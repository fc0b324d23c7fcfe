"""Small experiment driver shared by benchmarks, examples and tests.

It answers three questions experiments ask:

* "run these trackers on this stream with ``k`` sites — how wrong were they
  and how much did they talk?" (:func:`compare_trackers`, which takes
  tracker factories, so it also compares trackers no spec can name);
* "how much faster is the spec's engine than per-update dispatch?"
  (:func:`measure_engine_throughput`, which takes a
  :class:`~repro.api.RunSpec` and builds through it);
* "what is the (expected) variability of this stream class at this length?"
  (:func:`repeat_variability`).

Grids of runs over tracker names, topologies, transports or latency scales
are a :class:`~repro.api.Sweep` over a :class:`~repro.api.RunSpec`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Tuple

import numpy as np

from repro.core.variability import variability
from repro.exceptions import ConfigurationError, ProtocolError
from repro.monitoring.runner import run_tracking
from repro.streams.assignment import assign_sites
from repro.streams.model import StreamSpec

__all__ = [
    "TrackerComparison",
    "compare_trackers",
    "measure_engine_throughput",
    "repeat_variability",
]


@dataclass(frozen=True)
class TrackerComparison:
    """One tracker's outcome on one stream, in comparable units.

    Attributes:
        name: Label of the tracker (e.g. ``"deterministic"``).
        messages: Total messages used.
        bits: Total message bits used.
        max_relative_error: Worst relative error over the run.
        violation_fraction: Fraction of timesteps violating the eps guarantee.
        variability: The stream's f-variability (same for every tracker).
        messages_per_variability: ``messages / max(variability, 1)``, the
            quantity the paper's ``O(poly(k, 1/eps) * v)`` bounds normalise.
    """

    name: str
    messages: int
    bits: int
    max_relative_error: float
    violation_fraction: float
    variability: float
    messages_per_variability: float


def compare_trackers(
    factories: Mapping[str, object],
    spec: StreamSpec,
    num_sites: int,
    epsilon: float,
    record_every: int = 1,
) -> List[TrackerComparison]:
    """Run several trackers on the same distributed stream and tabulate them.

    The stream is spread over the sites round robin, and each factory tracks
    it on a fresh flat network (``factory.track``).  Factories rather than
    tracker names, so a caller can compare a tracker no spec can name.

    Args:
        factories: Mapping from display name to tracker factory.
        spec: The stream to track.
        num_sites: Number of sites ``k``.
        epsilon: Error parameter used for violation accounting.
        record_every: Per-step recording stride passed to the runner.

    Returns:
        One :class:`TrackerComparison` per factory, in input order.
    """
    if not factories:
        raise ConfigurationError("factories must not be empty")
    stream_variability = variability(spec.deltas, start=spec.start)
    updates = assign_sites(spec, num_sites)
    comparisons = []
    for name, factory in factories.items():
        summary = factory.track(updates, record_every=record_every).summary(epsilon)
        comparisons.append(
            TrackerComparison(
                name=name,
                messages=summary["total_messages"],
                bits=summary["total_bits"],
                max_relative_error=summary["max_relative_error"],
                violation_fraction=summary["violation_fraction"],
                variability=stream_variability,
                messages_per_variability=summary["total_messages"]
                / max(stream_variability, 1.0),
            )
        )
    return comparisons


def measure_engine_throughput(spec) -> Tuple[float, float, float]:
    """Time per-update dispatch against a spec's engine and verify they agree.

    ``spec`` is a synchronous :class:`~repro.api.RunSpec` with
    ``engine='batched'`` (a generated source) or ``engine='arrays'`` (a trace
    source).  Each arm runs on a fresh ``spec.build()``: the per-update arm
    replays the built updates (a trace's columns as
    :class:`~repro.types.Update` objects) through
    :func:`~repro.monitoring.runner.run_tracking`, the other arm runs the
    spec's engine.  Only the two runner calls are timed; no build or stream
    generation is.  Raises :class:`~repro.exceptions.ProtocolError` if the
    engines disagree on any recorded estimate or on the message or bit
    totals of the sites' own channels (``local_stats`` of a tree, ``stats``
    of a flat network) — they are bit-for-bit equivalent by contract, so a
    divergence is always a bug.  A tree's hops above its leaves are left
    out: estimates are pushed upward once per delivery call, and the
    engines deliver at different granularities.

    Returns:
        ``(per_update_rate, engine_rate, speedup)`` in updates/second and
        the wall-clock ratio between the two engines.

    Used by both the throughput benchmark (``benchmarks/
    test_bench_e17_throughput.py``) and ``python -m repro throughput`` so
    the two tables cannot drift apart.
    """
    engine = spec.canonical_engine()
    if engine not in ("batched", "arrays"):
        raise ConfigurationError(
            "measure_engine_throughput times per-update dispatch against "
            f"engine='batched' or 'arrays', got engine={spec.engine!r}"
        )
    slow_seconds, slow_totals, n = _time_engine(spec, per_update=True)
    fast_seconds, fast_totals, _ = _time_engine(spec, per_update=False)
    if slow_totals != fast_totals:
        raise ProtocolError(
            f"{engine} and per-update engines disagree on the same workload; "
            "this violates the equivalence contract — please report"
        )
    return n / slow_seconds, n / fast_seconds, slow_seconds / fast_seconds


def _time_engine(spec, per_update: bool) -> Tuple[float, tuple, int]:
    """Build ``spec`` afresh and time one runner call on it.

    Returns the call's wall time, the run's agreement totals (local message
    and bit totals, recorded estimates) and the number of updates.
    """
    built = spec.build()
    network = built.network
    workload = built.updates if built.columns is None else built.columns
    if per_update and built.columns is not None:
        workload = workload.to_updates()
    begin = time.perf_counter()
    result = run_tracking(
        network, workload, record_every=spec.record_every, batched=not per_update
    )
    seconds = time.perf_counter() - begin
    local = network.local_stats if hasattr(network, "local_stats") else network.stats
    totals = (local.messages, local.bits, [r.estimate for r in result.records])
    return seconds, totals, len(workload)


def repeat_variability(
    generator: Callable[[int], StreamSpec],
    trials: int,
    seed: int = 0,
) -> Dict[str, float]:
    """Estimate the expected variability of a random stream class.

    Args:
        generator: Callable taking a seed and returning a fresh stream.
        trials: Number of independent streams to average over.
        seed: Base seed; trial ``i`` uses ``seed + i``.

    Returns:
        A dict with keys ``mean``, ``std``, ``min`` and ``max``.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    values = []
    for trial in range(trials):
        spec = generator(seed + trial)
        values.append(variability(spec.deltas, start=spec.start))
    array = np.asarray(values, dtype=float)
    return {
        "mean": float(np.mean(array)),
        "std": float(np.std(array)),
        "min": float(np.min(array)),
        "max": float(np.max(array)),
    }
