"""Small experiment driver shared by benchmarks, examples and tests.

The driver answers the two questions every experiment asks:

* "run this tracker on this stream with ``k`` sites — how wrong was it and
  how much did it talk?" (:func:`run_tracker_on_stream`,
  :func:`compare_trackers`), and
* "what is the (expected) variability of this stream class at this length?"
  (:func:`repeat_variability`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.variability import variability
from repro.exceptions import ConfigurationError, ProtocolError
from repro.monitoring.runner import (
    TrackingResult,
    run_tracking,
    run_tracking_arrays,
)
from repro.monitoring.tree import build_tree_network
from repro.streams.assignment import AssignmentPolicy, RoundRobinAssignment, assign_sites
from repro.streams.model import StreamSpec

__all__ = [
    "TrackerComparison",
    "run_tracker_on_stream",
    "compare_trackers",
    "measure_engine_throughput",
    "measure_columnar_throughput",
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


def run_tracker_on_stream(
    factory,
    spec: StreamSpec,
    num_sites: int,
    policy: Optional[AssignmentPolicy] = None,
    record_every: int = 1,
    batched: Optional[bool] = None,
    shards: int = 1,
    sharding=None,
) -> TrackingResult:
    """Distribute a stream over ``num_sites`` sites and run one tracker on it.

    With ``shards > 1`` the tracker runs as a two-level sharded hierarchy
    (:mod:`repro.monitoring.sharding`): the reported totals then include the
    shard-to-root hops on top of the shard-local traffic.
    """
    updates = assign_sites(spec, num_sites, policy or RoundRobinAssignment())
    network = build_tree_network(
        factory, fanouts=[shards] if shards > 1 else [], sharding=sharding
    )
    return run_tracking(network, updates, record_every=record_every, batched=batched)


def compare_trackers(
    factories: Mapping[str, object],
    spec: StreamSpec,
    num_sites: int,
    epsilon: float,
    policy: Optional[AssignmentPolicy] = None,
    record_every: int = 1,
    batched: Optional[bool] = None,
    shards: int = 1,
    sharding=None,
) -> List[TrackerComparison]:
    """Run several trackers on the same distributed stream and tabulate them.

    Args:
        factories: Mapping from display name to tracker factory.
        spec: The stream to track.
        num_sites: Number of sites ``k``.
        epsilon: Error parameter used for violation accounting.
        policy: Site-assignment policy (round robin by default).
        record_every: Per-step recording stride passed to the runner.
        batched: Delivery-engine selector passed to the runner (``None`` =
            auto, ``True`` = batched fast path, ``False`` = per-update).
        shards: Coordinator shards; above 1 every tracker runs as a sharded
            hierarchy and its totals include the shard-to-root hops.
        sharding: Site-to-shard partition policy (contiguous by default).

    Returns:
        One :class:`TrackerComparison` per factory, in input order.
    """
    if not factories:
        raise ConfigurationError("factories must not be empty")
    stream_variability = variability(spec.deltas, start=spec.start)
    comparisons = []
    for name, factory in factories.items():
        result = run_tracker_on_stream(
            factory,
            spec,
            num_sites,
            policy=policy,
            record_every=record_every,
            batched=batched,
            shards=shards,
            sharding=sharding,
        )
        summary = result.summary(epsilon)
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


def measure_engine_throughput(
    factory,
    updates: Sequence,
    record_every: int = 20_000,
    shards: int = 1,
) -> Tuple[float, float, float]:
    """Time both runner engines on the same updates and verify they agree.

    Runs the per-update engine, then the batched engine, on ``updates``
    (which must be a materialised sequence so both runs see the same data
    and ``len()`` is known for the rate).  Raises
    :class:`~repro.exceptions.ProtocolError` if the engines disagree on
    message totals, bit totals or any recorded estimate — they are
    bit-for-bit equivalent by contract, so a divergence is always a bug.

    With ``shards > 1`` both engines drive a fresh sharded hierarchy
    (:mod:`repro.monitoring.sharding`).  Recorded estimates and the merged
    *shard-local* counters must still agree exactly; the shard-to-root hop
    count is excluded from the check because estimate pushes happen per
    delivery event, and the engines legitimately batch deliveries
    differently (see the push-granularity note in the sharding module).

    Returns:
        ``(per_update_rate, batched_rate, speedup)`` in updates/second and
        the wall-clock ratio between the two engines.

    Used by both the throughput benchmark (``benchmarks/
    test_bench_e17_throughput.py``) and ``python -m repro throughput`` so
    the two tables cannot drift apart.
    """
    fanouts = [shards] if shards > 1 else []

    def run(batched: bool):
        network = build_tree_network(factory, fanouts=fanouts)
        begin = time.perf_counter()
        result = run_tracking(
            network, updates, record_every=record_every, batched=batched
        )
        seconds = time.perf_counter() - begin
        local = network.local_stats if fanouts else network.stats
        return result, local, seconds

    slow, slow_local, slow_seconds = run(False)
    fast, fast_local, fast_seconds = run(True)
    agree = (
        slow_local.messages == fast_local.messages
        and slow_local.bits == fast_local.bits
        and [r.estimate for r in slow.records] == [r.estimate for r in fast.records]
    )
    if not agree:
        raise ProtocolError(
            "batched and per-update engines disagree on the same stream; "
            "this violates the equivalence contract — please report"
        )
    n = len(updates)
    return n / slow_seconds, n / fast_seconds, slow_seconds / fast_seconds


def measure_columnar_throughput(
    factory,
    trace,
    record_every: int = 20_000,
    shards: int = 1,
) -> Tuple[float, float, float]:
    """Time the per-update engine against the columnar array engine.

    The columnar counterpart of :func:`measure_engine_throughput` for
    replayed traces (:class:`repro.streams.io.TraceColumns`): the baseline
    replays the trace as :class:`~repro.types.Update` objects through the
    per-update engine, the fast run feeds the arrays straight into
    :func:`repro.monitoring.runner.run_tracking_arrays`.  The engines must
    agree bit-for-bit on message totals, bit totals and every recorded
    estimate — a divergence raises
    :class:`~repro.exceptions.ProtocolError`.

    Returns:
        ``(per_update_rate, arrays_rate, speedup)`` in updates/second.
    """
    def build_network():
        return build_tree_network(factory, fanouts=[shards] if shards > 1 else [])

    updates = trace.to_updates()
    begin = time.perf_counter()
    slow = run_tracking(
        build_network(), updates, record_every=record_every, batched=False
    )
    slow_seconds = time.perf_counter() - begin
    begin = time.perf_counter()
    fast = run_tracking_arrays(
        build_network(),
        trace.times,
        trace.sites,
        trace.deltas,
        record_every=record_every,
    )
    fast_seconds = time.perf_counter() - begin
    agree = (
        slow.total_messages == fast.total_messages
        and slow.total_bits == fast.total_bits
        and [r.estimate for r in slow.records] == [r.estimate for r in fast.records]
    )
    if not agree and shards > 1:
        # Sharded root-hop counts legitimately differ between delivery
        # granularities (see the push-granularity note in the sharding
        # module); estimates must still match exactly.
        agree = [r.estimate for r in slow.records] == [
            r.estimate for r in fast.records
        ]
    if not agree:
        raise ProtocolError(
            "columnar and per-update engines disagree on the same trace; "
            "this violates the equivalence contract — please report"
        )
    n = len(trace)
    return n / slow_seconds, n / fast_seconds, slow_seconds / fast_seconds


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
