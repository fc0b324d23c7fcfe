"""E22 (observability): instrumentation overhead on the E17 throughput scenario.

The observability layer's design contract is "pay only when attached":
every protocol hook is one ``if observer is not None`` test, so an
uninstrumented run must be effectively free, and a full metrics registry
must cost well under 10% of throughput (the trace log may cost more — it
allocates an event per message — and is reported but not bounded).

Three configurations over the E17 workload (random-walk stream, blocked
assignment, ``k = 16``), for both the per-update and the batched engine,
plus a lossy asynchronous engine (``FaultyChannel`` at 10% i.i.d. loss) —
the reliability counters (drops, retransmissions, duplicates) are likewise
derived at scrape time from the channel's own accounting, so they must fit
in the same overhead budget:

* ``off`` — plain network, no observers (the baseline);
* ``metrics`` — ``instrument_network`` with a registry;
* ``metrics+trace`` — registry plus a ring-buffered ``TraceLog``.

Each row reports updates/second and the overhead versus ``off``.  All
three configurations must also agree bit-for-bit on the protocol's
outputs — that part is structural and asserted in smoke mode too.
"""

import gc
import time

from bench_support import check, size

from repro.api import SourceSpec, TrackerSpec
from repro.asynchrony import UniformLatency, async_channels
from repro.faults import FaultPlan
from repro.monitoring import build_tree_network, run_tracking
from repro.observability import TraceLog, instrument_network

PER_UPDATE_N = size(150_000, 10_000)
BATCHED_N = size(2_000_000, 20_000)  # the batched engine needs a long run to time stably
LOSSY_N = size(60_000, 5_000)  # the ARQ layer pays per-event scheduling costs
NUM_SITES = 16
EPSILON = 0.1
BLOCK_LENGTH = 4_096
RECORD_EVERY = 20_000
REPEATS = 3  # best-of, to keep scheduler noise out of the overhead ratios
CONFIGS = ("off", "metrics", "metrics+trace")


def _workload(length: int) -> list:
    """The E17 scenario's source axis, declared as a spec."""
    return SourceSpec(
        stream="random_walk",
        length=length,
        seed=31,
        sites=NUM_SITES,
        assignment="blocked",
        assignment_params={"block_length": BLOCK_LENGTH},
    ).build_updates()


def _factory():
    return TrackerSpec(name="deterministic", epsilon=EPSILON).build_factory(
        NUM_SITES
    )


def _build_network(engine):
    if engine == "lossy-async":
        return build_tree_network(
            _factory(),
            fanouts=[],
            channel_factory=async_channels(
                [], UniformLatency(0.5, 2.0), seed=3, faults=FaultPlan(loss=0.1, seed=7)
            ),
        )
    return _factory().build_network()


def _timed_run(updates, engine, batched, config):
    """One run under ``config``; returns (seconds, result fingerprint)."""
    network = _build_network(engine)
    if config == "metrics":
        instrument_network(network)
    elif config == "metrics+trace":
        instrument_network(network, trace=TraceLog(capacity=4096))
    gc.collect()  # no config pays for the garbage of the run before it
    start = time.perf_counter()
    result = run_tracking(network, updates, record_every=RECORD_EVERY, batched=batched)
    elapsed = time.perf_counter() - start
    fingerprint = (
        [(r.time, r.estimate, r.true_value) for r in result.records],
        result.total_messages,
        result.total_bits,
        dict(result.messages_by_kind),
    )
    return elapsed, fingerprint


def _race(updates, engine, batched):
    """Best-of-``REPEATS`` updates/s and a fingerprint for every config.

    The configs run interleaved (off, metrics, trace, off, ...) so a stretch
    of host noise slows every config alike instead of landing on one of them.
    """
    best = {config: float("inf") for config in CONFIGS}
    fingerprints = {}
    for repeat in range(REPEATS + 1):
        for config in CONFIGS:
            elapsed, fingerprints[config] = _timed_run(
                updates, engine, batched, config
            )
            if repeat > 0:  # the first round only warms caches and the allocator
                best[config] = min(best[config], elapsed)
    return {config: len(updates) / best[config] for config in CONFIGS}, fingerprints


def _measure():
    rows = []
    for engine, batched, length in (
        ("per-update", False, PER_UPDATE_N),
        ("batched", True, BATCHED_N),
        ("lossy-async", False, LOSSY_N),
    ):
        rates, fingerprints = _race(_workload(length), engine, batched)
        for config in CONFIGS:
            overhead = 1.0 - rates[config] / rates["off"]
            rows.append(
                [
                    engine,
                    config,
                    length,
                    round(rates[config]),
                    f"{overhead * 100:+.1f}%",
                    overhead,
                    fingerprints[config] == fingerprints["off"],
                ]
            )
    return rows


def test_bench_e22_observability_overhead(benchmark, table_printer):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    table_printer(
        "E22 / observability — instrumentation overhead (E17 scenario, k=16)",
        ["engine", "config", "n", "updates/s", "overhead", "bit-for-bit"],
        [row[:5] + [row[6]] for row in rows],
    )
    # Structural at any size: instrumented runs are bit-for-bit identical.
    for row in rows:
        assert row[6], f"{row[0]}/{row[1]} diverged from the baseline"
    # Quantitative (full scale only): the registry costs under 10%.
    for row in rows:
        if row[1] == "metrics":
            check(
                row[5] < 0.10,
                f"{row[0]} registry overhead {row[4]} breaches the 10% budget",
            )
