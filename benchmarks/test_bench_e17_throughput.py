"""E17 (engine): throughput of the batched streaming engine vs per-update.

The batched engine simulates the block protocol in closed form — bulk count
reports, charged superseded estimation reports, simulated block closes — and
must produce bit-for-bit identical estimates, message counts and bit counts
(asserted here and, exhaustively, in ``tests/test_batch_equivalence.py``).
This benchmark measures what that buys: updates/second for the deterministic
and randomized trackers at ``k in {4, 16, 64}`` under blocked (sharded)
assignment, plus a headline 1,000,000-update random-walk run targeting the
>= 5x speedup the engine was built for.

Speedup ratios are robust to machine speed (both engines slow down
together), so the assertions check ratios, not absolute rates.
"""

from bench_support import check, size

from repro.analysis import measure_engine_throughput
from repro.api import RunSpec, SourceSpec, TrackerSpec

SWEEP_N = size(150_000, 10_000)
HEADLINE_N = size(1_000_000, 20_000)
SITE_COUNTS = [4, 16, 64]
EPSILON = 0.1
BLOCK_LENGTH = 4_096
RECORD_EVERY = 20_000


def _spec(tracker: TrackerSpec, length: int, num_sites: int) -> RunSpec:
    """The E17 scenario: a blocked random walk timed on the batched engine."""
    return RunSpec(
        source=SourceSpec(
            stream="random_walk",
            length=length,
            seed=31,
            sites=num_sites,
            assignment="blocked",
            assignment_params={"block_length": BLOCK_LENGTH},
        ),
        tracker=tracker,
        engine="batched",
        record_every=RECORD_EVERY,
    )


def _measure():
    rows = []
    for num_sites in SITE_COUNTS:
        for tracker in ("deterministic", "randomized"):
            slow_rate, fast_rate, speedup = measure_engine_throughput(
                _spec(TrackerSpec(name=tracker, epsilon=EPSILON, seed=5), SWEEP_N, num_sites)
            )
            rows.append(
                [
                    tracker,
                    num_sites,
                    SWEEP_N,
                    round(slow_rate),
                    round(fast_rate),
                    round(speedup, 2),
                ]
            )
    slow_rate, fast_rate, speedup = measure_engine_throughput(
        _spec(TrackerSpec(name="deterministic", epsilon=EPSILON), HEADLINE_N, 16)
    )
    rows.append(
        ["deterministic", 16, HEADLINE_N, round(slow_rate), round(fast_rate), round(speedup, 2)]
    )
    return rows


def test_bench_e17_throughput(benchmark, table_printer):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    table_printer(
        "E17 / engine — batched vs per-update throughput (random walk)",
        ["algorithm", "k", "n", "per-update up/s", "batched up/s", "speedup"],
        rows,
    )
    # The batched rates feed the bench-trend CI job (benchmarks/trend.py):
    # every *_updates_per_second key is diffed against the committed
    # baseline, so a kernel regression shows up as a failing delta row.
    for tracker, num_sites, _, _, fast_rate, _ in rows[:-1]:
        benchmark.extra_info[
            f"{tracker}_k{num_sites}_updates_per_second"
        ] = fast_rate
    benchmark.extra_info["headline_updates_per_second"] = rows[-1][4]
    # The batched engine must never lose to per-update dispatch.
    for row in rows:
        check(row[5] >= 1.0)
    # Headline: >= 5x on random_walk_stream(1_000_000) (measured ~7-8x; the
    # margin below absorbs machine noise without weakening the claim).
    headline = rows[-1]
    assert headline[2] == HEADLINE_N
    check(headline[5] >= 5.0)
    # The sweep should already show substantial wins at k >= 16 (measured
    # 6-15x; the low floor keeps timing noise from failing the suite).
    for row in rows:
        if row[1] >= 16:
            check(row[5] >= 1.5)
