"""E20 (engine): multi-block fast-forwarding at small ``k``.

E17's bottleneck rows are small site counts at low block levels: with
``k = 4`` near ``f = 0`` a block is only ~4 updates long, so the seed
batched engine spent most of its time simulating block closes one at a time
(one Python-level ``fast_close_step`` plus a tiny estimation span per
block).  The span kernel's multi-block fast-forward
(:meth:`repro.engine.SpanKernel.fast_forward_closes`) computes whole runs of
consecutive same-level closes in closed form instead.

This benchmark reruns the E17 sweep parameters at small ``k`` twice through
the batched engine — fast-forward ON (the default) versus OFF (bit-for-bit
the seed single-close engine) — and reports both ratios against per-update
dispatch.  The ON/OFF runs must agree on every counter (structural assert,
any scale); the quantitative claim is that fast-forwarding makes the
batched engine strictly faster on the k = 4 rows that motivated it.

A second sweep drives the *cross-level* regime: a biased walk whose block
closes climb the level ladder mid-run.  These rows used to cut the
fast-forward window at every level change and replay per update; the close
ladder (``_close_ladder``) now walks the whole level schedule in closed
form, so cross-level throughput must stay within 2x of the same-level rows
above — the ROADMAP's "level-crossing rows no longer regress to fallback
speed" target.

A third sweep drives the *descent* regime: an oscillating mean-reverting
walk whose block closes go **down** the level ladder as often as up.  The
close ladder steps such schedules one close at a time in plain Python and
probes only same-level stretches that outlast that walk, in chunks that
grow while the level holds; each tracker's window hook charges a whole
mixed-level window in one formulation, so these rows must match per-update
delivery on every counter and beat it on throughput.
"""

import dataclasses
import gc
import statistics
import time

from bench_support import check, size

from repro.api import RunSpec, SourceSpec, TopologySpec, TrackerSpec
from repro.engine import SpanKernel

SWEEP_N = size(150_000, 10_000)
SITE_COUNTS = [2, 4, 8]
EPSILON = 0.1
BLOCK_LENGTH = 4_096
RECORD_EVERY = 20_000
SEED = 31  # the E17 stream seed, so rows are comparable across benchmarks
REPEATS = 5  # timed runs per batched arm; each finishes in ~0.1 s


def _fingerprint(result):
    return (
        [(r.time, r.true_value, r.estimate, r.messages, r.bits) for r in result.records],
        result.total_messages,
        result.total_bits,
        result.messages_by_kind,
    )


def _base_spec(num_sites: int, tracker: str, stream: str = "random_walk", **params) -> RunSpec:
    """The E20 scenario, declared once; the engine axis varies per run."""
    return RunSpec(
        source=SourceSpec(
            stream=stream,
            length=SWEEP_N,
            seed=SEED,
            sites=num_sites,
            assignment="blocked",
            assignment_params={"block_length": BLOCK_LENGTH},
            params=params,
        ),
        tracker=TrackerSpec(name=tracker, epsilon=EPSILON, seed=5),
        topology=TopologySpec(shards=1),
        engine="batched",
        record_every=RECORD_EVERY,
    )


def _timed_run(spec, kernel=None, workload=None):
    """Time one run; ``workload`` (a built run) lends its updates to a fresh network."""
    if workload is None:
        built = spec.build()
    else:
        built = dataclasses.replace(workload, network=spec.build_network())
    # Sites are built on first touch; build them all before the clock starts
    # so every arm times the same work, whether or not it swaps the kernel.
    for site in built.network.sites:
        if kernel is not None:
            site.span_kernel = kernel
    begin = time.perf_counter()
    result = built.run()
    return time.perf_counter() - begin, result


def _race(spec, *kernels):
    """Median seconds over ``REPEATS`` runs and a result for each kernel arm.

    The arms run interleaved (A, B, A, B, ...) so a stretch of host noise
    slows every arm alike instead of landing on one of them, and the median
    ignores a lone run the host slowed or sped up.  ``None`` is the default
    kernel.
    """
    workload = spec.build()
    seconds = [[] for _ in kernels]
    results = [None] * len(kernels)
    for _ in range(REPEATS):
        for arm, kernel in enumerate(kernels):
            gc.collect()  # no arm pays for the garbage of the run before it
            elapsed, results[arm] = _timed_run(spec, kernel, workload)
            seconds[arm].append(elapsed)
    return [statistics.median(arm) for arm in seconds], results


def _measure():
    rows = []
    single_close = SpanKernel(fast_forward=False)
    for num_sites in SITE_COUNTS:
        for name in ("deterministic", "randomized"):
            base = _base_spec(num_sites, name)
            slow_seconds, slow = _timed_run(
                base.with_overrides({"engine": "per-update"})
            )
            (seed_seconds, fast_seconds), (seed_result, fast) = _race(
                base, single_close, None
            )
            # Fast-forwarding must be invisible in every counter, at any
            # scale — the speed is the only thing allowed to change.
            assert _fingerprint(slow) == _fingerprint(seed_result) == _fingerprint(fast)
            rows.append(
                [
                    name,
                    num_sites,
                    SWEEP_N,
                    round(SWEEP_N / slow_seconds),
                    round(SWEEP_N / seed_seconds),
                    round(SWEEP_N / fast_seconds),
                    round(slow_seconds / seed_seconds, 2),
                    round(slow_seconds / fast_seconds, 2),
                    round(seed_seconds / fast_seconds, 2),
                ]
            )
    return rows


def _measure_cross_level():
    """Fast-forward throughput when block closes climb levels mid-run."""
    rows = []
    for num_sites in SITE_COUNTS:
        for name in ("deterministic", "randomized"):
            base = _base_spec(num_sites, name, stream="biased_walk", drift=0.6)
            slow_seconds, slow = _timed_run(
                base.with_overrides({"engine": "per-update"})
            )
            (fast_seconds,), (fast,) = _race(base, None)
            assert _fingerprint(slow) == _fingerprint(fast)
            rows.append(
                [
                    name,
                    num_sites,
                    SWEEP_N,
                    round(SWEEP_N / slow_seconds),
                    round(SWEEP_N / fast_seconds),
                    round(slow_seconds / fast_seconds, 2),
                ]
            )
    return rows


def _measure_descent():
    """Throughput when the level schedule oscillates — descends, not just climbs.

    The oscillating stream's mean reversion (``target=24, pull=0.12``) keeps
    the running value crossing band edges in both directions, so consecutive
    block closes form long up-down level schedules.  Per-update dispatch and
    the batched engine run identical workloads and must agree on every
    counter.
    """
    rows = []
    for num_sites in SITE_COUNTS:
        for name in ("deterministic", "randomized"):
            base = _base_spec(
                num_sites, name, stream="oscillating", target=24, pull=0.12
            )
            slow_seconds, slow = _timed_run(
                base.with_overrides({"engine": "per-update"})
            )
            (fast_seconds,), (fast,) = _race(base, None)
            assert _fingerprint(slow) == _fingerprint(fast)
            rows.append(
                [
                    name,
                    num_sites,
                    SWEEP_N,
                    round(SWEEP_N / slow_seconds),
                    round(SWEEP_N / fast_seconds),
                    round(slow_seconds / fast_seconds, 2),
                ]
            )
    return rows


def _both():
    return _measure(), _measure_cross_level(), _measure_descent()


def test_bench_e20_multiblock_fastforward(benchmark, table_printer):
    rows, cross_rows, descent_rows = benchmark.pedantic(_both, rounds=1, iterations=1)
    table_printer(
        "E20 / engine — multi-block fast-forward vs single-close batched "
        "(random walk, blocked assignment)",
        [
            "algorithm",
            "k",
            "n",
            "per-update up/s",
            "single-close up/s",
            "fast-forward up/s",
            "seed speedup",
            "ff speedup",
            "ff / seed",
        ],
        rows,
    )
    table_printer(
        "E20 / engine — cross-level fast-forward (biased walk drift=0.6, "
        "closes climb the level ladder)",
        [
            "algorithm",
            "k",
            "n",
            "per-update up/s",
            "fast-forward up/s",
            "ff speedup",
        ],
        cross_rows,
    )
    table_printer(
        "E20 / engine — descent schedules (oscillating walk target=24 "
        "pull=0.12, closes go down the ladder as often as up)",
        [
            "algorithm",
            "k",
            "n",
            "per-update up/s",
            "descent up/s",
            "speedup vs per-update",
        ],
        descent_rows,
    )
    # Throughput rows for the bench-trend CI job (benchmarks/trend.py).
    for row in rows:
        benchmark.extra_info[
            f"{row[0]}_k{row[1]}_fastforward_updates_per_second"
        ] = row[5]
    for row in cross_rows:
        benchmark.extra_info[
            f"{row[0]}_k{row[1]}_crosslevel_updates_per_second"
        ] = row[4]
    for row in descent_rows:
        benchmark.extra_info[
            f"{row[0]}_k{row[1]}_descent_updates_per_second"
        ] = row[4]
    for row in rows:
        # Fast-forwarding must never lose to the single-close engine.
        check(row[8] >= 1.0, f"fast-forward slower than single-close: {row}")
    # Headline: on the E17 bottleneck rows (k = 4) the batched engine is now
    # strictly faster than the seed engine on the same parameters (measured
    # 2-4x; the floor absorbs machine noise without weakening the claim).
    for row in rows:
        if row[1] == 4:
            check(row[8] >= 1.2, f"no multi-block win on the k=4 row: {row}")
            check(row[7] > row[6], f"batched speedup did not improve: {row}")
    # Cross-level rows ride the close ladder instead of falling back to
    # per-update replay: within 2x of the matching same-level rows.
    same_level = {(row[0], row[1]): row[5] for row in rows}
    for row in cross_rows:
        reference = same_level[(row[0], row[1])]
        check(
            row[4] * 2 >= reference,
            f"cross-level throughput fell behind 2x of same-level: "
            f"{row[4]} vs {reference} ({row[0]}, k={row[1]})",
        )
        # And it must beat its own per-update baseline outright.
        check(row[5] >= 1.0, f"cross-level fast-forward lost to per-update: {row}")
    # Descent schedules must never lose to per-update dispatch.
    for row in descent_rows:
        check(row[5] >= 1.0, f"descent kernel lost to per-update: {row}")
