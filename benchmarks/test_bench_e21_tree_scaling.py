"""E21 (recursive trees): depth x fan-out scaling and root-traffic decay.

The recursive L-level tree (:mod:`repro.monitoring.tree`) exists so the
root's load stays bounded as the monitored site count ``k`` scales: every
aggregation node only ever talks to its own fan-out many children, whatever
``k`` is.  This benchmark pins that shape three ways:

* **Depth x fan-out grid at fixed k.**  Same stream, same sites, shapes
  from flat to four levels under the geometric budget split: per-level
  message counts, root traffic, wall-clock and achieved error per shape.
  In every tree the traffic attenuates strictly from the leaves to the
  root — each aggregation level's deadband absorbs subtree wobbles instead
  of re-broadcasting every leaf report upward.
* **Root traffic is sublinear in k.**  A k-sweep with the root fan-out
  growing as ``sqrt(k)``: doubling the sites must *less* than double the
  root's message count (the hierarchy's reason to exist).
* **Paper-scale end-to-end.**  A 4-level tree over ``k = 10^5`` sites runs
  the full pipeline (spec -> build -> batched engine -> per-level summary)
  with the updates/s figure recorded in the benchmark JSON; per-level
  message counts must decrease strictly from the leaves to the root.
* **Million-site lazy point.**  A 4-level tree over ``k = 10^6`` sites
  driven by the columnar engine (:func:`repro.monitoring.runner.run_tracking`
  over :class:`~repro.streams.io.TraceColumns`): leaves are built
  lazily (:func:`build_tree_network`), so construction costs O(touched
  leaves) and the whole point — build plus run — fits the CI smoke budget.
  The leaf-materialisation count is asserted structurally: only leaves the
  trace touches exist.
* **High leaf-touch dispatch.**  The same million-site tree fed 16-update
  segments that hop leaves almost every segment — the regime where a
  replay used to pay for every site of every touched leaf.  Sites are built
  on first touch and no leaf closes a block here, so the replay builds
  exactly one site per distinct site in the trace (asserted exactly).
"""

import time

import numpy as np

from bench_support import check, size

from repro.analysis import root_traffic_fraction
from repro.api import RunSpec, SourceSpec, TopologySpec, TrackerSpec
from repro.core import DeterministicCounter
from repro.monitoring.runner import run_tracking
from repro.monitoring.tree import build_tree_network
from repro.streams.io import TraceColumns

LENGTH = size(120_000, 4_000)
NUM_SITES = size(4_096, 512)
EPSILON = 0.1
RECORD_EVERY = size(2_000, 100)
# (label, levels, fanout) — every shape partitions the same NUM_SITES.
SHAPES = [
    ("flat", 1, None),
    ("2-level", 2, 8),
    ("3-level", 3, 8),
    ("4-level", 4, 8),
]
K_SWEEP = [size(k, k // 16) for k in (1_024, 4_096, 16_384)]
BIG_SITES = size(100_000, 1_000)
BIG_LENGTH = size(200_000, 5_000)
# The million-site point keeps k at full scale even in smoke mode — lazy
# leaves are exactly what makes that affordable; only the trace shrinks.
MILLION_SITES = 1_000_000
MILLION_LENGTH = size(400_000, 20_000)
MILLION_BLOCK = 4_096
# High leaf-touch regime: 16-update segments, so nearly every segment lands
# on a different leaf and dispatch overhead, not kernel math, is the cost.
HIGH_TOUCH_BLOCK = 16
HIGH_TOUCH_LENGTH = size(200_000, 10_000)


def _spec(length, sites, seed, **topology):
    return RunSpec(
        source=SourceSpec(
            stream="biased_walk",
            length=length,
            seed=seed,
            sites=sites,
            params={"drift": 0.5},
        ),
        tracker=TrackerSpec(name="deterministic", epsilon=EPSILON),
        topology=TopologySpec(**topology),
        engine="batched",
        record_every=RECORD_EVERY,
    )


def _run_shape(spec):
    start = time.perf_counter()
    result = spec.run()
    elapsed = time.perf_counter() - start
    return result, elapsed


def _measure():
    grid = []
    for label, levels, fanout in SHAPES:
        # The geometric split is what quiets the root as depth grows: each
        # aggregation level holds a share of the budget as a push deadband,
        # so small subtree wobbles die out on the way up instead of
        # re-broadcasting every leaf report to the root.
        topology = (
            {}
            if levels == 1
            else {"levels": levels, "fanout": fanout, "epsilon_split": "geometric"}
        )
        result, elapsed = _run_shape(_spec(LENGTH, NUM_SITES, 21, **topology))
        rows = result.levels or []
        grid.append(
            {
                "label": label,
                "result": result,
                "levels": rows,
                "root_messages": rows[0]["messages"] if rows else 0,
                "seconds": elapsed,
            }
        )

    sweep = []
    for sites in K_SWEEP:
        fanout = max(2, int(round(sites ** 0.5)))
        result, _ = _run_shape(_spec(LENGTH, sites, 23, levels=2, fanout=fanout))
        sweep.append(
            {
                "sites": sites,
                "fanout": fanout,
                "root_messages": result.levels[0]["messages"],
            }
        )

    fanouts = [10, 10, 10] if BIG_SITES >= 100_000 else [4, 4, 4]
    big_spec = _spec(
        BIG_LENGTH, BIG_SITES, 29, fanouts=fanouts, epsilon_split="geometric"
    )
    big_result, big_seconds = _run_shape(big_spec)
    big = {
        "result": big_result,
        "levels": big_result.levels,
        "fanouts": fanouts,
        "seconds": big_seconds,
        "updates_per_second": BIG_LENGTH / big_seconds,
    }
    return grid, sweep, big, _measure_million(), _measure_high_touch()


def _million_columns(length=None, block=None, seed=37):
    """A drifting trace over the full million-site range, blocked by site.

    Hand-rolled columns instead of a :class:`SourceSpec` so the site axis
    can span all of ``MILLION_SITES`` while the trace stays short: each
    ``block``-update run lands on one uniformly random site — 4096-update
    blocks touch ~100 distinct leaves out of 1000 on the full trace, while
    16-update blocks hop leaves nearly every segment.
    """
    length = MILLION_LENGTH if length is None else length
    block = MILLION_BLOCK if block is None else block
    rng = np.random.default_rng(seed)
    times = np.arange(1, length + 1, dtype=np.int64)
    deltas = rng.choice(np.array([-1, 1], dtype=np.int64), size=length, p=[0.2, 0.8])
    num_blocks = -(-length // block)
    block_sites = rng.integers(0, MILLION_SITES, size=num_blocks, dtype=np.int64)
    sites = np.repeat(block_sites, block)[:length]
    return times, sites, deltas


def _measure_million():
    times, sites, deltas = _million_columns()
    columns = TraceColumns(times, sites, deltas)
    build_start = time.perf_counter()
    network = build_tree_network(
        DeterministicCounter(MILLION_SITES, EPSILON),
        fanouts=[10, 10, 10],
        epsilon_split="geometric",
    )
    build_seconds = time.perf_counter() - build_start
    run_start = time.perf_counter()
    result = run_tracking(network, columns, record_every=size(20_000, 2_000))
    run_seconds = time.perf_counter() - run_start
    leaves = network.leaves()
    materialized = sum(1 for leaf in leaves if leaf.network.num_built_sites)
    return {
        "result": result,
        "build_seconds": build_seconds,
        "run_seconds": run_seconds,
        "updates_per_second": MILLION_LENGTH / run_seconds,
        "total_leaves": len(leaves),
        "materialized_leaves": materialized,
        "distinct_sites": int(np.unique(sites).size),
        "true_value": int(deltas.sum()),
    }


def _measure_high_touch():
    """The million-site tree replaying 16-update segments that hop leaves."""
    times, sites, deltas = _million_columns(
        length=HIGH_TOUCH_LENGTH, block=HIGH_TOUCH_BLOCK, seed=41
    )
    columns = TraceColumns(times, sites, deltas)
    network = build_tree_network(
        DeterministicCounter(MILLION_SITES, EPSILON),
        fanouts=[10, 10, 10],
        epsilon_split="geometric",
    )
    start = time.perf_counter()
    result = run_tracking(network, columns, record_every=size(20_000, 2_000))
    seconds = time.perf_counter() - start
    built_sites = sum(leaf.network.num_built_sites for leaf in network.leaves())
    return {
        "result": result,
        "updates_per_second": HIGH_TOUCH_LENGTH / seconds,
        "segments": int(np.count_nonzero(np.diff(sites)) + 1),
        "built_sites": built_sites,
        "distinct_sites": int(np.unique(sites).size),
        "true_value": int(deltas.sum()),
    }


def test_bench_e21_tree_scaling(benchmark, table_printer):
    grid, sweep, big, million, high_touch = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )
    table_printer(
        "E21 / trees — depth x fan-out at fixed k "
        f"(biased walk, n={LENGTH}, k={NUM_SITES}, eps={EPSILON})",
        [
            "shape",
            "total msgs",
            "root msgs",
            "root share",
            "seconds",
            "max rel err",
        ],
        [
            [
                row["label"],
                row["result"].total_messages,
                row["root_messages"],
                (
                    round(root_traffic_fraction(row["levels"]), 4)
                    if row["levels"]
                    else "-"
                ),
                round(row["seconds"], 3),
                round(row["result"].max_relative_error(), 4),
            ]
            for row in grid
        ],
    )
    table_printer(
        f"E21 / trees — root traffic vs k (2-level, fanout=sqrt(k), n={LENGTH})",
        ["sites", "fanout", "root msgs", "root msgs / k"],
        [
            [
                row["sites"],
                row["fanout"],
                row["root_messages"],
                round(row["root_messages"] / row["sites"], 3),
            ]
            for row in sweep
        ],
    )
    table_printer(
        f"E21 / trees — 4-level end-to-end (k={BIG_SITES}, n={BIG_LENGTH}, "
        f"fanouts={big['fanouts']}, {big['updates_per_second']:.0f} updates/s)",
        ["level", "role", "nodes", "messages", "bits"],
        [
            [row["level"], row["role"], row["nodes"], row["messages"], row["bits"]]
            for row in big["levels"]
        ],
    )
    table_printer(
        f"E21 / trees — million-site lazy point (k={MILLION_SITES}, "
        f"n={MILLION_LENGTH}, levels=4, fanout=10, columnar engine)",
        [
            "build s",
            "run s",
            "updates/s",
            "leaves built",
            "leaves total",
            "max rel err",
        ],
        [
            [
                round(million["build_seconds"], 3),
                round(million["run_seconds"], 3),
                round(million["updates_per_second"]),
                million["materialized_leaves"],
                million["total_leaves"],
                round(million["result"].max_relative_error(), 4),
            ]
        ],
    )
    benchmark.extra_info["big_tree_updates_per_second"] = big["updates_per_second"]
    benchmark.extra_info["big_tree_sites"] = BIG_SITES
    benchmark.extra_info["big_tree_root_messages"] = big["levels"][0]["messages"]
    table_printer(
        f"E21 / trees — high leaf-touch dispatch (k={MILLION_SITES}, "
        f"n={HIGH_TOUCH_LENGTH}, block={HIGH_TOUCH_BLOCK}, levels=4, fanout=10)",
        ["segments", "updates/s", "sites built", "distinct sites"],
        [
            [
                high_touch["segments"],
                round(high_touch["updates_per_second"]),
                high_touch["built_sites"],
                high_touch["distinct_sites"],
            ]
        ],
    )
    benchmark.extra_info["million_tree_updates_per_second"] = million[
        "updates_per_second"
    ]
    benchmark.extra_info["million_tree_build_seconds"] = million["build_seconds"]
    benchmark.extra_info["million_tree_leaves_materialized"] = million[
        "materialized_leaves"
    ]
    benchmark.extra_info["high_touch_tree_updates_per_second"] = high_touch[
        "updates_per_second"
    ]

    # Within every tree the traffic attenuates strictly from the leaves to
    # the root, and the root carries a minority of the total — structural,
    # holds at any size.
    tree_rows = [row for row in grid if row["levels"]]
    assert tree_rows
    for row in tree_rows:
        counts = [level["messages"] for level in row["levels"]]
        assert counts == sorted(counts) and counts[0] < counts[-1], (
            f"{row['label']}: per-level messages not attenuating toward the "
            f"root: {counts}"
        )
        assert root_traffic_fraction(row["levels"]) < 0.5
    # Every shape keeps the tracking guarantee's shape (the merged estimate
    # degrades gracefully with depth, not catastrophically).
    check(
        all(row["result"].max_relative_error() <= 3 * EPSILON for row in grid),
        "tree tracking error drifted far beyond the flat guarantee",
    )
    # Root traffic is strictly sublinear in k: doubling the sites less than
    # doubles the root's message count.  Structural — holds at any size.
    for smaller, larger in zip(sweep, sweep[1:]):
        growth = larger["root_messages"] / max(1, smaller["root_messages"])
        assert growth < larger["sites"] / smaller["sites"], (
            f"root traffic grew superlinearly in k: "
            f"{smaller['root_messages']} @ k={smaller['sites']} -> "
            f"{larger['root_messages']} @ k={larger['sites']}"
        )
    # The paper-scale tree's traffic concentrates at the leaves: per-level
    # message counts decrease strictly from the leaf level to the root, and
    # the root sees asymptotically fewer messages than there are sites.
    big_counts = [row["messages"] for row in big["levels"]]
    assert big_counts == sorted(big_counts), (
        f"per-level messages not increasing root->leaf: {big_counts}"
    )
    assert big_counts[0] < big_counts[-1]
    check(
        big_counts[0] < BIG_SITES,
        f"root saw {big_counts[0]} messages for k={BIG_SITES}; expected "
        "sublinear root traffic",
    )
    # The million-site point is lazy end to end: only leaves the trace
    # touches were ever built — at most one per distinct site, a sliver of
    # the 1000-leaf tree.  Structural, holds at any trace length.
    assert 0 < million["materialized_leaves"] <= million["distinct_sites"]
    assert million["materialized_leaves"] < million["total_leaves"] // 2, (
        f"{million['materialized_leaves']} of {million['total_leaves']} leaves "
        "materialised — laziness is not paying for itself"
    )
    # The sparse replay still tracks: the recorded trace ends on the true
    # running total and the estimate honours the (tree-split) budget.
    assert million["result"].records[-1].true_value == million["true_value"]
    check(
        million["result"].max_relative_error() <= 3 * EPSILON,
        "million-site tree tracking error drifted beyond the flat guarantee",
    )
    # Laziness is also what keeps this point inside the CI smoke budget:
    # building the untouched million-site tree eagerly takes tens of
    # seconds; the lazy build is bounded by the touched-leaf count.
    check(
        million["build_seconds"] < 5.0,
        f"lazy million-site build took {million['build_seconds']:.1f}s",
    )
    # High leaf-touch dispatch pays per touched site: no leaf closes a block
    # on this trace, so the replay builds exactly one site per distinct site
    # it addresses, and still ends on the true running total.
    assert high_touch["built_sites"] == high_touch["distinct_sites"], (
        f"built {high_touch['built_sites']} sites for "
        f"{high_touch['distinct_sites']} distinct sites in the trace"
    )
    assert high_touch["result"].records[-1].true_value == high_touch["true_value"]
