"""Golden fingerprints: tree and flat runs pinned bit-for-bit against stored data.

The equivalence suites compare one build of a tree with another build of
the same tree, so a change to how trees are wired or driven cannot be
caught by them alone.  This file pins the *outputs* instead: every case
below runs a fixed workload through ``build_tree_network`` (trees and the
flat star, on every engine and transport, and the runner's default engine
choice) and compares a fingerprint of everything the run reports — records,
totals, per-kind counts (in key order), per-level rows, ``shard_stats()``
(a flat star's channel stats), asynchronous staleness and
settled state, reliability counters and, for logged runs, digests of the
root and leaf transcripts (and, for the traced run, of the trace log, whose
event order follows the order the tree drives its channels) — with
``tests/data/tree_golden.json``.

The data file is written by this module::

    PYTHONPATH=src python tests/test_tree_golden.py --write

Regenerating it changes what "bit-for-bit" means, so only do it for an
intended behaviour change.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.asynchrony import UniformLatency, async_channels
from repro.core import DeterministicCounter, RandomizedCounter
from repro.faults import FaultPlan, enable_close_repair
from repro.monitoring import build_tree_network, migrate_site, run_tracking
from repro.observability import TraceLog, instrument_network
from repro.streams import BlockedAssignment, assign_sites, random_walk_stream
from repro.streams.io import TraceColumns

GOLDEN = Path(__file__).parent / "data" / "tree_golden.json"
EPSILON = 0.1
SITES = 12


def _json(value):
    """``value`` as canonical JSON text (numpy scalars as Python numbers)."""
    return json.dumps(value, sort_keys=False, default=lambda o: o.item())


def _digest(value) -> str:
    return hashlib.sha256(_json(value).encode()).hexdigest()


def _stats(stats) -> dict:
    return {
        "messages": stats.messages,
        "bits": stats.bits,
        "by_kind": list(stats.by_kind.items()),
        "bits_by_kind": list(stats.bits_by_kind.items()),
        "dropped": stats.dropped,
        "retransmitted": stats.retransmitted,
        "duplicates": stats.duplicates,
    }


def _transcript(channel) -> str:
    return _digest(
        [
            [m.kind.value, m.sender, m.receiver, sorted(m.payload.items()), m.time]
            for m in channel.log
        ]
    )


def fingerprint(result, network) -> dict:
    """Everything a tree run reports, as JSON-compatible data."""
    records = [
        [r.time, r.true_value, r.estimate, r.messages, r.bits] for r in result.records
    ]
    data = {
        "num_records": len(records),
        "records": _digest(records),
        "last_record": records[-1] if records else None,
        "total_messages": result.total_messages,
        "total_bits": result.total_bits,
        "messages_by_kind": list(result.messages_by_kind.items()),
        "levels": result.levels,
    }
    if hasattr(network, "shard_stats"):
        data["shard_stats"] = [_stats(stats) for stats in network.shard_stats()]
    else:
        data["stats"] = _stats(network.stats)
    if hasattr(result, "final_clock"):
        staleness = result.staleness
        data["staleness"] = [
            staleness.delivered,
            staleness.mean_age,
            staleness.max_age,
            staleness.p95_age,
            staleness.inflight_highwater,
            staleness.reordered,
        ]
        data["final_clock"] = result.final_clock
        data["final_estimate"] = result.final_estimate
        data["final_true_value"] = result.final_true_value
        data["reliability"] = [result.dropped, result.retransmitted, result.duplicates]
    if network.channel.log_enabled:
        data["root_transcript"] = _transcript(network.root_network.channel)
        data["leaf_transcripts"] = [
            _transcript(leaf.network.channel) for leaf in network.leaves()
        ]
    return json.loads(_json(data))


def _updates(length=3_000, block=48, seed=7):
    stream = random_walk_stream(length, seed=seed)
    return list(assign_sites(stream, SITES, BlockedAssignment(block)))


def _run_sync(network, updates, engine, record_every=10):
    if engine == "arrays":
        return run_tracking(
            network,
            TraceColumns(
                np.array([u.time for u in updates]),
                np.array([u.site for u in updates]),
                np.array([u.delta for u in updates]),
            ),
            record_every=record_every,
        )
    return run_tracking(
        network, updates, record_every=record_every, batched=engine == "batched"
    )


GEOMETRIC = {"epsilon_split": "geometric", "broadcast_deadband": 0.5}

SYNC_SHAPES = {
    "flat": lambda: build_tree_network(DeterministicCounter(SITES, EPSILON), fanouts=[]),
    "fanouts3": lambda: build_tree_network(
        DeterministicCounter(SITES, EPSILON), fanouts=[3]
    ),
    "levels3_strided": lambda: build_tree_network(
        RandomizedCounter(SITES, EPSILON, seed=4),
        fanouts=[2, 2],
        partition="strided",
    ),
    "fanouts32_geometric": lambda: build_tree_network(
        DeterministicCounter(SITES, EPSILON), fanouts=[3, 2], **GEOMETRIC
    ),
    "fanouts32_uniform_strided": lambda: build_tree_network(
        DeterministicCounter(SITES, EPSILON),
        fanouts=[3, 2],
        partition="strided",
        epsilon_split="uniform",
    ),
    "levels3_geometric03": lambda: build_tree_network(
        RandomizedCounter(SITES, EPSILON, seed=4),
        fanouts=[2, 2],
        epsilon_split="geometric",
        split_ratio=0.3,
    ),
}

JITTER = UniformLatency(0.5, 3.0)

FANOUTS = {"levels3": [2, 2], "flat": []}

#: Asynchronous shapes: ``(fanouts, builder options)``.  The deadband shape
#: is the only one whose push and broadcast deadbands withhold messages.
ASYNC_SHAPES = {
    **{shape: (fanouts, {}) for shape, fanouts in FANOUTS.items()},
    "fanouts32_geometric": ([3, 2], GEOMETRIC),
}


def _async_network(factory, faults=None, seed=11, shape="levels3"):
    fanouts, options = ASYNC_SHAPES[shape]
    return build_tree_network(
        factory,
        fanouts=fanouts,
        channel_factory=async_channels(fanouts, JITTER, seed=seed, faults=faults),
        **options,
    )


def _case_sync(shape, engine, log=False):
    def run():
        network = SYNC_SHAPES[shape]()
        if log:
            network.channel.enable_log()
        return fingerprint(_run_sync(network, _updates(), engine), network)

    return run


def _case_async(batched, log=False, shape="levels3"):
    def run():
        network = _async_network(DeterministicCounter(SITES, EPSILON), shape=shape)
        if log:
            network.channel.enable_log()
        result = run_tracking(
            network, _updates(), record_every=10, batched=batched
        )
        return fingerprint(result, network)

    return run


def _case_lossy(shape):
    def run():
        network = _async_network(
            DeterministicCounter(SITES, EPSILON),
            faults=FaultPlan(loss=0.1, seed=5),
            shape=shape,
        )
        enable_close_repair(network)
        result = run_tracking(network, _updates(length=2_000), record_every=10)
        return fingerprint(result, network)

    return run


def _case_auto(asynchronous, shape):
    """The runner's default engine choice (no ``batched``), ``record_every > 1``."""

    def run():
        factory = DeterministicCounter(SITES, EPSILON)
        if asynchronous:
            network = _async_network(factory, shape=shape)
        else:
            network = build_tree_network(factory, fanouts=FANOUTS[shape])
        result = run_tracking(network, _updates(), record_every=10)
        return fingerprint(result, network)

    return run


def _case_traced():
    network = _async_network(DeterministicCounter(SITES, EPSILON))
    trace = TraceLog(capacity=1_000_000)
    instrument_network(network, trace=trace)
    result = run_tracking(network, _updates(), record_every=10)
    data = fingerprint(result, network)
    data["trace"] = _digest(trace.to_dicts())
    data["trace_events"] = len(trace)
    return data


def _case_migration(asynchronous, partition="contiguous"):
    def run():
        factory = DeterministicCounter(SITES, EPSILON)
        network = (
            _async_network(factory)
            if asynchronous
            else build_tree_network(factory, fanouts=[2, 2], partition=partition)
        )
        updates = _updates()
        head, tail = updates[:1_500], updates[1_500:]
        before = run_tracking(network, head, record_every=10)
        report = migrate_site(network, 1, dest_leaf=3, time=head[-1].time)
        after = run_tracking(network, tail, record_every=10)
        return {
            "before": fingerprint(before, network),
            "report": [
                report.source_leaf,
                report.dest_leaf,
                report.checkpoint_messages,
                report.transfer_hops,
                report.handoff_messages,
                report.handoff_bits,
            ],
            "after": fingerprint(after, network),
        }

    return run


CASES = {
    **{
        f"sync-{shape}-{engine}": _case_sync(shape, engine)
        for shape in SYNC_SHAPES
        for engine in ("per-update", "batched", "arrays")
    },
    "sync-fanouts3-per-update-logged": _case_sync("fanouts3", "per-update", log=True),
    "sync-levels3_strided-batched-logged": _case_sync(
        "levels3_strided", "batched", log=True
    ),
    **{
        f"async-{shape}-{engine}": _case_async(engine == "batched", shape=shape)
        for shape in FANOUTS
        for engine in ("per-update", "batched")
    },
    "async-fanouts32_geometric-per-update": _case_async(
        False, shape="fanouts32_geometric"
    ),
    "async-levels3-per-update-logged": _case_async(False, log=True),
    "async-levels3-per-update-traced": _case_traced,
    **{f"lossy-{shape}-repair": _case_lossy(shape) for shape in ASYNC_SHAPES},
    **{
        f"auto-{transport}-{shape}": _case_auto(transport == "async", shape)
        for transport in ("sync", "async")
        for shape in FANOUTS
    },
    "migration-sync": _case_migration(False),
    "migration-sync-strided": _case_migration(False, partition="strided"),
    "migration-async": _case_migration(True),
}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_case_is_pinned(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, golden):
    assert CASES[name]() == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_tree_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    cases = [
        f"{json.dumps(name)}: {json.dumps(CASES[name](), sort_keys=True)}"
        for name in sorted(CASES)
    ]
    GOLDEN.write_text("{\n" + ",\n".join(cases) + "\n}\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}")
