"""Spec-vs-legacy equivalence: the RunSpec layer adds scenarios, not semantics.

The acceptance contract of the unified API: for a grid over
{engine x topology(shards in {1, 3}) x transport(sync, zero-latency async,
jittered async)} x trackers, :meth:`repro.api.RunSpec.run` is bit-for-bit
identical — recorded estimates, message totals, bit totals, per-kind counts
— to hand-wiring the corresponding legacy entry point, and
``RunSpec.from_dict(spec.to_dict())`` reproduces the same result.  A
separate columnar section pins the ``arrays`` engine against
:func:`repro.monitoring.runner.run_tracking` over both trace formats' columns.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    RunSpec,
    SourceSpec,
    TopologySpec,
    TrackerSpec,
    TransportSpec,
)
from repro.asynchrony import (
    UniformLatency,
    ZERO_LATENCY,
    async_channels,
)
from repro.core import DeterministicCounter, RandomizedCounter
from repro.monitoring import build_tree_network, run_tracking
from repro.streams import assign_sites, random_walk_stream
from repro.streams.io import columns_from_updates, save_trace_csv, save_trace_npz

LENGTH = 300
SITES = 6
EPSILON = 0.15
JITTER_SCALE = 3.0


def _fingerprint(result):
    return (
        [(r.time, r.true_value, r.estimate, r.messages, r.bits) for r in result.records],
        result.total_messages,
        result.total_bits,
        result.messages_by_kind,
    )


def _legacy_factory(tracker: str, num_sites: int, seed: int):
    if tracker == "deterministic":
        return DeterministicCounter(num_sites, EPSILON)
    return RandomizedCounter(num_sites, EPSILON, seed=seed)


@settings(max_examples=40, deadline=None)
@given(
    tracker=st.sampled_from(["deterministic", "randomized"]),
    engine=st.sampled_from(["auto", "per-update", "batched"]),
    shards=st.sampled_from([1, 3]),
    transport=st.sampled_from(["sync", "async-zero", "async-jitter"]),
    seed=st.integers(min_value=0, max_value=3),
    record_every=st.sampled_from([1, 7]),
)
def test_spec_run_is_bit_for_bit_the_legacy_entry_point(
    tracker, engine, shards, transport, seed, record_every
):
    spec = RunSpec(
        source=SourceSpec(stream="random_walk", length=LENGTH, seed=seed, sites=SITES),
        tracker=TrackerSpec(name=tracker, epsilon=EPSILON, seed=seed),
        topology=TopologySpec(shards=shards),
        transport=(
            TransportSpec(mode="sync")
            if transport == "sync"
            else TransportSpec(
                mode="async",
                latency="uniform" if transport == "async-jitter" else "zero",
                scale=JITTER_SCALE if transport == "async-jitter" else 0.0,
                seed=seed,
            )
        ),
        engine=engine,
        record_every=record_every,
    )
    result = spec.run()

    # The legacy route: hand-built stream, factory, network and runner call.
    updates = assign_sites(random_walk_stream(LENGTH, seed=seed), SITES)
    factory = _legacy_factory(tracker, SITES, seed)
    if transport == "sync":
        network = (
            factory.build_network()
            if shards == 1
            else build_tree_network(factory, fanouts=[shards])
        )
        legacy = run_tracking(
            network,
            updates,
            record_every=record_every,
            batched={"auto": None, "batched": True, "per-update": False}[engine],
        )
    else:
        model = (
            UniformLatency(JITTER_SCALE / 2.0, 1.5 * JITTER_SCALE)
            if transport == "async-jitter"
            else ZERO_LATENCY
        )
        network = (
            build_tree_network(
                factory,
                fanouts=[],
                channel_factory=async_channels([], model, seed=seed),
            )
            if shards == 1
            else build_tree_network(
                factory,
                fanouts=[shards],
                channel_factory=async_channels([shards], model, seed=seed),
            )
        )
        legacy = run_tracking(
            network, updates, record_every=record_every, batched=engine == "batched"
        )
    assert _fingerprint(result) == _fingerprint(legacy)

    # Serialization reproduces the run exactly: JSON out, JSON in, same bits.
    replayed = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict()))).run()
    assert _fingerprint(replayed) == _fingerprint(result)


@pytest.mark.parametrize("fmt", ["csv", "npz"])
@pytest.mark.parametrize("shards", [1, 3])
def test_arrays_spec_matches_columnar_run_tracking(tmp_path, fmt, shards):
    updates = assign_sites(random_walk_stream(LENGTH, seed=2), SITES)
    trace = columns_from_updates(updates)
    path = tmp_path / f"trace.{fmt}"
    if fmt == "npz":
        save_trace_npz(trace, path)
    else:
        save_trace_csv(trace, path)
    spec = RunSpec(
        source=SourceSpec(stream=None, trace=str(path), mmap=fmt == "npz"),
        tracker=TrackerSpec(name="deterministic", epsilon=EPSILON),
        topology=TopologySpec(shards=shards),
        engine="arrays",
        record_every=7,
    )
    result = spec.run()
    factory = DeterministicCounter(SITES, EPSILON)
    network = (
        factory.build_network() if shards == 1 else build_tree_network(
            factory,
            fanouts=[shards],
        )
    )
    legacy = run_tracking(network, trace, record_every=7)
    assert _fingerprint(result) == _fingerprint(legacy)
    replayed = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict()))).run()
    assert _fingerprint(replayed) == _fingerprint(result)
