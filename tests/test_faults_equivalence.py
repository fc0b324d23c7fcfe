"""The ``loss=0`` identity: an inert faulty transport IS the plain async engine.

The fault subsystem's bridge-back contract, mirroring the zero-latency
anchor in ``tests/test_async_equivalence.py``: a :class:`FaultyChannel`
with a zero-loss plan delegates wholly to :class:`AsyncChannel`, so a run
over it must be **bit-for-bit** identical to the plain asynchronous engine —
per-record estimates, message and bit totals, per-kind breakdowns,
staleness statistics, and the full per-channel transcript (message order
and content) — across flat, sharded and tree topologies and both core
algorithms.  Anything less and the lossy experiments would not be anchored
to the lossless ones they are compared against.
"""

import pytest

from repro.asynchrony import (
    UniformLatency,
    async_channels,
)
from repro.core import DeterministicCounter, RandomizedCounter
from repro.faults import FaultPlan, FaultyChannel
from repro.observability.instrument import _walk
from repro.streams import RoundRobinAssignment, assign_sites, random_walk_stream
from repro.monitoring import build_tree_network, run_tracking

EPSILON = 0.1
NUM_SITES = 6

FACTORIES = {
    "deterministic": lambda: DeterministicCounter(NUM_SITES, EPSILON),
    "randomized": lambda: RandomizedCounter(NUM_SITES, EPSILON, seed=13),
}

TOPOLOGIES = {
    "flat": lambda factory, faults: build_tree_network(
        factory,
        fanouts=[],
        channel_factory=async_channels(
            [], UniformLatency(0.5, 2.0), seed=3, faults=faults
        ),
    ),
    "shards3": lambda factory, faults: build_tree_network(
        factory,
        fanouts=[3],
        channel_factory=async_channels(
            [3], UniformLatency(0.5, 2.0), seed=3, faults=faults
        ),
    ),
    "levels3": lambda factory, faults: build_tree_network(
        factory,
        fanouts=[2, 2],
        channel_factory=async_channels(
            [2, 2], UniformLatency(0.5, 2.0), seed=3, faults=faults
        ),
    ),
}


def _updates():
    return list(
        assign_sites(
            random_walk_stream(2_500, seed=5), NUM_SITES, RoundRobinAssignment()
        )
    )


def _enable_logs(network):
    for channel, _coordinator, _level in _walk(network):
        channel.enable_log()


def _transcripts(network):
    """Per-level charged transcripts, one entry per transmission."""
    out = []
    for channel, _coordinator, level in _walk(network):
        out.append(
            (
                level,
                [
                    (m.kind, m.sender, m.receiver, dict(m.payload), m.time)
                    for m in channel.log
                ],
            )
        )
    return out


def _fingerprint(result):
    return (
        [
            (r.time, r.true_value, r.estimate, r.messages, r.bits)
            for r in result.records
        ],
        result.total_messages,
        result.total_bits,
        result.messages_by_kind,
        result.final_estimate,
        result.final_clock,
        result.staleness.mean_age,
        result.staleness.max_age,
        result.staleness.inflight_highwater,
        result.staleness.reordered,
        result.dropped,
        result.retransmitted,
        result.duplicates,
    )


class TestZeroLossIdentity:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("algorithm", sorted(FACTORIES))
    def test_bit_for_bit_identical_to_plain_async(self, topology, algorithm):
        build = TOPOLOGIES[topology]
        factory = FACTORIES[algorithm]

        plain = build(factory(), None)
        _enable_logs(plain)
        plain_result = run_tracking(plain, _updates(), record_every=17)

        inert = build(factory(), FaultPlan(loss=0.0, seed=99))
        _enable_logs(inert)
        assert any(
            isinstance(channel, FaultyChannel)
            for channel, _, _ in _walk(inert)
        )
        inert_result = run_tracking(inert, _updates(), record_every=17)

        assert _fingerprint(inert_result) == _fingerprint(plain_result)
        assert _transcripts(inert) == _transcripts(plain)

    def test_every_channel_of_the_inert_build_is_faulty_and_inert(self):
        network = TOPOLOGIES["levels3"](
            FACTORIES["deterministic"](), FaultPlan(loss=0.0)
        )
        for channel, _coordinator, _level in _walk(network):
            assert isinstance(channel, FaultyChannel)
            assert channel.supports_span_events
