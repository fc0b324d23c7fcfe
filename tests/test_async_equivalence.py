"""Equivalence of the asynchronous engine (zero latency) with the synchronous one.

The asynchronous subsystem's central honesty check: under ``ConstantLatency(0)``
every message is delivered inline at its send instant, so
:func:`repro.monitoring.run_tracking` over asynchronous channels must be
*bit-for-bit* identical to the same runner over synchronous ones —
per-record estimates, message counts, bit counts, per-kind breakdowns, and
the full transcript (message order and content) — for every core algorithm and baseline, across stream classes,
site counts, assignment policies and recording strides.  Anything less and
the latency experiments would not be anchored to the paper's model.
"""

import pytest

from repro.asynchrony import (
    ConstantLatency,
    ZERO_LATENCY,
    async_channels,
)
from repro.baselines import CormodeCounter, HuangCounter, LiuStyleCounter, NaiveCounter
from repro.core import DeterministicCounter, RandomizedCounter
from repro.monitoring import build_tree_network, run_tracking
from repro.streams import (
    BlockedAssignment,
    RoundRobinAssignment,
    SkewedAssignment,
    assign_sites,
    monotone_stream,
    nearly_monotone_stream,
    random_walk_stream,
    sawtooth_stream,
)

STREAMS = {
    "random_walk": lambda: random_walk_stream(3_000, seed=3),
    "sawtooth": lambda: sawtooth_stream(3_000, amplitude=40),
    "nearly_monotone": lambda: nearly_monotone_stream(3_000, seed=4),
}

CONFIGS = [
    # (num_sites, policy factory, record_every)
    (1, RoundRobinAssignment, 7),
    (4, lambda: BlockedAssignment(64), 50),
    (8, RoundRobinAssignment, 1),
    (4, lambda: SkewedAssignment(seed=1), 13),
]


def _fingerprint(result):
    """Everything observable about a run: records, totals, kind breakdown."""
    return (
        [
            (r.time, r.true_value, r.estimate, r.messages, r.bits)
            for r in result.records
        ],
        result.total_messages,
        result.total_bits,
        result.messages_by_kind,
    )


def _transcript(network):
    """The channel's charged transcript, one entry per transmission."""
    return [
        (m.kind, m.sender, m.receiver, dict(m.payload), m.time)
        for m in network.channel.log
    ]


def _run_both(factory_builder, updates, record_every):
    """Run sync and zero-latency async on the same stream, with transcripts."""
    sync_network = factory_builder().build_network()
    sync_network.channel.enable_log()
    sync = run_tracking(sync_network, updates, record_every=record_every)
    async_network = build_tree_network(
        factory_builder(),
        fanouts=[],
        channel_factory=async_channels([], ConstantLatency(0.0), seed=0),
    )
    async_network.channel.enable_log()
    asynchronous = run_tracking(
        async_network, updates, record_every=record_every
    )
    return sync, asynchronous, sync_network, async_network


class TestZeroLatencyEquivalence:
    @pytest.mark.parametrize("stream_name", sorted(STREAMS))
    @pytest.mark.parametrize("config_index", range(len(CONFIGS)))
    def test_core_trackers_bit_for_bit(self, stream_name, config_index):
        spec = STREAMS[stream_name]()
        num_sites, policy_factory, record_every = CONFIGS[config_index]
        updates = assign_sites(spec, num_sites, policy_factory())
        for factory_builder in (
            lambda: DeterministicCounter(num_sites, 0.1),
            lambda: RandomizedCounter(num_sites, 0.1, seed=9),
        ):
            sync, asynchronous, sync_net, async_net = _run_both(
                factory_builder, updates, record_every
            )
            assert _fingerprint(sync) == _fingerprint(asynchronous)
            assert _transcript(sync_net) == _transcript(async_net)

    @pytest.mark.parametrize(
        "name, factory_builder, monotone",
        [
            ("naive", lambda: NaiveCounter(3), False),
            ("liu", lambda: LiuStyleCounter(3, 0.1, seed=5), False),
            ("cormode", lambda: CormodeCounter(3, 0.1), True),
            ("huang", lambda: HuangCounter(3, 0.1, seed=5), True),
        ],
    )
    def test_baselines_bit_for_bit(self, name, factory_builder, monotone):
        spec = monotone_stream(2_000) if monotone else random_walk_stream(2_000, seed=6)
        updates = assign_sites(spec, 3)
        sync, asynchronous, sync_net, async_net = _run_both(
            factory_builder, updates, record_every=11
        )
        assert _fingerprint(sync) == _fingerprint(asynchronous)
        assert _transcript(sync_net) == _transcript(async_net)

    def test_zero_latency_queue_never_used(self):
        """Inline delivery means nothing is ever scheduled: age 0, no backlog."""
        updates = assign_sites(random_walk_stream(800, seed=7), 2)
        network = build_tree_network(
            DeterministicCounter(2, 0.1),
            fanouts=[],
            channel_factory=async_channels([], ZERO_LATENCY),
        )
        result = run_tracking(network, updates)
        assert result.staleness.inflight_highwater == 0
        assert result.staleness.max_age == 0.0
        assert result.staleness.delivered == result.total_messages
        assert result.staleness.reordered == 0

    def test_final_state_matches_sync(self):
        updates = assign_sites(sawtooth_stream(1_500, amplitude=25), 4)
        sync, asynchronous, sync_net, async_net = _run_both(
            lambda: DeterministicCounter(4, 0.1), updates, record_every=9
        )
        assert asynchronous.final_estimate == sync_net.estimate()
        assert asynchronous.final_true_value == sync.records[-1].true_value
        assert asynchronous.settled_error() == abs(
            sync.records[-1].true_value - sync_net.estimate()
        )

    def test_generator_input(self):
        spec = random_walk_stream(500, seed=8)
        updates = assign_sites(spec, 2)
        network = build_tree_network(
            DeterministicCounter(2, 0.1),
            fanouts=[],
            channel_factory=async_channels([], ZERO_LATENCY),
        )
        lazy = run_tracking(network, (u for u in updates), record_every=10)
        reference = DeterministicCounter(2, 0.1).track(
            updates, record_every=10, batched=False
        )
        assert _fingerprint(lazy) == _fingerprint(reference)

    def test_empty_stream(self):
        network = build_tree_network(
            NaiveCounter(1),
            fanouts=[],
            channel_factory=async_channels([], ZERO_LATENCY),
        )
        result = run_tracking(network, iter(()))
        assert result.records == []
        assert result.total_messages == 0
        assert result.final_clock == 0.0
