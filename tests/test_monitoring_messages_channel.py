"""Tests for messages, bit accounting and the counted channel."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ProtocolError
from repro.monitoring import (
    BROADCAST_SITE,
    COORDINATOR,
    Channel,
    Message,
    MessageKind,
    integer_bit_length,
    message_bits,
)
from repro.monitoring.messages import HEADER_BITS


def _report(payload=None, sender=0):
    return Message(
        kind=MessageKind.REPORT,
        sender=sender,
        receiver=COORDINATOR,
        payload=payload or {},
        time=1,
    )


class TestBitAccounting:
    def test_integer_bit_length_small(self):
        assert integer_bit_length(0) == 2  # sign + one magnitude bit
        assert integer_bit_length(1) == 2
        assert integer_bit_length(-1) == 2

    def test_integer_bit_length_grows_logarithmically(self):
        assert integer_bit_length(255) == 9
        assert integer_bit_length(256) == 10
        assert integer_bit_length(2**20) == 22

    def test_float_payload_charged_as_word(self):
        assert integer_bit_length(0.5) == 32

    def test_message_bits_header_plus_payload(self):
        empty = _report()
        with_payload = _report({"count": 255})
        assert message_bits(empty) == 16
        assert message_bits(with_payload) == 16 + 9
        assert with_payload.bits() == message_bits(with_payload)


def _reference_value_bits(value):
    """The paper's word accounting, restated: sign + magnitude, floats a word."""
    if isinstance(value, (bool, int, np.integer)):
        return 1 + max(1, abs(int(value)).bit_length())
    return 32


#: Payload values of every type the protocols send: Python ints (negative,
#: zero, past 64 bits), bools, NumPy integer scalars, floats, NumPy floats.
_PAYLOAD_VALUES = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([0, -1, 1, 2**63, 2**64, -(2**64), 2**64 + 1]),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.integers(min_value=-(2**31), max_value=2**31 - 1).map(np.int32),
    st.integers(min_value=0, max_value=2**64 - 1).map(np.uint64),
    st.integers(min_value=0, max_value=255).map(np.uint8),
    st.floats(allow_nan=False),
    st.floats(allow_nan=False, width=32).map(np.float32),
    st.floats(allow_nan=False).map(np.float64),
)


class TestMessageBits:
    @settings(max_examples=300, deadline=None)
    @given(
        payload=st.dictionaries(
            st.sampled_from(["count", "change", "level", "close", "estimate"]),
            _PAYLOAD_VALUES,
            max_size=5,
        ),
        kind=st.sampled_from(list(MessageKind)),
    )
    def test_bits_are_the_header_plus_each_value_once(self, payload, kind):
        message = Message(kind, 0, COORDINATOR, payload, 3)
        expected = HEADER_BITS + sum(
            _reference_value_bits(value) for value in payload.values()
        )
        assert message_bits(message) == message.bits() == (
            HEADER_BITS + sum(integer_bit_length(v) for v in payload.values())
        )
        assert message.bits() == expected

    def test_charged_bits_match_the_payload(self):
        channel = Channel(num_sites=1)
        channel.register_coordinator(lambda m: None)
        payload = {"count": -(2**64), "change": np.int64(-5), "estimate": 2.5}
        channel.send_to_coordinator(_report(payload))
        assert channel.stats.bits == HEADER_BITS + 66 + 4 + 32
        assert channel.stats.bits_by_kind == {"report": HEADER_BITS + 102}


class TestMessageContract:
    def _message(self, **overrides):
        fields = dict(
            kind=MessageKind.REPLY,
            sender=3,
            receiver=COORDINATOR,
            payload={"count": 7, "change": -2},
            time=11,
        )
        fields.update(overrides)
        return Message(**fields)

    def test_fields_read_by_name(self):
        message = self._message()
        assert message.kind is MessageKind.REPLY
        assert message.sender == 3
        assert message.receiver == COORDINATOR
        assert message.payload == {"count": 7, "change": -2}
        assert message.time == 11

    def test_keyword_and_positional_construction_agree(self):
        positional = Message(
            MessageKind.REPLY, 3, COORDINATOR, {"count": 7, "change": -2}, 11
        )
        assert positional == self._message()
        assert positional.bits() == self._message().bits()

    def test_payload_and_time_default(self):
        first = Message(MessageKind.REQUEST, COORDINATOR, 0)
        second = Message(kind=MessageKind.REQUEST, sender=COORDINATOR, receiver=0)
        assert first.payload == {} and first.time == 0
        assert first.payload is not second.payload
        assert first.bits() == HEADER_BITS

    def test_equality(self):
        message = self._message()
        assert message == self._message()
        assert not message != self._message()
        assert message != self._message(time=12)
        assert message != self._message(kind=MessageKind.REPORT)
        assert message != self._message(payload={"count": 7})
        # Equal fields make equal messages, whatever each payload value costs.
        assert self._message(payload={"x": 1}) == self._message(payload={"x": 1.0})
        assert message != (
            MessageKind.REPLY, 3, COORDINATOR, {"count": 7, "change": -2}, 11
        )

    def test_repr(self):
        assert repr(self._message()) == (
            "Message(kind=<MessageKind.REPLY: 'reply'>, sender=3, receiver=-2, "
            "payload={'count': 7, 'change': -2}, time=11)"
        )
        assert repr(Message(MessageKind.BROADCAST, COORDINATOR, BROADCAST_SITE)) == (
            "Message(kind=<MessageKind.BROADCAST: 'broadcast'>, sender=-2, "
            "receiver=-1, payload={}, time=0)"
        )

    @pytest.mark.parametrize(
        "name", ["kind", "sender", "receiver", "payload", "time"]
    )
    def test_fields_cannot_be_assigned_or_deleted(self, name):
        message = self._message()
        with pytest.raises(AttributeError):
            setattr(message, name, 0)
        with pytest.raises(AttributeError):
            delattr(message, name)
        assert message == self._message()

    def test_pickle_and_copy_round_trip(self):
        message = self._message()
        for clone in (
            pickle.loads(pickle.dumps(message)),
            copy.copy(message),
            copy.deepcopy(message),
        ):
            assert clone == message
            assert clone.bits() == message.bits()
            assert repr(clone) == repr(message)


class TestChannel:
    def test_requires_at_least_one_site(self):
        with pytest.raises(ProtocolError):
            Channel(num_sites=0)

    def test_send_to_coordinator_counts(self):
        channel = Channel(num_sites=2)
        received = []
        channel.register_coordinator(received.append)
        channel.register_site(0, lambda m: None)
        channel.register_site(1, lambda m: None)
        channel.send_to_coordinator(_report({"count": 3}))
        assert channel.stats.messages == 1
        assert channel.stats.bits == 16 + 3
        assert len(received) == 1

    def test_send_without_coordinator_raises(self):
        channel = Channel(num_sites=1)
        with pytest.raises(ProtocolError):
            channel.send_to_coordinator(_report())

    def test_broadcast_charged_per_site(self):
        channel = Channel(num_sites=3)
        delivered = []
        channel.register_coordinator(lambda m: None)
        for site_id in range(3):
            channel.register_site(site_id, lambda m, s=site_id: delivered.append(s))
        broadcast = Message(
            kind=MessageKind.BROADCAST,
            sender=COORDINATOR,
            receiver=BROADCAST_SITE,
            payload={"level": 2},
            time=1,
        )
        channel.send_to_site(broadcast)
        assert delivered == [0, 1, 2]
        assert channel.stats.messages == 3

    def test_unicast_to_unknown_site_raises(self):
        channel = Channel(num_sites=1)
        channel.register_coordinator(lambda m: None)
        channel.register_site(0, lambda m: None)
        bad = Message(kind=MessageKind.REQUEST, sender=COORDINATOR, receiver=5, payload={})
        with pytest.raises(ProtocolError):
            channel.send_to_site(bad)

    def test_stats_by_kind(self):
        channel = Channel(num_sites=1)
        channel.register_coordinator(lambda m: None)
        channel.register_site(0, lambda m: None)
        channel.send_to_coordinator(_report())
        channel.send_to_coordinator(
            Message(kind=MessageKind.REPLY, sender=0, receiver=COORDINATOR, payload={})
        )
        assert channel.stats.by_kind == {"report": 1, "reply": 1}

    def test_log_disabled_by_default(self):
        channel = Channel(num_sites=1)
        channel.register_coordinator(lambda m: None)
        channel.register_site(0, lambda m: None)
        channel.send_to_coordinator(_report())
        assert channel.log == []

    def test_log_records_when_enabled(self):
        channel = Channel(num_sites=1)
        channel.enable_log()
        channel.register_coordinator(lambda m: None)
        channel.register_site(0, lambda m: None)
        channel.send_to_coordinator(_report({"count": 1}))
        assert len(channel.log) == 1
        assert channel.log[0].payload["count"] == 1

    def test_stats_snapshot_is_independent(self):
        channel = Channel(num_sites=1)
        channel.register_coordinator(lambda m: None)
        channel.register_site(0, lambda m: None)
        channel.send_to_coordinator(_report())
        snapshot = channel.stats.snapshot()
        channel.send_to_coordinator(_report())
        assert snapshot.messages == 1
        assert channel.stats.messages == 2


class TestBroadcastLogAccounting:
    """Regression: a broadcast is charged k copies and must log k entries."""

    def _broadcast(self):
        return Message(
            kind=MessageKind.BROADCAST,
            sender=COORDINATOR,
            receiver=BROADCAST_SITE,
            payload={"level": 3},
        )

    def test_broadcast_logs_one_entry_per_charged_copy(self):
        channel = Channel(num_sites=4)
        channel.enable_log()
        channel.register_coordinator(lambda m: None)
        for site_id in range(4):
            channel.register_site(site_id, lambda m: None)
        channel.send_to_site(self._broadcast())
        assert channel.stats.messages == 4
        assert len(channel.log) == channel.stats.messages
        assert all(m.kind is MessageKind.BROADCAST for m in channel.log)

    def test_log_length_matches_charged_messages_over_a_full_run(self):
        from repro.core import DeterministicCounter
        from repro.streams import assign_sites, random_walk_stream

        factory = DeterministicCounter(3, 0.1)
        network = factory.build_network()
        network.channel.enable_log()
        updates = assign_sites(random_walk_stream(2_000, seed=13), 3)
        for update in updates:
            network.deliver_update(update.time, update.site, update.delta)
        assert network.coordinator.blocks_completed > 0  # broadcasts occurred
        assert len(network.channel.log) == network.stats.messages

    def test_charge_bulk_accounting_matches_record(self):
        channel = Channel(num_sites=1)
        channel.register_coordinator(lambda m: None)
        channel.register_site(0, lambda m: None)
        message = _report({"count": 5})
        channel.charge(MessageKind.REPORT, 3, 3 * message.bits())
        reference = Channel(num_sites=1)
        reference.register_coordinator(lambda m: None)
        reference.register_site(0, lambda m: None)
        for _ in range(3):
            reference.send_to_coordinator(_report({"count": 5}))
        assert channel.stats.messages == reference.stats.messages
        assert channel.stats.bits == reference.stats.bits
        assert channel.stats.by_kind == reference.stats.by_kind


class TestChannelStatsAggregation:
    """ChannelStats.__add__ / merge — how per-shard accounting aggregates."""

    def _stats(self, messages, bits, by_kind):
        from repro.monitoring import ChannelStats

        return ChannelStats(messages=messages, bits=bits, by_kind=by_kind)

    def test_add_combines_counters_and_kinds(self):
        left = self._stats(3, 60, {"report": 2, "reply": 1})
        right = self._stats(5, 100, {"report": 1, "broadcast": 4})
        total = left + right
        assert total.messages == 8
        assert total.bits == 160
        assert total.by_kind == {"report": 3, "reply": 1, "broadcast": 4}

    def test_add_leaves_operands_untouched(self):
        left = self._stats(1, 10, {"report": 1})
        right = self._stats(2, 20, {"reply": 2})
        total = left + right
        total.by_kind["report"] = 99
        assert left.by_kind == {"report": 1}
        assert right.by_kind == {"reply": 2}

    def test_sum_builtin_works(self):
        parts = [self._stats(i, 10 * i, {"report": i}) for i in (1, 2, 3)]
        total = sum(parts)
        assert total.messages == 6
        assert total.bits == 60
        assert total.by_kind == {"report": 6}

    def test_merge_classmethod(self):
        from repro.monitoring import ChannelStats

        parts = [
            self._stats(2, 40, {"report": 2}),
            self._stats(0, 0, {}),
            self._stats(3, 50, {"reply": 3}),
        ]
        total = ChannelStats.merge(parts)
        assert (total.messages, total.bits) == (5, 90)
        assert total.by_kind == {"report": 2, "reply": 3}
        assert ChannelStats.merge([]).messages == 0

    def test_add_rejects_non_stats(self):
        with pytest.raises(TypeError):
            self._stats(1, 10, {}) + 5


class TestMulticast:
    def _channel(self, num_sites=4):
        channel = Channel(num_sites=num_sites)
        received = {i: [] for i in range(num_sites)}
        channel.register_coordinator(lambda m: None)
        for site_id in range(num_sites):
            channel.register_site(
                site_id, (lambda s: lambda m: received[s].append(m))(site_id)
            )
        return channel, received

    def _level(self):
        return Message(
            kind=MessageKind.BROADCAST,
            sender=COORDINATOR,
            receiver=BROADCAST_SITE,
            payload={"level": 3},
            time=7,
        )

    def test_charges_one_copy_per_receiver(self):
        channel, received = self._channel()
        message = self._level()
        channel.multicast(message, [0, 2])
        assert channel.stats.messages == 2
        assert channel.stats.bits == 2 * message.bits()
        assert channel.stats.by_kind == {"broadcast": 2}
        assert received[0] == [message] and received[2] == [message]
        assert received[1] == [] and received[3] == []

    def test_full_receiver_set_matches_broadcast_accounting(self):
        multicast_channel, _ = self._channel()
        broadcast_channel, _ = self._channel()
        message = self._level()
        multicast_channel.multicast(message, [0, 1, 2, 3])
        broadcast_channel.send_to_site(message)
        assert multicast_channel.stats.messages == broadcast_channel.stats.messages
        assert multicast_channel.stats.bits == broadcast_channel.stats.bits
        assert multicast_channel.stats.by_kind == broadcast_channel.stats.by_kind

    def test_logs_one_entry_per_copy(self):
        channel, _ = self._channel()
        channel.enable_log()
        channel.multicast(self._level(), [1, 3])
        assert len(channel.log) == 2

    def test_rejects_empty_duplicate_and_unknown_receivers(self):
        channel, _ = self._channel()
        with pytest.raises(ProtocolError):
            channel.multicast(self._level(), [])
        with pytest.raises(ProtocolError):
            channel.multicast(self._level(), [1, 1])
        with pytest.raises(ProtocolError):
            channel.multicast(self._level(), [0, 9])
