"""Property test: instrumentation observes the protocol without touching it.

The zero-overhead contract from the observability layer's design: every
hook sits behind a single ``if observer is not None`` check and every
observer is strictly read-only, so an instrumented run must be
**bit-for-bit identical** to an uninstrumented one — same recorded
estimates and true values at the same timesteps, same message totals, same
bit totals, same per-kind counts, same per-level accounting, and (for the
asynchronous engine) same staleness aggregates and settled state.

Hypothesis drives arbitrary unit-delta streams through the grid
{per-update, batched, async} x hierarchy levels {1, 2, 3}; attaching a
full registry *and* a trace log must change nothing the protocol reports.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.asynchrony import (
    UniformLatency,
    async_channels,
)
from repro.core import DeterministicCounter
from repro.monitoring import (
    build_tree_network,
    run_tracking,
)
from repro.observability import TraceLog, instrument_network
from repro.streams.model import deltas_to_updates

SITES = 4  # divisible by the tree's (2, 2) fanouts
EPSILON = 0.15

unit_deltas = st.lists(st.sampled_from([-1, 1]), min_size=20, max_size=400)
levels = st.sampled_from([1, 2, 3])


def _distribute(deltas):
    sites = [(t - 1) % SITES for t in range(1, len(deltas) + 1)]
    return deltas_to_updates(deltas, sites)


def _sync_network(num_levels):
    factory = DeterministicCounter(SITES, EPSILON)
    if num_levels == 1:
        return factory.build_network()
    if num_levels == 2:
        return build_tree_network(factory, fanouts=[2])
    return build_tree_network(factory, fanouts=(2, 2))


def _async_network(num_levels, seed):
    factory = DeterministicCounter(SITES, EPSILON)
    latency = UniformLatency(0.5, 2.0)
    if num_levels == 1:
        return build_tree_network(
            factory,
            fanouts=[],
            channel_factory=async_channels([], latency, seed=seed),
        )
    if num_levels == 2:
        return build_tree_network(
            factory,
            fanouts=[2],
            channel_factory=async_channels([2], latency, seed=seed),
        )
    return build_tree_network(
        factory,
        fanouts=(2, 2),
        channel_factory=async_channels([2, 2], latency, seed=seed),
    )


def _fingerprint(result):
    """Everything a run reports, as one comparable structure."""
    data = {
        "records": [
            (r.time, r.estimate, r.true_value) for r in result.records
        ],
        "messages": result.total_messages,
        "bits": result.total_bits,
        "by_kind": dict(result.messages_by_kind),
        "levels": result.levels,
    }
    if hasattr(result, "final_clock"):
        data["final_clock"] = result.final_clock
        data["final_estimate"] = result.final_estimate
        data["staleness"] = (
            result.staleness.delivered,
            result.staleness.mean_age,
            result.staleness.max_age,
            result.staleness.inflight_highwater,
            result.staleness.reordered,
        )
    return data


class TestInstrumentedRunsAreBitForBit:
    @given(unit_deltas, levels, st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_sync_engines(self, deltas, num_levels, batched):
        updates = _distribute(deltas)
        plain = run_tracking(
            _sync_network(num_levels), updates, record_every=3, batched=batched
        )
        network = _sync_network(num_levels)
        instr = instrument_network(network, trace=TraceLog(capacity=256))
        observed = run_tracking(network, updates, record_every=3, batched=batched)
        assert _fingerprint(observed) == _fingerprint(plain)
        # ... and the registry really did watch the run.
        instr.registry.collect()
        total = sum(
            value
            for suffix, _, value in instr.registry.get(
                "repro_messages_total"
            ).samples()
            if suffix == ""
        )
        assert total == observed.total_messages

    @given(unit_deltas, levels, st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=10, deadline=None)
    def test_async_engine(self, deltas, num_levels, seed):
        updates = _distribute(deltas)
        plain = run_tracking(
            _async_network(num_levels, seed), updates, record_every=3
        )
        network = _async_network(num_levels, seed)
        instr = instrument_network(network, trace=TraceLog(capacity=256))
        observed = run_tracking(network, updates, record_every=3)
        assert _fingerprint(observed) == _fingerprint(plain)
        instr.registry.collect()
        delivered = sum(
            value
            for suffix, _, value in instr.registry.get(
                "repro_deliveries_total"
            ).samples()
            if suffix == ""
        )
        assert delivered == observed.staleness.delivered
