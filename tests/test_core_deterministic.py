"""Tests for the deterministic tracker of Section 3.3."""

import numpy as np
import pytest

from repro.analysis.bounds import deterministic_message_bound
from repro.core import DeterministicCounter, variability
from repro.core.deterministic import (
    DeterministicCoordinator,
    DeterministicSite,
    _threshold_crossings,
)
from repro.exceptions import ConfigurationError, StreamError
from repro.streams import (
    RandomAssignment,
    SkewedAssignment,
    assign_sites,
    biased_walk_stream,
    monotone_stream,
    nearly_monotone_stream,
    random_walk_stream,
    sawtooth_stream,
)


class TestParameterValidation:
    def test_rejects_bad_epsilon(self):
        with pytest.raises(ConfigurationError):
            DeterministicCounter(num_sites=2, epsilon=0.0)
        with pytest.raises(ConfigurationError):
            DeterministicCounter(num_sites=2, epsilon=1.5)

    def test_rejects_bad_site_count(self):
        with pytest.raises(ConfigurationError):
            DeterministicCounter(num_sites=0, epsilon=0.1)

    def test_rejects_non_unit_updates(self):
        counter = DeterministicCounter(num_sites=1, epsilon=0.1)
        network = counter.build_network()
        with pytest.raises(StreamError):
            network.deliver_update(1, 0, 3)


class TestErrorGuarantee:
    """The deterministic guarantee |f - fhat| <= eps |f| must hold at every step."""

    @pytest.mark.parametrize("epsilon", [0.25, 0.1, 0.05])
    @pytest.mark.parametrize("num_sites", [1, 3, 8])
    def test_random_walk(self, epsilon, num_sites):
        spec = random_walk_stream(3_000, seed=17)
        updates = assign_sites(spec, num_sites)
        result = DeterministicCounter(num_sites, epsilon).track(updates)
        assert result.max_relative_error() <= epsilon + 1e-12
        assert result.error_violations(epsilon) == 0

    def test_monotone(self):
        spec = monotone_stream(5_000)
        result = DeterministicCounter(4, 0.1).track(assign_sites(spec, 4))
        assert result.max_relative_error() <= 0.1 + 1e-12

    def test_nearly_monotone(self):
        spec = nearly_monotone_stream(5_000, deletion_fraction=0.25, seed=3)
        result = DeterministicCounter(4, 0.1).track(assign_sites(spec, 4))
        assert result.error_violations(0.1) == 0

    def test_biased_walk(self):
        spec = biased_walk_stream(5_000, drift=0.3, seed=4)
        result = DeterministicCounter(6, 0.05).track(assign_sites(spec, 6))
        assert result.error_violations(0.05) == 0

    def test_sawtooth_through_zero(self):
        spec = sawtooth_stream(2_000, amplitude=10)
        result = DeterministicCounter(2, 0.1).track(assign_sites(spec, 2))
        assert result.error_violations(0.1) == 0

    def test_guarantee_independent_of_assignment(self):
        spec = random_walk_stream(3_000, seed=5)
        for policy in (RandomAssignment(seed=1), SkewedAssignment(hot_fraction=0.9, seed=2)):
            updates = assign_sites(spec, 5, policy=policy)
            result = DeterministicCounter(5, 0.1).track(updates)
            assert result.error_violations(0.1) == 0


class TestCommunicationBound:
    """Messages are O(k v / eps); we check against the paper's explicit constants."""

    @pytest.mark.parametrize("num_sites", [1, 4])
    def test_random_walk_within_bound(self, num_sites):
        spec = random_walk_stream(4_000, seed=23)
        v = variability(spec.deltas)
        result = DeterministicCounter(num_sites, 0.1).track(assign_sites(spec, num_sites))
        assert result.total_messages <= deterministic_message_bound(num_sites, 0.1, v)

    def test_monotone_within_bound(self):
        spec = monotone_stream(8_000)
        v = variability(spec.deltas)
        result = DeterministicCounter(4, 0.1).track(assign_sites(spec, 4))
        assert result.total_messages <= deterministic_message_bound(4, 0.1, v)

    def test_monotone_costs_far_less_than_stream_length(self):
        spec = monotone_stream(16_000)
        result = DeterministicCounter(2, 0.1).track(assign_sites(spec, 2))
        assert result.total_messages < 0.2 * spec.length

    def test_messages_scale_with_variability_not_length(self):
        # Same length, very different variability: the biased walk (low v)
        # must be much cheaper than the sawtooth (high v).
        low_v = biased_walk_stream(6_000, drift=0.8, seed=2)
        high_v = sawtooth_stream(6_000, amplitude=10)
        counter = DeterministicCounter(2, 0.1)
        low_cost = counter.track(assign_sites(low_v, 2)).total_messages
        high_cost = counter.track(assign_sites(high_v, 2)).total_messages
        assert low_cost < high_cost / 5

    def test_smaller_epsilon_costs_more_messages(self):
        spec = biased_walk_stream(6_000, drift=0.5, seed=6)
        updates = assign_sites(spec, 4)
        loose = DeterministicCounter(4, 0.2).track(updates).total_messages
        tight = DeterministicCounter(4, 0.02).track(updates).total_messages
        assert tight > loose


class TestInternals:
    def test_site_condition_level_zero(self):
        site = DeterministicSite(site_id=0, num_sites=2, epsilon=0.1)
        site.level = 0
        site.unreported_drift = 1
        assert site.report_condition()

    def test_site_condition_higher_level(self):
        site = DeterministicSite(site_id=0, num_sites=2, epsilon=0.1)
        site.level = 5  # eps * 2^5 = 3.2
        site.unreported_drift = 3
        assert not site.report_condition()
        site.unreported_drift = 4
        assert site.report_condition()

    def test_coordinator_estimate_sums_boundary_and_drifts(self):
        coordinator = DeterministicCoordinator(num_sites=2, epsilon=0.1)
        coordinator.boundary_value = 10
        coordinator._drift_estimates = {0: 3, 1: -1}
        assert coordinator.estimate() == pytest.approx(12.0)

    def test_blocks_completed_counter_advances(self):
        spec = random_walk_stream(2_000, seed=9)
        counter = DeterministicCounter(2, 0.1)
        network = counter.build_network()
        for update in assign_sites(spec, 2):
            network.deliver_update(update.time, update.site, update.delta)
        assert network.coordinator.blocks_completed > 10

    def test_estimate_exact_at_block_boundaries(self):
        spec = random_walk_stream(1_000, seed=10)
        counter = DeterministicCounter(1, 0.1)
        network = counter.build_network()
        values = spec.values()
        exact_hits = 0
        for update in assign_sites(spec, 1):
            network.deliver_update(update.time, update.site, update.delta)
            coordinator = network.coordinator
            if coordinator.boundary_time == update.time:
                assert coordinator.boundary_value == values[update.time - 1]
                exact_hits += 1
        assert exact_hits > 0


def _reference_crossings(path, baseline, threshold, position, stop):
    """The Section 3.3 condition checked one step at a time."""
    offsets = []
    for offset in range(position, stop):
        if abs(int(path[offset]) - baseline) >= threshold:
            offsets.append(offset)
            baseline = int(path[offset])
    return offsets, baseline


def _path_crossing_at(length, hit, threshold):
    """A unit-step path whose only crossing from baseline 0 is at ``hit``.

    It zigzags between 0 and 1, climbs to ``top = ceil(threshold)`` exactly
    at offset ``hit``, then zigzags between ``top - 1`` and ``top``.
    """
    top = int(np.ceil(threshold))
    offsets = np.arange(length)
    climb = hit - top
    return np.where(
        offsets <= climb,
        (climb - offsets) % 2,
        np.where(offsets <= hit, offsets - climb, top - (offsets - hit) % 2),
    )


def _path_returning_then_crossing(position, threshold, tail=40):
    """From 0 at ``position``: up to ``top - 1``, back to 0, down to ``-top``.

    The return to 0 revisits the lattice point the scan started on, so it
    must not report; ``-top`` is a new multiple of ``top = ceil(threshold)``
    and must.  Returns ``(path, hit)``, ``hit`` being the offset of ``-top``.
    """
    top = int(np.ceil(threshold))
    walk = list(range(top)) + list(range(top - 2, -top - 1, -1))
    hit = position + len(walk) - 1
    head = [(position - i) % 2 for i in range(position)]
    zigzag = [-top + (i + 1) % 2 for i in range(tail)]
    return np.array(head + walk + zigzag), hit


class TestThresholdCrossings:
    """The threshold-crossing scan shared by the span and multi-close hooks.

    The scan checks the step at ``position`` on its own (the prologue: the
    baseline may start any distance from the path), then finds the rest in
    one pass of the lattice rule: a report is a visit to a new multiple of
    ``m = ceil(threshold)`` from the baseline.  The edge cases sit where
    that code branches: the prologue, the first lattice step, the exclusive
    ``stop``, and a return to the previous lattice point against a new one.
    """

    @pytest.mark.parametrize("threshold", [1.6, 2.0, 3.2, 6.4])
    def test_matches_per_step_reference_on_random_walks(self, threshold):
        rng = np.random.default_rng(int(threshold * 10))
        for _ in range(200):
            length = int(rng.integers(1, 3_000))
            path = int(rng.integers(-50, 51)) + np.cumsum(
                rng.choice(np.array([-1, 1]), size=length)
            )
            position = int(rng.integers(0, length))
            stop = int(rng.integers(position, length + 1))
            baseline = int(path[position]) + int(rng.integers(-8, 9))
            assert _threshold_crossings(
                path, baseline, threshold, position, stop
            ) == _reference_crossings(path, baseline, threshold, position, stop)

    @pytest.mark.parametrize("threshold", [1.6, 2.0, 3.2, 6.4])
    @pytest.mark.parametrize(
        "edge", ["prologue", "first_lattice_step", "stop", "new_multiple"]
    )
    def test_hits_on_lattice_edges(self, threshold, edge):
        position = 5
        top = int(np.ceil(threshold))
        if edge == "new_multiple":
            path, hit = _path_returning_then_crossing(position, threshold)
            expected = ([hit], -top)
            stop = len(path)
        else:
            # The prologue hit sits on ``position`` itself, the first
            # lattice step one past it; the stop case hits on ``stop - 1``.
            hit = position + {"prologue": 0, "first_lattice_step": 1}.get(edge, 40)
            path = _path_crossing_at(position + 100, hit, threshold)
            expected = ([hit], top)
            stop = hit + 1 if edge == "stop" else len(path)
        assert np.all(np.abs(np.diff(path)) == 1)
        found = _threshold_crossings(path, 0, threshold, position, stop)
        assert found == expected
        assert found == _reference_crossings(path, 0, threshold, position, stop)
        if edge == "stop":
            # One step shorter, the hit falls on ``stop`` and is not scanned.
            assert _threshold_crossings(path, 0, threshold, position, hit) == (
                [],
                0,
            )

    def test_stop_bounds_the_prologue(self):
        # Non-unit jumps are fine on the prologue step; an empty scan
        # (stop == position) reports nothing, and a one-step scan is the
        # prologue alone.
        path = np.zeros(300, dtype=np.int64)
        path[99] = 2
        path[100:] = 4
        assert _threshold_crossings(path, 0, 2.0, 99, 99) == ([], 0)
        assert _threshold_crossings(path, 0, 2.0, 99, 100) == ([99], 2)
        assert _threshold_crossings(path, 3, 2.0, 100, 101) == ([], 3)
        assert _threshold_crossings(path, 0, 2.0, 100, 101) == ([100], 4)


class _RecordingChannel:
    """Records every charge and send a site makes."""

    def __init__(self):
        self.charges = []
        self.sent = []

    def charge(self, kind, copies, total_bits):
        self.charges.append((kind, copies, total_bits))

    def send_to_coordinator(self, message):
        self.sent.append(message)

    def totals(self):
        return (
            sum(copies for _, copies, _ in self.charges),
            sum(bits for _, _, bits in self.charges),
        )


def _site_at(epsilon, level, drift, unreported):
    site = DeterministicSite(site_id=0, num_sites=4, epsilon=epsilon)
    site._channel = _RecordingChannel()
    site.level = level
    site.drift = drift
    site.unreported_drift = unreported
    return site


def _reference_window(site, deltas, start, close_offsets, levels):
    """``on_multiblock_window`` one step at a time, every report charged.

    The entry step runs at the site's level with its carried residual; each
    close then starts a block at the next level, which rebases the drift at
    the close.
    """
    window = deltas[start : start + int(close_offsets[-1]) + 1].tolist()
    site.on_stream_update_superseded(0, window[0])
    for j in range(len(close_offsets) - 1):
        site.level = int(levels[j])
        site.on_block_start(site.level)
        for delta in window[int(close_offsets[j]) + 1 : int(close_offsets[j + 1]) + 1]:
            site.on_stream_update_superseded(0, delta)
    return site._channel.totals()


class TestLatticeRule:
    """The window and span hooks find report steps by the lattice rule."""

    @pytest.mark.parametrize("epsilon", [0.05, 0.1, 0.25, 0.3, 0.5, 0.7])
    def test_window_matches_per_step_reference(self, epsilon):
        # 0.25 * 2^3 is an exact integer threshold, 0.1 * 2^5 is
        # 3.2000000000000006: both kinds of report distance occur.
        rng = np.random.default_rng(int(epsilon * 100))
        for _ in range(60):
            level = int(rng.integers(0, 9))
            threshold = 1.0 if level == 0 else epsilon * 2**level
            reach = int(np.ceil(threshold)) - 1
            unreported = int(rng.integers(-reach, reach + 1))
            drift = unreported + int(rng.integers(-20, 21))
            start = int(rng.integers(0, 4))
            length = int(rng.integers(2, 1_500))
            deltas = rng.choice(np.array([-1, 1]), size=start + length)
            inner = rng.choice(np.arange(1, length), size=int(rng.integers(1, 30)))
            close_offsets = np.unique(np.concatenate([[0, length - 1], inner]))
            levels = rng.integers(0, 9, size=close_offsets.size)
            site = _site_at(epsilon, level, drift, unreported)
            reference = _site_at(epsilon, level, drift, unreported)
            assert site.on_multiblock_window(deltas, start, close_offsets, levels)
            assert site._channel.totals() == _reference_window(
                reference, deltas, start, close_offsets, levels
            )
            assert (site.drift, site.unreported_drift) == (0, 0)

    def test_window_makes_one_charge(self):
        site = _site_at(0.1, 3, 0, 0)
        deltas = np.ones(400, dtype=np.int64)
        close_offsets = np.array([0, 99, 199, 399])
        levels = np.array([0, 4, 2, 3])
        assert site.on_multiblock_window(deltas, 0, close_offsets, levels)
        assert len(site._channel.charges) == 1
        assert site._channel.sent == []

    def test_sparse_span_makes_one_charge_and_one_send(self):
        # eps * 2^5 = 3.2: a report every 4 steps of a rising span.
        site = _site_at(0.1, 5, 0, 0)
        deltas = np.ones(200, dtype=np.int64)
        times = list(range(1, 201))
        assert site.on_stream_batch(times, deltas, 0, 200) == 200
        (charge,) = site._channel.charges
        (message,) = site._channel.sent
        assert charge[1] == 49
        assert message.payload == {"drift": 200} and message.time == 200
