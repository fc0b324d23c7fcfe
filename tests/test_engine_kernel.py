"""The span kernel's central contract: closed-form execution is invisible.

``repro.engine.SpanKernel`` owns run segmentation, trigger arithmetic, bulk
accounting and multi-block fast-forwarding for every delivery engine.  These
tests pin its contract from four sides:

* a hypothesis property test asserting bit-for-bit equivalence (estimates,
  message counts, bit counts, per-kind breakdowns) of the batched engine —
  multi-block fast-forwarding included — against per-update delivery, across
  coordinators, stream generators, shard counts and recording strides,
  including streams whose growing value crosses block levels;
* direct evidence that fast-forwarding actually *engages* on the workloads
  it was built for (a counting kernel), so the property test cannot pass
  vacuously;
* the kernel's single fallback path (``SpanKernel.replay``), whose prefix
  semantics must match per-update delivery exactly when a run errors midway;
* the close ladder (``_close_ladder``) against a close-by-close reference,
  on walks that hover at a level-band edge and on long drifts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import CormodeCounter, LiuStyleCounter, NaiveCounter
from repro.core import DeterministicCounter, RandomizedCounter
from repro.engine import DEFAULT_KERNEL, SpanKernel, segment_cuts
from repro.engine.kernel import _LADDER_CHUNK_MIN, _close_ladder
from repro.exceptions import StreamError
from repro.monitoring import build_tree_network
from repro.monitoring.runner import run_tracking
from repro.streams import (
    BlockedAssignment,
    assign_sites,
    biased_walk_stream,
    nearly_monotone_stream,
    random_walk_stream,
    sawtooth_stream,
)

FACTORIES = {
    "naive": lambda k, seed: NaiveCounter(k),
    "cormode": lambda k, seed: CormodeCounter(k, 0.08),
    "liu": lambda k, seed: LiuStyleCounter(k, 0.08, seed=seed),
    "deterministic": lambda k, seed: DeterministicCounter(k, 0.08),
    "randomized": lambda k, seed: RandomizedCounter(k, 0.08, seed=seed),
}

GENERATORS = {
    # random_walk hovers near zero (long same-level close runs), biased_walk
    # and nearly_monotone grow |f| so runs cross block levels mid-stream.
    "random_walk": lambda n, seed: random_walk_stream(n, seed=seed),
    "sawtooth": lambda n, seed: sawtooth_stream(n, amplitude=30),
    "biased_walk": lambda n, seed: biased_walk_stream(n, drift=0.6, seed=seed),
    "nearly_monotone": lambda n, seed: nearly_monotone_stream(n, seed=seed),
}


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


class CountingKernel(SpanKernel):
    """A kernel that records how much work multi-block fast-forwarding did."""

    def __init__(self, fast_forward: bool = True) -> None:
        super().__init__(fast_forward=fast_forward)
        self.windows = 0
        self.fast_forwarded_steps = 0

    def fast_forward_closes(self, *args, **kwargs) -> int:
        advanced = super().fast_forward_closes(*args, **kwargs)
        if advanced:
            self.windows += 1
            self.fast_forwarded_steps += advanced
        return advanced


def _attach_kernel(network, kernel):
    for site in network.sites:
        site.span_kernel = kernel


class TestKernelEquivalenceProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        factory_name=st.sampled_from(sorted(FACTORIES)),
        generator_name=st.sampled_from(sorted(GENERATORS)),
        num_sites=st.integers(min_value=1, max_value=6),
        shards=st.integers(min_value=1, max_value=3),
        length=st.integers(min_value=300, max_value=1500),
        record_every=st.sampled_from([1, 7, 100]),
        block_length=st.sampled_from([16, 64, 256]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_batched_with_fast_forward_is_bit_for_bit(
        self,
        factory_name,
        generator_name,
        num_sites,
        shards,
        length,
        record_every,
        block_length,
        seed,
    ):
        shards = min(shards, num_sites)
        spec = GENERATORS[generator_name](length, seed)
        updates = assign_sites(spec, num_sites, BlockedAssignment(block_length))

        def run(batched):
            factory = FACTORIES[factory_name](num_sites, seed)
            if shards > 1:
                network = build_tree_network(factory, fanouts=[shards])
            else:
                network = factory.build_network()
            result = run_tracking(
                network, updates, record_every=record_every, batched=batched
            )
            return result, network

        slow, slow_network = run(False)
        fast, fast_network = run(True)
        if shards == 1:
            assert _fingerprint(slow) == _fingerprint(fast)
        else:
            # Root-hop counts legitimately differ with delivery granularity
            # (see the push-granularity note in repro.monitoring.sharding);
            # estimates and the merged shard-local counters must not.
            assert [r.estimate for r in slow.records] == [
                r.estimate for r in fast.records
            ]
            slow_local = slow_network.local_stats
            fast_local = fast_network.local_stats
            assert slow_local.messages == fast_local.messages
            assert slow_local.bits == fast_local.bits
            assert slow_local.by_kind == fast_local.by_kind

    @settings(max_examples=10, deadline=None)
    @given(
        num_sites=st.integers(min_value=1, max_value=5),
        length=st.integers(min_value=400, max_value=1200),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_fast_forward_off_matches_fast_forward_on(self, num_sites, length, seed):
        """The FF toggle changes speed only, never a single counter."""
        spec = random_walk_stream(length, seed=seed)
        updates = assign_sites(spec, num_sites, BlockedAssignment(64))
        results = []
        for fast_forward in (True, False):
            for factory in (
                DeterministicCounter(num_sites, 0.1),
                RandomizedCounter(num_sites, 0.1, seed=seed),
            ):
                network = factory.build_network()
                _attach_kernel(network, SpanKernel(fast_forward=fast_forward))
                results.append(
                    _fingerprint(
                        run_tracking(network, updates, record_every=50, batched=True)
                    )
                )
        on_det, on_rand, off_det, off_rand = results
        assert on_det == off_det
        assert on_rand == off_rand


class TestFastForwardEngages:
    @pytest.mark.parametrize("factory_name", ["deterministic", "randomized"])
    def test_multiblock_windows_cover_most_of_a_low_level_run(self, factory_name):
        """At small k near f = 0, blocks are a handful of updates long and
        almost the whole stream should fast-forward through multi-close
        windows — this is the E17 bottleneck the kernel exists to remove,
        and it keeps the property test from passing vacuously."""
        num_sites = 4
        spec = random_walk_stream(20_000, seed=31)
        updates = assign_sites(spec, num_sites, BlockedAssignment(4_096))
        factory = FACTORIES[factory_name](num_sites, 5)
        network = factory.build_network()
        kernel = CountingKernel()
        _attach_kernel(network, kernel)
        fast = run_tracking(network, updates, record_every=5_000, batched=True)
        # Cross-level fast-forward merges what used to be one window per
        # level band into a handful of long ladders; coverage (below) is the
        # real vacuity guard.
        assert kernel.windows >= 5
        assert kernel.fast_forwarded_steps > len(updates) // 2
        reference = FACTORIES[factory_name](num_sites, 5).track(
            updates, record_every=5_000, batched=False
        )
        assert _fingerprint(reference) == _fingerprint(fast)
        assert network.coordinator.blocks_completed > 100

    def test_level_crossing_rides_the_window(self):
        """A stream that climbs levels still matches per-update exactly —
        the close ladder walks the level schedule inside one window instead
        of cutting at the first close whose boundary leaves the band."""
        num_sites = 2
        spec = biased_walk_stream(6_000, drift=0.7, seed=3)
        updates = assign_sites(spec, num_sites, BlockedAssignment(1_024))
        factory = DeterministicCounter(num_sites, 0.1)
        slow = factory.track(updates, record_every=500, batched=False)
        fast = factory.track(updates, record_every=500, batched=True)
        assert _fingerprint(slow) == _fingerprint(fast)
        # The walk must actually have climbed out of level 0.
        network = factory.build_network()
        run_tracking(network, updates, record_every=500, batched=True)
        assert network.coordinator.level >= 1


class TestKernelFallback:
    def test_non_unit_delta_errors_after_identical_prefix(self):
        """The replay fallback pins prefix semantics: the StreamError for a
        non-unit delta fires with exactly the per-update path's state."""
        factory = DeterministicCounter(1, 0.1)
        times = list(range(1, 41))
        deltas = [1] * 20 + [5] + [1] * 19
        reference = factory.build_network()
        with pytest.raises(StreamError):
            for t, d in zip(times, deltas):
                reference.deliver_update(t, 0, d)
        batched = factory.build_network()
        with pytest.raises(StreamError):
            batched.deliver_batch(0, times, deltas)
        assert reference.stats.messages == batched.stats.messages
        assert reference.stats.bits == batched.stats.bits
        assert reference.estimate() == batched.estimate()

    def test_short_runs_replay_per_update(self):
        spec = random_walk_stream(200, seed=9)
        updates = assign_sites(spec, 1)
        slow = DeterministicCounter(1, 0.1).build_network()
        fast = DeterministicCounter(1, 0.1).build_network()
        for u in updates:
            slow.deliver_update(u.time, u.site, u.delta)
        # Deliver in runs shorter than the fast-path minimum: every one must
        # route through the kernel's replay helper.
        for start in range(0, len(updates), 8):
            run = updates[start : start + 8]
            fast.deliver_batch(0, [u.time for u in run], [u.delta for u in run])
        assert slow.stats.messages == fast.stats.messages
        assert slow.stats.bits == fast.stats.bits
        assert slow.estimate() == fast.estimate()


def _reference_ladder(prefix, index, length, offset, num_sites):
    """The close ladder one close at a time, straight from its definition.

    A close at ``pos`` has boundary ``offset + prefix[pos]`` and post level
    the number of edges ``4k * 2^j`` at or below ``|boundary|``; the next
    close sits one cycle ``k * 2^max(r - 1, 0)`` later, while inside the run.
    """
    positions, boundaries, levels = [], [], []
    pos = index
    while pos < length:
        boundary = offset + int(prefix[pos])
        level = 0
        while 4 * num_sites * 2**level <= abs(boundary):
            level += 1
        positions.append(pos)
        boundaries.append(boundary)
        levels.append(level)
        pos += num_sites * 2 ** max(level - 1, 0)
    return positions, boundaries, levels


def _stretch_lengths(levels):
    """Closes per same-level stretch (a level change starts a new one)."""
    lengths = [1]
    for before, after in zip(levels, levels[1:]):
        if after == before:
            lengths[-1] += 1
        else:
            lengths.append(1)
    return lengths


@st.composite
def _ladder_inputs(draw):
    """``(prefix, index, length, offset, k)`` for ±1 walks of three shapes.

    * ``hover``: a mean-reverting walk whose boundary starts within a few
      units of a band edge ``±4k * 2^j``, so the level flips close after close;
    * ``drift``: a walk with a fixed bias, from none (the value lingers in
      one band, so same-level stretches outlast the scalar walk and reach
      the vectorised probes) to every step one way (each band left within a
      few closes);
    * ``flat``: alternating steps, one stretch over the whole run.
    """
    num_sites = draw(st.integers(min_value=1, max_value=64))
    shape = draw(st.sampled_from(["hover", "drift", "flat"]))
    length = draw(st.integers(min_value=1, max_value=4096))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    edge = 4 * num_sites * 2 ** draw(st.integers(min_value=0, max_value=6))
    sign = draw(st.sampled_from([1, -1]))
    if shape == "hover":
        pull = draw(st.floats(min_value=0.01, max_value=0.3))
        draws = rng.random(length)
        deltas = np.empty(length, dtype=np.int64)
        value = 0
        for step in range(length):
            up = min(max(0.5 - pull * value, 0.05), 0.95)
            deltas[step] = 1 if draws[step] < up else -1
            value += deltas[step]
        start = sign * edge + draw(st.integers(min_value=-4, max_value=4))
    elif shape == "drift":
        up = draw(st.floats(min_value=0.5, max_value=1.0))
        deltas = np.where(rng.random(length) < up, 1, -1) * sign
        start = draw(st.integers(min_value=-2 * edge, max_value=2 * edge))
    else:
        deltas = np.where(np.arange(length) % 2 == 0, 1, -1) * sign
        start = draw(st.integers(min_value=-2 * edge, max_value=2 * edge))
    prefix = np.cumsum(deltas).astype(np.int64)
    index = draw(
        st.one_of(st.just(length - 1), st.integers(min_value=0, max_value=length - 1))
    )
    return prefix, index, length, start - int(prefix[index]), num_sites


class TestCloseLadder:
    @staticmethod
    def _assert_matches_reference(prefix, index, length, offset, num_sites):
        ladder = _close_ladder(prefix, index, length, offset, num_sites)
        expected = _reference_ladder(prefix, index, length, offset, num_sites)
        for array, values in zip(ladder, expected):
            assert array.dtype == np.int64
            assert array.tolist() == values
        assert ladder[0][0] == index
        return expected[2]

    @settings(max_examples=200, deadline=None)
    @given(inputs=_ladder_inputs())
    def test_matches_close_by_close_reference(self, inputs):
        self._assert_matches_reference(*inputs)

    def test_long_stretches_match_reference(self):
        """Stretches longer than the scalar walk, before and after a level
        change, so the vectorised probes are exercised on every run."""
        # Alternating steps at 0: one level-0 stretch over the whole run.
        flat = np.cumsum(np.where(np.arange(4096) % 2 == 0, 1, -1)).astype(np.int64)
        levels = self._assert_matches_reference(flat, 0, 4096, 0, 2)
        assert _stretch_lengths(levels) == [len(levels)]
        assert len(levels) > _LADDER_CHUNK_MIN
        # Climb through levels 0 and 1, then hover inside level 2's band.
        climb = np.concatenate(
            [np.ones(40, dtype=np.int64), np.where(np.arange(4000) % 2 == 0, 1, -1)]
        )
        levels = self._assert_matches_reference(np.cumsum(climb), 0, 4040, 0, 4)
        stretches = _stretch_lengths(levels)
        assert len(stretches) > 1
        assert stretches[-1] > _LADDER_CHUNK_MIN


class TestSegmentationOwnership:
    def test_runner_delegates_to_kernel_segmentation(self):
        from repro.monitoring.runner import _segment_cuts

        sites = np.asarray([0, 0, 1, 1, 1, 0, 2, 2])
        assert _segment_cuts(sites, 3, 4) == segment_cuts(sites, 3, 4)

    def test_cut_positions(self):
        sites = np.asarray([0, 0, 0, 1, 1, 1])
        # Cuts are exclusive end offsets: one after every recording point
        # (global index divisible by record_every), at each site change, and
        # at the chunk end.  With start_index 2, offset 2 is global index 4,
        # so the record cut lands at offset 3 — coinciding with the site cut.
        assert segment_cuts(sites, 2, 4) == [3, 6]
        assert segment_cuts(sites, 0, 2) == [1, 3, 5, 6]

    def test_default_kernel_is_shared_and_fast_forwarding(self):
        site_a = DeterministicCounter(2, 0.1).build_site(0)
        site_b = RandomizedCounter(2, 0.1, seed=1).build_site(1)
        assert site_a.span_kernel is DEFAULT_KERNEL
        assert site_b.span_kernel is DEFAULT_KERNEL
        assert DEFAULT_KERNEL.fast_forward
