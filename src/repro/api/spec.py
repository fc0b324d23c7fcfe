"""Declarative run specification: one entry point over every axis.

:class:`RunSpec` composes the five orthogonal axes the repo implements
behind one serializable dataclass, and it is the one place a network is
wired: the CLI's engine-aware subcommands, :class:`~repro.api.Sweep`, the
analysis harnesses and the live service all build through it.

* **source** — a named stream generator distributed over ``k`` sites by a
  named assignment policy, or a recorded columnar trace file (CSV or
  memory-mappable npz);
* **tracker** — any Section 3 tracker or baseline, by name;
* **topology** — flat, the two-level sharded hierarchy or an L-level tree
  with a named partition strategy, all wired by one builder
  (:func:`~repro.monitoring.tree.build_tree_network`);
* **transport** — synchronous instant delivery, or the discrete-event
  asynchronous channel with a named latency model;
* **engine** — per-update dispatch, the span kernel's batched fast path,
  columnar array replay (one engine for every topology; a tree builds only
  the sites its trace touches), or ``auto``.

The lifecycle is ``validate() -> build() -> run()``: validation holds
every cross-axis combination check (arrays x async, trace x engine, shards
bounds, unknown names), :meth:`RunSpec.build` returns the fully wired
network plus the materialized workload, and :meth:`RunSpec.run`
hands the workload to the one runner,
:func:`~repro.monitoring.runner.run_tracking` — bit-for-bit identical to
calling it by hand (``tests/test_api_equivalence.py``).
:meth:`RunSpec.to_dict` / :meth:`RunSpec.from_dict` round-trip the whole
scenario through JSON, which is what ``python -m repro run --config
spec.json`` executes.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import numbers
import pathlib
import typing
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.baselines import (
    CormodeCounter,
    HuangCounter,
    LiuStyleCounter,
    NaiveCounter,
    StaticThresholdCounter,
)
from repro.core import DeterministicCounter, RandomizedCounter
from repro.exceptions import ProtocolError, SpecError
from repro.monitoring.runner import TrackingResult, run_tracking
from repro.monitoring.tree import (
    EPSILON_SPLIT_NAMES,
    PARTITION_NAMES,
    build_tree_network,
)
from repro.streams import (
    BlockedAssignment,
    RandomAssignment,
    RoundRobinAssignment,
    SingleSiteAssignment,
    SkewedAssignment,
    assign_sites,
    biased_walk_stream,
    database_size_trace,
    monotone_stream,
    nearly_monotone_stream,
    oscillating_stream,
    random_walk_stream,
    sawtooth_stream,
)
from repro.streams.io import TraceColumns
from repro.streams.model import StreamSpec

__all__ = [
    "SourceSpec",
    "TrackerSpec",
    "TopologySpec",
    "TransportSpec",
    "RunSpec",
    "BuiltRun",
    "STREAM_REGISTRY",
    "TRACKER_NAMES",
    "ASSIGNMENT_NAMES",
    "LATENCY_NAMES",
    "PARTITION_NAMES",
    "LOSS_MODEL_NAMES",
    "ENGINE_NAMES",
]

PathLike = Union[str, pathlib.Path]


# --------------------------------------------------------------------------
# Registries: the names a serialized spec may use on each axis.
# --------------------------------------------------------------------------

def _build_monotone(n, seed, **params):
    return monotone_stream(n, **params)


def _build_nearly_monotone(n, seed, **params):
    return nearly_monotone_stream(n, seed=seed, **params)


def _build_random_walk(n, seed, **params):
    return random_walk_stream(n, seed=seed, **params)


def _build_biased_walk(n, seed, **params):
    params.setdefault("drift", 0.5)
    return biased_walk_stream(n, seed=seed, **params)


def _build_database_trace(n, seed, **params):
    return database_size_trace(n, seed=seed, **params)


def _build_oscillating(n, seed, **params):
    params.setdefault("target", 64)
    return oscillating_stream(n, seed=seed, **params)


def _build_sawtooth(n, seed, **params):
    params.setdefault("amplitude", max(10, n // 100))
    return sawtooth_stream(n, **params)


#: Stream generators addressable from a spec: ``name -> (n, seed, **params)``.
#: The CLI's ``--stream`` choices are this registry
#: (``repro.cli.STREAM_GENERATORS`` is bound to it).
STREAM_REGISTRY = {
    "monotone": _build_monotone,
    "nearly_monotone": _build_nearly_monotone,
    "random_walk": _build_random_walk,
    "biased_walk": _build_biased_walk,
    "oscillating": _build_oscillating,
    "database_trace": _build_database_trace,
    "sawtooth": _build_sawtooth,
}

#: Trackers addressable from a spec (the Section 3 trackers, every baseline,
#: and the fixed-threshold ablation tracker).
TRACKER_NAMES = (
    "deterministic",
    "randomized",
    "cormode",
    "huang",
    "liu",
    "naive",
    "static",
)

#: Stream-to-site assignment policies addressable from a spec.
ASSIGNMENT_NAMES = ("round_robin", "blocked", "random", "skewed", "single_site")

#: Latency models addressable from a spec (async transport only), the
#: CLI ``latency`` subcommand's ``--model`` choices.  The concrete model
#: for a positive ``scale``: ``constant`` is a fixed delay, ``uniform`` is
#: jitter on ``[scale/2, 3*scale/2]``, ``heavytail`` is a Pareto tail
#: around the scale.
LATENCY_NAMES = ("zero", "constant", "uniform", "heavytail")

#: Loss models addressable from a spec (async transport only): ``iid`` drops
#: every attempt independently, ``burst`` is the Gilbert–Elliott two-state
#: chain.  Mirrors :data:`repro.faults.channel.LOSS_MODEL_NAMES` (pinned by a
#: test) without importing the faults package on the sync-only path.
LOSS_MODEL_NAMES = ("iid", "burst")

#: Delivery engines addressable from a spec ("per-update" and "perupdate"
#: are interchangeable spellings; the canonical form is "per-update").
ENGINE_NAMES = ("auto", "per-update", "batched", "arrays")


def _check_name(value: str, allowed: Sequence[str], field_path: str) -> None:
    if value not in allowed:
        raise SpecError(
            f"{field_path}={value!r} is not a known choice; pick one of "
            f"{sorted(allowed)}"
        )


def _has_type(value: object, hint) -> bool:
    """Whether ``value`` fits a spec field's annotation.

    ``bool`` is not an ``int``; any integral fits ``int`` and any real fits
    ``float``; ``List[int]`` takes a list (or tuple) of integrals; a ``Dict``
    field takes a dict.
    """
    origin = typing.get_origin(hint)
    if origin is Union:
        return any(_has_type(value, arg) for arg in typing.get_args(hint))
    if hint is bool or isinstance(value, bool):
        return hint is bool and isinstance(value, bool)
    if hint is int:
        return isinstance(value, numbers.Integral)
    if hint is float:
        return isinstance(value, numbers.Real)
    if origin is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, (list, tuple)) and all(
            _has_type(entry, item) for entry in value
        )
    return isinstance(value, origin or hint)


@functools.lru_cache(maxsize=None)
def _field_hints(spec_type) -> dict:
    """A spec dataclass's resolved field annotations (resolving costs ~0.2 ms)."""
    return typing.get_type_hints(spec_type)


def _check_field_types(spec, prefix: str = "") -> None:
    """Raise a field-naming :class:`SpecError` for any mistyped field.

    Recurses into the axis sections, so one pass covers every field of a
    :class:`RunSpec` before any range check compares a value.
    """
    hints = _field_hints(type(spec))
    for spec_field in dataclasses.fields(spec):
        value = getattr(spec, spec_field.name)
        if not _has_type(value, hints[spec_field.name]):
            raise SpecError(
                f"{prefix}{spec_field.name}={value!r} has type "
                f"{type(value).__name__}; the field takes {spec_field.type}"
            )
        if dataclasses.is_dataclass(value):
            _check_field_types(value, f"{spec_field.name}.")


# --------------------------------------------------------------------------
# Axis specs.
# --------------------------------------------------------------------------

@dataclass
class SourceSpec:
    """The **source** axis: where the distributed stream comes from.

    Exactly one of ``stream`` (a generator name from
    :data:`STREAM_REGISTRY`, distributed over ``sites`` by ``assignment``),
    ``trace`` (a recorded ``time,site,delta`` trace file, CSV or npz;
    npz traces can be memory-mapped with ``mmap``) and ``live`` (updates
    arrive incrementally over a feed — served by ``repro serve``, never
    batch-run) must be set.  For trace sources the site count is derived
    from the trace itself.

    Attributes:
        stream: Generator name, or ``None`` for a trace source.
        length: Stream length ``n`` (generator sources).
        seed: Generator / assignment-policy seed.
        sites: Number of sites ``k`` the stream is distributed over.
        assignment: Assignment-policy name from :data:`ASSIGNMENT_NAMES`.
        params: Extra keyword arguments for the generator (e.g.
            ``{"drift": 0.8}`` for ``biased_walk``).
        assignment_params: Extra keyword arguments for the assignment policy
            (e.g. ``{"block_length": 4096}`` for ``blocked``).
        trace: Path to a recorded trace file, or ``None``.
        mmap: Memory-map an npz trace instead of loading it.
        live: Updates are pushed in at service time over ``sites`` sites;
            the spec describes a :class:`repro.observability.live.LiveTracker`
            deployment and refuses batch :meth:`RunSpec.run`.
    """

    stream: Optional[str] = "random_walk"
    length: int = 10_000
    seed: int = 0
    sites: int = 4
    assignment: str = "round_robin"
    params: Dict[str, object] = field(default_factory=dict)
    assignment_params: Dict[str, object] = field(default_factory=dict)
    trace: Optional[str] = None
    mmap: bool = False
    live: bool = False

    def validate(self) -> None:
        if self.stream is not None and self.trace is not None:
            raise ProtocolError(
                "source.stream and source.trace are mutually exclusive — a "
                "run either generates its workload or replays a recorded "
                f"trace (got source.stream={self.stream!r} and "
                f"source.trace={self.trace!r})"
            )
        if self.live and (self.stream is not None or self.trace is not None):
            raise ProtocolError(
                "source.live specs take their updates from the service feed; "
                "they are mutually exclusive with source.stream and "
                f"source.trace (got source.stream={self.stream!r}, "
                f"source.trace={self.trace!r})"
            )
        if self.stream is None and self.trace is None and not self.live:
            raise SpecError(
                "the source axis needs a workload: set source.stream (a "
                f"generator from {sorted(STREAM_REGISTRY)}) or source.trace "
                "(a recorded trace file)"
            )
        if self.live and self.sites < 1:
            raise SpecError(f"source.sites must be >= 1, got {self.sites}")
        if self.stream is not None:
            _check_name(self.stream, tuple(STREAM_REGISTRY), "source.stream")
            if self.length < 1:
                raise SpecError(
                    f"source.length must be >= 1, got {self.length}"
                )
            if self.sites < 1:
                raise SpecError(f"source.sites must be >= 1, got {self.sites}")
            _check_name(self.assignment, ASSIGNMENT_NAMES, "source.assignment")
        if self.mmap:
            if self.trace is None:
                raise ProtocolError(
                    "source.mmap memory-maps a trace file; it needs "
                    "source.trace to point at a binary .npz trace"
                )
            if not str(self.trace).endswith(".npz"):
                raise SpecError(
                    "source.mmap applies to binary .npz traces only, got "
                    f"source.trace={self.trace!r}"
                )

    def build_assignment(self):
        """Instantiate the named assignment policy."""
        params = dict(self.assignment_params)
        if self.assignment == "round_robin":
            return RoundRobinAssignment(**params)
        if self.assignment == "blocked":
            return BlockedAssignment(**params)
        if self.assignment == "random":
            params.setdefault("seed", self.seed)
            return RandomAssignment(**params)
        if self.assignment == "skewed":
            params.setdefault("seed", self.seed)
            return SkewedAssignment(**params)
        if self.assignment == "single_site":
            return SingleSiteAssignment(**params)
        raise SpecError(
            f"source.assignment={self.assignment!r} is not a known choice; "
            f"pick one of {sorted(ASSIGNMENT_NAMES)}"
        )

    def build_stream(self) -> StreamSpec:
        """Generate the named stream (generator sources only)."""
        if self.stream is None:
            raise ProtocolError(
                "source.trace runs replay a recorded trace; there is no "
                "generator stream to build"
            )
        return STREAM_REGISTRY[self.stream](
            self.length, self.seed, **dict(self.params)
        )

    def build_updates(self) -> list:
        """Generate and assign the stream: the materialized update list."""
        return assign_sites(
            self.build_stream(), self.sites, self.build_assignment()
        )

    def load_columns(self) -> TraceColumns:
        """Load the recorded trace (trace sources only).

        Goes through the process-wide :mod:`repro.api.trace_cache`, so
        repeated builds over the same on-disk trace (a sweep's grid points,
        a pool worker's task stream) open the file once per process rather
        than once per run.  A trace rewritten on disk is detected by its
        ``(mtime, size)`` fingerprint and reloaded.
        """
        if self.trace is None:
            raise ProtocolError(
                "source.stream runs generate their workload; there is no "
                "trace file to load"
            )
        from repro.api.trace_cache import shared_trace_columns

        return shared_trace_columns(self.trace, mmap=bool(self.mmap))


@dataclass
class TrackerSpec:
    """The **tracker** axis: which algorithm maintains the estimate.

    Attributes:
        name: Tracker name from :data:`TRACKER_NAMES`.
        epsilon: Relative-error parameter ``eps``.
        seed: Seed for the randomized trackers (randomized, huang, liu).
        threshold: Per-site drift threshold (``static`` tracker only).
    """

    name: str = "deterministic"
    epsilon: float = 0.1
    seed: int = 0
    threshold: int = 64

    def validate(self) -> None:
        _check_name(self.name, TRACKER_NAMES, "tracker.name")
        if not 0.0 < self.epsilon < 1.0:
            raise SpecError(
                f"tracker.epsilon must be in (0, 1), got {self.epsilon}"
            )
        if self.name == "static" and self.threshold < 1:
            raise SpecError(
                f"tracker.threshold must be >= 1, got {self.threshold}"
            )

    def build_factory(self, num_sites: int):
        """Instantiate the named tracker factory for ``num_sites`` sites."""
        if self.name == "deterministic":
            return DeterministicCounter(num_sites, self.epsilon)
        if self.name == "randomized":
            return RandomizedCounter(num_sites, self.epsilon, seed=self.seed)
        if self.name == "cormode":
            return CormodeCounter(num_sites, self.epsilon)
        if self.name == "huang":
            return HuangCounter(num_sites, self.epsilon, seed=self.seed)
        if self.name == "liu":
            return LiuStyleCounter(num_sites, self.epsilon, seed=self.seed)
        if self.name == "naive":
            return NaiveCounter(num_sites, self.epsilon)
        if self.name == "static":
            return StaticThresholdCounter(
                num_sites, self.threshold, self.epsilon
            )
        raise SpecError(
            f"tracker.name={self.name!r} is not a known choice; pick one of "
            f"{sorted(TRACKER_NAMES)}"
        )


@dataclass
class TopologySpec:
    """The **topology** axis: flat star, sharded hierarchy, or L-level tree.

    The spec is the only layer with the ``shards``/``levels``/``fanout``
    shorthands; :meth:`resolve_fanouts` turns them into the one fan-out list
    :func:`repro.monitoring.tree.build_tree_network` takes.  Two
    vocabularies, never combined:

    * ``shards`` — the legacy axis: ``1`` is the flat star (bit-for-bit, no
      root hop), above 1 the two-level hierarchy ``[shards]``; any tree
      field set beside ``shards > 1`` is refused;
    * the tree fields — ``levels`` + ``fanout`` for a uniform tree
      (``levels=1`` alone is the flat star), or ``fanouts`` for explicit
      per-level fan-outs, top-down.  ``fanout`` and ``fanouts`` are
      mutually exclusive, and a ``levels`` given with ``fanouts`` must
      equal ``len(fanouts) + 1``.

    Attributes:
        shards: Coordinator shards for the legacy two-level vocabulary.
        partition: Site-to-shard partition rule from
            :data:`PARTITION_NAMES`, applied at every split of a tree.
        levels: Total coordinator levels of a uniform tree (with ``fanout``).
        fanout: Per-level fan-out of a uniform tree (with ``levels``).
        fanouts: Explicit per-level fan-outs, top-down.
        epsilon_split: Per-level error-budget rule name from
            :data:`repro.monitoring.tree.EPSILON_SPLIT_NAMES`; ``"leaf"``
            (default) keeps the whole budget at the leaf trackers,
            aggregation relaying exactly — the legacy behaviour.
        split_ratio: Ratio for the ``"geometric"`` split.
        broadcast_deadband: Relative deadband on every aggregator's downward
            level re-broadcasts; ``0.0`` re-broadcasts on every change.
    """

    shards: int = 1
    partition: str = "contiguous"
    levels: Optional[int] = None
    fanout: Optional[int] = None
    fanouts: Optional[List[int]] = None
    epsilon_split: str = "leaf"
    split_ratio: float = 0.5
    broadcast_deadband: float = 0.0

    def is_tree(self) -> bool:
        """Whether the tree vocabulary (levels/fanout/fanouts) is in use."""
        return (
            self.levels is not None
            or self.fanout is not None
            or self.fanouts is not None
        )

    def resolve_fanouts(self) -> List[int]:
        """Per-aggregation-level fan-outs, top-down (empty = flat star).

        ``shards`` maps to ``[shards]`` (``[]`` for one shard); ``levels +
        fanout`` expands to a uniform list; ``fanouts`` is taken as given.
        A contradictory or incomplete shape raises a :class:`SpecError`
        naming the field.
        """
        if not self.is_tree():
            return [self.shards] if self.shards > 1 else []
        if self.fanouts is not None:
            resolved = [int(fan) for fan in self.fanouts]
            if self.fanout is not None:
                raise SpecError(
                    "topology.fanout and topology.fanouts are mutually "
                    "exclusive; give the uniform fan-out or the explicit "
                    "per-level list, not both"
                )
            if self.levels is not None and self.levels != len(resolved) + 1:
                raise SpecError(
                    f"topology.levels={self.levels} disagrees with "
                    f"topology.fanouts={resolved} (a {len(resolved)}-entry "
                    f"fan-out list describes {len(resolved) + 1} levels)"
                )
        elif self.levels is None:
            raise SpecError(
                f"topology.fanout={self.fanout} needs topology.levels (or "
                "give an explicit topology.fanouts list)"
            )
        elif self.levels < 1:
            raise SpecError(f"topology.levels must be >= 1, got {self.levels}")
        elif self.levels == 1:
            if self.fanout is not None:
                raise SpecError(
                    "topology.levels=1 is the flat topology and takes no "
                    f"topology.fanout (got {self.fanout})"
                )
            resolved = []
        elif self.fanout is None:
            raise SpecError(
                f"topology.levels={self.levels} needs a topology.fanout (or "
                "an explicit topology.fanouts list)"
            )
        else:
            resolved = [int(self.fanout)] * (self.levels - 1)
        if any(fan < 2 for fan in resolved):
            field_path = (
                "topology.fanouts" if self.fanouts is not None else "topology.fanout"
            )
            raise SpecError(
                f"{field_path}: every aggregation level needs fan-out >= 2, "
                f"got {resolved}"
            )
        return resolved

    def validate(self) -> None:
        if self.shards < 1:
            raise SpecError(
                f"topology.shards must be >= 1 (1 = flat star topology), "
                f"got {self.shards}"
            )
        _check_name(self.partition, PARTITION_NAMES, "topology.partition")
        if self.is_tree() and self.shards != 1:
            raise ProtocolError(
                f"topology.shards={self.shards} and the tree vocabulary "
                "(levels/fanout/fanouts) are mutually exclusive — "
                "shards=S is exactly levels=2, fanout=S; describe the "
                "topology one way"
            )
        _check_name(
            self.epsilon_split, EPSILON_SPLIT_NAMES, "topology.epsilon_split"
        )
        if not 0.0 < self.split_ratio < 1.0:
            raise SpecError(
                f"topology.split_ratio must be in (0, 1), got "
                f"{self.split_ratio}"
            )
        if self.broadcast_deadband < 0.0:
            raise SpecError(
                f"topology.broadcast_deadband must be >= 0, got "
                f"{self.broadcast_deadband}"
            )
        # Shape errors surface here, before any network is built.
        self.resolve_fanouts()


@dataclass
class TransportSpec:
    """The **transport** axis: instant delivery or latency-aware channels.

    Attributes:
        mode: ``"sync"`` (the paper's instant-delivery model) or ``"async"``
            (the discrete-event transport of :mod:`repro.asynchrony`).
        latency: Latency-model name from :data:`LATENCY_NAMES`; with
            ``scale == 0`` every model degenerates to zero latency, which is
            bit-for-bit the synchronous engine.
        scale: Latency scale in virtual-time units (one unit = one stream
            timestep).
        preserve_order: Per-link FIFO (default) versus reordering allowed.
        seed: Seed for the channels' latency RNGs.
        loss: Long-run drop probability per transmission attempt, in
            ``[0, 1)``; ``0`` (default) is the lossless transport.  Loss
            needs ``mode='async'`` — a dropped message is retransmitted by
            the reliable-delivery layer, and every re-send is charged.
        loss_model: Loss-model name from :data:`LOSS_MODEL_NAMES`.
        loss_burst: Mean burst length (in attempts) for the ``burst`` model.
        loss_seed: Seed for the loss generators, independent of the latency
            seed so jitter and loss reproduce separately.
        timeout: Base retransmission timeout in virtual-time units; backoff
            doubles it per attempt up to ``16 * timeout``.
        repair: Turn on sequence-numbered block closes
            (:func:`repro.faults.repair.enable_close_repair`) so drift that
            arrives between a site's REPLY and the delayed BROADCAST is kept
            for the next close instead of silently discarded.
    """

    mode: str = "sync"
    latency: str = "zero"
    scale: float = 0.0
    preserve_order: bool = True
    seed: int = 0
    loss: float = 0.0
    loss_model: str = "iid"
    loss_burst: float = 4.0
    loss_seed: int = 0
    timeout: float = 4.0
    repair: bool = False

    def validate(self) -> None:
        _check_name(self.mode, ("sync", "async"), "transport.mode")
        _check_name(self.latency, LATENCY_NAMES, "transport.latency")
        _check_name(self.loss_model, LOSS_MODEL_NAMES, "transport.loss_model")
        if self.scale < 0:
            raise SpecError(
                f"transport.scale must be >= 0, got {self.scale}"
            )
        if self.latency == "zero" and self.scale > 0:
            raise ProtocolError(
                "transport.latency='zero' contradicts transport.scale="
                f"{self.scale}; pick a positive-scale model (constant, "
                "uniform, heavytail) or drop the scale"
            )
        if self.mode == "sync" and self.scale > 0:
            raise ProtocolError(
                f"transport.scale={self.scale} needs the latency-aware "
                "channel: set transport.mode='async' (transport.mode='sync' "
                "is the paper's instant-delivery model)"
            )
        if not 0.0 <= self.loss < 1.0:
            raise SpecError(
                f"transport.loss must be in [0, 1) so retransmission can "
                f"terminate, got {self.loss}"
            )
        if self.mode == "sync" and self.loss > 0:
            raise ProtocolError(
                f"transport.loss={self.loss} needs the fault-injecting "
                "channel: set transport.mode='async' (transport.mode='sync' "
                "is the paper's lossless instant-delivery model)"
            )
        if self.mode == "sync" and self.repair:
            raise ProtocolError(
                "transport.repair=true repairs the close protocol against "
                "delayed and lost broadcasts: set transport.mode='async' "
                "(the synchronous engine delivers instantly, so there is no "
                "reply-to-broadcast gap to repair)"
            )
        if not self.loss_burst >= 1.0:
            raise SpecError(
                f"transport.loss_burst must be >= 1 attempt, got "
                f"{self.loss_burst}"
            )
        if (
            self.loss_model == "burst"
            and self.loss > 0
            and self.loss / (1.0 - self.loss) > self.loss_burst
        ):
            raise SpecError(
                f"transport.loss={self.loss} with transport.loss_burst="
                f"{self.loss_burst} is infeasible for the burst model "
                "(the good-to-bad transition probability would exceed 1); "
                "lower the loss or lengthen the bursts"
            )
        if not self.timeout > 0:
            raise SpecError(
                f"transport.timeout must be > 0, got {self.timeout}"
            )

    def build_latency_model(self):
        """Instantiate the named latency model (async transport only)."""
        # Imported lazily so the sync-only path never touches asynchrony.
        from repro.asynchrony import (
            ConstantLatency,
            HeavyTailLatency,
            UniformLatency,
        )

        if self.scale == 0:
            return ConstantLatency(0.0)
        if self.latency == "constant":
            return ConstantLatency(self.scale)
        if self.latency == "uniform":
            return UniformLatency(self.scale / 2.0, 1.5 * self.scale)
        if self.latency == "heavytail":
            return HeavyTailLatency(self.scale, alpha=1.5, cap=100.0 * self.scale)
        raise SpecError(
            f"transport.latency={self.latency!r} is not a known choice; "
            f"pick one of {sorted(LATENCY_NAMES)}"
        )

    def build_faults(self):
        """The :class:`~repro.faults.channel.FaultPlan` of the loss axis.

        Returns ``None`` when ``loss == 0``: the builders then wire the
        plain asynchronous channel, which a zero-loss fault plan matches
        bit-for-bit anyway (the inert-bypass contract).
        """
        if self.loss == 0.0:
            return None
        # Imported lazily, like the latency models.
        from repro.faults import FaultPlan, RetransmitPolicy

        return FaultPlan(
            loss=self.loss,
            model=self.loss_model,
            burst_length=self.loss_burst,
            seed=self.loss_seed,
            retransmit=RetransmitPolicy(
                timeout=self.timeout,
                backoff=2.0,
                max_timeout=16.0 * self.timeout,
            ),
        )


# --------------------------------------------------------------------------
# The unified spec.
# --------------------------------------------------------------------------

_ENGINE_ALIASES = {"perupdate": "per-update"}

_RUNSPEC_FIELDS = (
    "source",
    "tracker",
    "topology",
    "transport",
    "engine",
    "record_every",
)


@dataclass
class RunSpec:
    """One declarative experiment: source x tracker x topology x transport x engine.

    Attributes:
        source: The workload axis (:class:`SourceSpec`).
        tracker: The algorithm axis (:class:`TrackerSpec`).
        topology: The coordinator-hierarchy axis (:class:`TopologySpec`).
        transport: The delivery-channel axis (:class:`TransportSpec`).
        engine: Delivery engine from :data:`ENGINE_NAMES`; ``auto`` picks
            the runner's default (batched exactly when ``record_every > 1``
            on the synchronous path, per-update on the asynchronous one).
        record_every: Recording stride passed to the runner; the final
            timestep is always recorded.
    """

    source: SourceSpec = field(default_factory=SourceSpec)
    tracker: TrackerSpec = field(default_factory=TrackerSpec)
    topology: TopologySpec = field(default_factory=TopologySpec)
    transport: TransportSpec = field(default_factory=TransportSpec)
    engine: str = "auto"
    record_every: int = 1

    # -- validation ----------------------------------------------------------

    def canonical_engine(self) -> str:
        """The engine name with alias spellings normalised."""
        return _ENGINE_ALIASES.get(self.engine, self.engine)

    def validate(self) -> "RunSpec":
        """Check every axis and every cross-axis combination; return self.

        This is the one place the combination rules live: the scattered
        checks the runners and the CLI used to apply individually
        (arrays x async, trace x engine, mmap x format, shard bounds,
        unknown names) all fail here, before any network is built, with a
        message naming the offending fields.
        """
        _check_field_types(self)
        self.source.validate()
        self.tracker.validate()
        self.topology.validate()
        self.transport.validate()
        engine = self.canonical_engine()
        _check_name(engine, ENGINE_NAMES, "engine")
        if self.record_every < 1:
            raise SpecError(
                f"record_every must be >= 1, got {self.record_every}"
            )
        if engine == "arrays" and self.transport.mode == "async":
            raise ProtocolError(
                "engine='arrays' replays traces synchronously and cannot be "
                "combined with transport.mode='async'; choose engine="
                "'per-update' or 'batched' for latency-aware runs"
            )
        if engine == "arrays" and self.source.trace is None:
            raise ProtocolError(
                "engine='arrays' replays a recorded trace; set source.trace "
                "(generate one with `python -m repro trace`)"
            )
        if self.source.trace is not None and engine != "arrays":
            raise ProtocolError(
                f"source.trace={self.source.trace!r} is the input of the "
                f"columnar replay engine; combine it with engine='arrays' "
                f"(got engine={self.engine!r})"
            )
        if self.source.live:
            if engine not in ("auto", "per-update"):
                raise ProtocolError(
                    "a live service ingests one pushed update at a time; "
                    "source.live requires engine='auto' or 'per-update' "
                    f"(got engine={self.engine!r})"
                )
            if self.transport.mode != "sync":
                raise ProtocolError(
                    "the live service delivers pushed updates synchronously "
                    "as they arrive; source.live requires "
                    f"transport.mode='sync' (got {self.transport.mode!r})"
                )
        if (
            (self.source.stream is not None or self.source.live)
            and self.topology.shards > self.source.sites
        ):
            raise SpecError(
                f"topology.shards={self.topology.shards} needs at least one "
                f"site per shard, but source.sites={self.source.sites}"
            )
        if (
            self.source.stream is not None or self.source.live
        ) and self.topology.is_tree():
            min_leaves = math.prod(self.topology.resolve_fanouts())
            if min_leaves > self.source.sites:
                raise SpecError(
                    f"the topology's {min_leaves} leaf shards each need at "
                    f"least one site, but source.sites={self.source.sites}"
                )
        return self

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """Serialize the spec to a JSON-compatible nested dict."""
        data = {
            "source": dataclasses.asdict(self.source),
            "tracker": dataclasses.asdict(self.tracker),
            "topology": dataclasses.asdict(self.topology),
            "transport": dataclasses.asdict(self.transport),
            "engine": self.canonical_engine(),
            "record_every": self.record_every,
        }
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunSpec":
        """Rebuild a spec from :meth:`to_dict` output (unknown keys fail).

        Every section is optional (missing ones take their defaults), but an
        unknown key anywhere raises ``ValueError`` naming it — that is the
        schema-drift guard the CI round-trip step relies on.
        """
        if not isinstance(data, Mapping):
            raise SpecError(
                f"a RunSpec document must be a JSON object, got {type(data).__name__}"
            )
        unknown = sorted(set(data) - set(_RUNSPEC_FIELDS))
        if unknown:
            raise SpecError(
                f"unknown RunSpec fields {unknown}; known fields are "
                f"{sorted(_RUNSPEC_FIELDS)}"
            )
        sections = {}
        for name, section_cls in (
            ("source", SourceSpec),
            ("tracker", TrackerSpec),
            ("topology", TopologySpec),
            ("transport", TransportSpec),
        ):
            section_data = data.get(name, {})
            if not isinstance(section_data, Mapping):
                raise SpecError(
                    f"RunSpec section {name!r} must be a JSON object, got "
                    f"{type(section_data).__name__}"
                )
            known = {f.name for f in dataclasses.fields(section_cls)}
            bad = sorted(set(section_data) - known)
            if bad:
                raise SpecError(
                    f"unknown {name} fields {bad}; known fields are "
                    f"{sorted(known)}"
                )
            section_data = dict(section_data)
            if (
                name == "source"
                and section_data.get("live")
                and "stream" not in section_data
            ):
                # A live source has no generator; don't let the field's
                # random_walk default trip the mutual-exclusion check.
                section_data["stream"] = None
            sections[name] = section_cls(**section_data)
        return cls(
            engine=data.get("engine", "auto"),
            record_every=data.get("record_every", 1),
            **sections,
        )

    def spec_hash(self) -> str:
        """SHA-256 of the canonical serialized spec.

        The canonical form is :meth:`to_dict` dumped as minified JSON with
        sorted keys, so two specs hash equal exactly when every axis agrees
        (alias spellings normalise first).  Stamped into every result's
        provenance so saved JSON outputs are self-certifying: the hash
        identifies the precise scenario that produced them.
        """
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def provenance(self) -> dict:
        """The self-certification stamp attached to results of this spec."""
        from repro import __version__

        return {"spec_hash": self.spec_hash(), "repro_version": __version__}

    def to_json(self, indent: int = 2) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: PathLike) -> None:
        """Write the spec to ``path`` as JSON."""
        pathlib.Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: PathLike) -> "RunSpec":
        """Read a spec saved by :meth:`save` (or written by hand)."""
        return cls.from_json(pathlib.Path(path).read_text(encoding="utf-8"))

    def with_overrides(self, overrides: Mapping[str, object]) -> "RunSpec":
        """Return a copy with dotted-path fields replaced.

        ``spec.with_overrides({"transport.scale": 4.0, "engine":
        "batched"})`` — the override vocabulary of :class:`~repro.api.Sweep`
        and of the CLI's ``repro run --set``.  Unknown paths raise
        ``ValueError`` naming the path — except below the open mapping
        fields (``source.params``, ``source.assignment_params``), whose
        keys are generator/policy kwargs, not spec schema: there new keys
        may be introduced freely, e.g. ``{"source.params.drift": 0.8}``.
        """
        data = self.to_dict()
        for path, value in overrides.items():
            parts = str(path).split(".")
            node = data
            for depth, part in enumerate(parts[:-1]):
                # Depths 0 and 1 are the spec schema (section, then field);
                # anything deeper lives inside a dict-valued field and is
                # an open mapping.
                if part not in node and depth >= 2:
                    node[part] = {}
                if not isinstance(node.get(part), dict):
                    raise SpecError(
                        f"unknown spec field path {path!r}; known fields at "
                        f"{'.'.join(parts[:depth]) or 'top level'} are "
                        f"{sorted(node)}"
                    )
                node = node[part]
            if parts[-1] not in node and len(parts) < 3:
                raise SpecError(
                    f"unknown spec field path {path!r}; known fields at "
                    f"{'.'.join(parts[:-1]) or 'top level'} are {sorted(node)}"
                )
            node[parts[-1]] = value
        return type(self).from_dict(data)

    # -- wiring --------------------------------------------------------------

    def build(self) -> "BuiltRun":
        """Validate, then wire the network and materialize the workload.

        Returns a :class:`BuiltRun` holding the fully wired (flat or
        sharded, sync or async) network plus the update list or trace
        columns, ready to run — or to instrument first (benchmarks override
        per-site kernels on ``built.network`` before calling
        ``built.run()``).  A trace source's columns come from the
        process-wide trace cache (:meth:`SourceSpec.load_columns`), so
        several specs over one trace open it once.
        """
        self.validate()
        if self.source.live:
            raise ProtocolError(
                "source.live specs have no batch workload to run; serve them "
                "with `repro serve --config <spec>` (or build the network "
                "alone with spec.build_network())"
            )
        engine = self.canonical_engine()
        stream: Optional[StreamSpec] = None
        updates: Optional[list] = None
        columns: Optional[TraceColumns] = None
        if self.source.trace is not None:
            columns = self.source.load_columns()
            num_sites = int(columns.sites.max()) + 1 if len(columns) else 1
        else:
            stream = self.source.build_stream()
            updates = assign_sites(
                stream, self.source.sites, self.source.build_assignment()
            )
            num_sites = self.source.sites
        network, factory = self._wire_network(num_sites)
        return BuiltRun(
            spec=self,
            engine=engine,
            factory=factory,
            network=network,
            stream=stream,
            updates=updates,
            columns=columns,
            num_sites=num_sites,
        )

    def build_network(self, num_sites: Optional[int] = None):
        """Validate, then wire just the network axes (no workload).

        The workload-free half of :meth:`build` — tracker x topology x
        transport for ``num_sites`` sites (default ``source.sites``) — used
        by the live service (:class:`repro.observability.live.LiveTracker`)
        for ``source.live`` specs, whose updates arrive over a feed instead
        of from the source axis.
        """
        self.validate()
        resolved = self.source.sites if num_sites is None else int(num_sites)
        network, _ = self._wire_network(resolved)
        return network

    def _wire_network(self, num_sites: int):
        """Wire tracker x topology x transport; return (network, factory)."""
        factory = self.tracker.build_factory(num_sites)
        fanouts = self.topology.resolve_fanouts()
        channel_factory = None
        if self.transport.mode == "async":
            # Imported lazily: the synchronous path must not require the
            # asynchrony package at import time.
            from repro.asynchrony import async_channels

            channel_factory = async_channels(
                fanouts,
                self.transport.build_latency_model(),
                seed=self.transport.seed,
                preserve_order=self.transport.preserve_order,
                faults=self.transport.build_faults(),
            )
        network = build_tree_network(
            factory,
            fanouts=fanouts,
            partition=self.topology.partition,
            epsilon_split=self.topology.epsilon_split,
            split_ratio=self.topology.split_ratio,
            broadcast_deadband=self.topology.broadcast_deadband,
            channel_factory=channel_factory,
        )
        if self.transport.repair:
            from repro.faults import enable_close_repair

            enable_close_repair(network)
        return network, factory

    def run(self) -> TrackingResult:
        """Build and execute the run; return a uniform result.

        The return type is always a
        :class:`~repro.monitoring.runner.TrackingResult`; asynchronous runs
        return the :class:`~repro.asynchrony.AsyncTrackingResult` subclass
        with the staleness metrics attached.
        """
        return self.build().run()


@dataclass
class BuiltRun:
    """A validated, fully wired run: network plus materialized workload.

    Produced by :meth:`RunSpec.build`.  Running consumes the network's state,
    so call :meth:`run` once per build (build again for a fresh network).

    Attributes:
        spec: The spec this run was built from.
        engine: The canonical engine name.
        factory: The tracker factory (exposed for throughput harnesses that
            time several engines over the same workload).
        network: The wired network — flat or sharded, sync or async.
        stream: The generated :class:`~repro.streams.model.StreamSpec`
            (generator sources; ``None`` for trace replays).
        updates: The assigned update list (generator sources).
        columns: The loaded trace columns (trace sources).
        num_sites: The resolved global site count ``k``.
    """

    spec: RunSpec
    engine: str
    factory: object
    network: object
    stream: Optional[StreamSpec]
    updates: Optional[list]
    columns: Optional[TraceColumns]
    num_sites: int

    def run(self) -> TrackingResult:
        """Run the workload through :func:`~repro.monitoring.runner.run_tracking`.

        The engine name maps onto the runner's ``batched`` switch
        (``arrays`` replays the trace columns, which always run batched).
        Every result leaves with ``result.provenance`` stamped (spec hash +
        library version), so any JSON written from it is self-certifying.
        """
        result = run_tracking(
            self.network,
            self.updates if self.columns is None else self.columns,
            record_every=self.spec.record_every,
            batched={"batched": True, "per-update": False}.get(self.engine),
        )
        result.provenance = self.spec.provenance()
        return result
