"""repro — a reproduction of "Variability in Data Streams" (Felber & Ostrovsky, PODS 2016).

The library implements the paper's variability framework for continuous
distributed tracking of non-monotonic integer streams:

* the **variability** parameter ``v(n)`` and its bounds for natural stream
  classes (:mod:`repro.core.variability`, :mod:`repro.analysis.bounds`);
* the **deterministic** and **randomized** distributed counters of Section 3
  built on a block partition of time (:mod:`repro.core`);
* **item-frequency tracking** and **single-site aggregate tracking**
  extensions (Appendices H and I);
* the **lower-bound constructions** and the tracing-problem reduction of
  Section 4 (:mod:`repro.lowerbounds`);
* the monitoring substrate, stream generators, sketches and baseline
  algorithms everything above runs on.

Quickstart::

    from repro import DeterministicCounter, random_walk_stream, assign_sites

    stream = random_walk_stream(100_000, seed=1)
    updates = assign_sites(stream, num_sites=8)
    result = DeterministicCounter(num_sites=8, epsilon=0.05).track(updates)
    print(result.total_messages, result.max_relative_error())
"""

from repro.baselines import (
    CormodeCounter,
    HuangCounter,
    LiuStyleCounter,
    NaiveCounter,
    StaticThresholdCounter,
)
from repro.core import (
    Block,
    BlockPartitioner,
    DeterministicCounter,
    FrequencyTracker,
    RandomizedCounter,
    SingleSiteTracker,
    VariabilityTracker,
    expand_stream,
    expand_update,
    f1_variability,
    run_single_site,
    variability,
    variability_increments,
)
from repro.core.history_quantiles import HistoricalQuantileTracker, ValueUpdate
from repro.core.threshold import ThresholdMonitor
from repro.sketches.gk_quantile import GKQuantileSummary
from repro.core.frequencies import (
    CRPrecisReducer,
    HashReducer,
    IdentityReducer,
    run_frequency_tracking,
)
from repro.exceptions import (
    ConfigurationError,
    ProtocolError,
    QueryError,
    ReproError,
    SpecError,
    StreamError,
)
from repro.lowerbounds import (
    DeterministicFlipFamily,
    IndexReduction,
    OverlapChain,
    RandomizedFlipFamily,
    TranscriptTracer,
)
from repro.asynchrony import (
    AsyncChannel,
    AsyncTrackingResult,
    ConstantLatency,
    HeavyTailLatency,
    UniformLatency,
    async_channels,
)
from repro.api import (
    BuiltRun,
    RunSpec,
    SourceSpec,
    Sweep,
    SweepError,
    SweepPoint,
    TopologySpec,
    TrackerSpec,
    TransportSpec,
)
from repro.monitoring import (
    MonitoringNetwork,
    ShardedNetwork,
    TrackingResult,
    build_tree_network,
    run_tracking,
)
from repro.sketches import AmsF2Sketch, CountMinSketch, CRPrecis
from repro.streams import (
    assign_sites,
    biased_walk_stream,
    database_size_trace,
    monotone_stream,
    nearly_monotone_stream,
    random_walk_stream,
    sawtooth_stream,
    zipfian_item_stream,
)
from repro.streams.model import StreamSpec
from repro.types import EstimateRecord, ItemUpdate, Update

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # exceptions
    "ReproError",
    "ConfigurationError",
    "ProtocolError",
    "SpecError",
    "QueryError",
    "StreamError",
    # types
    "Update",
    "ItemUpdate",
    "EstimateRecord",
    "StreamSpec",
    # unified experiment API
    "RunSpec",
    "BuiltRun",
    "SourceSpec",
    "TrackerSpec",
    "TopologySpec",
    "TransportSpec",
    "Sweep",
    "SweepError",
    "SweepPoint",
    # core
    "variability",
    "variability_increments",
    "f1_variability",
    "VariabilityTracker",
    "Block",
    "BlockPartitioner",
    "DeterministicCounter",
    "RandomizedCounter",
    "SingleSiteTracker",
    "run_single_site",
    "FrequencyTracker",
    "run_frequency_tracking",
    "IdentityReducer",
    "HashReducer",
    "CRPrecisReducer",
    "expand_stream",
    "expand_update",
    "HistoricalQuantileTracker",
    "ValueUpdate",
    "ThresholdMonitor",
    # monitoring
    "MonitoringNetwork",
    "ShardedNetwork",
    "TrackingResult",
    "build_tree_network",
    "run_tracking",
    # asynchrony
    "AsyncChannel",
    "AsyncTrackingResult",
    "ConstantLatency",
    "UniformLatency",
    "HeavyTailLatency",
    "async_channels",
    # streams
    "assign_sites",
    "monotone_stream",
    "nearly_monotone_stream",
    "random_walk_stream",
    "biased_walk_stream",
    "sawtooth_stream",
    "database_size_trace",
    "zipfian_item_stream",
    # sketches
    "AmsF2Sketch",
    "CountMinSketch",
    "CRPrecis",
    "GKQuantileSummary",
    # baselines
    "NaiveCounter",
    "CormodeCounter",
    "HuangCounter",
    "LiuStyleCounter",
    "StaticThresholdCounter",
    # lower bounds
    "DeterministicFlipFamily",
    "RandomizedFlipFamily",
    "OverlapChain",
    "TranscriptTracer",
    "IndexReduction",
]
