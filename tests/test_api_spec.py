"""Unit tests for the unified experiment API (:mod:`repro.api`).

Covers the three satellite contracts of the spec layer:

* every invalid axis value and every invalid axis *combination* fails in
  ``validate()`` with a message naming the offending fields;
* ``to_dict``/``from_dict`` round-trip through JSON, and unknown keys fail
  loudly (the schema-drift guard);
* the committed ``examples/specs/*.json`` scenarios stay loadable and
  executable (the same check CI runs through ``repro run --config``).
"""

import json
import pathlib
import re

import numpy as np
import pytest

from repro.api import (
    RunSpec,
    SourceSpec,
    Sweep,
    TopologySpec,
    TrackerSpec,
    TransportSpec,
)
from repro.asynchrony import AsyncTrackingResult
from repro.exceptions import ProtocolError, SpecError

SPECS_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples" / "specs"


def _spec(**kwargs) -> RunSpec:
    defaults = dict(
        source=SourceSpec(stream="random_walk", length=200, seed=0, sites=4),
        tracker=TrackerSpec(name="deterministic", epsilon=0.2),
    )
    defaults.update(kwargs)
    return RunSpec(**defaults)


class TestValidationErrors:
    """Every bad axis fails with a message naming the offending fields."""

    def test_unknown_stream_names_field(self):
        with pytest.raises(ValueError, match=r"source\.stream"):
            _spec(source=SourceSpec(stream="nope", length=100)).validate()

    def test_unknown_tracker_names_field(self):
        with pytest.raises(ValueError, match=r"tracker\.name"):
            _spec(tracker=TrackerSpec(name="magic")).validate()

    def test_epsilon_out_of_range_names_field(self):
        with pytest.raises(ValueError, match=r"tracker\.epsilon"):
            _spec(tracker=TrackerSpec(name="deterministic", epsilon=1.5)).validate()

    def test_shards_below_one_names_field(self):
        with pytest.raises(ValueError, match=r"topology\.shards"):
            _spec(topology=TopologySpec(shards=0)).validate()

    def test_more_shards_than_sites_names_both_fields(self):
        with pytest.raises(ValueError, match=r"topology\.shards=8.*source\.sites=4"):
            _spec(topology=TopologySpec(shards=8)).validate()

    def test_unknown_partition_names_field(self):
        with pytest.raises(ValueError, match=r"topology\.partition"):
            _spec(topology=TopologySpec(shards=2, partition="spiral")).validate()

    def test_unknown_latency_names_field(self):
        with pytest.raises(ValueError, match=r"transport\.latency"):
            _spec(transport=TransportSpec(mode="async", latency="warp")).validate()

    def test_unknown_transport_mode_names_field(self):
        with pytest.raises(ValueError, match=r"transport\.mode"):
            _spec(transport=TransportSpec(mode="quantum")).validate()

    def test_negative_scale_names_field(self):
        with pytest.raises(ValueError, match=r"transport\.scale"):
            _spec(
                transport=TransportSpec(mode="async", latency="uniform", scale=-1)
            ).validate()

    def test_sync_with_positive_scale_is_a_conflict(self):
        with pytest.raises(ProtocolError, match=r"transport\.scale.*transport\.mode"):
            _spec(
                transport=TransportSpec(mode="sync", latency="uniform", scale=2.0)
            ).validate()

    def test_unknown_engine_names_field(self):
        with pytest.raises(ValueError, match=r"engine"):
            _spec(engine="warp").validate()

    def test_record_every_below_one(self):
        with pytest.raises(ValueError, match=r"record_every"):
            _spec(record_every=0).validate()

    @pytest.mark.parametrize(
        "path, value",
        [
            ("topology.fanouts", 4),
            ("topology.fanouts", ["a"]),
            ("tracker.epsilon", "0.1"),
            ("transport.scale", "x"),
            ("topology.shards", 2.5),
            ("record_every", 2.5),
            ("source.sites", True),
            ("source.params", [1]),
        ],
    )
    def test_mistyped_field_names_field(self, path, value):
        spec = _spec().with_overrides({path: value})
        with pytest.raises(SpecError, match=re.escape(path)):
            spec.validate()

    def test_any_integral_or_real_fits_numeric_fields(self):
        _spec(
            source=SourceSpec(stream="monotone", length=np.int64(50), sites=np.int32(4)),
            topology=TopologySpec(fanouts=(np.int64(2), 2)),
            transport=TransportSpec(mode="async", latency="constant", scale=2),
        ).validate()

    def test_unknown_assignment_names_field(self):
        with pytest.raises(ValueError, match=r"source\.assignment"):
            _spec(
                source=SourceSpec(stream="monotone", length=50, assignment="chaos")
            ).validate()

    def test_arrays_with_async_transport_is_a_conflict(self):
        spec = _spec(
            source=SourceSpec(stream=None, trace="trace.npz"),
            transport=TransportSpec(mode="async", latency="uniform", scale=1.0),
            engine="arrays",
        )
        with pytest.raises(ProtocolError, match=r"engine='arrays'.*transport\.mode='async'"):
            spec.validate()

    def test_arrays_without_trace_is_a_conflict(self):
        with pytest.raises(ProtocolError, match=r"engine='arrays'.*source\.trace"):
            _spec(engine="arrays").validate()

    def test_trace_with_non_arrays_engine_is_a_conflict(self):
        spec = _spec(source=SourceSpec(stream=None, trace="t.csv"), engine="batched")
        with pytest.raises(ProtocolError, match=r"source\.trace.*engine"):
            spec.validate()

    def test_stream_and_trace_together_conflict(self):
        spec = _spec(
            source=SourceSpec(stream="monotone", trace="t.csv"), engine="arrays"
        )
        with pytest.raises(ProtocolError, match=r"source\.stream.*source\.trace"):
            spec.validate()

    def test_neither_stream_nor_trace(self):
        with pytest.raises(ValueError, match=r"source\.stream.*source\.trace"):
            _spec(source=SourceSpec(stream=None)).validate()

    def test_mmap_without_npz_trace(self):
        spec = _spec(
            source=SourceSpec(stream=None, trace="t.csv", mmap=True), engine="arrays"
        )
        with pytest.raises(ValueError, match=r"source\.mmap"):
            spec.validate()

    def test_mmap_without_trace_at_all(self):
        with pytest.raises(ProtocolError, match=r"source\.mmap.*source\.trace"):
            _spec(source=SourceSpec(stream="monotone", length=50, mmap=True)).validate()

    def test_static_tracker_threshold_below_one(self):
        with pytest.raises(ValueError, match=r"tracker\.threshold"):
            _spec(tracker=TrackerSpec(name="static", threshold=0)).validate()

    def test_zero_latency_with_positive_scale_conflicts(self):
        with pytest.raises(ProtocolError, match=r"transport\.latency='zero'"):
            _spec(
                transport=TransportSpec(mode="async", latency="zero", scale=3.0)
            ).validate()


class TestSerialization:
    def test_to_dict_round_trips_through_json(self):
        spec = _spec(
            topology=TopologySpec(shards=2, partition="strided"),
            transport=TransportSpec(mode="async", latency="heavytail", scale=2.0),
            engine="batched",
            record_every=5,
        )
        restored = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        assert restored.to_dict() == spec.to_dict()

    def test_engine_alias_normalises_in_to_dict(self):
        assert _spec(engine="perupdate").to_dict()["engine"] == "per-update"

    def test_from_dict_rejects_unknown_top_level_key(self):
        with pytest.raises(ValueError, match=r"unknown RunSpec fields \['enginee'\]"):
            RunSpec.from_dict({"enginee": "auto"})

    def test_from_dict_rejects_unknown_section_key(self):
        with pytest.raises(ValueError, match=r"unknown tracker fields \['eps'\]"):
            RunSpec.from_dict({"tracker": {"eps": 0.1}})

    def test_from_dict_of_partial_document_takes_defaults(self):
        spec = RunSpec.from_dict({"tracker": {"name": "naive"}})
        assert spec.tracker.name == "naive"
        assert spec.source.stream == "random_walk"
        assert spec.engine == "auto"

    def test_save_load_file_round_trip(self, tmp_path):
        spec = _spec(record_every=9)
        path = tmp_path / "spec.json"
        spec.save(path)
        assert RunSpec.load(path) == spec

    def test_with_overrides_rejects_unknown_path(self):
        with pytest.raises(ValueError, match=r"transport\.warp"):
            _spec().with_overrides({"transport.warp": 1})

    def test_with_overrides_rejects_unknown_section(self):
        with pytest.raises(ValueError, match=r"universe\.size"):
            _spec().with_overrides({"universe.size": 1})

    def test_with_overrides_replaces_nested_field(self):
        spec = _spec().with_overrides({"tracker.name": "naive", "record_every": 3})
        assert spec.tracker.name == "naive"
        assert spec.record_every == 3

    def test_with_overrides_introduces_open_params_keys(self):
        # params/assignment_params are open mappings (generator/policy
        # kwargs), so new keys may appear even when absent from the base.
        spec = _spec(
            source=SourceSpec(stream="biased_walk", length=300, sites=4)
        ).with_overrides(
            {
                "source.params.drift": 0.9,
                "source.assignment": "blocked",
                "source.assignment_params.block_length": 32,
            }
        )
        assert spec.source.params == {"drift": 0.9}
        assert spec.source.assignment_params == {"block_length": 32}
        assert spec.validate().run().total_messages > 0


class TestSweep:
    def test_grid_expands_as_cartesian_product_in_order(self):
        sweep = Sweep(
            _spec(),
            {"tracker.name": ["naive", "deterministic"], "record_every": [1, 2]},
        )
        assert len(sweep) == 4
        combos = [
            (o["tracker.name"], o["record_every"]) for o, _ in sweep.specs()
        ]
        assert combos == [
            ("naive", 1),
            ("naive", 2),
            ("deterministic", 1),
            ("deterministic", 2),
        ]

    def test_unknown_grid_axis_fails_at_construction(self):
        with pytest.raises(ValueError, match=r"tracker\.nam"):
            Sweep(_spec(), {"tracker.nam": ["naive"]})

    def test_empty_axis_fails(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="no values"):
            Sweep(_spec(), {"tracker.name": []})

    def test_run_attaches_results_per_point(self):
        points = Sweep(_spec(), {"tracker.name": ["naive", "deterministic"]}).run()
        assert [p.spec.tracker.name for p in points] == ["naive", "deterministic"]
        assert all(p.result.total_messages > 0 for p in points)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_invalid_point_fails_with_field_naming_error(self, workers):
        # A parallel sweep validates every point before it starts a pool, so
        # a bad point fails as it does serially: a SpecError naming the field.
        sweep = Sweep(
            _spec(transport=TransportSpec(mode="async", latency="uniform")),
            {"transport.loss": [0.0, 1.5]},
        )
        with pytest.raises(SpecError, match=r"transport\.loss"):
            sweep.run(workers=workers)


class TestResultSummaries:
    def test_sync_summary_and_to_dict_vocabulary(self):
        result = _spec(record_every=7).run()
        summary = result.summary(0.2)
        assert summary["num_records"] == result.length
        assert summary["total_messages"] == result.total_messages
        assert summary["messages_by_kind"] == result.messages_by_kind
        assert summary["max_relative_error"] == result.max_relative_error()
        assert summary["violation_fraction"] == result.violation_fraction(0.2)
        full = result.to_dict(0.2)
        assert len(full["records"]) == result.length
        assert full["records"][0]["time"] == result.records[0].time
        # The whole document is JSON-serializable as-is.
        json.dumps(full)

    def test_async_summary_attaches_staleness(self):
        result = _spec(
            transport=TransportSpec(mode="async", latency="uniform", scale=2.0),
            record_every=7,
        ).run()
        assert isinstance(result, AsyncTrackingResult)
        summary = result.summary()
        assert summary["staleness"]["delivered"] == result.staleness.delivered
        assert summary["final_clock"] == result.final_clock
        assert summary["settled_error"] == result.settled_error()
        json.dumps(result.to_dict(0.2))


class TestCommittedExampleSpecs:
    """The committed scenarios stay loadable and executable (schema guard)."""

    def test_specs_directory_exists_and_is_populated(self):
        assert sorted(p.name for p in SPECS_DIR.glob("*.json"))

    @pytest.mark.parametrize(
        "path", sorted(SPECS_DIR.glob("*.json")), ids=lambda p: p.stem
    )
    def test_spec_round_trips_and_runs_smoke_sized(self, path):
        spec = RunSpec.load(path)
        assert RunSpec.from_dict(spec.to_dict()) == spec
        if spec.source.live:
            # A live spec has no batch workload; its executable surface is
            # the network build (`repro serve` drives it end-to-end in
            # tests/test_live_service.py).
            spec.validate()
            assert spec.build_network() is not None
            return
        smoke = spec.with_overrides(
            {"source.length": 600, "record_every": 60}
        ).validate()
        result = smoke.run()
        assert result.total_messages > 0
        assert result.length > 0
