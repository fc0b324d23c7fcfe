"""Tests for thresholded monitoring and the command-line interface."""

import pathlib
import re

import pytest

from repro.cli import STREAM_GENERATORS, build_parser, main
from repro.core import DeterministicCounter, ThresholdMonitor
from repro.exceptions import ConfigurationError
from repro.streams import assign_sites, biased_walk_stream, sawtooth_stream


class TestThresholdMonitor:
    def _run(self, spec, epsilon):
        monitor = ThresholdMonitor(epsilon)
        tracker = DeterministicCounter(4, monitor.tracker_epsilon())
        result = tracker.track(assign_sites(spec, 4), record_every=5)
        return monitor, result

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            ThresholdMonitor(epsilon=0.0)
        monitor = ThresholdMonitor(epsilon=0.1)
        with pytest.raises(ConfigurationError):
            monitor.decide(10.0, threshold=0.0)
        with pytest.raises(ConfigurationError):
            monitor.sweep(None, [])

    def test_tracker_epsilon_is_one_third(self):
        assert ThresholdMonitor(0.3).tracker_epsilon() == pytest.approx(0.1)

    def test_no_violations_on_growing_stream(self):
        spec = biased_walk_stream(8_000, drift=0.6, seed=1)
        monitor, result = self._run(spec, epsilon=0.3)
        final = spec.final_value()
        thresholds = [final // 8, final // 4, final // 2, final]
        assert monitor.sweep(result, thresholds) == [0, 0, 0, 0]

    def test_no_violations_on_oscillating_stream(self):
        spec = sawtooth_stream(4_000, amplitude=200)
        monitor, result = self._run(spec, epsilon=0.3)
        assert monitor.violations(result, threshold=150) == 0

    def test_alerts_fire_once_per_crossing(self):
        spec = biased_walk_stream(6_000, drift=0.7, seed=2)
        monitor, result = self._run(spec, epsilon=0.2)
        alerts = monitor.alerts(result, threshold=spec.final_value() // 2)
        # A drifting stream crosses a mid-range threshold once and stays above.
        assert len(alerts) == 1
        assert alerts[0].fired is True

    def test_alerts_fire_and_clear_on_sawtooth(self):
        spec = sawtooth_stream(4_000, amplitude=100)
        monitor, result = self._run(spec, epsilon=0.2)
        alerts = monitor.alerts(result, threshold=80)
        fired = [a for a in alerts if a.fired]
        cleared = [a for a in alerts if not a.fired]
        assert len(fired) >= 2
        assert len(cleared) >= 1

    def test_decisions_cover_every_record(self):
        spec = biased_walk_stream(2_000, drift=0.5, seed=3)
        monitor, result = self._run(spec, epsilon=0.3)
        decisions = monitor.decisions(result, threshold=100)
        assert len(decisions) == len(result.records)


def _assert_clean_error(capsys, argv, pattern):
    """``main(argv)`` exits 2 with ``repro: error: ...`` on stderr, no traceback."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error: ")
    assert re.search(pattern, err)
    assert "Traceback" not in err


class TestCli:
    def test_parser_requires_subcommand(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_stream_choices_cover_generators(self):
        parser = build_parser()
        args = parser.parse_args(["variability", "--stream", "monotone", "--lengths", "100"])
        assert args.stream in STREAM_GENERATORS

    def test_bad_stream_length_fails_cleanly(self, capsys):
        _assert_clean_error(
            capsys, ["tracking", "--length", "0"], "stream length must be >= 1"
        )

    def test_bad_spec_override_fails_cleanly(self, capsys):
        spec = pathlib.Path(__file__).resolve().parent.parent / "examples" / "specs"
        _assert_clean_error(
            capsys,
            [
                "run",
                "--config",
                str(spec / "live_service.json"),
                "--set",
                "topology.levels=0",
            ],
            r"topology\.",
        )

    @pytest.mark.parametrize(
        "config, override, pattern",
        [
            ("tree_3level.json", "topology.fanouts=4", r"topology\.fanouts"),
            ("tree_3level.json", 'topology.fanouts=["a"]', r"topology\.fanouts"),
            ("quickstart.json", 'tracker.epsilon="0.1"', r"tracker\.epsilon"),
            ("quickstart.json", 'transport.scale="x"', r"transport\.scale"),
            ("quickstart.json", "topology.shards=2.5", r"topology\.shards"),
            ("quickstart.json", "record_every=2.5", r"record_every"),
            ("quickstart.json", "source.sites=true", r"source\.sites"),
        ],
    )
    def test_mistyped_spec_override_fails_cleanly(self, capsys, config, override, pattern):
        spec = pathlib.Path(__file__).resolve().parent.parent / "examples" / "specs"
        _assert_clean_error(
            capsys,
            ["run", "--config", str(spec / config), "--set", override],
            pattern,
        )

    @pytest.mark.parametrize(
        "argv, pattern",
        [
            (["run", "--config", "{spec}", "--workers", "0"], r"--workers"),
            (
                ["run", "--config", "{spec}", "--config", "{spec}", "--profile",
                 "{tmp}/p.pstats", "--workers", "2"],
                r"--profile.*--workers",
            ),
            (["serve", "--config", "{live}", "--set", "source.sites"], r"--set.*FIELD=VALUE"),
            (["throughput", "--workers", "0"], r"--workers"),
            (["latency", "--workers", "0"], r"--workers"),
            (
                ["latency", "--length", "200", "--sites", "2", "--scales", "0", "2",
                 "--loss", "1.5", "--workers", "2"],
                r"latency scale 0\.0 failed in its worker process: .*transport\.loss",
            ),
            (["trace", "--block-length", "-1", "--out", "{tmp}/t.csv"], r"--block-length"),
        ],
    )
    def test_bad_flag_value_fails_cleanly(self, capsys, tmp_path, argv, pattern):
        specs = pathlib.Path(__file__).resolve().parent.parent / "examples" / "specs"
        fill = {
            "{spec}": str(specs / "quickstart.json"),
            "{live}": str(specs / "live_service.json"),
            "{tmp}": str(tmp_path),
        }
        for key, value in fill.items():
            argv = [arg.replace(key, value) for arg in argv]
        _assert_clean_error(capsys, argv, pattern)
        assert not (tmp_path / "t.csv").exists()

    def test_variability_command_prints_table(self, capsys):
        exit_code = main(["variability", "--stream", "monotone", "--lengths", "100", "500"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "v(n)" in captured
        assert "500" in captured

    def test_tracking_command_prints_all_algorithms(self, capsys):
        exit_code = main(
            ["tracking", "--stream", "biased_walk", "--length", "3000", "--sites", "2",
             "--epsilon", "0.2", "--seed", "1"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        for name in ("naive", "cormode", "liu-style", "deterministic", "randomized"):
            assert name in captured

    def test_frequency_command_exact_and_sketched(self, capsys):
        assert main(["frequency", "--length", "1500", "--universe", "60", "--sites", "2"]) == 0
        exact_output = capsys.readouterr().out
        assert "exact" in exact_output
        assert (
            main(
                ["frequency", "--length", "1500", "--universe", "60", "--sites", "2", "--sketched"]
            )
            == 0
        )
        sketched_output = capsys.readouterr().out
        assert "count-min" in sketched_output

    def test_lowerbound_command_decodes(self, capsys):
        exit_code = main(
            ["lowerbound", "--n", "64", "--level", "6", "--flips", "4", "--samples", "2"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "yes" in captured
        assert "members" in captured


class TestCliBatchEngine:
    def test_tracking_accepts_engine_flag(self, capsys):
        for engine in ("auto", "batched", "per-update"):
            assert (
                main(
                    [
                        "tracking",
                        "--stream",
                        "random_walk",
                        "--length",
                        "600",
                        "--engine",
                        engine,
                    ]
                )
                == 0
            )
            out = capsys.readouterr().out
            assert "deterministic" in out

    def test_throughput_command_prints_speedup_table(self, capsys):
        assert (
            main(
                [
                    "throughput",
                    "--length",
                    "20000",
                    "--sites",
                    "4",
                    "--record-every",
                    "2000",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "batched up/s" in out


class TestCliSharding:
    def test_tracking_accepts_shards_flag(self, capsys):
        assert (
            main(
                [
                    "tracking",
                    "--stream",
                    "biased_walk",
                    "--length",
                    "1500",
                    "--sites",
                    "4",
                    "--shards",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "shards=2" in out
        assert "deterministic" in out

    def test_throughput_accepts_shards_flag(self, capsys):
        assert (
            main(
                [
                    "throughput",
                    "--length",
                    "12000",
                    "--sites",
                    "4",
                    "--shards",
                    "2",
                    "--record-every",
                    "1500",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "shards=2" in out
        assert "speedup" in out

    def test_latency_accepts_shards_flag(self, capsys):
        assert (
            main(
                [
                    "latency",
                    "--stream",
                    "biased_walk",
                    "--length",
                    "1200",
                    "--sites",
                    "4",
                    "--shards",
                    "2",
                    "--scales",
                    "0",
                    "2",
                    "--record-every",
                    "50",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "shards=2" in out
        assert "mean age" in out

    def test_block_length_help_names_blocked_assignment_not_sharding(self):
        parser = build_parser()
        args = parser.parse_args(["throughput", "--block-length", "64"])
        assert args.block_length == 64
        # The help text used to call blocked assignment "sharded ingestion",
        # conflating a stream-to-site layout with coordinator sharding.
        source = None
        for action_group in parser._subparsers._group_actions:
            source = action_group.choices["throughput"]
        help_text = next(
            action.help
            for action in source._actions
            if "--block-length" in action.option_strings
        )
        assert "blocked" in help_text
        assert "sharded-ingestion" not in help_text


class TestCliUnifiedEngine:
    """One --engine vocabulary across tracking, throughput and latency."""

    def _trace_file(self, tmp_path, suffix=".npz"):
        path = str(tmp_path / f"trace{suffix}")
        assert (
            main(
                ["trace", "--stream", "random_walk", "--length", "3000",
                 "--sites", "2", "--out", path]
            )
            == 0
        )
        return path

    def test_engine_choices_shared_across_subcommands(self):
        parser = build_parser()
        for command in ("tracking", "throughput", "latency"):
            args = parser.parse_args([command, "--engine", "batched"])
            assert args.engine == "batched"

    def test_tracking_arrays_engine_replays_trace(self, tmp_path, capsys):
        trace = self._trace_file(tmp_path)
        capsys.readouterr()
        assert (
            main(["tracking", "--engine", "arrays", "--trace", trace, "--mmap"]) == 0
        )
        out = capsys.readouterr().out
        assert "engine=arrays" in out
        assert "deterministic" in out

    def test_throughput_arrays_engine(self, tmp_path, capsys):
        trace = self._trace_file(tmp_path, suffix=".csv")
        capsys.readouterr()
        assert (
            main(
                ["throughput", "--engine", "arrays", "--trace", trace,
                 "--record-every", "500"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "arrays up/s" in out

    def test_latency_batched_engine(self, capsys):
        assert (
            main(
                ["latency", "--length", "1000", "--sites", "2", "--scales", "0",
                 "--record-every", "50", "--engine", "batched"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "engine=batched" in out

    def test_arrays_without_trace_is_a_clear_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["tracking", "--engine", "arrays"])
        assert "--trace" in capsys.readouterr().err

    def test_latency_rejects_arrays_engine(self, capsys):
        with pytest.raises(SystemExit):
            main(["latency", "--engine", "arrays"])
        assert "asynchronous" in capsys.readouterr().err

    def test_throughput_rejects_per_update_engine(self, capsys):
        with pytest.raises(SystemExit):
            main(["throughput", "--engine", "per-update"])
        assert "baseline" in capsys.readouterr().err

    def test_trace_without_arrays_engine_is_a_clear_error(self, tmp_path, capsys):
        trace = self._trace_file(tmp_path)
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["tracking", "--trace", trace])
        assert "--engine arrays" in capsys.readouterr().err

    def test_mmap_without_trace_is_a_clear_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["tracking", "--mmap"])
        assert "--trace" in capsys.readouterr().err


class TestCliRunSpec:
    """``repro run --config``: saved scenarios execute through the one API."""

    def _write_spec(self, tmp_path, **overrides):
        import json

        from repro.api import RunSpec, SourceSpec, TrackerSpec

        spec = RunSpec(
            source=SourceSpec(stream="random_walk", length=800, seed=1, sites=4),
            tracker=TrackerSpec(name="deterministic", epsilon=0.2),
            record_every=40,
        ).with_overrides(overrides)
        path = tmp_path / "spec.json"
        spec.save(path)
        return str(path), spec

    def test_run_executes_saved_spec_and_prints_summary_json(self, tmp_path, capsys):
        import json

        path, spec = self._write_spec(tmp_path)
        assert main(["run", "--config", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"] == spec.to_dict()
        assert payload["result"]["total_messages"] > 0
        assert "violation_fraction" in payload["result"]
        assert "records" not in payload["result"]

    def test_run_set_overrides_fields_before_running(self, tmp_path, capsys):
        import json

        path, _ = self._write_spec(tmp_path)
        assert (
            main(
                [
                    "run",
                    "--config",
                    path,
                    "--set",
                    "source.length=200",
                    "--set",
                    "tracker.name=naive",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["source"]["length"] == 200
        assert payload["spec"]["tracker"]["name"] == "naive"
        # A naive tracker on n updates talks exactly n times.
        assert payload["result"]["total_messages"] == 200

    def test_run_records_flag_includes_per_step_records(self, tmp_path, capsys):
        import json

        path, _ = self._write_spec(tmp_path)
        assert main(["run", "--config", path, "--records"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["records"]
        assert payload["result"]["records"][0].keys() >= {"time", "estimate"}

    def test_run_async_spec_reports_staleness(self, tmp_path, capsys):
        import json

        path, _ = self._write_spec(
            tmp_path,
            **{
                "transport.mode": "async",
                "transport.latency": "uniform",
                "transport.scale": 3.0,
            },
        )
        assert main(["run", "--config", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "staleness" in payload["result"]
        assert payload["result"]["staleness"]["delivered"] > 0

    def test_run_profile_dumps_stats_and_prints_summary(self, tmp_path, capsys):
        import json

        path, _ = self._write_spec(tmp_path)
        dump = tmp_path / "run.pstats"
        assert main(["run", "--config", path, "--profile", str(dump)]) == 0
        captured = capsys.readouterr()
        # stdout stays pure JSON; the top-N cumulative summary goes to
        # stderr alongside the binary dump.
        payload = json.loads(captured.out)
        assert payload["result"]["total_messages"] > 0
        assert "top 15 by cumulative" in captured.err
        assert "cumtime" in captured.err
        assert str(dump) in captured.err
        assert dump.exists() and dump.stat().st_size > 0

    def test_run_rejects_malformed_set(self, tmp_path, capsys):
        path, _ = self._write_spec(tmp_path)
        _assert_clean_error(
            capsys, ["run", "--config", path, "--set", "source.length"], "FIELD=VALUE"
        )

    def test_run_batch_failure_names_its_config(self, tmp_path, capsys):
        from repro.api import RunSpec, SourceSpec

        good, _ = self._write_spec(tmp_path)
        bad = tmp_path / "missing_trace.json"
        RunSpec(
            source=SourceSpec(stream=None, trace=str(tmp_path / "missing.csv")),
            engine="arrays",
        ).save(bad)
        _assert_clean_error(
            capsys,
            ["run", "--config", good, "--config", str(bad), "--workers", "2"],
            r"--config .*missing_trace\.json failed in its worker process: "
            r".*missing\.csv does not exist",
        )

    def test_run_rejects_unknown_spec_field(self, tmp_path, capsys):
        import json as _json

        path = tmp_path / "drifted.json"
        path.write_text(_json.dumps({"tracker": {"epsilonn": 0.1}}))
        _assert_clean_error(capsys, ["run", "--config", str(path)], "epsilonn")

    def test_run_rejects_invalid_combination(self, tmp_path, capsys):
        path, _ = self._write_spec(tmp_path)
        # A positive scale on the default sync/zero-latency transport is a
        # combination error either way: first against the zero-latency model,
        # and (with a model named) against the synchronous mode.
        _assert_clean_error(
            capsys,
            ["run", "--config", path, "--set", "transport.scale=4.0"],
            r"transport\.latency='zero'",
        )
        _assert_clean_error(
            capsys,
            [
                "run",
                "--config",
                path,
                "--set",
                "transport.scale=4.0",
                "--set",
                "transport.latency=uniform",
            ],
            r"transport\.mode",
        )
