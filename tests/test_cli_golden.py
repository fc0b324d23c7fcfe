"""Golden outputs: what the CLI and two examples print, pinned byte for byte.

Every case below runs one ``python -m repro`` command line (or one
example's ``main()``) at smoke size and compares its stdout with
``tests/data/cli_golden.json``.  Temporary paths read ``<tmp>`` and the
repository root reads ``<repo>``.  ``throughput`` rows are wall-clock rates,
so its cases keep the header line, the column names and the algorithm and
``k`` cells exactly and mask the three rate cells.

The data file is written by this module::

    PYTHONPATH=src python tests/test_cli_golden.py --write

Regenerating it changes what the CLI prints, so only do it for an intended
change of output.
"""

import contextlib
import importlib.util
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from repro.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
SPECS = ROOT / "examples" / "specs"


def _stdout(call) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        call()
    return buffer.getvalue()


def _cli(*argvs) -> str:
    """Run each argv through ``main`` in one temp dir; return normalised stdout.

    An argument containing ``{tmp}`` names a file in that directory, so a
    case can write a trace and then replay it.
    """
    with tempfile.TemporaryDirectory() as tmp:
        text = ""
        for argv in argvs:
            argv = [arg.replace("{tmp}", tmp) for arg in argv]
            text += _stdout(lambda: main(argv))
        return text.replace(tmp, "<tmp>").replace(str(ROOT), "<repo>")


def _mask_rates(text: str) -> str:
    """Keep a throughput table's column names and first two cells of each row.

    Lines above the column names (the header, and any trace the case wrote
    first) stay as they are.
    """
    lines = text.splitlines()
    rule = next(i for i, line in enumerate(lines) if line and set(line) <= {"-", " "})
    rows = [row.split() for row in lines[rule + 1 :]]
    return "\n".join(
        lines[: rule - 1]
        + [" | ".join(re.split(r"\s{2,}", lines[rule - 1].strip()))]
        + [" ".join(cells[:2] + ["*"] * (len(cells) - 2)) for cells in rows]
    )


def _example(name: str):
    def run():
        path = ROOT / "examples" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(f"golden_{name}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return _stdout(module.main)

    return run


TRACE = ["trace", "--stream", "random_walk", "--length", "3000", "--sites", "4"]
TRACKING = ["tracking", "--stream", "random_walk", "--length", "3000", "--sites", "4", "--seed", "1"]
LATENCY = ["latency", "--length", "1500", "--sites", "4", "--record-every", "25"]
THROUGHPUT = ["throughput", "--length", "20000", "--record-every", "2000"]
SMOKE = ["--set", "source.length=600", "--set", "record_every=50"]

CASES = {
    **{
        f"tracking-{engine}": lambda engine=engine: _cli(TRACKING + ["--engine", engine])
        for engine in ("auto", "per-update", "batched")
    },
    "tracking-shards2": lambda: _cli(
        ["tracking", "--stream", "biased_walk", "--length", "2000", "--sites", "4", "--shards", "2"]
    ),
    "tracking-levels3": lambda: _cli(TRACKING + ["--levels", "3", "--fanout", "2"]),
    "tracking-arrays-npz-mmap": lambda: _cli(
        TRACE + ["--block-length", "64", "--out", "{tmp}/t.npz"],
        ["tracking", "--engine", "arrays", "--trace", "{tmp}/t.npz", "--mmap"],
    ),
    "tracking-arrays-csv": lambda: _cli(
        TRACE + ["--block-length", "0", "--out", "{tmp}/t.csv"],
        ["tracking", "--engine", "arrays", "--trace", "{tmp}/t.csv", "--shards", "2"],
    ),
    "latency-scales": lambda: _cli(LATENCY + ["--scales", "0", "2"]),
    "latency-shards2": lambda: _cli(LATENCY + ["--scales", "0", "2", "--shards", "2"]),
    "latency-levels3": lambda: _cli(
        LATENCY + ["--scales", "0", "2", "--levels", "3", "--fanout", "2"]
    ),
    "latency-batched": lambda: _cli(LATENCY + ["--scales", "0", "2", "--engine", "batched"]),
    "latency-loss-repair": lambda: _cli(
        LATENCY + ["--scales", "1", "--loss", "0.1", "--repair"]
    ),
    "latency-workers2": lambda: _cli(
        LATENCY + ["--scales", "0", "2", "4", "--workers", "2", "--allow-reordering"]
    ),
    "throughput-sites": lambda: _mask_rates(_cli(THROUGHPUT + ["--sites", "4", "16"])),
    "throughput-shards2": lambda: _mask_rates(
        _cli(THROUGHPUT + ["--sites", "4", "--shards", "2"])
    ),
    "throughput-arrays-trace": lambda: _mask_rates(
        _cli(
            TRACE + ["--block-length", "64", "--out", "{tmp}/t.npz"],
            ["throughput", "--engine", "arrays", "--trace", "{tmp}/t.npz", "--shards", "2", "--record-every", "500"],
        )
    ),
    "throughput-workers2": lambda: _mask_rates(
        _cli(THROUGHPUT + ["--sites", "4", "16", "--workers", "2"])
    ),
    "run-set": lambda: _cli(
        ["run", "--config", str(SPECS / "quickstart.json"), *SMOKE, "--set", "tracker.name=randomized"]
    ),
    "run-records": lambda: _cli(
        ["run", "--config", str(SPECS / "tree_3level.json"), *SMOKE, "--records"]
    ),
    "run-workers2": lambda: _cli(
        [
            "run",
            "--config",
            str(SPECS / "quickstart.json"),
            "--config",
            str(SPECS / "lossy_async.json"),
            *SMOKE,
            "--workers",
            "2",
        ]
    ),
    "trace": lambda: _cli(TRACE + ["--block-length", "0", "--seed", "3", "--out", "{tmp}/t.csv"]),
    "variability": lambda: _cli(["variability", "--stream", "random_walk", "--lengths", "500", "2000"]),
    "frequency": lambda: _cli(
        ["frequency", "--length", "1500", "--universe", "60", "--sites", "2"],
        ["frequency", "--length", "1500", "--universe", "60", "--sites", "2", "--sketched"],
    ),
    "lowerbound": lambda: _cli(
        ["lowerbound", "--n", "64", "--level", "6", "--flips", "4", "--samples", "2"]
    ),
    "example-latency_sweep": _example("latency_sweep"),
    "example-database_monitoring": _example("database_monitoring"),
}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_case_is_pinned(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, golden):
    assert CASES[name]() == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    cases = [f"{json.dumps(name)}: {json.dumps(CASES[name]())}" for name in sorted(CASES)]
    GOLDEN.write_text("{\n" + ",\n".join(cases) + "\n}\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}")
