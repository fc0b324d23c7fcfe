"""Networks are wired in one module, and process pools made in one.

A network's shape and transport are a spec's decision: every caller goes
through :class:`repro.api.RunSpec`, so ``build_tree_network`` and the async
channel factory are called from ``repro/api/spec.py`` alone, and so is the
one resolution of the spec's shape shorthands (``resolve_fanouts``).  The
tree's two rules, ``partition_sites`` and ``split_budgets``, are applied by
the builder in ``repro/monitoring/tree.py`` alone, and the builder takes a
tree as a fan-out list and two rule names.  Process pools are the shared
sweep pool of ``repro/api/sweep.py``.  The check reads each module's syntax
tree, so a docstring example is not a call.
"""

import ast
import inspect
from pathlib import Path

from repro.monitoring import build_tree_network

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"

OWNERS = {
    "build_tree_network": "api/spec.py",
    "async_channels": "api/spec.py",
    "resolve_fanouts": "api/spec.py",
    "partition_sites": "monitoring/tree.py",
    "split_budgets": "monitoring/tree.py",
    "ProcessPoolExecutor": "api/sweep.py",
}


def _callers(name):
    """Modules under ``src/repro`` (relative paths) that call ``name``."""
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called == name:
                    found.add(path.relative_to(PACKAGE).as_posix())
    return found


def test_each_wiring_call_has_one_owner():
    assert {name: _callers(name) for name in OWNERS} == {
        name: {owner} for name, owner in OWNERS.items()
    }


def test_the_builder_takes_a_fanout_list_and_two_rule_names():
    assert list(inspect.signature(build_tree_network).parameters) == [
        "factory",
        "fanouts",
        "partition",
        "epsilon_split",
        "split_ratio",
        "broadcast_deadband",
        "channel_factory",
    ]
