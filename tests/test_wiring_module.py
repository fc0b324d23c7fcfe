"""Networks are wired in one module, and process pools made in one.

A network's shape and transport are a spec's decision: every caller goes
through :class:`repro.api.RunSpec`, so ``build_tree_network`` and the async
channel factory are called from ``repro/api/spec.py`` alone.  Process pools
are the shared sweep pool of ``repro/api/sweep.py``.  The check reads each
module's syntax tree, so a docstring example is not a call.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"

OWNERS = {
    "build_tree_network": "api/spec.py",
    "async_channels": "api/spec.py",
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
