"""The benchmark's tracer wraps library functions by module-level name.

``bench/tracing.py`` replaces each entry of its ``BOUNDARIES`` table in the
named module's (or class's) namespace; moving or renaming one of those
functions breaks traced benchmark runs, so the names are pinned here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_boundary_exists(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    missing = []
    for module, owner, attr, _name, _count in tracing.BOUNDARIES:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        if attr not in vars(target):
            missing.append(f"{module}.{owner + '.' if owner else ''}{attr}")
    assert tracing.BOUNDARIES
    assert missing == []
