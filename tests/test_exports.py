"""Every name a module exports in ``__all__`` resolves on that module, and every
name the benchmark's tracer wraps resolves where the tracer looks it up."""

from __future__ import annotations

import importlib
import pkgutil
import sys
from pathlib import Path

import sgbounds


def test_every_exported_name_resolves():
    names = ["sgbounds", *(f"sgbounds.{m.name}" for m in pkgutil.iter_modules(sgbounds.__path__))]
    assert len(names) > 1
    for name in names:
        module = importlib.import_module(name)
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ names {missing}"


def test_every_traced_name_resolves():
    # the tracer wraps names that src/ keeps only for it (splice, solve_crossing,
    # ResolventProfile.rate) and pointwise_min, the closure's entry to the walk that
    # min_with_tails runs; a rename must fail here, not in a run
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.path.pop(0)
    assert spans.TARGETS
    missing = []
    for name, (module_name, attr, owner) in spans.TARGETS.items():
        # as the tracer looks them up: a method through its class's __dict__
        module = importlib.import_module(module_name)
        where = module if owner is None else getattr(module, owner, None)
        if where is None or attr not in vars(where):
            missing.append(name)
    assert not missing, f"tracer targets that do not resolve: {missing}"
