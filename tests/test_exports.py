"""Every name a module exports in ``__all__`` resolves on that module."""

from __future__ import annotations

import importlib
import pkgutil

import sgbounds


def test_every_exported_name_resolves():
    names = ["sgbounds", *(f"sgbounds.{m.name}" for m in pkgutil.iter_modules(sgbounds.__path__))]
    assert len(names) > 1
    for name in names:
        module = importlib.import_module(name)
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ names {missing}"
