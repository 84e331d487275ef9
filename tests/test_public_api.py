"""Every name a ``sobolev`` module exports in ``__all__`` exists, so a
deletion that leaves a stale export fails here."""

import importlib
import pkgutil

import pytest

import sobolev

MODULES = sorted(f"sobolev.{m.name}"
                 for m in pkgutil.iter_modules(sobolev.__path__))


def test_every_module_is_listed():
    assert "sobolev.cli" in MODULES and "sobolev.fields" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    assert len(exports) == len(set(exports))
    assert [x for x in exports if not hasattr(module, x)] == []
