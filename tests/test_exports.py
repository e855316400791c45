"""Every name a module lists in ``__all__`` exists in that module.

``from attocell.x import *`` and the documented API read ``__all__``, so
a stale entry left behind by a deletion would otherwise go unnoticed.
"""

import importlib
import pkgutil

import pytest

import attocell

MODULES = sorted(info.name for info in pkgutil.iter_modules(attocell.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"attocell.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
