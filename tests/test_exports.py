"""Every exported name resolves, so a deleted function cannot linger in ``__all__``."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import bfdr

_MODULES = ["bfdr"] + [f"bfdr.{info.name}" for info in pkgutil.iter_modules(bfdr.__path__)]


@pytest.mark.parametrize("module_name", _MODULES)
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{module_name} declares no __all__"
    assert len(set(exported)) == len(exported), f"{module_name}.__all__ repeats a name"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []
