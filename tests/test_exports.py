"""Every exported name resolves on its module.

A stale __all__ entry otherwise fails only at `from module import *`.
"""

import importlib

import pytest


@pytest.mark.parametrize("module_name", ["seshadri", "seshadri.exactmath",
                                         "seshadri.bielliptic", "seshadri.verify"])
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
