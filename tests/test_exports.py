import importlib

import pytest

MODULES = ("model", "generator", "eigensolver", "nash", "simulate", "verify",
           "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"rsgame.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
