"""The public names: every module's __all__ resolves, and the package root
re-exports only names its modules declare public."""

import importlib
import pkgutil

import pytest

import deformed_lindblad

MODULES = sorted(info.name for info in pkgutil.iter_modules(deformed_lindblad.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"deformed_lindblad.{name}")
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []


def test_root_reexports_are_in_their_modules_all():
    reexported = {
        name: value.__module__
        for name, value in vars(deformed_lindblad).items()
        if not name.startswith("_")
        and (getattr(value, "__module__", None) or "").startswith("deformed_lindblad.")
    }
    assert reexported
    for name, owner in reexported.items():
        assert name in importlib.import_module(owner).__all__, (name, owner)
