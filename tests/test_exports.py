"""Every name a chroma module lists in ``__all__`` exists, so a deletion
cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import chroma

MODULES = sorted(m.name for m in pkgutil.iter_modules(chroma.__path__, "chroma.")
                 if m.name != "chroma.__main__")  # importing it runs the CLI


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
