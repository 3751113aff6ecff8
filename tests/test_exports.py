"""Every exported name resolves: a deleted function or class must leave
the package's and each submodule's __all__ as well."""

import importlib
import pkgutil

import pytest

import privcsp

MODULES = ["privcsp"] + [
    f"privcsp.{info.name}" for info in pkgutil.iter_modules(privcsp.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []



def test_fair_signs_exported():
    from privcsp import dp_mechanisms

    assert "fair_signs" in privcsp.__all__ and "fair_signs" in dp_mechanisms.__all__
    assert privcsp.fair_signs is dp_mechanisms.fair_signs
