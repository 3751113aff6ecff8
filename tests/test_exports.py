"""Every exported name resolves: a deleted function or class must leave
the package's and each submodule's __all__ as well."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_loads_no_scipy_stats():
    # scipy.stats costs about half a second and 50 MB at start-up; privcsp
    # needs only scipy.sparse, so a fresh `import privcsp.cli` must not load it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(privcsp.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, privcsp.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
