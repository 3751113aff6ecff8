"""Every exported name resolves: a deleted function or class must leave
the package's and each submodule's __all__ as well; and the kernel layers
import no oracle."""

import ast
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



def imported_modules(name):
    """Every module a privcsp submodule's import statements name, anywhere
    in its source, as absolute dotted names: `from .a import b` names
    privcsp.a and privcsp.a.b."""
    tree = ast.parse(Path(privcsp.__file__).with_name(f"{name}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["privcsp" if node.level else "", node.module]))
            names |= {module} | {f"{module}.{alias.name}" for alias in node.names}
    return names


@pytest.mark.parametrize("name", ["csp_core", "dp_mechanisms", "algo_csp", "algo_maxcut"])
def test_kernel_layers_import_no_oracles(name):
    # the oracles are independent checks on the kernels, so no kernel layer
    # may call them; the harness, which does, shows the check sees imports
    assert "privcsp.oracles" in imported_modules("harness")
    names = imported_modules(name)
    assert name == "csp_core" or "privcsp.csp_core" in names
    assert not any(m == "privcsp.oracles" or m.startswith("privcsp.oracles.") for m in names)


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
