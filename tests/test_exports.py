import ast
import contextlib
import importlib
import io
import math
import pkgutil
from pathlib import Path

import pytest

import landaulab

MODULES = sorted(info.name for info in pkgutil.iter_modules(landaulab.__path__))


def test_every_module_is_checked():
    assert {"campaigns", "classical", "cli", "fockspace", "params",
            "quadrature", "report", "waves"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_exported_name(name):
    module = importlib.import_module(f"landaulab.{name}")
    exported = getattr(module, "__all__", None)
    if exported is None:
        pytest.skip("no __all__")
    assert len(set(exported)) == len(exported), "duplicate names"
    namespace = {}
    exec(f"from landaulab.{name} import *", namespace)
    assert set(exported) <= namespace.keys()


def test_package_imports_resolve():
    # every name the package's __init__ takes from a submodule exists there
    # and is re-exported under the same object
    tree = ast.parse(Path(landaulab.__file__).read_text())
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert imported
    for module, name in imported:
        source = importlib.import_module(f"landaulab.{module}")
        assert hasattr(source, name), f"{module}.{name}"
        assert getattr(landaulab, name) is getattr(source, name), name


def test_readme_library_sketch_runs():
    # the README's first code block under "Library sketch" runs as written
    # and prints <l=1, n=0|T1|l=0, n=0> = i sqrt(hbar m omega_c / 2)
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Library sketch", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(code, namespace)
    p, val = namespace["p"], namespace["val"]
    want = 1j * math.sqrt(p.hbar * p.m * p.omega_c / 2.0)
    assert abs(val - want) < 1e-12
    assert out.getvalue() == f"{val}\n"
