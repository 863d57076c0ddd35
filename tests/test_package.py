import importlib
import json
import pkgutil
import subprocess
import sys

import pytest

import ostflow

from helpers import child_env


def _submodules():
    return [
        importlib.import_module(f"ostflow.{info.name}")
        for info in pkgutil.iter_modules(ostflow.__path__)
    ]


def test_public_names_resolve_to_their_defining_submodule():
    modules = _submodules()
    for name in ostflow.__all__:
        value = getattr(ostflow, name)
        # a module defines the name if it binds it and the value says it
        # comes from there (constants carry no __module__)
        homes = [
            m for m in modules
            if name in vars(m) and getattr(vars(m)[name], "__module__", m.__name__) == m.__name__
        ]
        assert homes, name
        assert all(vars(m)[name] is value for m in homes), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ostflow import *", namespace)
    assert set(ostflow.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(ostflow, name) for name in ostflow.__all__)


def test_dir_covers_public_names():
    assert set(ostflow.__all__) <= set(dir(ostflow))


@pytest.mark.parametrize(
    "name",
    ["DpTable", "dp_grow", "dp_init", "dp_merge", "reconstruct", "total_cost"],
)
def test_root_does_not_export_module_internals(name):
    assert name not in ostflow.__all__
    with pytest.raises(AttributeError):
        getattr(ostflow, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'ostflow' has no attribute 'no_such_name'"):
        ostflow.no_such_name


def test_importing_the_package_loads_no_submodule():
    probe = "import json, sys, ostflow; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, env=child_env(), check=True
    )
    loaded = set(json.loads(proc.stdout))
    assert "ostflow" in loaded
    assert not {m for m in loaded if m.startswith("ostflow.")}
    assert "numpy" not in loaded
