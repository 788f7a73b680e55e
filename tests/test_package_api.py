"""The lazy package namespace: ``c2alg`` resolves its exports on first access."""

import importlib
import subprocess
import sys

import pytest

import c2alg


def test_every_export_is_its_home_modules_object():
    def home(name):
        return importlib.import_module(f"c2alg.{c2alg._HOME[name]}")

    assert sorted(c2alg._HOME) == c2alg.__all__
    assert [name for name in c2alg.__all__
            if getattr(c2alg, name) is not getattr(home(name), name)] == []


def test_star_import_binds_all():
    namespace = {}
    exec("from c2alg import *", namespace)
    assert set(c2alg.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(c2alg, name) for name in c2alg.__all__)


def test_from_imports_of_names_and_submodules():
    from c2alg import ccl, pin_spin
    assert ccl is c2alg.clifford.ccl
    assert pin_spin is sys.modules["c2alg.pin_spin"]


def test_submodule_attribute_after_bare_import():
    code = ("import sys, c2alg\n"
            "assert 'c2alg.pin_spin' not in sys.modules\n"
            "print(c2alg.pin_spin.__name__, c2alg.verify.MAX_CASES > 0)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          check=True, text=True)
    assert proc.stdout == "c2alg.pin_spin True\n"


def test_dir_lists_all():
    assert set(c2alg.__all__) <= set(dir(c2alg))


def test_unknown_name_is_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        c2alg.no_such_name  # noqa: B018
    assert not hasattr(c2alg, "no_such_name")
