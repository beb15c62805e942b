"""Every name a module exports through ``__all__`` exists."""

from __future__ import annotations

import importlib

import pytest

MODULES = ["weightcalc", "weightcalc.errors", "weightcalc.rootsys", "weightcalc.polyalg",
           "weightcalc.weylsum", "weightcalc.powersum", "weightcalc.oracle",
           "weightcalc.charclass"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
