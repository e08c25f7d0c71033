"""The benchmark's traced run wraps package functions by module attribute
(``bench/tracing.py``); every name it lists must exist in the package, or
``--trace 1`` fails on the renamed one.  The lists are read as literals,
without importing the benchmark."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _site_lists() -> dict:
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in
        ("SITES", "COUNTED_SITES")
    }


SITES = [pytest.param(*site, id=f"{site[0]}.{site[1]}")
         for sites in _site_lists().values() for site in sites]


def test_both_lists_found():
    assert set(_site_lists()) == {"SITES", "COUNTED_SITES"}
    assert len(SITES) > 30


@pytest.mark.parametrize("module, attribute, span", SITES)
def test_site_resolves_under_src(module, attribute, span):
    mod = importlib.import_module(module)
    assert Path(mod.__file__).resolve().is_relative_to(ROOT / "src")
    target = mod
    for part in attribute.split("."):
        target = getattr(target, part)
    assert callable(target)
