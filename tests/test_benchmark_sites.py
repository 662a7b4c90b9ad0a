"""The benchmark's tracer wraps diffres functions by name: every site it
names must still resolve on the imported package."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import diffres
import diffres.cli  # noqa: F401  (the tracer wraps CLI sites too)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module, attr):
    owner = getattr(diffres, module) if module else diffres
    for step in attr.split("."):
        owner = getattr(owner, step)
    return owner


def test_every_traced_site_resolves():
    layers = load_spans().LAYERS
    sites = [site for wrapped in layers.values() for site in wrapped]
    assert sites
    for module, attr in sites + [("formulas", "FormulaMatrix.determinant")]:
        assert callable(resolve(module, attr)), (module, attr)
