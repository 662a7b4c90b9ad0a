"""The benchmark's tracer wraps diffres functions by name: every site it
names must still resolve on the imported package.  The benchmark and the
README also import names from the package itself: those must stay in
``diffres.__all__``."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import diffres
import diffres.cli  # noqa: F401  (the tracer wraps CLI sites too)

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
# what perfbench/run.py reads off the imported package
BENCHMARK_NAMES = ("LinearSystem", "Poly", "cli", "eliminate", "linear_poly",
                   "sym")


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


def test_the_names_callers_import_are_exported():
    readme = (ROOT / "README.md").read_text()
    imported = {name.strip()
                for line in re.findall(r"^from diffres import (.+)$", readme,
                                       re.MULTILINE)
                for name in line.split(",")}
    assert imported
    for name in imported.union(BENCHMARK_NAMES):
        assert name in diffres.__all__, name
    namespace = {}
    exec("from diffres import *", namespace)
    assert set(diffres.__all__) <= namespace.keys()
