"""Spans around the calls into diffres, recorded from the benchmark.

``Tracer.install`` replaces the public functions of each diffres layer by
timing wrappers, under the name the pipeline looks them up by: a function
imported into another module is wrapped there too (``eliminate`` reaches
``verify_membership`` through ``diffres.perturb``), and the polynomial
operators are wrapped on the ``Poly`` class.  Each span records its name,
start, end and parent; spans stay in memory, in flat arrays, until the run
ends.  A layer's self time is its spans' durations minus the time their
child spans cover.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from time import perf_counter

# metric name -> [(module path, attribute)] it wraps; "Class.attr" entries
# are methods.  The traced run reports the self time of each ``.s`` layer.
LAYERS = {
    "structure.super_essential_subsystem": [
        ("perturb", "super_essential_subsystem"),
        ("cli", "super_essential_subsystem"),
        ("formulas", "super_essential_subsystem")],
    "structure.matching_screens": [
        ("structure", "row_deleted_matching"),
        ("structure", "is_differentially_essential"),
        ("structure", "is_super_essential"),
        ("structure", "enumerate_super_essential"),
        ("structure", "structural_rank"),
        ("perturb", "is_super_essential"),
        ("perturb", "row_deleted_matching"),
        ("cli", "enumerate_super_essential"),
        ("cli", "is_differentially_essential"),
        ("cli", "is_super_essential"),
        ("formulas", "is_differentially_essential")],
    "systems.validate": [("perturb", "validate"), ("cli", "validate")],
    "systems.order_profile": [
        ("perturb", "order_profile"), ("cli", "order_profile"),
        ("formulas", "order_profile")],
    "formulas.assemble": [
        ("perturb", "assemble"), ("cli", "assemble"),
        ("formulas", "assemble")],
    "formulas.co_order": [("perturb", "co_order")],
    "formulas.certify_nonzero": [("cli", "certify_nonzero")],
    "algebra.poly_add": [("algebra", "Poly.__add__"),
                         ("algebra", "Poly.__radd__")],
    "algebra.poly_mul": [("algebra", "Poly.__mul__"),
                         ("algebra", "Poly.__rmul__")],
    "algebra.exact_div": [("algebra", "exact_div"), ("perturb", "exact_div")],
    "perturb.eliminate": [("", "eliminate"), ("perturb", "eliminate")],
    "perturb.default_perturbation": [("perturb", "default_perturbation")],
    "perturb.perturb_system": [("perturb", "perturb_system")],
    "perturb.lowest_p_coefficient": [("perturb", "lowest_p_coefficient")],
    "perturb.id_primitive_part": [("perturb", "id_primitive_part")],
    "perturb.gcld": [("perturb", "gcld")],
    "perturb.verify_membership": [("perturb", "verify_membership")],
    "sysfile.parse_document": [("cli", "parse_document")],
    "sysfile.render_poly": [("cli", "render_poly")],
    "cli.main": [("cli", "main")],
}

# FormulaMatrix.determinant is wrapped separately: its span is named
# perturb.perturbed_determinant when the matrix was assembled from a
# system that perturb_system returned, formulas.determinant otherwise.
DIRECT_DET = "formulas.determinant"
PERTURBED_DET = "perturb.perturbed_determinant"

# (metric, unit, source): source is ("self", span name), ("calls", span
# name) or ("sum", counter name).  Values are per timed pass.
PER_LAYER = [
    ("structure.super_essential_subsystem.s", "s",
     ("self", "structure.super_essential_subsystem")),
    ("structure.matching_screens.s", "s",
     ("self", "structure.matching_screens")),
    ("systems.validate.s", "s", ("self", "systems.validate")),
    ("systems.order_profile.s", "s", ("self", "systems.order_profile")),
    ("formulas.assemble.s", "s", ("self", "formulas.assemble")),
    ("formulas.determinant.s", "s", ("self", DIRECT_DET)),
    ("formulas.co_order.s", "s", ("self", "formulas.co_order")),
    ("formulas.certify_nonzero.s", "s", ("self", "formulas.certify_nonzero")),
    ("formulas.frame_side.sum", "count", ("sum", "frame_side")),
    ("formulas.frame_nonzeros.sum", "count", ("sum", "frame_nonzeros")),
    ("algebra.poly_add.calls", "count", ("calls", "algebra.poly_add")),
    ("algebra.poly_add.s", "s", ("self", "algebra.poly_add")),
    ("algebra.poly_mul.calls", "count", ("calls", "algebra.poly_mul")),
    ("algebra.exact_div.calls", "count", ("calls", "algebra.exact_div")),
    ("algebra.det_terms.sum", "count", ("sum", "det_terms")),
    ("perturb.default_perturbation.s", "s",
     ("self", "perturb.default_perturbation")),
    ("perturb.perturbed_determinant.s", "s", ("self", PERTURBED_DET)),
    ("perturb.lowest_p_coefficient.s", "s",
     ("self", "perturb.lowest_p_coefficient")),
    ("perturb.id_primitive_part.s", "s", ("self", "perturb.id_primitive_part")),
    ("perturb.gcld.s", "s", ("self", "perturb.gcld")),
    ("perturb.verify_membership.s", "s",
     ("self", "perturb.verify_membership")),
    ("sysfile.parse_document.s", "s", ("self", "sysfile.parse_document")),
    ("sysfile.render_poly.s", "s", ("self", "sysfile.render_poly")),
    ("cli.self.s", "s", ("self", "cli.main")),
]


class Tracer:
    """Span recorder for one traced run."""

    def __init__(self):
        self.names = []
        self.name_id = {}
        self.span_name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = Counter()      # exact counts of operations that ended
        self.pending = Counter()     # counts of the operation in progress
        self._perturbed = {}         # id -> object, for the current operation

    # -- recording -------------------------------------------------------

    def _id(self, name):
        got = self.name_id.get(name)
        if got is None:
            got = self.name_id[name] = len(self.names)
            self.names.append(name)
        return got

    def open(self, name):
        idx = len(self.start)
        self.span_name.append(self._id(name))
        self.parent.append(self.stack[-1])
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        self.pending[name] += 1
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def end_operation(self, ok):
        """Keep the counts of a finished operation; an interrupted one
        leaves its spans (its time was spent) but no counts, because how
        far it got depends on the machine."""
        if ok:
            self.counts.update(self.pending)
        self.pending.clear()
        self._perturbed.clear()

    def clear(self):
        """Drop every span and count recorded so far."""
        for store in (self.span_name, self.parent, self.start, self.end):
            del store[:]
        self.stack = [-1]
        self.counts.clear()
        self.pending.clear()
        self._perturbed.clear()

    def wrap(self, fn, name, after=None):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, out)
            return out
        return traced

    # -- installation ----------------------------------------------------

    def install(self, package):
        """Wrap every layer function of the imported diffres package."""
        modules = {"": package}
        for sub in ("algebra", "structure", "systems", "formulas", "perturb",
                    "sysfile", "cli"):
            modules[sub] = getattr(package, sub)
        hooks = {"formulas.assemble": self._after_assemble,
                 "perturb.perturb_system": self._after_perturb_system}
        for name, sites in LAYERS.items():
            for module, attr in sites:
                owner = modules[module]
                *path, last = attr.split(".")
                for step in path:
                    owner = getattr(owner, step)
                setattr(owner, last, self.wrap(getattr(owner, last), name,
                                               hooks.get(name)))
        matrix_cls = package.formulas.FormulaMatrix
        det = matrix_cls.determinant

        def determinant(matrix, *args, **kwargs):
            name = (PERTURBED_DET if id(matrix) in self._perturbed
                    else DIRECT_DET)
            idx = self.open(name)
            try:
                out = det(matrix, *args, **kwargs)
            finally:
                self.close(idx)
            self.pending["det_terms"] += len(out.terms)
            return out
        matrix_cls.determinant = determinant

    def _after_perturb_system(self, args, system):
        self._perturbed[id(system)] = system

    def _after_assemble(self, args, matrix):
        self.pending["frame_side"] += matrix.side
        self.pending["frame_nonzeros"] += sum(
            1 for row in matrix.entries for e in row if not e.is_zero())
        if id(args[0]) in self._perturbed:
            self._perturbed[id(matrix)] = matrix

    # -- results ---------------------------------------------------------

    def self_times(self):
        """Total self time per span name."""
        n = len(self.start)
        covered = [0.0] * n
        parent = self.parent
        start, end = self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        totals = Counter()
        names = self.names
        span_name = self.span_name
        for i in range(n):
            totals[names[span_name[i]]] += end[i] - start[i] - covered[i]
        return totals

    def per_layer(self, passes):
        times = self.self_times()
        out = {}
        for metric, unit, (kind, source) in PER_LAYER:
            if kind == "self":
                value = times.get(source, 0.0) / passes
            else:
                value = self.counts.get(source, 0) / passes
            out[metric] = {"value": value, "unit": unit}
        return out

    def dump(self, path):
        """Spans as JSON: the name table and one [name, parent, start, end]
        row per span, times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write('{"names": ' + json.dumps(self.names) + ', "spans": [')
            for i in range(len(self.start)):
                fh.write(("," if i else "") + "[%d,%d,%.7f,%.7f]" % (
                    self.span_name[i], self.parent[i],
                    self.start[i] - t0, self.end[i] - t0))
            fh.write("]}\n")
