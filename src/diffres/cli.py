"""Command line front end.

Seven subcommands over plain-text system files: check, gamma, matrix,
det, subsystem, eliminate and verify.  Every command accepts
``--format json`` (the output then matches the shipped ``schema.json``)
and ``--allow-any-shape`` to lift the usual count of one parameter
fewer than equations.  Exit codes: 0 for an answer (including "the
determinant is zero" or "not a member"), 1 when a mathematical
assumption fails, 2 for malformed input.  Errors go to stderr as one
JSON object per line.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from importlib import resources
from pathlib import Path

from . import perturb as _perturb
from .errors import InputError, MathError, PerturbationOutside
from .formulas import (assemble, certify_nonzero, spec_cf, spec_cres,
                       spec_fres, spec_general, zero_columns)
from .structure import (enumerate_super_essential, is_differentially_essential,
                        is_super_essential, super_essential_subsystem)
from .sysfile import (_suffix, parse_document, parse_perturbation, parse_poly,
                      render_equation, render_poly)
from .systems import order_profile, validate


def output_schema():
    """The shipped JSON schema for --format json payloads."""
    blob = resources.files("diffres").joinpath("schema.json").read_text()
    return json.loads(blob)


# ---------------------------------------------------------------------------
# small shared helpers
# ---------------------------------------------------------------------------


def _read(path):
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read '{path}': {exc.strerror}") from exc


def _load(args):
    doc = parse_document(_read(args.file), any_shape=args.allow_any_shape)
    return doc, doc.system()


def _row_label(doc, i, k):
    return doc.names[i - 1] + _suffix(k)


def _col_label(doc, j, k):
    return doc.display(j) + _suffix(k)


def _brace(names):
    return "{" + ", ".join(names) + "}"


_SPECS = {"fres": spec_fres, "cres": spec_cres, "cf": spec_cf}


def _formula_matrix(args, doc, system):
    if args.formula == "general":
        if args.beta is None or args.omega is None:
            raise InputError("--formula general needs --beta and --omega")
        spec = spec_general(system, args.beta, args.omega)
    else:
        if args.beta is not None or args.omega is not None:
            raise InputError("--beta/--omega only apply to --formula general")
        spec = _SPECS[args.formula](system)
    return assemble(system, spec)


def _formula_payload(matrix, doc):
    out = {"kind": matrix.spec.kind.value,
           "side": matrix.side,
           "rows": [[doc.names[i - 1], k] for i, k in matrix.rows],
           "columns": [[doc.display(j), k] for j, k in matrix.columns]}
    if matrix.spec.beta_omega is not None:
        beta, omega = matrix.spec.beta_omega
        out["betaOmega"] = [list(beta), list(omega)]
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_check(args):
    doc, system = _load(args)
    report = validate(system)
    p1_names = [doc.names[i - 1] for i in report.p1_failures]
    p2_pairs = [[doc.names[i - 1], doc.names[k - 1]]
                for i, k in report.p2_failures]
    lines = [
        f"polynomials: {system.n}",
        f"parameters: {system.params} declared, "
        f"{len(system.active_params())} active",
        "orders: " + " ".join(str(o) for o in system.orders()),
        "P1 every polynomial involves a parameter: "
        + ("ok" if not p1_names else "FAIL (" + ", ".join(p1_names) + ")"),
        "P2 polynomials pairwise distinct: "
        + ("ok" if not p2_pairs else "FAIL ("
           + "; ".join(f"{a} = {b}" for a, b in p2_pairs) + ")"),
        "P3 some free term is nonzero: " + ("ok" if report.p3_ok else "FAIL"),
        "P4 active parameters = polynomials - 1: "
        + ("ok" if report.p4_ok else f"FAIL (nu = {report.nu}, n = {report.n})"),
    ]
    de = se = None
    if report.ok:
        de = is_differentially_essential(system)
        se = is_super_essential(system)
        lines.append(f"differentially essential: {'yes' if de else 'no'}")
        lines.append(f"super essential: {'yes' if se else 'no'}")
    else:
        lines.append("essentiality: skipped (P1-P4 failed)")
    payload = {"system": {
        "equations": system.n,
        "parameters": system.params,
        "activeParameters": len(system.active_params()),
        "orders": list(system.orders()),
        "assumptions": {"p1": p1_names, "p2": p2_pairs,
                        "p3": report.p3_ok, "p4": report.p4_ok,
                        "ok": report.ok},
        "differentiallyEssential": de,
        "superEssential": se,
    }}
    return lines, payload


def _cmd_gamma(args):
    doc, system = _load(args)
    profile = order_profile(system)
    lines = ["orders: "
             + " ".join(f"{name}={o}"
                        for name, o in zip(doc.names, profile.orders))
             + f" (sum {profile.order_sum})"]
    for j in sorted(profile.low):
        lines.append(f"{doc.display(j)}: low {profile.low[j]}, "
                     f"high {profile.high[j]}, span {profile.span[j]}")
    lines.append(f"span total: {profile.total}")
    by_name = lambda table: {doc.display(j): table[j] for j in sorted(table)}
    payload = {"gamma": {"low": by_name(profile.low),
                         "high": by_name(profile.high),
                         "span": by_name(profile.span),
                         "total": profile.total,
                         "orderSum": profile.order_sum,
                         "orders": list(profile.orders)}}
    return lines, payload


def _cmd_matrix(args):
    doc, system = _load(args)
    matrix = _formula_matrix(args, doc, system)
    dead = sorted(zero_columns(matrix))
    lines = [
        f"kind: {matrix.spec.kind.value}",
        f"side: {matrix.side}",
        "rows: " + ", ".join(_row_label(doc, i, k) for i, k in matrix.rows),
        "columns: " + ", ".join(_col_label(doc, j, k)
                                for j, k in matrix.columns) + ", free",
        "zero columns: "
        + (", ".join(_col_label(doc, j, k) for j, k in dead)
           if dead else "none"),
    ]
    payload = _formula_payload(matrix, doc)
    payload["zeroColumns"] = [[doc.display(j), k] for j, k in dead]
    if args.dump:
        lines.append("entries:")
        for (i, k), row in zip(matrix.rows, matrix.entries):
            body = " | ".join(render_poly(p, doc) for p in row)
            lines.append(f"  {_row_label(doc, i, k)}: {body}")
        payload["entries"] = [[render_poly(p, doc) for p in row]
                              for row in matrix.entries]
    return lines, {"formula": payload}


def _cmd_det(args):
    doc, system = _load(args)
    matrix = _formula_matrix(args, doc, system)
    payload = {"formula": _formula_payload(matrix, doc)}
    lines = [f"kind: {matrix.spec.kind.value}", f"side: {matrix.side}"]
    if args.mode == "exact":
        det = matrix.determinant()
        lines.append("determinant: " + render_poly(det, doc))
        payload["determinant"] = render_poly(det, doc)
    else:
        verdict = certify_nonzero(matrix, trials=args.trials, seed=args.seed)
        lines.append(f"certificate: {verdict.value} "
                     f"(trials {args.trials}, seed {args.seed})")
        payload["certificate"] = {"verdict": verdict.value,
                                  "trials": args.trials, "seed": args.seed}
    return lines, payload


def _cmd_subsystem(args):
    doc, system = _load(args)
    lines = []
    payload = {"members": None}
    every = None
    if args.all:
        every = [[doc.names[i - 1] for i in members]
                 for members in enumerate_super_essential(system)]
    try:
        cert = super_essential_subsystem(system)
    except MathError as exc:
        if not args.all:
            raise
        lines.append(f"P* is undefined: {exc}")
        payload["note"] = str(exc)
    else:
        names = [doc.names[i - 1] for i in cert.members]
        lines.append(f"P* = {_brace(names)}")
        payload["members"] = names
        payload["proper"] = cert.proper
    if every is not None:
        lines.append("super essential subsystems: "
                     + (", ".join(_brace(ns) for ns in every)
                        if every else "none"))
        payload["all"] = every
    return lines, {"subsystem": payload}


def _cmd_eliminate(args):
    doc, system = _load(args)
    if args.perturb == "custom":
        if args.perturb_file is None:
            raise InputError("--perturb custom needs --perturb-file")
        mode = parse_perturbation(_read(args.perturb_file), doc)
    else:
        if args.perturb_file is not None:
            raise InputError("--perturb-file only applies to --perturb custom")
        mode = args.perturb
    try:
        report = _perturb.eliminate(system, perturbation=mode)
    except PerturbationOutside as exc:
        raise PerturbationOutside(
            exc.equation, exc.label, exc.member,
            (doc.names[exc.equation - 1], doc.display(exc.label))) from None
    members = [doc.names[i - 1] for i in report.members]
    # eliminate names the subsystem f<i> by position; the file names it
    by_position = ("working on the proper subsystem "
                   + _brace(f"f{i}" for i in report.members))
    notes = [f"working on the proper subsystem {_brace(members)}"
             if note == by_position else note for note in report.notes]
    lines = [f"branch: {report.branch}",
             f"members: {_brace(members)}",
             f"matrix side: {report.side}"]
    if report.branch == "perturbed":
        lines.append(f"co-order: {report.co_order}")
        lines.append(f"lowest degree: {report.lowest_degree}")
        for name, term in zip(members, report.perturbation.terms):
            lines.append(f"perturbation {name}: {render_equation(term, doc)}")
    lines.append("output: " + render_poly(report.output, doc))
    shown = {True: "verified", False: "FAILED", None: "not checked"}
    lines.append(f"membership: {shown[report.membership]}")
    for note in notes:
        lines.append(f"note: {note}")
    payload = {"branch": report.branch,
               "members": members,
               "side": report.side,
               "coOrder": report.co_order,
               "lowestDegree": report.lowest_degree,
               "recomputedSide": report.recomputed_side,
               "output": render_poly(report.output, doc),
               "membershipVerified": report.membership,
               "notes": notes}
    if report.perturbation is not None:
        payload["perturbation"] = {
            name: render_equation(term, doc)
            for name, term in zip(members, report.perturbation.terms)}
    return lines, {"elimination": payload}


def _cmd_verify(args):
    doc, system = _load(args)
    poly = parse_poly(_read(args.poly), doc)
    member = _perturb.verify_membership(poly, system)
    return ([f"membership: {'yes' if member else 'no'}"],
            {"membership": member})


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument errors as machine-readable stderr lines, exit code 2."""

    def error(self, message):
        sys.stderr.write(json.dumps({"error": "ArgumentError",
                                     "message": message}) + "\n")
        raise SystemExit(2)


def _int_tuple(text):
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got '{text}'")


def _positive_int(text):
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a positive integer, got '{text}'")


@functools.cache
def _build():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="system file to read")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--allow-any-shape", action="store_true",
                        help="accept any parameter count")
    formula = argparse.ArgumentParser(add_help=False)
    formula.add_argument("--formula", default="fres",
                         choices=("fres", "cres", "cf", "general"))
    formula.add_argument("--beta", type=_int_tuple, default=None,
                         help="comma-separated shifts (general only)")
    formula.add_argument("--omega", type=_int_tuple, default=None,
                         help="comma-separated row budgets (general only)")

    top = _Parser(prog="diffres",
                  description="determinant-based elimination for linear "
                              "differential systems")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="standing assumptions and essentiality")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("gamma", parents=[common],
                       help="derivative-order profile")
    p.set_defaults(handler=_cmd_gamma)

    p = sub.add_parser("matrix", parents=[common, formula],
                       help="determinant frame and zero columns")
    p.add_argument("--dump", action="store_true",
                   help="print every matrix entry")
    p.set_defaults(handler=_cmd_matrix)

    p = sub.add_parser("det", parents=[common, formula],
                       help="exact determinant or a nonzero certificate")
    p.add_argument("--mode", choices=("exact", "random"), default="exact")
    p.add_argument("--trials", type=_positive_int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_det)

    p = sub.add_parser("subsystem", parents=[common],
                       help="canonical super essential subsystem")
    p.add_argument("--all", action="store_true",
                   help="enumerate every super essential subsystem")
    p.set_defaults(handler=_cmd_subsystem)

    p = sub.add_parser("eliminate", parents=[common],
                       help="compute a nonzero eliminant")
    p.add_argument("--perturb", choices=("auto", "off", "custom"),
                   default="auto")
    p.add_argument("--perturb-file", default=None,
                   help="perturbation terms (with --perturb custom)")
    p.set_defaults(handler=_cmd_eliminate)

    p = sub.add_parser("verify", parents=[common],
                       help="test membership in the parameter-free ideal")
    p.add_argument("--poly", required=True,
                   help="file with one polynomial expression")
    p.set_defaults(handler=_cmd_verify)
    return top


def main(argv=None):
    args = _build().parse_args(argv)
    try:
        lines, payload = args.handler(args)
    except MathError as exc:
        return _fail(exc, 1)
    except InputError as exc:
        return _fail(exc, 2)
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))
    return 0


def _fail(exc, code):
    sys.stderr.write(json.dumps({"error": type(exc).__name__,
                                 "message": str(exc)}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
