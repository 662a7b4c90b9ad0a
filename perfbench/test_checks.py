"""Each independent check of the benchmark accepts the true answer and
rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py
"""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import diffres  # noqa: E402
import diffres.cli  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _answer(spec):
    report = diffres.eliminate(run._system(diffres, spec))
    return {"branch": report.branch, "members": list(report.members),
            "co_order": report.co_order,
            "lowest_degree": report.lowest_degree,
            "terms": run._terms(report.output)}


def _errors(spec, answer):
    return checks.check_eliminant(spec, answer, random.Random(7))


def _with_terms(answer, terms):
    return dict(answer, terms=terms)


def _corruptions(answer, spec):
    terms = answer["terms"]
    mono, c = next(iter(terms.items()))
    free = next(x for x in mono if x[0] in spec.free)
    yield "coefficient", _with_terms(answer, {**terms, mono: 2 * c})
    yield "parameter symbol", _with_terms(
        answer, {**terms, (("u1", 0, 1), free): Fraction(1)})
    yield "two free terms", _with_terms(
        answer, {**terms, ((spec.free[0], 0, 1), (spec.free[1], 0, 1)): 1})
    bound = checks.frame_shape(spec.rows)[0][spec.free.index(free[0])]
    yield "order above the row bound", _with_terms(
        answer, {**terms, ((free[0], bound + 1, 1),): Fraction(1)})
    yield "zero", _with_terms(answer, {})
    yield "branch", dict(answer, branch="x")


def test_eliminant_checks_on_numeric_and_symbolic_systems():
    for spec in (workloads.numeric_frames(0)[0], workloads.generic_three(),
                 workloads.four_eq(5)):
        answer = _answer(spec)
        assert _errors(spec, answer) == []
        for what, bad in _corruptions(answer, spec):
            assert _errors(spec, bad), what


def test_degenerate_checks():
    spec = workloads.degenerate_frames(0)[1]
    answer = _answer(spec)
    assert _errors(spec, answer) == []
    scaled = {m: -3 * c for m, c in answer["terms"].items()}
    assert _errors(spec, _with_terms(answer, scaled)) == []
    for what, bad in _corruptions(answer, spec):
        assert _errors(spec, bad), what
    assert _errors(spec, dict(answer, co_order=answer["co_order"] + 1))
    assert _errors(spec, dict(answer,
                              lowest_degree=answer["co_order"] - 1))
    other = dict(spec.eliminant)
    other[("c2", 0)] *= 2
    spec.eliminant = other
    assert _errors(spec, answer), "not a multiple of the eliminant"


def _cli(spec, command, extra, tmp_path):
    path = tmp_path / f"{spec.label}.sys"
    path.write_text(spec.text())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = diffres.cli.main([command.split()[0], str(path), "--format",
                                 "json"] + extra)
    return code, (json.loads(out.getvalue()) if code == 0 else None)


def _cli_errors(spec, command, code, payload):
    return checks.check_cli(spec, command, code, payload, random.Random(7))


CORRUPTED_FIELDS = {
    "system": ["superEssential", "orders"],
    "gamma": ["low", "total"],
    "subsystem": ["members", "all"],
    "formula": ["side", "zeroColumns", "columns"],
    "certificate": ["verdict"],
}


def _corrupt(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, list):
        return value[1:] if value else [["u1", 0]]
    if isinstance(value, dict):
        return {k: v + 1 for k, v in value.items()}
    return "unknown"


def _pattern_specs():
    """The dense 4 x 3 pattern, a sparse one, and one with a proper
    super essential subsystem."""
    for seed in range(50):
        specs = {spec.label: spec for spec, _, _ in workloads.screen_cli(seed)}
        proper = [s for s in specs.values() if s.n >= 4 and
                  not checks.is_super_essential(checks.pattern(s.rows))]
        if proper:
            return [specs["dense-4"], specs["screen-6-0"], proper[0]]
    raise AssertionError("no pattern with a proper subsystem")


def test_cli_checks(tmp_path):
    for spec in _pattern_specs():
        for command, extra in workloads.CLI_COMMANDS:
            code, payload = _cli(spec, command, extra, tmp_path)
            assert _cli_errors(spec, command, code, payload) == [], command
            if code != 0:
                assert _cli_errors(spec, command, 0, {}), command
                continue
            assert _cli_errors(spec, command, 1, None), command
            for key, fields in CORRUPTED_FIELDS.items():
                for field in fields:
                    if field not in payload.get(key, {}):
                        continue
                    bad = json.loads(json.dumps(payload))
                    bad[key][field] = _corrupt(bad[key][field])
                    assert _cli_errors(spec, command, 0, bad), (command,
                                                                field)
