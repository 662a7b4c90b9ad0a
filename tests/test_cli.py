"""Command line behaviour: outputs, exit codes, the JSON schema."""

from __future__ import annotations

import json

import jsonschema
import pytest

from diffres.cli import main, output_schema
from diffres.sysfile import parse_document, parse_poly


FOUR_EQ_SINGULAR = """
diff: c1, c2, c3, c4;
params: u1, u2, u3;

eq f1: c1 + u1'' + 3*u2 + u3;
eq f2: c2 + u1 + u3;
eq f3: c3 + u1'' + u2 + u3;
eq f4: c4 + u1 + u2' + u3'';
"""

FOUR_EQ_REGULAR = FOUR_EQ_SINGULAR.replace("c1 + u1''", "c1 + 5*u1''")

# the standard perturbation of the singular system, in the file's names
STANDARD_PERTURBATION = ("eq f1: u3'';\neq f2: u1 + u3;\n"
                         "eq f3: u2' + u1;\neq f4: u2;\n")

# the singular system behind an equation on a parameter of its own, listed
# first; the canonical subsystem drops that equation
FIVE_EQ = """
diff: c0, c1, c2, c3, c4;
params: v, u1, u2, u3;

eq g: c0 + v;
eq f1: c1 + u1'' + 3*u2 + u3;
eq f2: c2 + u1 + u3;
eq f3: c3 + u1'' + u2 + u3;
eq f4: c4 + u1 + u2' + u3'';
"""

# one parameter per equation: no determinant frame, P* undefined
WIDE = """
diff: c1, c2;
params: u1, u2;

eq f1: c1 + u1 + u2;
eq f2: c2 + u1 - u2;
"""

# parameter 1 sits only in the first polynomial, at orders 1 and 5
TALL_ORDER = """
diff: c1, c2, c3;
params: u1, u2;

eq f1: c1 + u1' + u1^(5);
eq f2: c2 + u2 + u2';
eq f3: c3 + 2*u2 + u2';
"""

# generic coefficients; the last two equations carry parameter 2 alone,
# so only a proper subsystem is super essential
PROPER_SUB = """
diff: c1, c2, c3, c4, x11, x12, x21, x23, x32, x42;
params: u1, u2, u3;

eq f1: c1 + x11*u1' + x12*u2';
eq f2: c2 + x21*u1' + x23*u3';
eq f3: c3 + x32*u2';
eq f4: c4 + x42*u2';
"""

# parameter 2 supports every equation after the first; three subsystems
# are super essential and the kernel ranking picks the last one
THREE_WAYS = """
diff: c1, c2, c3, c4, x11, x12, x13, x22, x32, x42;
params: u1, u2, u3;

eq f1: c1 + x11*u1' + x12*u2' + x13*u3';
eq f2: c2 + x22*u2';
eq f3: c3 + x32*u2';
eq f4: c4 + x42*u2';
"""


@pytest.fixture()
def sysdir(tmp_path):
    for name, text in [("singular.sys", FOUR_EQ_SINGULAR),
                       ("regular.sys", FOUR_EQ_REGULAR),
                       ("tall.sys", TALL_ORDER),
                       ("proper.sys", PROPER_SUB),
                       ("threeways.sys", THREE_WAYS),
                       ("five.sys", FIVE_EQ),
                       ("wide.sys", WIDE)]:
        (tmp_path / name).write_text(text)
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    payload = json.loads(out)
    jsonschema.validate(payload, output_schema())
    return payload


def test_check_text(sysdir, capsys):
    code, out, _ = run(capsys, "check", sysdir / "regular.sys")
    assert code == 0
    assert "polynomials: 4" in out
    assert "P4 active parameters = polynomials - 1: ok" in out
    assert "differentially essential: yes" in out
    assert "super essential: yes" in out


def test_check_json_matches_schema(sysdir, capsys):
    payload = run_json(capsys, "check", sysdir / "regular.sys")
    info = payload["system"]
    assert info["orders"] == [2, 0, 2, 2]
    assert info["assumptions"]["ok"] is True
    assert info["superEssential"] is True


def test_check_reports_shape_failure(tmp_path, capsys):
    bad = tmp_path / "wide.sys"
    bad.write_text("diff: c1, c2;\nparams: u1, u2;\n"
                   "eq f1: c1 + u1 + u2;\neq f2: c2 + u1 - u2;\n")
    code, out, _ = run(capsys, "check", bad, "--allow-any-shape")
    assert code == 0
    assert "P4 active parameters = polynomials - 1: FAIL (nu = 2, n = 2)" in out
    assert "essentiality: skipped" in out
    payload = run_json(capsys, "check", bad, "--allow-any-shape")
    assert payload["system"]["assumptions"]["ok"] is False
    assert payload["system"]["differentiallyEssential"] is None


def test_shape_violation_without_waiver_exits_2(tmp_path, capsys):
    bad = tmp_path / "wide.sys"
    bad.write_text("diff: c1, c2;\nparams: u1, u2;\n"
                   "eq f1: c1 + u1 + u2;\neq f2: c2 + u1 - u2;\n")
    code, _, err = run(capsys, "check", bad)
    assert code == 2
    assert json.loads(err)["error"] == "ParseError"


def test_gamma_output(sysdir, capsys):
    code, out, _ = run(capsys, "gamma", sysdir / "singular.sys")
    assert code == 0
    assert "u2: low 0, high 1, span 1" in out
    assert "span total: 1" in out
    payload = run_json(capsys, "gamma", sysdir / "singular.sys")
    assert payload["gamma"] == {"low": {"u1": 0, "u2": 0, "u3": 0},
                                "high": {"u1": 0, "u2": 1, "u3": 0},
                                "span": {"u1": 0, "u2": 1, "u3": 0},
                                "total": 1, "orderSum": 6,
                                "orders": [2, 0, 2, 2]}


def test_matrix_dimensions_and_zero_columns(sysdir, capsys):
    code, out, _ = run(capsys, "matrix", sysdir / "tall.sys")
    assert code == 0
    assert "side: 14" in out
    assert "zero columns: u1^(3), u1^(4)" in out
    payload = run_json(capsys, "matrix", sysdir / "tall.sys")
    assert payload["formula"]["zeroColumns"] == [["u1", 3], ["u1", 4]]


def test_matrix_kinds_and_sides(sysdir, capsys):
    for kind, side in [("fres", 18), ("cres", 22), ("cf", 22)]:
        payload = run_json(capsys, "matrix", sysdir / "singular.sys",
                           "--formula", kind)
        assert payload["formula"]["kind"] == kind
        assert payload["formula"]["side"] == side
        assert len(payload["formula"]["rows"]) == side
        assert len(payload["formula"]["columns"]) == side - 1


def test_matrix_dump_renders_every_entry(sysdir, capsys):
    payload = run_json(capsys, "matrix", sysdir / "singular.sys", "--dump")
    entries = payload["formula"]["entries"]
    assert len(entries) == 18
    assert all(len(row) == 18 for row in entries)
    doc = parse_document(FOUR_EQ_SINGULAR)
    assert parse_poly(entries[0][-1], doc) is not None


def test_matrix_general_takes_beta_omega(sysdir, capsys):
    payload = run_json(capsys, "matrix", sysdir / "singular.sys",
                       "--formula", "general",
                       "--beta", "0,0,0", "--omega", "4,6,4,4")
    assert payload["formula"]["kind"] == "general"
    assert payload["formula"]["betaOmega"] == [[0, 0, 0], [4, 6, 4, 4]]


def test_general_formula_needs_beta_and_omega(sysdir, capsys):
    code, _, err = run(capsys, "matrix", sysdir / "singular.sys",
                       "--formula", "general", "--beta", "0,0,0")
    assert code == 2
    assert "--beta and --omega" in json.loads(err)["message"]


def test_beta_on_plain_formula_exits_2(sysdir, capsys):
    code, _, err = run(capsys, "matrix", sysdir / "singular.sys",
                       "--beta", "0,0,0")
    assert code == 2
    assert "general" in json.loads(err)["message"]


def test_det_exact_zero_is_an_answer(sysdir, capsys):
    code, out, _ = run(capsys, "det", sysdir / "singular.sys")
    assert code == 0
    assert "determinant: 0" in out


def test_det_exact_matches_library_value(sysdir, capsys):
    payload = run_json(capsys, "det", sysdir / "regular.sys")
    from conftest import four_eq_system
    from diffres.formulas import dfres
    doc = parse_document(FOUR_EQ_REGULAR)
    assert parse_poly(payload["determinant"], doc) == dfres(four_eq_system(5))


def test_det_random_certificate(sysdir, capsys):
    payload = run_json(capsys, "det", sysdir / "regular.sys",
                       "--mode", "random", "--trials", "6", "--seed", "1")
    assert payload["certificate"] == {"verdict": "nonzero-certified",
                                      "trials": 6, "seed": 1}
    payload = run_json(capsys, "det", sysdir / "singular.sys",
                       "--mode", "random", "--trials", "6", "--seed", "1")
    assert payload["certificate"]["verdict"] == "zero-proven"


@pytest.mark.parametrize("trials", ["0", "-4", "two"])
def test_det_random_rejects_trials_below_one(sysdir, capsys, trials):
    with pytest.raises(SystemExit) as stop:
        main(["det", str(sysdir / "regular.sys"), "--mode", "random",
              "--trials", trials, "--format", "json"])
    assert stop.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "ArgumentError"
    assert "--trials" in error["message"]


def test_main_calls_in_one_process_do_not_share_options(sysdir, capsys):
    """The parser is built once per process; no option of one call may
    leak into the next."""
    singular, regular = sysdir / "singular.sys", sysdir / "regular.sys"
    code, out, _ = run(capsys, "matrix", singular, "--dump")
    assert code == 0 and "entries:" in out
    code, out, _ = run(capsys, "matrix", singular)
    assert code == 0 and "entries:" not in out

    code, out, _ = run(capsys, "det", regular, "--mode", "random",
                       "--trials", "3")
    assert code == 0 and "certificate:" in out
    code, out, _ = run(capsys, "det", regular)
    assert code == 0 and "determinant:" in out and "certificate" not in out

    with pytest.raises(SystemExit) as stop:
        main(["det", str(regular), "--trials", "0"])
    assert stop.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "det", regular)
    assert code == 0 and "determinant:" in out


def test_subsystem_whole_system(sysdir, capsys):
    code, out, _ = run(capsys, "subsystem", sysdir / "regular.sys")
    assert code == 0
    assert out.strip() == "P* = {f1, f2, f3, f4}"


def test_subsystem_proper(sysdir, capsys):
    code, out, _ = run(capsys, "subsystem", sysdir / "tall.sys")
    assert code == 0
    assert out.strip() == "P* = {f2, f3}"
    payload = run_json(capsys, "subsystem", sysdir / "tall.sys")
    assert payload["subsystem"] == {"members": ["f2", "f3"], "proper": True}


def test_subsystem_names_follow_the_file(sysdir, capsys):
    code, out, _ = run(capsys, "subsystem", sysdir / "proper.sys")
    assert code == 0
    assert out.strip() == "P* = {f3, f4}"


def test_subsystem_all_lists_candidates(sysdir, capsys):
    payload = run_json(capsys, "subsystem", sysdir / "threeways.sys", "--all")
    assert payload["subsystem"]["all"] == [["f2", "f3"], ["f2", "f4"],
                                           ["f3", "f4"]]
    assert payload["subsystem"]["members"] == ["f3", "f4"]
    code, out, _ = run(capsys, "subsystem", sysdir / "threeways.sys", "--all")
    assert code == 0
    assert ("super essential subsystems: {f2, f3}, {f2, f4}, {f3, f4}"
            in out)


def test_subsystem_all_reports_an_undefined_subsystem(sysdir, capsys):
    payload = run_json(capsys, "subsystem", sysdir / "wide.sys", "--all",
                       "--allow-any-shape")
    assert payload["subsystem"] == {
        "members": None, "all": [],
        "note": "2 active parameters for 2 polynomials"}
    code, out, _ = run(capsys, "subsystem", sysdir / "wide.sys", "--all",
                       "--allow-any-shape")
    assert code == 0
    assert out.splitlines() == [
        "P* is undefined: 2 active parameters for 2 polynomials",
        "super essential subsystems: none"]


def test_eliminate_direct(sysdir, capsys):
    payload = run_json(capsys, "eliminate", sysdir / "regular.sys")
    report = payload["elimination"]
    assert report["branch"] == "direct"
    assert report["members"] == ["f1", "f2", "f3", "f4"]
    assert report["side"] == 18
    assert report["membershipVerified"] is True


def test_eliminate_perturbed_output(sysdir, capsys):
    payload = run_json(capsys, "eliminate", sysdir / "singular.sys")
    report = payload["elimination"]
    assert report["branch"] == "perturbed"
    assert report["lowestDegree"] == 2
    assert report["recomputedSide"] == 18
    doc = parse_document(FOUR_EQ_SINGULAR)
    got = parse_poly(report["output"], doc)
    want = parse_poly("c1' + c1 + 2*c2'' + 2*c2 - c3' - 3*c3 - 2*c4", doc)
    assert got in (want, -want)
    assert report["membershipVerified"] is True
    assert any("co-order" in note for note in report["notes"])


def test_eliminate_restricts_to_subsystem(sysdir, capsys):
    payload = run_json(capsys, "eliminate", sysdir / "tall.sys")
    assert payload["elimination"]["members"] == ["f2", "f3"]
    assert payload["elimination"]["branch"] == "direct"


def test_eliminate_perturb_off_fails_honestly(sysdir, capsys):
    code, _, err = run(capsys, "eliminate", sysdir / "singular.sys",
                       "--perturb", "off")
    assert code == 1
    blob = json.loads(err)
    assert blob["error"] == "AssumptionViolated"
    assert "disabled" in blob["message"]


def test_eliminate_perturb_custom(sysdir, tmp_path, capsys):
    pfile = tmp_path / "eps.pert"
    pfile.write_text(STANDARD_PERTURBATION)
    auto = run_json(capsys, "eliminate", sysdir / "singular.sys")
    custom = run_json(capsys, "eliminate", sysdir / "singular.sys",
                      "--perturb", "custom", "--perturb-file", pfile)
    assert custom["elimination"]["output"] == auto["elimination"]["output"]
    assert custom["elimination"]["branch"] == "perturbed"


def test_eliminate_names_the_parameters_of_the_file(sysdir, tmp_path, capsys):
    code, out, _ = run(capsys, "eliminate", sysdir / "five.sys")
    assert code == 0
    assert "perturbation f1: u3''" in out.splitlines()
    assert "perturbation f2: u1 + u3" in out.splitlines()
    pfile = tmp_path / "eps.pert"
    pfile.write_text(STANDARD_PERTURBATION)
    auto = run_json(capsys, "eliminate", sysdir / "five.sys")
    custom = run_json(capsys, "eliminate", sysdir / "five.sys",
                      "--perturb", "custom", "--perturb-file", pfile)
    assert custom == auto
    assert auto["elimination"]["output"] == run_json(
        capsys, "eliminate", sysdir / "singular.sys")["elimination"]["output"]


def test_perturb_file_needs_custom(sysdir, tmp_path, capsys):
    pfile = tmp_path / "eps.pert"
    pfile.write_text("eq f1: u3'';\n")
    code, _, err = run(capsys, "eliminate", sysdir / "singular.sys",
                       "--perturb-file", pfile)
    assert code == 2
    assert "--perturb custom" in json.loads(err)["message"]


def test_perturb_custom_needs_file(sysdir, capsys):
    code, _, err = run(capsys, "eliminate", sysdir / "singular.sys",
                       "--perturb", "custom")
    assert code == 2
    assert "perturb-file" in json.loads(err)["message"]


def test_verify_member_and_non_member(sysdir, tmp_path, capsys):
    good = tmp_path / "good.poly"
    good.write_text("c1' + c1 + 2*c2'' + 2*c2 - c3' - 3*c3 - 2*c4\n")
    code, out, _ = run(capsys, "verify", sysdir / "singular.sys",
                       "--poly", good)
    assert (code, out.strip()) == (0, "membership: yes")
    bad = tmp_path / "bad.poly"
    bad.write_text("c1 + c2\n")
    code, out, _ = run(capsys, "verify", sysdir / "singular.sys",
                       "--poly", bad)
    assert (code, out.strip()) == (0, "membership: no")
    payload = run_json(capsys, "verify", sysdir / "singular.sys",
                       "--poly", good)
    assert payload == {"membership": True}


def test_parse_errors_exit_2_with_position(tmp_path, capsys):
    bad = tmp_path / "broken.sys"
    bad.write_text("params: u1;\ndiff: c1, c2;\neq f1: c1 ? u1;\n")
    code, _, err = run(capsys, "check", bad)
    assert code == 2
    blob = json.loads(err)
    assert blob["error"] == "ParseError"
    assert "line 3" in blob["message"]


def test_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "gamma", tmp_path / "ghost.sys")
    assert code == 2
    assert json.loads(err)["error"] == "InputError"


def test_unknown_flag_is_machine_readable(sysdir, capsys):
    with pytest.raises(SystemExit) as stop:
        main(["det", str(sysdir / "regular.sys"), "--mode", "sideways"])
    assert stop.value.code == 2
    _, err = capsys.readouterr()
    assert json.loads(err)["error"] == "ArgumentError"
