"""System file parsing and rendering."""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import four_eq_system, v
from diffres.algebra import Poly, sym
from diffres.errors import NonlinearInParams, ParseError, UndeclaredSymbol
from diffres.perturb import default_perturbation
from diffres.sysfile import (SystemDocument, parse_document,
                             parse_perturbation, parse_poly, render_equation,
                             render_poly)
from diffres.systems import linear_poly


FOUR_EQ = """
# four equations, three parameters
diff: c1, c2, c3, c4;
params: u1, u2, u3;

eq f1: c1 + 5*u1'' + 3*u2 + u3;
eq f2: c2 + u1 + u3;
eq f3: c3 + u1'' + u2 + u3;
eq f4: c4 + u1 + u2' + u3'';
"""


def test_four_eq_file_builds_the_fixture_system():
    doc = parse_document(FOUR_EQ)
    assert doc.names == ("f1", "f2", "f3", "f4")
    assert doc.parameters == ("u1", "u2", "u3")
    assert doc.symbols == ("c1", "c2", "c3", "c4")
    assert doc.system() == four_eq_system(5)


def test_caret_and_prime_notations_agree():
    a = parse_document("diff: c1, c2;\nparams: u1;\n"
                       "eq f1: c1 + u1^(2);\neq f2: c2 + u1';\n")
    b = parse_document("diff: c1, c2;\nparams: u1;\n"
                       "eq f1: c1 + u1'';\neq f2: c2 + u1^(1);\n")
    assert a.system() == b.system()


def test_symbolic_and_rational_coefficients():
    doc = parse_document("""
        constants: a;
        diff: c1, c2, b;
        params: u1;
        eq f1: c1 + 2/3*a*u1'' + b'*u1;
        eq f2: c2 + 7*u1 + 5;
    """)
    f1, f2 = (f for _, f in doc.equations)
    assert f1.ops[1].coefficient(2) == Poly.var(sym("a", constant=True)) * Fraction(2, 3)
    assert f1.ops[1].coefficient(0) == Poly.var(sym("b", 1))
    assert f2.free == v("c2") + Poly.const(5)
    assert f2.ops[1].coefficient(0) == Poly.const(7)


def test_repeated_symbol_factors_multiply():
    doc = parse_document("diff: c1, c2, b;\nparams: u1;\n"
                         "eq f1: c1 + b*b*u1;\neq f2: c2 + u1;\n")
    coeff = doc.equations[0][1].ops[1].coefficient(0)
    assert coeff == v("b") * v("b")


def test_terms_merge_and_cancel():
    doc = parse_document("diff: c1, c2;\nparams: u1;\n"
                         "eq f1: c1 + u1 + 2*u1 - u1'';\n"
                         "eq f2: c2 + u1 - c1 + c1;\n")
    f1 = doc.equations[0][1]
    assert f1.ops[1].coefficient(0) == Poly.const(3)
    assert f1.ops[1].coefficient(2) == Poly.const(-1)
    assert doc.equations[1][1].free == v("c2")


def test_comments_and_whitespace_are_insignificant():
    doc = parse_document("diff:c1,c2;params:u1;eq f1:c1+u1;  # inline\n"
                         "eq f2 : c2\n  + u1'' ;")
    assert doc.system().orders() == (0, 2)


@pytest.mark.parametrize("text, fragment", [
    ("diff: c1 c2;", "expected ',' or ';'"),
    ("params: u1;\ndiff: c1;\neq f1: c1 ? u1;", "unexpected character"),
    ("params: u1;\ndiff: c1, c2;\neq f1: c1 + u1", "end of input"),
    ("params: u1;\ndiff: c1, c2;\neq f1: c1 + 1/0*u1;\neq f2: c2 + u1;",
     "denominator"),
    ("params: u1;\ndiff: c1, u1;", "declared twice"),
    ("params: u1;\ndiff: c1, c2;\neq f1: c1 + u1;\neq f1: c2 + u1;",
     "appears twice"),
    ("table: u1;", "expected 'constants'"),
    ("params: u1;\nconstants: a;\ndiff: c1, c2;\n"
     "eq f1: c1 + a'*u1;\neq f2: c2 + u1;", "derivative of constant"),
    ("params: u1;\ndiff: c1, c2;\neq f1: c1 + 5 u1;\neq f2: c2 + u1;",
     "expected '+'"),
    ("params: u1;\ndiff: c1, c2;\neq f1: c1 + u1^2;\neq f2: c2 + u1;",
     "expected '('"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert fragment in str(err.value)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_document("params: u1;\ndiff: c1;\neq f1: c1 @ u1;")
    assert err.value.line == 3
    assert err.value.column == 11


def test_undeclared_symbol():
    with pytest.raises(UndeclaredSymbol, match="'b'"):
        parse_document("params: u1;\ndiff: c1, c2;\n"
                       "eq f1: c1 + b*u1;\neq f2: c2 + u1;")


@pytest.mark.parametrize("body", ["u1*u2", "u1*u1''", "2*u1'*u2"])
def test_nonlinear_in_params(body):
    with pytest.raises(NonlinearInParams):
        parse_document(f"params: u1, u2;\ndiff: c1, c2, c3;\n"
                       f"eq f1: c1 + {body};\n"
                       f"eq f2: c2 + u1;\neq f3: c3 + u2;")


def test_shape_is_enforced_unless_waived():
    text = ("params: u1;\ndiff: c1, c2, c3;\n"
            "eq f1: c1 + u1;\neq f2: c2 + u1;\neq f3: c3 + u1';\n")
    with pytest.raises(ParseError, match="1 parameters for 3 equations"):
        parse_document(text)
    doc = parse_document(text, any_shape=True)
    assert doc.system().n == 3


def test_too_few_equations_rejected():
    with pytest.raises(ParseError, match="two equations"):
        parse_document("params: u1;\ndiff: c1;\neq f1: c1 + u1;")
    with pytest.raises(ParseError, match="one parameter"):
        parse_document("diff: c1, c2;\neq f1: c1;\neq f2: c2;")


def test_internal_parameter_name_collision():
    with pytest.raises(ParseError, match="collides"):
        parse_document("params: x, y;\ndiff: c1, c2, c3, u2;\n"
                       "eq f1: c1 + x;\neq f2: c2 + y;\neq f3: c3 + x';")


def test_renamed_parameters_map_by_position():
    doc = parse_document("diff: c1, c2;\nparams: x;\n"
                         "eq f1: c1 + 2*x'';\neq f2: c2 + x;")
    assert doc.equations[0][1].ops[1].coefficient(2) == Poly.const(2)
    assert "2*x''" in render_equation(doc.equations[0][1], doc)


def render_file(doc):
    """The text of a system file for a parsed document."""
    lines = [f"{head}: {', '.join(names)};"
             for head, names in (("constants", doc.constants),
                                 ("diff", doc.symbols),
                                 ("params", doc.parameters)) if names]
    lines += [f"eq {name}: {render_equation(f, doc)};"
              for name, f in doc.equations]
    return "\n".join(lines)


def test_render_parse_round_trip():
    for text in [
        FOUR_EQ,
        "constants: a;\ndiff: c1, c2, b;\nparams: u1;\n"
        "eq f1: c1 + 2/3*a*u1'' + b*b*u1 - 4;\n"
        "eq f2: c2 - u1 + b'*u1^(5);\n",
        "diff: c1, c2;\nparams: z;\neq g: c1 - z''; eq h: c2 + 1/2*z;",
    ]:
        doc = parse_document(text)
        assert parse_document(render_file(doc)) == doc


def test_render_poly_orders_by_derivative_then_symbol():
    p = (v("c2", 2) * 2 + v("c1", 1) - v("c3") * 3 - Poly.const(Fraction(1, 2))
         + v("c1"))
    assert render_poly(p) == "2*c2'' + c1' + c1 - 3*c3 - 1/2"
    assert render_poly(Poly.zero()) == "0"


def test_render_poly_round_trip_with_parameters():
    doc = parse_document(FOUR_EQ)
    p = parse_poly("c1'*u2 - 3*u1''*u1 + c4 - 2/7", doc)
    assert parse_poly(render_poly(p, doc), doc) == p


def test_parse_poly_rejects_trailing_input():
    doc = parse_document(FOUR_EQ)
    with pytest.raises(ParseError, match="trailing"):
        parse_poly("c1; c2", doc)
    with pytest.raises(ParseError, match="empty"):
        parse_poly("  # nothing here\n", doc)


def test_parse_perturbation_matches_default():
    doc = parse_document(FOUR_EQ)
    pert = parse_perturbation(
        "eq f1: u3'';\neq f2: u1 + u3;\neq f3: u2' + u1;\neq f4: u2;", doc)
    assert pert.terms == default_perturbation(four_eq_system(1)).terms


def test_parse_perturbation_defaults_to_zero_terms():
    doc = parse_document(FOUR_EQ)
    pert = parse_perturbation("eq f3: 2*u1'';", doc)
    assert pert.terms[2] == linear_poly(0, {1: {2: 2}})
    assert pert.terms[0].free.is_zero() and not pert.terms[0].ops


@pytest.mark.parametrize("text, fragment", [
    ("eq f9: u1;", "not an equation"),
    ("eq f1: u1 + c1;", "free part"),
    ("eq f1: c1*u1;", "non-constant coefficient"),
    ("eq f1: u1; eq f1: u2;", "appears twice"),
    ("f1: u1;", "expected 'eq'"),
])
def test_parse_perturbation_rejections(text, fragment):
    doc = parse_document(FOUR_EQ)
    with pytest.raises(ParseError, match=fragment):
        parse_perturbation(text, doc)
