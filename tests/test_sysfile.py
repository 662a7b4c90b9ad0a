"""System file parsing and rendering."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from conftest import (four_eq_system, reference_parse_document,
                      reference_parse_perturbation, reference_parse_poly, v)
from diffres import sysfile
from diffres.algebra import Poly, sym
from diffres.errors import (InputError, NonlinearInParams, ParseError,
                            UndeclaredSymbol)
from diffres.perturb import Perturbation, default_perturbation
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


# ---------------------------------------------------------------------------
# the parser against the reference parser of conftest
# ---------------------------------------------------------------------------


def test_unexpected_characters_are_those_the_tokenizer_stops_at():
    """``_UNEXPECTED`` matches exactly the characters at which the token
    loop of the reference stops: not whitespace and not a token start."""
    everything = "".join(map(chr, range(0x110000)))
    starts = {c for c in everything[:128] if sysfile._TOKEN.match(c)}
    assert not sysfile._TOKEN.search(everything[128:])
    want = [c for c in everything if not c.isspace() and c not in starts]
    assert sysfile._UNEXPECTED.findall(everything) == want


def _layout(f):
    """A LinearDiffPoly or Poly as nested lists in dict order, with the
    type of every coefficient."""
    def terms(p):
        return [(m, c, type(c)) for m, c in p.terms.items()]
    if isinstance(f, Poly):
        return terms(f)
    return (terms(f.free),
            [(j, [(k, terms(c)) for k, c in op.coeffs.items()])
             for j, op in f.ops.items()])


def _outcome(parse, *args, **kwargs):
    """What a parse gives: the layout of its result, or the type, message,
    line and column of the input error it raises."""
    try:
        out = parse(*args, **kwargs)
    except InputError as exc:
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))
    if isinstance(out, SystemDocument):
        return (out.constants, out.symbols, out.parameters,
                [(name, _layout(f)) for name, f in out.equations])
    if isinstance(out, Perturbation):
        return [_layout(t) for t in out.terms]
    return _layout(out)


def _random_poly(rng, symbols, size, orders=True):
    """A sum of up to ``size`` products of rationals and symbols; the
    symbols are (name, constant) pairs."""
    out = Poly.zero()
    for _ in range(rng.randint(1, size)):
        term = Poly.const(Fraction(rng.choice([1, 1, -1, 2, -3, 7]),
                                   rng.choice([1, 1, 1, 2, 5])))
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            name, constant = rng.choice(symbols)
            order = 0 if constant or not orders else rng.choice([0, 0, 1, 2, 3])
            term = term * Poly.var(sym(name, order, constant))
        out = out + term
    return out


def _shuffled(rng, body):
    """A rendered sum with its terms and their factors in random order,
    some terms repeated, cancelled or times zero, and some derivatives as
    ``^(k)``."""
    parts = re.split(r" ([+-]) ", body)
    if parts[0].startswith("-"):
        terms = [("-", parts[0][1:])]
    else:
        terms = [("+", parts[0])]
    terms += list(zip(parts[1::2], parts[2::2]))
    if rng.random() < 0.3:
        sign, term = rng.choice(terms)
        terms.append((rng.choice("+-"), term))
    if rng.random() < 0.2:
        sign, term = rng.choice(terms)
        terms.append((sign, rng.choice(["0*", "0/3*"]) + term))
    out = []
    for sign, term in rng.sample(terms, len(terms)):
        factors = term.split("*")
        rng.shuffle(factors)
        out.append((sign, "*".join(factors)))
    text = " ".join(f"{sign} {term}" for sign, term in out)
    if text.startswith("+") and rng.random() < 0.7:
        text = text[2:]
    return re.sub(r"('+)", lambda m: (f"^({len(m.group(1))})"
                                      if rng.random() < 0.3
                                      else m.group(1)), text)


def _commented(rng, lines):
    """The lines with ``#`` comments and blank lines in between."""
    out = []
    for line in lines:
        if rng.random() < 0.2:
            out.append(rng.choice(["# a comment: u1*u1, 1/0 ; @", "", "   "]))
        if rng.random() < 0.3:
            line += rng.choice(["  # trailing", "\t#", "#; eq x: y;"])
        out.append(line)
    return "\n".join(out) + rng.choice(["", "\n", "\n# end\n"])


def _random_document(rng):
    """The text of a random system file, by ``render_equation``, and
    whether its shape needs ``any_shape``."""
    n = rng.randint(2, 5)
    m = n - 1 if rng.random() < 0.8 else rng.randint(1, n + 1)
    constants = tuple(rng.sample(["a", "k", "lam"], rng.randint(0, 2)))
    symbols = tuple(f"c{i}" for i in range(1, n + 1)) + tuple(
        rng.sample(["b", "x_1", "y2", "u7", "Q"], rng.randint(0, 3)))
    if rng.random() < 0.5:
        params = tuple(f"u{j}" for j in range(1, m + 1))
    else:
        params = tuple(rng.sample(["v", "w", "z", "p", "s_2", "t"], m))
    coeffs = [(name, True) for name in constants] + [
        (name, False) for name in symbols[n:]]
    equations = []
    for i in range(n):
        free = Poly.var(sym(f"c{i + 1}"))
        if rng.random() < 0.4:
            free = free + _random_poly(rng, coeffs + [(f"c{i + 1}", False)], 3)
        ops = {}
        for j in rng.sample(range(1, m + 1), rng.randint(1, min(m, 3))):
            ops[j] = {k: (_random_poly(rng, coeffs, 2) if coeffs
                          and rng.random() < 0.5
                          else Fraction(rng.randint(1, 9), rng.randint(1, 3)))
                      for k in rng.sample(range(5), rng.randint(1, 2))}
        equations.append((rng.choice(["f", "g", "eq_"]) + str(i + 1),
                          linear_poly(free, ops)))
    doc = SystemDocument(constants, symbols, params, tuple(equations))
    lines = [f"{head}: {', '.join(names)};"
             for head, names in rng.sample([("constants", constants),
                                            ("diff", symbols),
                                            ("params", params)], 3) if names]
    lines += [f"eq {name}: {_shuffled(rng, render_equation(f, doc))};"
              for name, f in equations]
    return _commented(rng, lines), m != n - 1


def _corrupted(rng, text, doc, kind):
    """``text`` with one corruption of the given kind."""
    pos = rng.randrange(len(text) + 1)
    if kind == "insert":
        char = rng.choice("aZ_09';:,*+-/^() \n#@?\xe9\xa0\x0c\u2028\r")
        return text[:pos] + char + text[pos:]
    if kind == "delete":
        return text[:pos] + text[pos + 1:]
    if kind == "replace":
        char = rng.choice("a9';,*+-/^(#!\t")
        return text[:pos] + char + text[pos + 1:]
    if kind == "denominator":
        return re.sub(r"/[0-9]+", "/0", text, count=1)
    if kind == "semicolon":
        spots = [i for i, c in enumerate(text) if c == ";"]
        if not spots:
            return text
        at = rng.choice(spots)
        return text[:at] + text[at + 1:]
    name = rng.choice(doc.names)
    if kind == "undeclared":
        return text.replace(f"eq {name}:", f"eq {name}: zz*{doc.symbols[0]} +")
    if kind == "duplicate":
        declared = doc.constants + doc.symbols + doc.parameters
        if rng.random() < 0.5:
            return text.replace("diff: ", f"diff: {rng.choice(declared)}, ")
        return text.replace(f"eq {name}:", f"eq {doc.names[0]}:")
    if kind == "collision":
        j = rng.randint(1, len(doc.parameters))
        return text.replace("diff: ", f"diff: u{j}, ")
    # a nonlinear term
    p, q = rng.choice(doc.parameters), rng.choice(doc.parameters)
    return text.replace(f"eq {name}:", f"eq {name}: 2*{p}'*{q} +")


_KINDS = ("insert", "delete", "replace", "semicolon", "denominator",
          "undeclared", "duplicate", "collision", "nonlinear")


def _random_extra_inputs(rng, doc):
    """A ``parse_poly`` and a ``parse_perturbation`` text on ``doc``."""
    params = [(f"u{j}", False) for j in range(1, len(doc.parameters) + 1)]
    symbols = ([(name, True) for name in doc.constants]
               + [(name, False) for name in doc.symbols] + params)
    body = _shuffled(rng, render_poly(_random_poly(rng, symbols, 5), doc))
    poly = _commented(rng, [body + rng.choice(["", ";", " ;"])])
    lines = []
    for name in rng.sample(doc.names, rng.randint(1, len(doc.names))):
        term = linear_poly(0, {
            j: {rng.randrange(4): Fraction(rng.choice([1, -2, 3]),
                                           rng.choice([1, 4]))}
            for j in rng.sample(range(1, len(doc.parameters) + 1), 1)})
        lines.append(f"eq {name}: {_shuffled(rng, render_equation(term, doc))};")
    return poly, _commented(rng, lines)


def test_parser_matches_the_reference_on_seeded_files():
    """On seeded round-trip files and one-edit corruptions of them, the
    parser gives what the reference gives: the same documents, polynomials
    and perturbations with the same term order and coefficient types, or
    the same error type, message, line and column."""
    errors = set()
    checked = 0
    for seed in range(120):
        rng = random.Random(f"parser-oracle/{seed}")
        text, any_shape = _random_document(rng)
        got = _outcome(parse_document, text, any_shape=any_shape)
        assert got == _outcome(reference_parse_document, text,
                               any_shape=any_shape), text
        assert not isinstance(got[0], type), got
        doc = parse_document(text, any_shape=any_shape)
        poly, perturbation = _random_extra_inputs(rng, doc)
        for kind in _KINDS:
            bad = _corrupted(rng, text, doc, kind)
            got = _outcome(parse_document, bad, any_shape=any_shape)
            assert got == _outcome(reference_parse_document, bad,
                                   any_shape=any_shape), bad
            if isinstance(got[0], type):
                errors.add(f"{got[0].__name__}: {got[1]}")
        for parse, reference, good in [
                (parse_poly, reference_parse_poly, poly),
                (parse_perturbation, reference_parse_perturbation,
                 perturbation)]:
            variants = [good] + [_corrupted(rng, good, doc, kind)
                                 for kind in _KINDS[:5]]
            if parse is parse_perturbation:
                variants += [good.replace(";", " + 1;", 1),
                             good.replace(": ", ": c1*", 1),
                             good.replace("eq ", "eq zz", 1),
                             good + "\neq " + good.split("eq ")[-1]]
            for variant in variants:
                got = _outcome(parse, variant, doc)
                assert got == _outcome(reference, variant, doc), variant
                checked += 1
    assert checked == 120 * 2 * 6 + 120 * 4
    # the corruptions reach every kind of error
    seen = " | ".join(sorted(errors))
    for fragment in ["unexpected character", "found end of input",
                     "expected a factor", "expected '+', '-' or ';'",
                     "declared twice", "appears twice", "collides",
                     "UndeclaredSymbol", "NonlinearInParams"]:
        assert fragment in seen, (fragment, seen)


CUT_FILE = ("# header\r\nconstants: a, k;\r\ndiff: c1, c2,\tc3, b;  # ends\n"
            "params: x, u2;\x0ceq f1: c1 + 2/3*a*x'' - b^(3)*u2 ;\n"
            "eq f2:\u00a0-c2 + x^(1)*7 + k*b'*u2;\u2028eq f3: c3 + u2 - 1/4;\n"
            "eq f4: c1 + a'*x;\n")


def test_parser_matches_the_reference_on_every_prefix():
    """Every prefix of a file that uses each notation, CR LF and other
    line breaks, and ends in a derived constant: the end of input at every
    point of the grammar."""
    doc = parse_document(CUT_FILE.rsplit("eq f4", 1)[0], any_shape=True)
    poly = "-b^(3)*x'*x + 2/3*a*c1'' - 5 ;"
    perturbation = "eq f2: 3*x'' - 1/2*u2;\n# no f1\neq f3: u2^(4);"
    for k in range(len(CUT_FILE) + 1):
        for any_shape in (False, True):
            assert (_outcome(parse_document, CUT_FILE[:k], any_shape)
                    == _outcome(reference_parse_document, CUT_FILE[:k],
                                any_shape)), CUT_FILE[:k]
    for parse, reference, text in [
            (parse_poly, reference_parse_poly, poly),
            (parse_perturbation, reference_parse_perturbation, perturbation)]:
        for k in range(len(text) + 1):
            assert (_outcome(parse, text[:k], doc)
                    == _outcome(reference, text[:k], doc)), text[:k]
