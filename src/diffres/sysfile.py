"""Reading and writing plain-text system files.

The format is declaration lines followed by equations, all terminated
by semicolons, with ``#`` comments and free whitespace:

    constants: a;
    diff: c1, c2, c3;
    params: u1, u2;

    eq f1: c1 + 5*u1'' + 3*u2 + a*u1;
    eq f2: c2 + u1 + u2;
    eq f3: c3 + u1'' + u2';

``constants`` declares symbols with zero derivative, ``diff`` ordinary
differential symbols (free terms and coefficients live here), and
``params`` the ordered unknowns u_1..u_m targeted by elimination.  An
equation is a sum of terms; a term multiplies an optional rational, any
number of declared symbols and at most one parameter derivative with
``*``.  ``x'`` and ``x''`` abbreviate ``x^(1)`` and ``x^(2)``.

The parser strips comments line by line, checks the whole text for an
unexpected character with one regex search and splits it into token
strings with one ``findall``; the grammar walks that list by index.  Each
term becomes one monomial, its symbols sorted by ``Sym.key``, times the
product of its rationals.  Every ``ParseError`` that points at the text
carries the line and column of the offending character or token (at the
end of input, those of the last token); they are found by running the
token regex again up to that token, only when the error is raised.

Rendered polynomials order their terms by decreasing derivative order
and then by the symbol ranking (c1 highest); ``parse_poly`` reads that
form back, so render/parse round-trips are identities.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby, islice

from .algebra import Poly, _merge, _poly, as_poly, const_sym, sym
from .errors import NonlinearInParams, ParseError, UndeclaredSymbol
from .perturb import Perturbation
from .systems import DiffOperator, LinearDiffPoly, LinearSystem, param_sym


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------


_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|'+|[:;,*+\-/^()]")
# a character that is neither whitespace nor the start of a token
_UNEXPECTED = re.compile(r"[^\sA-Za-z0-9_':;,*+\-/^()]")
_INTERNAL_PARAM = re.compile(r"u([0-9]+)$")


class _Source:
    """The tokens of a text as plain strings, followed by ``""`` as the
    end of input.  A token is a name when it ``isidentifier()`` and an
    integer when it ``isdigit()``.  Positions are not kept: ``at`` finds
    the line and column of a token for its error."""

    __slots__ = ("body", "toks")

    def __init__(self, text):
        # lines as splitlines() counts them, each up to its first '#'
        self.body = "\n".join(line.split("#", 1)[0]
                              for line in text.splitlines())
        bad = _UNEXPECTED.search(self.body)
        if bad:
            raise ParseError(f"unexpected character {bad.group()!r}",
                             *self._line_column(bad.start()))
        self.toks = _TOKEN.findall(self.body)
        self.toks.append("")

    def _line_column(self, pos):
        start = self.body.rfind("\n", 0, pos) + 1
        return self.body.count("\n", 0, pos) + 1, pos - start + 1

    def at(self, i):
        """Line and column of token i, by the token regex run up to it."""
        hit = next(islice(_TOKEN.finditer(self.body), i, None))
        return self._line_column(hit.start())

    def expected(self, i, what, got=None):
        """The error for token i when it is not ``what``: at the end of
        input, at the last token; otherwise ``got``, by default
        "expected <what>, got '<token>'", at token i."""
        tok = self.toks[i]
        if not tok:
            return ParseError(f"expected {what}, found end of input",
                              *(self.at(i - 1) if i else (1, 1)))
        return ParseError(got or f"expected {what}, got '{tok}'", *self.at(i))


# ---------------------------------------------------------------------------
# the document
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemDocument:
    """Declarations plus named equations, in file order."""

    constants: tuple
    symbols: tuple
    parameters: tuple
    equations: tuple        # pairs (name, LinearDiffPoly)

    @property
    def names(self):
        return tuple(name for name, _ in self.equations)

    def system(self):
        return LinearSystem([f for _, f in self.equations],
                            params=len(self.parameters))

    def display(self, j):
        """File-level name of parameter u_j."""
        return self.parameters[j - 1]


def _scope_of(document):
    """Each declared name mapped to its pool: "constants", "diff", or the
    number j of parameter u_j."""
    scope = dict.fromkeys(document.symbols, "diff")
    scope.update(dict.fromkeys(document.constants, "constants"))
    scope.update((name, j) for j, name in enumerate(document.parameters, 1))
    return scope


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


def _parse_terms(src, i):
    """The terms of the expression at token i, up to ';' or the end of
    input, and the index after them.  A term is its rational coefficient
    and the (token index, derivative order) pairs of its symbol factors;
    the symbols are looked up later, by ``_resolve``."""
    toks = src.toks
    terms = []
    sign = toks[i]
    if sign == "+" or sign == "-":
        i += 1
    while True:
        num, den, factors = (-1 if sign == "-" else 1), 1, []
        while True:
            tok = toks[i]
            if tok.isdigit():
                num *= int(tok)
                i += 1
                if toks[i] == "/":
                    i += 1
                    d = toks[i]
                    if not d.isdigit() or not int(d):
                        raise src.expected(
                            i, "a denominator",
                            "expected a nonzero integer denominator")
                    den *= int(d)
                    i += 1
            elif tok.isidentifier():
                nxt = toks[i + 1]
                if nxt[:1] == "'":
                    factors.append((i, len(nxt)))
                    i += 2
                elif nxt == "^":
                    if toks[i + 2] != "(":
                        raise src.expected(i + 2, "'('")
                    k = toks[i + 3]
                    if not k.isdigit():
                        raise src.expected(i + 3, "a derivative order",
                                           f"expected an integer order, "
                                           f"got '{k}'")
                    if toks[i + 4] != ")":
                        raise src.expected(i + 4, "')'")
                    factors.append((i, int(k)))
                    i += 5
                else:
                    factors.append((i, 0))
                    i += 1
            else:
                raise src.expected(i, "a factor")
            if toks[i] != "*":
                break
            i += 1
        terms.append((Fraction(num) if den == 1 else Fraction(num, den),
                      factors))
        sign = toks[i]
        if sign == ";" or not sign:
            return terms, i
        if sign != "+" and sign != "-":
            raise ParseError(f"expected '+', '-' or ';', got '{sign}'",
                             *src.at(i))
        i += 1


def _resolve(src, scope, factors):
    """The symbols of a term's factors, and its parameter factors as
    (name, j, order) triples, both in factor order."""
    syms = []
    targets = []
    for i, order in factors:
        name = src.toks[i]
        pool = scope.get(name)
        if pool == "diff":
            syms.append(sym(name, order))
        elif pool == "constants":
            if order:
                raise ParseError(f"the derivative of constant '{name}' is "
                                 f"zero", *src.at(i))
            syms.append(const_sym(name))
        elif pool is None:
            raise UndeclaredSymbol(name)
        else:
            targets.append((name, pool, order))
    return syms, targets


def _monomial(syms):
    """The product of the symbols as a monomial: sorted by ``Sym.key``,
    repeats as exponents."""
    if len(syms) < 2:
        return tuple((s, 1) for s in syms)
    return tuple((s, len(list(run))) for s, run in groupby(sorted(syms)))


def _equation(src, scope, terms, context):
    """The LinearDiffPoly of parsed terms; ``context`` opens the message
    of a nonlinear term."""
    free = {}
    ops = {}
    for q, factors in terms:
        syms, targets = _resolve(src, scope, factors)
        if len(targets) > 1:
            shown = " and ".join(name for name, _, _ in targets[:2])
            raise NonlinearInParams(
                f"{context} multiplies the parameter derivatives {shown}")
        if targets:
            (_, j, order), = targets
            out = ops.setdefault(j, {}).setdefault(order, {})
        else:
            out = free
        if q:
            _merge(out, ((_monomial(syms), q),))
    return LinearDiffPoly(_poly(free), {
        j: DiffOperator({k: _poly(t) for k, t in ks.items()})
        for j, ks in ops.items()})


def _parse_equation(src, i, scope, read, context, known=None):
    """``<name>: <terms>;`` at token i, after an ``eq`` keyword, as the
    index after it and the LinearDiffPoly.  The name must not be in
    ``read``, and must be in ``known`` when that is given; ``context``
    opens the message of a nonlinear term."""
    toks = src.toks
    name = toks[i]
    if not name.isidentifier():
        raise src.expected(i, "an equation name")
    if known is not None and name not in known:
        raise ParseError(f"'{name}' is not an equation of the system",
                         *src.at(i))
    if name in read:
        raise ParseError(f"equation '{name}' appears twice", *src.at(i))
    if toks[i + 1] != ":":
        raise src.expected(i + 1, "':'")
    terms, i = _parse_terms(src, i + 2)
    if toks[i] != ";":
        raise src.expected(i, "';'")
    return i + 1, _equation(src, scope, terms, f"{context} '{name}'")


# ---------------------------------------------------------------------------
# parsing entry points
# ---------------------------------------------------------------------------


def parse_document(text, any_shape=False):
    """Parse a full system file.

    With ``any_shape`` the usual count of one parameter fewer than
    equations is not enforced (diagnostic commands still work on such
    systems, determinant frames will not).
    """
    src = _Source(text)
    toks = src.toks
    order = {"constants": [], "diff": [], "params": []}
    scope = {}
    equations = {}
    i = 0
    while toks[i]:
        head = toks[i]
        if head in order:
            if toks[i + 1] != ":":
                raise src.expected(i + 1, "':'")
            i += 2
            while True:
                name = toks[i]
                if not name.isidentifier():
                    raise src.expected(i, "a symbol name",
                                       f"expected a name, got '{name}'")
                if name in scope:
                    raise ParseError(f"'{name}' is declared twice",
                                     *src.at(i))
                order[head].append(name)
                scope[name] = (len(order[head]) if head == "params"
                               else head)
                sep = toks[i + 1]
                i += 2
                if sep == ";":
                    break
                if sep != ",":
                    raise src.expected(i - 1, "',' or ';'")
        elif head == "eq":
            name = toks[i + 1]
            i, f = _parse_equation(src, i + 1, scope, equations, "equation")
            equations[name] = f
        else:
            raise ParseError(
                f"expected 'constants', 'diff', 'params' or 'eq', "
                f"got '{head}'", *src.at(i))
    m = len(order["params"])
    for name in order["constants"] + order["diff"]:
        hit = _INTERNAL_PARAM.match(name)
        if hit and 1 <= int(hit.group(1)) <= m:
            raise ParseError(f"'{name}' collides with the internal name of "
                             f"parameter {order['params'][int(hit.group(1)) - 1]}")
    if m < 1:
        raise ParseError("a system file needs at least one parameter")
    if len(equations) < 2:
        raise ParseError("a system file needs at least two equations")
    if not any_shape and m != len(equations) - 1:
        raise ParseError(f"{m} parameters for {len(equations)} equations; "
                         f"a determinant frame needs one parameter fewer "
                         f"than equations")
    return SystemDocument(constants=tuple(order["constants"]),
                          symbols=tuple(order["diff"]),
                          parameters=tuple(order["params"]),
                          equations=tuple(equations.items()))


def parse_poly(text, document):
    """Parse one polynomial expression in the document's symbols.

    Unlike equations the expression may be nonlinear, also in the
    parameters; an optional trailing ';' is accepted.
    """
    src = _Source(text)
    if not src.toks[0]:
        raise ParseError("empty polynomial expression")
    terms, i = _parse_terms(src, 0)
    if src.toks[i] == ";":
        i += 1
    if src.toks[i]:
        raise ParseError(f"trailing input '{src.toks[i]}'", *src.at(i))
    scope = _scope_of(document)
    out = {}
    for q, factors in terms:
        syms, targets = _resolve(src, scope, factors)
        syms += [param_sym(j, order) for _, j, order in targets]
        if q:
            _merge(out, ((_monomial(syms), q),))
    return _poly(out)


def parse_perturbation(text, document):
    """Parse a perturbation file: ``eq <name>: <terms>;`` per line.

    Every name must be an equation of the document; omitted equations get
    the zero term.  Terms must be parameter derivatives with rational
    coefficients and no free part.
    """
    src = _Source(text)
    toks = src.toks
    scope = _scope_of(document)
    entries = {}
    i = 0
    while toks[i]:
        if toks[i] != "eq":
            raise src.expected(i, "'eq'")
        at, name = i + 1, toks[i + 1]
        i, poly = _parse_equation(src, at, scope, entries,
                                  "perturbation of", document.names)
        if not poly.free.is_zero():
            raise ParseError(f"perturbation of '{name}' has a free part",
                             *src.at(at))
        if any(mono for op in poly.ops.values()
               for coeff in op.coeffs.values() for mono in coeff.terms):
            raise ParseError(f"perturbation of '{name}' has a non-constant "
                             f"coefficient", *src.at(at))
        entries[name] = poly
    zero = LinearDiffPoly(Poly.zero(), {})
    return Perturbation(tuple(entries.get(name, zero)
                              for name, _ in document.equations))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _suffix(order):
    if order == 0:
        return ""
    if order <= 2:
        return "'" * order
    return f"^({order})"


def _display_name(name, document):
    if document is not None:
        hit = _INTERNAL_PARAM.match(name)
        if hit and 1 <= int(hit.group(1)) <= len(document.parameters):
            return document.parameters[int(hit.group(1)) - 1]
    return name


def _pieces(poly, document, tail=()):
    """(sign, text) of each term of a polynomial in output order, its
    factors followed by the ready symbol strings of ``tail``."""
    out = []
    for mono, q in sorted(poly.terms.items(),
                          key=lambda kv: _output_key(kv[0])):
        body = _mono_factors(mono, document) + list(tail)
        if abs(q) != 1 or not body:
            body.insert(0, str(abs(q)))
        out.append(("-" if q < 0 else "+", "*".join(body)))
    return out


def _join(pieces):
    if not pieces:
        return "0"
    sign, body = pieces[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


def _rank(name):
    hit = re.match(r"([A-Za-z_]+)([0-9]+)$", name)
    if hit and hit.group(1) == "c":
        return (0, int(hit.group(2)), "")
    if hit and hit.group(1) == "u":
        return (1, int(hit.group(2)), "")
    return (2, 0, name)


def _output_key(mono):
    if not mono:
        return (1, 0, ())
    top = max(s.order for s, _ in mono)
    return (0, -top, tuple(sorted((_rank(s.name), -s.order, -e)
                                  for s, e in mono)))


def _mono_factors(mono, document):
    out = []
    for s, e in sorted(mono, key=lambda se: _rank(se[0].name)):
        out.extend([_display_name(s.name, document) + _suffix(s.order)] * e)
    return out


def render_poly(poly, document=None):
    """Canonical text of a polynomial: decreasing derivative order first,
    then the symbol ranking (c1 before c2, parameters after, the rest
    alphabetically), constant term last."""
    return _join(_pieces(as_poly(poly), document))


def render_equation(f, document=None):
    """Equation text: free part first, then parameters in file order with
    derivative orders ascending."""
    pieces = _pieces(f.free, document)
    for j in sorted(f.ops):
        shown = _display_name(f"u{j}", document)
        op = f.ops[j]
        for k in op.support():
            pieces += _pieces(op.coefficient(k), document,
                              [shown + _suffix(k)])
    return _join(pieces)

