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

Rendered polynomials order their terms by decreasing derivative order
and then by the symbol ranking (c1 highest); ``parse_poly`` reads that
form back, so render/parse round-trips are identities.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Poly, as_poly, const_sym, sym
from .errors import NonlinearInParams, ParseError, UndeclaredSymbol
from .perturb import Perturbation
from .systems import DiffOperator, LinearDiffPoly, LinearSystem, param_sym


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------


_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|'+|[:;,*+\-/^()]")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_INTERNAL_PARAM = re.compile(r"u([0-9]+)$")


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    column: int


def _tokenize(text):
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        pos = 0
        while pos < len(body):
            if body[pos].isspace():
                pos += 1
                continue
            m = _TOKEN.match(body, pos)
            if m is None:
                raise ParseError(f"unexpected character {body[pos]!r}",
                                 lineno, pos + 1)
            out.append(_Token(m.group(), lineno, pos + 1))
            pos = m.end()
    return out


class _Stream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def take(self, what="a token"):
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            raise ParseError(f"expected {what}, found end of input",
                             last.line if last else 1,
                             last.column if last else 1)
        self.pos += 1
        return tok

    def expect(self, text):
        tok = self.take(f"'{text}'")
        if tok.text != text:
            raise ParseError(f"expected '{text}', got '{tok.text}'",
                             tok.line, tok.column)
        return tok


def _is_name(tok):
    return _NAME.match(tok.text) is not None


def _is_int(tok):
    return tok.text.isdigit()


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


class _Scope:
    def __init__(self, constants=(), symbols=(), parameters=()):
        self.constants = set(constants)
        self.symbols = set(symbols)
        self.params = {name: j + 1 for j, name in enumerate(parameters)}

    def declare(self, tok, pool):
        name = tok.text
        if (name in self.constants or name in self.symbols
                or name in self.params):
            raise ParseError(f"'{name}' is declared twice",
                             tok.line, tok.column)
        if pool == "constants":
            self.constants.add(name)
        elif pool == "diff":
            self.symbols.add(name)
        else:
            self.params[name] = len(self.params) + 1


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


def _parse_factor(toks, scope):
    """One rational or one (possibly derived) symbol reference."""
    tok = toks.take("a factor")
    if _is_int(tok):
        num = int(tok.text)
        nxt = toks.peek()
        if nxt is not None and nxt.text == "/":
            toks.take()
            den_tok = toks.take("a denominator")
            if not _is_int(den_tok) or int(den_tok.text) == 0:
                raise ParseError("expected a nonzero integer denominator",
                                 den_tok.line, den_tok.column)
            return Fraction(num, int(den_tok.text))
        return Fraction(num)
    if not _is_name(tok):
        raise ParseError(f"expected a factor, got '{tok.text}'",
                         tok.line, tok.column)
    order = 0
    nxt = toks.peek()
    if nxt is not None and set(nxt.text) == {"'"}:
        toks.take()
        order = len(nxt.text)
    elif nxt is not None and nxt.text == "^":
        toks.take()
        toks.expect("(")
        k = toks.take("a derivative order")
        if not _is_int(k):
            raise ParseError(f"expected an integer order, got '{k.text}'",
                             k.line, k.column)
        toks.expect(")")
        order = int(k.text)
    return (tok, order)


def _parse_terms(toks, scope):
    """Signed factor lists of one expression, up to ';' or end of input."""
    terms = []
    sign = 1
    first = toks.peek()
    if first is not None and first.text in "+-":
        toks.take()
        sign = -1 if first.text == "-" else 1
    while True:
        factors = [_parse_factor(toks, scope)]
        while toks.peek() is not None and toks.peek().text == "*":
            toks.take()
            factors.append(_parse_factor(toks, scope))
        terms.append((sign, factors))
        nxt = toks.peek()
        if nxt is None or nxt.text == ";":
            return terms
        if nxt.text not in "+-":
            raise ParseError(f"expected '+', '-' or ';', got '{nxt.text}'",
                             nxt.line, nxt.column)
        toks.take()
        sign = -1 if nxt.text == "-" else 1


def _symbol_of(tok, order, scope):
    name = tok.text
    if name in scope.constants:
        if order:
            raise ParseError(f"the derivative of constant '{name}' is zero",
                             tok.line, tok.column)
        return const_sym(name)
    if name in scope.symbols:
        return sym(name, order)
    raise UndeclaredSymbol(name)


def _equation_from_terms(terms, scope, context):
    free = []
    ops = {}
    for sign, factors in terms:
        coeff = as_poly(Fraction(sign))
        targets = []
        for factor in factors:
            if isinstance(factor, Fraction):
                coeff = coeff * as_poly(factor)
            elif factor[0].text in scope.params:
                targets.append(factor)
            else:
                coeff = coeff * Poly.var(_symbol_of(*factor, scope))
        if len(targets) > 1:
            shown = " and ".join(t.text for t, _ in targets[:2])
            raise NonlinearInParams(
                f"{context} multiplies the parameter derivatives {shown}")
        if targets:
            (tok, order), = targets
            j = scope.params[tok.text]
            ops.setdefault(j, {})[order] = (
                ops.get(j, {}).get(order, Poly.zero()) + coeff)
        else:
            free.append(coeff)
    return LinearDiffPoly(Poly.sum(free),
                          {j: DiffOperator(ks) for j, ks in ops.items()})


def _poly_from_terms(terms, scope):
    def piece(sign, factors):
        out = as_poly(Fraction(sign))
        for factor in factors:
            if isinstance(factor, Fraction):
                out = out * as_poly(factor)
            elif factor[0].text in scope.params:
                tok, order = factor
                out = out * Poly.var(param_sym(scope.params[tok.text], order))
            else:
                out = out * Poly.var(_symbol_of(*factor, scope))
        return out
    return Poly.sum(piece(sign, factors) for sign, factors in terms)


# ---------------------------------------------------------------------------
# parsing entry points
# ---------------------------------------------------------------------------


def parse_document(text, any_shape=False):
    """Parse a full system file.

    With ``any_shape`` the usual count of one parameter fewer than
    equations is not enforced (diagnostic commands still work on such
    systems, determinant frames will not).
    """
    toks = _Stream(_tokenize(text))
    scope = _Scope()
    order = {"constants": [], "diff": [], "params": []}
    equations = []
    seen = set()
    while toks.peek() is not None:
        head = toks.take("a statement")
        if head.text in ("constants", "diff", "params"):
            toks.expect(":")
            while True:
                tok = toks.take("a symbol name")
                if not _is_name(tok):
                    raise ParseError(f"expected a name, got '{tok.text}'",
                                     tok.line, tok.column)
                scope.declare(tok, head.text)
                order[head.text].append(tok.text)
                tok = toks.take("',' or ';'")
                if tok.text == ";":
                    break
                if tok.text != ",":
                    raise ParseError(f"expected ',' or ';', got '{tok.text}'",
                                     tok.line, tok.column)
        elif head.text == "eq":
            name_tok = toks.take("an equation name")
            if not _is_name(name_tok):
                raise ParseError(
                    f"expected an equation name, got '{name_tok.text}'",
                    name_tok.line, name_tok.column)
            if name_tok.text in seen:
                raise ParseError(f"equation '{name_tok.text}' appears twice",
                                 name_tok.line, name_tok.column)
            seen.add(name_tok.text)
            toks.expect(":")
            terms = _parse_terms(toks, scope)
            toks.expect(";")
            equations.append((name_tok.text,
                              _equation_from_terms(
                                  terms, scope,
                                  f"equation '{name_tok.text}'")))
        else:
            raise ParseError(
                f"expected 'constants', 'diff', 'params' or 'eq', "
                f"got '{head.text}'", head.line, head.column)
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
                          equations=tuple(equations))


def _scope_of(document):
    return _Scope(document.constants, document.symbols, document.parameters)


def parse_poly(text, document):
    """Parse one polynomial expression in the document's symbols.

    Unlike equations the expression may be nonlinear, also in the
    parameters; an optional trailing ';' is accepted.
    """
    toks = _Stream(_tokenize(text))
    if toks.peek() is None:
        raise ParseError("empty polynomial expression")
    terms = _parse_terms(toks, _scope_of(document))
    if toks.peek() is not None:
        toks.expect(";")
    tail = toks.peek()
    if tail is not None:
        raise ParseError(f"trailing input '{tail.text}'",
                         tail.line, tail.column)
    return _poly_from_terms(terms, _scope_of(document))


def parse_perturbation(text, document):
    """Parse a perturbation file: ``eq <name>: <terms>;`` per line.

    Every name must be an equation of the document; omitted equations get
    the zero term.  Terms must be parameter derivatives with rational
    coefficients and no free part.
    """
    toks = _Stream(_tokenize(text))
    scope = _scope_of(document)
    known = dict(document.equations)
    entries = {}
    while toks.peek() is not None:
        toks.expect("eq")
        name_tok = toks.take("an equation name")
        if name_tok.text not in known:
            raise ParseError(f"'{name_tok.text}' is not an equation of the "
                             f"system", name_tok.line, name_tok.column)
        if name_tok.text in entries:
            raise ParseError(f"equation '{name_tok.text}' appears twice",
                             name_tok.line, name_tok.column)
        toks.expect(":")
        terms = _parse_terms(toks, scope)
        toks.expect(";")
        poly = _equation_from_terms(terms, scope,
                                    f"perturbation of '{name_tok.text}'")
        if not poly.free.is_zero():
            raise ParseError(f"perturbation of '{name_tok.text}' has a "
                             f"free part", name_tok.line, name_tok.column)
        for op in poly.ops.values():
            for coeff in op.coeffs.values():
                if any(mono for mono in coeff.terms):
                    raise ParseError(
                        f"perturbation of '{name_tok.text}' has a "
                        f"non-constant coefficient",
                        name_tok.line, name_tok.column)
        entries[name_tok.text] = poly
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


def _term_text(q, factors):
    """One signed product; ``factors`` are ready symbol strings."""
    sign = "-" if q < 0 else "+"
    body = list(factors)
    if abs(q) != 1 or not body:
        body.insert(0, str(abs(q)))
    return sign, "*".join(body)


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
    poly = as_poly(poly)
    pieces = []
    for mono, q in sorted(poly.terms.items(),
                          key=lambda kv: _output_key(kv[0])):
        pieces.append(_term_text(q, _mono_factors(mono, document)))
    return _join(pieces)


def render_equation(f, document=None):
    """Equation text: free part first, then parameters in file order with
    derivative orders ascending."""
    pieces = []
    for mono, q in sorted(f.free.terms.items(),
                          key=lambda kv: _output_key(kv[0])):
        pieces.append(_term_text(q, _mono_factors(mono, document)))
    for j in sorted(f.ops):
        shown = _display_name(f"u{j}", document)
        op = f.ops[j]
        for k in op.support():
            for mono, q in sorted(op.coefficient(k).terms.items(),
                                  key=lambda kv: _output_key(kv[0])):
                pieces.append(_term_text(
                    q, _mono_factors(mono, document) + [shown + _suffix(k)]))
    return _join(pieces)

