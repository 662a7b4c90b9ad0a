"""Shared fixture systems used across the test modules.

Builders, not pytest fixtures: most tests want fresh objects and explicit
names.  All symbols here are differential indeterminates unless noted.
"""

import re
from dataclasses import dataclass
from fractions import Fraction

from diffres.algebra import Poly, _merge, as_poly, const_sym, sym
from diffres.errors import (ColumnMissing, NonlinearInParams, ParseError,
                            UndeclaredSymbol)
from diffres.formulas import FormulaMatrix, _column_order
from diffres.perturb import Perturbation
from diffres.sysfile import SystemDocument
from diffres.systems import (DiffOperator, LinearDiffPoly, LinearSystem,
                             linear_poly, param_sym)


def v(name, order=0):
    return Poly.var(sym(name, order))


def derive_n(p, k):
    """The k-th formal derivative of a polynomial."""
    for _ in range(k):
        p = p.derive()
    return p


def motivation_system():
    """Three polynomials in two parameters with generic symbolic coefficients;
    orders (2, 3, 2)."""
    f1 = linear_poly(v("a1"), {
        1: {0: v("a110"), 1: v("a111")},
        2: {1: v("a121"), 2: v("a122")},
    })
    f2 = linear_poly(v("a2"), {
        2: {2: v("a222"), 3: v("a223")},
    })
    f3 = linear_poly(v("a3"), {
        1: {1: v("a311")},
        2: {1: v("a321"), 2: v("a322")},
    })
    return LinearSystem([f1, f2, f3], params=2)


def tall_order_system():
    """Orders (5, 1, 1); parameter 1 occurs only in the first polynomial at
    derivative orders {1, 5}, the others share parameter 2 at {0, 1}."""
    f1 = linear_poly(v("c1"), {1: {1: 1, 5: 1}})
    f2 = linear_poly(v("c2"), {2: {0: 1, 1: 1}})
    f3 = linear_poly(v("c3"), {2: {0: 2, 1: 1}})
    return LinearSystem([f1, f2, f3], params=2)


def four_eq_system(first_leading_coeff=5):
    """The four-polynomial example; orders (2, 0, 2, 2).

    ``first_leading_coeff`` 5 gives the variant with a nonzero determinant,
    1 the singular one."""
    f1 = linear_poly(v("c1"), {
        1: {2: first_leading_coeff}, 2: {0: 3}, 3: {0: 1},
    })
    f2 = linear_poly(v("c2"), {1: {0: 1}, 3: {0: 1}})
    f3 = linear_poly(v("c3"), {1: {2: 1}, 2: {0: 1}, 3: {0: 1}})
    f4 = linear_poly(v("c4"), {1: {0: 1}, 2: {1: 1}, 3: {2: 1}})
    return LinearSystem([f1, f2, f3, f4], params=3)


def generic_three_system():
    """Three sparse generic polynomials in two parameters; orders (1, 2, 1)."""
    f1 = linear_poly(v("c1"), {1: {0: v("c110")}, 2: {1: v("c121")}})
    f2 = linear_poly(v("c2"), {1: {2: v("c212")}})
    f3 = linear_poly(v("c3"), {1: {0: v("c310")}, 2: {1: v("c321")}})
    return LinearSystem([f1, f2, f3], params=2)


def generic_four_system():
    """Four sparse generic polynomials in three parameters; orders (1,1,0,0)."""
    f1 = linear_poly(v("c1"), {
        1: {0: v("c110"), 1: v("c111")},
        3: {0: v("c130"), 1: v("c131")},
    })
    f2 = linear_poly(v("c2"), {2: {0: v("c220"), 1: v("c221")}})
    f3 = linear_poly(v("c3"), {1: {0: v("c310")}, 3: {0: v("c330")}})
    f4 = linear_poly(v("c4"), {
        1: {0: v("c410")}, 2: {0: v("c420")}, 3: {0: v("c430")},
    })
    return LinearSystem([f1, f2, f3, f4], params=3)


GENERIC_FOUR_VALUES = {
    "c110": 1, "c111": 2, "c130": 1, "c131": 2,
    "c220": 1, "c221": 1,
    "c310": 1, "c330": 1,
    "c410": 1, "c420": 1, "c430": 1,
}


def pattern_system(pattern, order=1):
    """A system whose operator pattern matches the boolean matrix given;
    each present operator is a fresh symbolic coefficient times D^order."""
    n = len(pattern)
    m = len(pattern[0])
    polys = []
    for i, row in enumerate(pattern):
        ops = {}
        for j, present in enumerate(row):
            if present:
                ops[j + 1] = {order: v(f"x{i + 1}{j + 1}")}
        polys.append(linear_poly(v(f"c{i + 1}"), ops))
    return LinearSystem(polys, params=m)


SE_DE_1 = [[1, 1], [1, 0], [0, 1]]
SE_DE_2 = [[1, 1, 0], [1, 0, 1], [0, 1, 0], [0, 1, 0]]
SE_DE_3 = [[1, 1, 1], [0, 1, 0], [0, 1, 0], [0, 1, 0]]


def half(x):
    return Fraction(x, 2)


def eager_bareiss(rows, free=None):
    """Reference for ``algebra._bareiss``: the eager elimination it replaced,
    which rewrites every later row, whole, at every step.  Its body is kept
    as it was."""
    n = len(rows)
    order = list(range(n))
    cols = []
    sign = prev = 1
    for c in range(len(rows[0]) if rows else 0):
        k = len(cols)
        if k == n:
            break
        r = next((r for r in range(k, n) if rows[order[r]][c]), None)
        if r is None:
            continue
        if r != k:
            order[k], order[r] = order[r], order[k]
            sign = -sign
        top = rows[order[k]]
        pivot = top[c]
        for i in order[k + 1:]:
            a = rows[i][c]
            rows[i] = [(pivot * x - a * y) // prev for x, y in zip(rows[i], top)]
            if free is not None:
                f = _merge({m: pivot * v for m, v in free[i].items()},
                           ((m, -a * v) for m, v in free[order[k]].items() if a))
                free[i] = {m: v // prev for m, v in f.items()}
        prev = pivot
        cols.append(c)
    return cols, order, sign


# ---------------------------------------------------------------------------
# reference assembly
# ---------------------------------------------------------------------------
#
# The assembly that the derivative tables replaced: each polynomial derived
# as a stack of ``LinearDiffPoly`` objects by the operator rule below, and
# each row read off its operators by ``support`` and ``coefficient``.  Its
# code is kept as it was, with the derivation methods inlined as functions.


def reference_derive_operator(op):
    """D composed with the operator: c_k -> c_k' at k plus c_k at k+1."""
    out = {}
    for k, c in op.coeffs.items():
        dc = c.derive()
        if not dc.is_zero():
            out[k] = out.get(k, Poly.zero()) + dc
        out[k + 1] = out.get(k + 1, Poly.zero()) + c
    return DiffOperator(out)


def reference_derive(f):
    return LinearDiffPoly(f.free.derive(),
                          {j: reference_derive_operator(op)
                           for j, op in f.ops.items()})


def reference_assemble(system, spec):
    """Reference for ``formulas.assemble``."""
    columns = _column_order(spec.column_intervals)
    position = {label: idx for idx, label in enumerate(columns)}
    rows = []
    grid = []
    for i in sorted(spec.row_bounds):
        f = system.polys[i - 1]
        stack = [f]
        for _ in range(spec.row_bounds[i]):
            stack.append(reference_derive(stack[-1]))
        for k in range(spec.row_bounds[i], -1, -1):
            g = stack[k]
            row = [None] * (len(columns) + 1)
            for j, op in g.ops.items():
                lo, hi = spec.column_intervals.get(j, (0, -1))
                for kk in op.support():
                    if not lo <= kk <= hi:
                        raise ColumnMissing((j, kk))
                    row[position[(j, kk)]] = op.coefficient(kk)
            row[-1] = g.free
            grid.append(tuple(e if e is not None else Poly.zero()
                              for e in row))
            rows.append((i, k))
    return FormulaMatrix(rows=tuple(rows), columns=tuple(columns),
                         entries=tuple(grid), spec=spec)


def ordered_entries(matrix):
    """The entries of a frame with the terms of each in their order."""
    return [[list(e.terms.items()) for e in row] for row in matrix.entries]


# ---------------------------------------------------------------------------
# reference parser for system files
# ---------------------------------------------------------------------------
#
# The parser that ``sysfile`` replaced: one frozen ``_Token`` per token with
# its line and column, a ``_Stream`` of them, each term's coefficient as a
# chain of ``Poly`` products.  Its code is kept as it was, with the three
# entry points renamed ``reference_parse_*``.


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


def _term(sign, factors, scope):
    """One signed product as its coefficient and its parameter factors,
    the (token, order) pairs that name a parameter."""
    coeff = as_poly(Fraction(sign))
    targets = []
    for factor in factors:
        if isinstance(factor, Fraction):
            coeff = coeff * as_poly(factor)
        elif factor[0].text in scope.params:
            targets.append(factor)
        else:
            coeff = coeff * Poly.var(_symbol_of(*factor, scope))
    return coeff, targets


def _equation_from_terms(terms, scope, context):
    free = []
    ops = {}
    for sign, factors in terms:
        coeff, targets = _term(sign, factors, scope)
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
    pieces = []
    for sign, factors in terms:
        coeff, targets = _term(sign, factors, scope)
        for tok, order in targets:
            coeff = coeff * Poly.var(param_sym(scope.params[tok.text], order))
        pieces.append(coeff)
    return Poly.sum(pieces)


def _parse_equation(toks, scope, read, context, known=None):
    """``<name>: <terms>;`` after an ``eq`` keyword, as the name token and
    the LinearDiffPoly.  The name must not be in ``read``, and must be in
    ``known`` when that is given; ``context`` opens the message of a
    nonlinear term."""
    name_tok = toks.take("an equation name")
    if not _is_name(name_tok):
        raise ParseError(f"expected an equation name, got '{name_tok.text}'",
                         name_tok.line, name_tok.column)
    if known is not None and name_tok.text not in known:
        raise ParseError(f"'{name_tok.text}' is not an equation of the "
                         f"system", name_tok.line, name_tok.column)
    if name_tok.text in read:
        raise ParseError(f"equation '{name_tok.text}' appears twice",
                         name_tok.line, name_tok.column)
    toks.expect(":")
    terms = _parse_terms(toks, scope)
    toks.expect(";")
    return name_tok, _equation_from_terms(
        terms, scope, f"{context} '{name_tok.text}'")


# ---------------------------------------------------------------------------
# parsing entry points
# ---------------------------------------------------------------------------


def reference_parse_document(text, any_shape=False):
    """Parse a full system file.

    With ``any_shape`` the usual count of one parameter fewer than
    equations is not enforced (diagnostic commands still work on such
    systems, determinant frames will not).
    """
    toks = _Stream(_tokenize(text))
    scope = _Scope()
    order = {"constants": [], "diff": [], "params": []}
    equations = {}
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
            name_tok, f = _parse_equation(toks, scope, equations, "equation")
            equations[name_tok.text] = f
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
                          equations=tuple(equations.items()))


def _scope_of(document):
    return _Scope(document.constants, document.symbols, document.parameters)


def reference_parse_poly(text, document):
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


def reference_parse_perturbation(text, document):
    """Parse a perturbation file: ``eq <name>: <terms>;`` per line.

    Every name must be an equation of the document; omitted equations get
    the zero term.  Terms must be parameter derivatives with rational
    coefficients and no free part.
    """
    toks = _Stream(_tokenize(text))
    scope = _scope_of(document)
    entries = {}
    while toks.peek() is not None:
        toks.expect("eq")
        name_tok, poly = _parse_equation(toks, scope, entries,
                                         "perturbation of", document.names)
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
