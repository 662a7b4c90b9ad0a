"""Exact arithmetic: symbols with formal derivatives, sparse multivariate
polynomials over Q, fractions of polynomials, and the matrix kernel of the
package (fraction-free determinants and rank).

Everything here is exact; no floating point anywhere.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain

from .errors import DivisionByZero, InputError, NonSquare, NotDivisible

# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------


class Sym:
    """A named indeterminate together with a formal derivative order.

    ``sym('a', 2)`` stands for the second derivative of a.  Symbols marked
    constant have derivative zero; deriving them is the caller's bug.

    ``sym`` is the only constructor and interns every symbol, so equality
    and hashing are identity; copies and pickles return the interned one.
    """

    __slots__ = ("name", "order", "constant", "key")

    def __init__(self, name, order=0, constant=False):
        self.name = name
        self.order = order
        self.constant = constant
        self.key = (name, order, constant)

    def derived(self, k=1):
        if self.constant:
            raise ValueError(f"constant symbol {self.name} has no derivative")
        return sym(self.name, self.order + k, False)

    def __reduce__(self):
        return sym, self.key

    def __lt__(self, other):
        return self.key < other.key

    def __repr__(self):
        if self.order == 0:
            return self.name
        return f"{self.name}^({self.order})"


_SYM_CACHE: dict[tuple, Sym] = {}


def sym(name, order=0, constant=False):
    """Interning factory; the only way to obtain a Sym.  A negative order
    is an InputError."""
    k = (name, order, constant)
    s = _SYM_CACHE.get(k)
    if s is None:
        if order < 0:
            raise InputError(f"symbol {name} of negative order {order}")
        s = _SYM_CACHE[k] = Sym(name, order, constant)
    return s


def const_sym(name, order=0):
    return sym(name, order, constant=True)


# ---------------------------------------------------------------------------
# monomials: sorted tuples of (Sym, exponent)
# ---------------------------------------------------------------------------

_ONE_MONO = ()


def _mono_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        sa, ea = a[i]
        sb, eb = b[j]
        if sa is sb:
            out.append((sa, ea + eb))
            i += 1
            j += 1
        elif sa.key < sb.key:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _mono_div(b, a):
    """b / a in b's order, or None when a does not divide b."""
    need = dict(a)
    out = []
    for s, e in b:
        e -= need.pop(s, 0)
        if e < 0:
            return None
        if e:
            out.append((s, e))
    return None if need else tuple(out)


def _mono_cmp(a, b):
    """Lex order: the smallest symbol has the highest priority, a larger
    exponent on it wins.  Admissible, so exact division can trust leading
    terms."""
    i = j = 0
    while i < len(a) and j < len(b):
        sa, ea = a[i]
        sb, eb = b[j]
        if sa is sb:
            if ea != eb:
                return 1 if ea > eb else -1
            i += 1
            j += 1
        elif sa.key < sb.key:
            return 1  # a has a positive power on an earlier symbol
        else:
            return -1
    if i < len(a):
        return 1
    if j < len(b):
        return -1
    return 0


def _mono_gcd(a, b):
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        sa, ea = a[i]
        sb, eb = b[j]
        if sa is sb:
            out.append((sa, min(ea, eb)))
            i += 1
            j += 1
        elif sa.key < sb.key:
            i += 1
        else:
            j += 1
    return tuple(out)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


def _merge(out, pairs):
    """Add (monomial, coefficient) pairs into the term dict ``out`` in place,
    dropping every coefficient that cancels, and return ``out``.  The
    monomials may be tuples or packed integers (see ``_Ring``)."""
    for m, c in pairs:
        v = out.get(m)
        if v is None:
            out[m] = c
        else:
            v = v + c
            if v:
                out[m] = v
            else:
                del out[m]
    return out


def _sum_terms(dicts):
    """Sum of term dicts, left to right: the first is copied, never merged
    into or returned, and the rest are merged into that copy."""
    dicts = iter(dicts)
    out = dict(next(dicts, {}))
    return _merge(out, chain.from_iterable(d.items() for d in dicts))


def _poly(terms):
    """A Poly that adopts the term dict ``terms`` (no zero coefficients)."""
    p = Poly.__new__(Poly)
    p.terms = terms
    return p


class Poly:
    """Sparse multivariate polynomial over Q with Sym indeterminates.

    Instances are treated as immutable; all operations return new objects.
    A sum of many polynomials goes through ``Poly.sum``, which accumulates
    every summand into one fresh term dict instead of copying a growing
    partial sum at each ``+``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms:
            self.terms = {m: c for m, c in terms.items() if c}
        else:
            self.terms = {}

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls):
        return _ZERO

    @classmethod
    def one(cls):
        return _ONE

    @classmethod
    def const(cls, q):
        q = Fraction(q)
        return cls({_ONE_MONO: q}) if q else _ZERO

    @classmethod
    def var(cls, s):
        return cls({((s, 1),): Fraction(1)})

    @staticmethod
    def sum(polys):
        """Sum of polynomials (or scalars and symbols), left to right.

        The first summand is copied, never merged into or returned, and the
        rest are merged into that copy."""
        return _poly(_sum_terms(as_poly(p).terms for p in polys))

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and _ONE_MONO in self.terms)

    def constant_value(self):
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and _ONE_MONO in self.terms:
            return self.terms[_ONE_MONO]
        raise ValueError("not a constant polynomial")

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = as_poly(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        return _poly(_merge(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return _poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-as_poly(other))

    def __rsub__(self, other):
        return as_poly(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                return _ZERO
            return _poly({m: c * q for m, c in self.terms.items()})
        other = as_poly(other)
        if not self.terms or not other.terms:
            return _ZERO
        if len(self.terms) > len(other.terms):
            self, other = other, self
        return _poly(_merge({}, ((_mono_mul(m1, m2), c1 * c2)
                                 for m1, c1 in self.terms.items()
                                 for m2, c2 in other.terms.items())))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = _ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_value())
        return hash(frozenset(self.terms.items()))

    # -- calculus ------------------------------------------------------

    def derive(self):
        """Formal derivative; constant symbols vanish, others gain order."""
        def pairs():
            for mono, c in self.terms.items():
                for idx, (s, e) in enumerate(mono):
                    if s.constant:
                        continue
                    rest = list(mono)
                    if e == 1:
                        del rest[idx]
                    else:
                        rest[idx] = (s, e - 1)
                    yield _mono_mul(tuple(rest), ((s.derived(), 1),)), c * e
        return _poly(_merge({}, pairs()))

    # -- structure -----------------------------------------------------

    def symbols(self):
        seen = set()
        for mono in self.terms:
            for s, _ in mono:
                seen.add(s)
        return seen

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e for _, e in m) for m in self.terms)

    def leading(self):
        """(monomial, coefficient) maximal under the division order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=cmp_to_key(_mono_cmp))
        return m, self.terms[m]

    def rational_content(self):
        """Positive gcd of the coefficients; 0 for the zero polynomial."""
        if not self.terms:
            return Fraction(0)
        num = 0
        den = 1
        for c in self.terms.values():
            num = math.gcd(num, abs(c.numerator))
            den = den * c.denominator // math.gcd(den, c.denominator)
        return Fraction(num, den)

    def monomial_content(self):
        """Largest monomial dividing every term (unit monomial if none)."""
        it = iter(self.terms)
        try:
            g = next(it)
        except StopIteration:
            return _ONE_MONO
        for m in it:
            if not g:
                break
            g = _mono_gcd(g, m)
        return g

    def substitute(self, images):
        """Replace whole symbol families.

        ``images`` maps symbol names to polynomials (or scalars); a symbol of
        derivative order k is replaced by the k-th derivative of the image.
        The polynomial and the images are packed into one ``_Ring``, whose
        fields hold the largest exponent of a term plus e_s times the
        largest exponent in the image of each replaced symbol s, and
        substituted by the packed kernel ``_psubstitute``.  The membership
        check runs the same kernel; on the direct branch of ``eliminate``
        its ring is the frame's, which also holds n times the largest
        exponent of an entry for the Laplace expansion (``_det_laplace``).
        """
        ring, terms = _substitution(self, images)
        return ring.unpack(terms)

    def evaluate(self, values):
        """Full numeric evaluation; ``values`` maps Sym -> Fraction."""
        total = Fraction(0)
        for mono, c in self.terms.items():
            v = c
            for s, e in mono:
                v = v * values[s] ** e
            total += v
        return total

    # -- display -------------------------------------------------------

    def __repr__(self):
        return format_poly(self)


_ZERO = _poly({})
_ONE = _poly({_ONE_MONO: Fraction(1)})


def as_poly(x):
    if isinstance(x, Poly):
        return x
    if isinstance(x, Sym):
        return Poly.var(x)
    if isinstance(x, (int, Fraction)):
        return Poly.const(x)
    raise TypeError(f"cannot interpret {x!r} as a polynomial")


def _term_cmp(a, b):
    """Display order: highest derivative order first, then symbol order."""
    ma, mb = a, b
    da = max((s.order for s, _ in ma), default=-1)
    db = max((s.order for s, _ in mb), default=-1)
    if da != db:
        return 1 if da > db else -1
    return _mono_cmp(ma, mb)


def format_poly(p):
    if not p.terms:
        return "0"
    monos = sorted(p.terms, key=cmp_to_key(_term_cmp), reverse=True)
    parts = []
    for m in monos:
        c = p.terms[m]
        factors = []
        for s, e in m:
            factors.append(repr(s) if e == 1 else f"{s!r}^{e}")
        if not factors:
            body = str(abs(c))
        else:
            body = "*".join(factors)
            if abs(c) != 1:
                body = f"{abs(c)}*{body}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# packed monomials
# ---------------------------------------------------------------------------


def _max_exponent(terms):
    return max((e for mono in terms for _, e in mono), default=0)


def _packed_coeff(c):
    return c.numerator if c.denominator == 1 else c


class _Ring:
    """Monomials over a fixed set of symbols, each packed into one int,
    after Monagan and Pearce (2007).

    Every symbol owns a field of bits wide enough for ``degree``, and the
    smallest ``Sym.key`` owns the most significant field, so packed
    monomials compare as integers the way ``_mono_cmp`` compares tuples.
    The caller proves that no exponent of any product it forms exceeds
    ``degree``; then the product of two monomials is one integer addition
    and never carries from one field into the next.  Packing an exponent
    that does not fit its field raises OverflowError.  Two functions size
    a ring: ``_det_laplace``, for a determinant of side n, by n times the
    largest exponent of an entry, plus room for the substitution when it
    also takes the determinant's image, and ``_substitution`` by the
    largest exponent of a term plus e_s times the largest exponent in the
    image of each replaced symbol s.

    A term dict packs in its own order, with a coefficient of denominator 1
    as an int, and unpacks in its own order, with Fraction coefficients,
    one shared Fraction for each integer value and one shared tuple for
    each (symbol, exponent) pair and for each decoded chunk of fields.
    """

    def __init__(self, symbols, degree):
        w = self.width = max(degree, 1).bit_length()
        self.top = (1 << w) - 1
        # field f starts at bit f * w; field 0 holds the largest symbol
        self.fields = sorted(symbols, reverse=True)
        self.shift = {s: f * w for f, s in enumerate(self.fields)}
        self.low = [(1 << f * w) - 1 for f in range(len(self.fields))]
        self.pairs = {}
        # unpacking decodes chunks of about 48 bits, whole fields each
        c = self.chunk = max(1, 48 // w) * w
        self.chunk_low = [(1 << j * c) - 1
                          for j in range(-(-len(self.fields) * w // c))]
        self.parts = {}

    def pack_mono(self, mono):
        m = 0
        for s, e in mono:
            if e > self.top:
                raise OverflowError(f"exponent {e} of {s!r} does not fit a "
                                    f"{self.width}-bit field")
            m |= e << self.shift[s]
        return m

    def pack(self, terms):
        return {self.pack_mono(m): _packed_coeff(c) for m, c in terms.items()}

    def unpack_mono(self, m):
        """The tuple of ``m``, decoded a chunk of fields at a time: the
        decoded pairs of each chunk are cached, sub-monomials repeat."""
        size, low, parts = self.chunk, self.chunk_low, self.parts
        out = ()
        while m:
            j = (m.bit_length() - 1) // size
            rest = m & low[j]
            part = m - rest
            got = parts.get(part)
            if got is None:
                got = parts[part] = self._decode(part)
            out += got
            m = rest
        return out

    def _decode(self, m):
        w, low, pairs = self.width, self.low, self.pairs
        out = []
        while m:
            f = (m.bit_length() - 1) // w
            rest = m & low[f]
            field = m - rest
            pair = pairs.get(field)
            if pair is None:
                pair = pairs[field] = (self.fields[f], field >> f * w)
            out.append(pair)
            m = rest
        return tuple(out)

    def unpack(self, terms):
        out = {}
        fractions = {}
        for m, c in terms.items():
            if type(c) is int:
                f = fractions.get(c)
                if f is None:
                    f = fractions[c] = Fraction(c)
                c = f
            out[self.unpack_mono(m)] = c
        return _poly(out)


def _pmul(a, b):
    """Product of two packed term dicts, its terms in the order that
    ``Poly.__mul__`` gives the unpacked operands."""
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        (m1, c1), = a.items()
        return {m1 + m2: c1 * c2 for m2, c2 in b.items()}
    return _merge({}, ((m1 + m2, c1 * c2)
                       for m1, c1 in a.items() for m2, c2 in b.items()))


def _add_product(out, a, b):
    """Add the product of the packed term dicts ``a`` and ``b`` into ``out``
    in place, as ``_merge(out, _pmul(a, b).items())`` would.  When either
    has one term the product is merged in straight; otherwise it goes
    through ``_pmul``, whose own merge may drop and re-insert a monomial
    that cancels inside the product, and so fix an order that merging its
    pairs one by one into ``out`` would not."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) != 1:
        _merge(out, _pmul(a, b).items())
        return
    (m1, c1), = a.items()
    for m2, c2 in b.items():
        m = m1 + m2
        v = out.get(m)
        if v is None:
            out[m] = c1 * c2
        elif v := v + c1 * c2:
            out[m] = v
        else:
            del out[m]


def _ppow(a, n):
    """Packed ``a ** n`` by the squarings of ``Poly.__pow__``."""
    out = {0: 1}
    while n:
        if n & 1:
            out = _pmul(out, a)
        a = _pmul(a, a) if n > 1 else a
        n >>= 1
    return out


def _psubstitute(terms, ring, images):
    """The packed substitution kernel: the packed term dict ``terms`` with
    each symbol s of the packed term dict ``images`` replaced by
    ``images[s]``, all in ``ring``, which must hold the bound that
    ``_Ring`` states for a substitution.

    Terms are grouped by their replaced part ``m & mask``: the product of
    the image powers of one replaced part is formed once, in the symbol
    order of the monomial, and each term's kept part times that product
    goes straight into one result dict, term after term.  So the result
    has the terms, in order, of summing each term's image left to right.
    """
    top = ring.top
    fields = sorted((ring.shift[s], img) for s, img in images.items())
    fields.reverse()  # most significant field, the smallest symbol, first
    mask = sum(top << shift for shift, _ in fields)
    products = {0: {0: 1}}

    def product(r):
        out = None
        for shift, img in fields:
            e = r >> shift & top
            if e:
                power = _ppow(img, e)
                out = power if out is None else _pmul(out, power)
        return out

    def pairs():
        for m, c in terms.items():
            r = m & mask
            factor = products.get(r)
            if factor is None:
                factor = products[r] = product(r)
            m -= r
            for m2, c2 in factor.items():
                yield m + m2, c * c2

    return _merge({}, pairs())


def _derived_images(images, symbols):
    """Each of ``symbols`` whose name ``images`` replaces -> the image of
    its name derived s.order times.  One chain per name derives the image
    once per order, lowest order first, up to the highest order needed."""
    chains = {}
    for s in symbols:
        if s.name in images:
            chain = chains.setdefault(s.name, [as_poly(images[s.name])])
            while len(chain) <= s.order:
                chain.append(chain[-1].derive())
    return {s: chains[s.name][s.order] for s in symbols if s.name in chains}


def _substitution(p, images):
    """``p.substitute(images)`` packed: (ring, packed result).

    A term whose largest exponent is t gains on any symbol at most the sum
    of e_s times the largest exponent in the image of s over its replaced
    symbols s, so t plus that sum bounds the ring.
    """
    symbols = p.symbols()
    derived = _derived_images(images, symbols)
    top = {s: _max_exponent(img.terms) for s, img in derived.items()}
    degree = max((max(e for _, e in mono)
                  + sum(e * top.get(s, 0) for s, e in mono)
                  for mono in p.terms if mono), default=0)
    for img in derived.values():
        symbols |= img.symbols()
    ring = _Ring(symbols, degree)
    return ring, _psubstitute(ring.pack(p.terms), ring, {
        s: ring.pack(img.terms) for s, img in derived.items()})


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------


def exact_div(f, g):
    """Quotient f/g in the polynomial ring; NotDivisible if the remainder
    would be nonzero."""
    f = as_poly(f)
    g = as_poly(g)
    if g.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    if f.is_zero():
        return _ZERO
    if g.is_constant():
        return f * (1 / g.constant_value())
    gm, gc = g.leading()
    q = {}
    rem = Poly(f.terms)  # private copy, reduced in place
    while not rem.is_zero():
        rm, rc = rem.leading()
        m = _mono_div(rm, gm)
        if m is None:
            raise NotDivisible("leading term not divisible")
        c = rc / gc
        q[m] = q.get(m, Fraction(0)) + c
        _merge(rem.terms, ((_mono_mul(m, m2), -(c * c2))
                           for m2, c2 in g.terms.items()))
    return Poly(q)


# ---------------------------------------------------------------------------
# fractions of polynomials
# ---------------------------------------------------------------------------


class Frac:
    """Quotient of two polynomials.

    Normalization keeps things small without a full multivariate gcd:
    rational and monomial content are cancelled, exact divisions are tried
    both ways, and the denominator is scaled monic.  Equality is decided by
    cross multiplication, so partial cancellation never affects answers.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = as_poly(num)
        den = _ONE if den is None else as_poly(den)
        if den.is_zero():
            raise DivisionByZero("fraction with zero denominator")
        if num.is_zero():
            self.num = _ZERO
            self.den = _ONE
            return
        g = _mono_gcd(num.monomial_content(), den.monomial_content())
        if g:
            num = Poly({_mono_div(m, g): c for m, c in num.terms.items()})
            den = Poly({_mono_div(m, g): c for m, c in den.terms.items()})
        if den.is_constant():
            self.num = num * (1 / den.constant_value())
            self.den = _ONE
            return
        try:
            self.num = exact_div(num, den)
            self.den = _ONE
            return
        except NotDivisible:
            pass
        try:
            q = exact_div(den, num)
        except NotDivisible:
            self.num = num
            self.den = den
        else:
            self.num = _ONE
            self.den = q
        lc = self.den.leading()[1]
        if lc != 1:
            self.num = self.num * (1 / lc)
            self.den = self.den * (1 / lc)

    @classmethod
    def of(cls, x):
        if isinstance(x, Frac):
            return x
        return cls(as_poly(x))

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        other = Frac.of(other)
        if self.den == other.den:
            return Frac(self.num + other.num, self.den)
        return Frac(self.num * other.den + other.num * self.den,
                    self.den * other.den)

    def __radd__(self, other):
        # other first: the terms of a sum come in the order of its operands
        return Frac.of(other) + self

    def __neg__(self):
        out = Frac.__new__(Frac)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other):
        return self + (-Frac.of(other))

    def __rsub__(self, other):
        return Frac.of(other) + (-self)

    def __mul__(self, other):
        other = Frac.of(other)
        return Frac(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Frac.of(other)
        if other.is_zero():
            raise DivisionByZero("division by zero fraction")
        return Frac(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return Frac.of(other) / self

    def __eq__(self, other):
        if not isinstance(other, (Frac, Poly, Sym, int, Fraction)):
            return NotImplemented
        other = Frac.of(other)
        return self.num * other.den == other.num * self.den

    def derive(self):
        return Frac(self.num.derive() * self.den - self.num * self.den.derive(),
                    self.den * self.den)

    def __repr__(self):
        if self.den == _ONE:
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def _int_rows(rows):
    """Rows of rationals as rows of ints, each row scaled by the lcm of its
    denominators, and the product of those scales."""
    out = []
    scale = 1
    for row in rows:
        d = math.lcm(*(x.denominator for x in row))
        out.append([x.numerator * (d // x.denominator) for x in row])
        scale *= d
    return out, scale


def _bareiss(rows, free=None):
    """Fraction-free elimination of a matrix of ints, after Bareiss (1968):
    (pivot columns, row order, sign).

    Columns are scanned left to right; each takes as pivot its first
    nonzero entry among the rows not used yet, and a column without one
    is skipped.  So the pivots count the rank, and the first rows of
    ``order`` (indices of the input rows) on the pivot columns hold a
    nonsingular minor.  ``free`` is one more column, one int term dict
    per row, eliminated with the rows; on return each row's dict is the
    one the eager elimination below leaves, its keys in the order that
    ``Poly`` arithmetic merges the same column.  ``rows`` is overwritten
    as scratch.

    Eagerly, step k, with pivot d_k (d_0 = 1), replaces every later row x
    by (d_k x - a y) / d_(k-1), with y the pivot row and a the entry of x
    in the pivot column.  Every entry that produces is a minor of the
    input, so every division is exact.  Here a step updates only the
    entries right of its pivot column, since the rest are never read
    again, and skips a row whose entry a is 0.  Such a step would only
    have scaled the row by d_k / d_(k-1), and those factors telescope:
    a row last updated at step t holds the eager row of step k - 1 times
    d_t / d_(k-1).  So step k replaces that row by (d_k x - a y) / d_t,
    which is the eager row of step k, minors again, so the division is
    exact.  The row taken as pivot at step k is multiplied by d_(k-1)
    and divided by d_t, and after the last step K the free dict of a row
    is multiplied by d_K and divided by d_t: each quotient is an eager
    row, so each division is exact as well.
    """
    n = len(rows)
    order = list(range(n))
    cols = []
    sign = 1
    pivots = [1]     # d_0, d_1, ...: pivots[k] is the divisor of step k + 1
    done = [0] * n   # done[i] = t: row i was last updated at step t

    def caught_up(i, terms):
        t, k = done[i], len(cols)
        if t == k:
            return terms
        return [x * pivots[k] // pivots[t] for x in terms]

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
        p = order[k]
        pivot, *top = caught_up(p, rows[p][c:])
        if free is not None:
            ftop = free[p] = dict(zip(free[p], caught_up(p, free[p].values())))
        for i in order[k + 1:]:
            row = rows[i]
            a = row[c]
            if not a:
                continue
            d = pivots[done[i]]
            row[c + 1:] = [(pivot * x - a * y) // d
                           for x, y in zip(row[c + 1:], top)]
            done[i] = k + 1
            if free is not None:
                f = free[i]
                out = {}
                for m, v in f.items():
                    y = ftop.get(m)
                    if y is None:
                        out[m] = pivot * v // d
                    elif v := pivot * v - a * y:
                        out[m] = v // d
                for m, y in ftop.items():
                    if m not in f:
                        out[m] = -a * y // d
                free[i] = out
        pivots.append(pivot)
        cols.append(c)
    if free is not None:
        for i in order[len(cols):]:
            free[i] = dict(zip(free[i], caught_up(i, free[i].values())))
    return cols, order, sign


def _bareiss_frame(m, s):
    """The determinant of a frame [H | f] whose H holds no symbol but ``s``
    (None for a numeric H) and whose f does not hold s, and the rank of H
    over Q(s), by one run of ``_bareiss``.

    Each row of H, with its coefficients in s, and the coefficients of its
    f are cleared of denominators together, and f is carried as ``free``.
    By Kronecker substitution s becomes 2^b, with 2^(b-1) above the
    product over the rows of their sums of absolute coefficients: that
    product bounds every coefficient of every minor, so no nonzero minor
    of H vanishes at 2^b (Cauchy's root bound), the pivots count the rank
    over Q(s), and the balanced base-2^b digits of each coefficient of the
    result are its coefficients in s, lowest first.
    """
    n = len(m)
    ints, scale = _int_rows([[c for e in row for c in e.terms.values()]
                             for row in m])
    b = 0
    if s is not None:
        b = math.prod(max(1, sum(map(abs, r))) for r in ints).bit_length() + 1
    rows, free = [], []
    for row, r in zip(m, ints):
        r = iter(r)
        rows.append([sum(next(r) << b * (mono[0][1] if mono else 0)
                         for mono in e.terms) for e in row[:-1]])
        free.append(dict(zip(row[-1].terms, r)))
    cols, order, sign = _bareiss(rows, free)
    if len(cols) < n - 1:
        return _ZERO, len(cols)
    if s is None:
        return _poly({mono: Fraction(sign * c, scale)
                      for mono, c in free[order[-1]].items()}), n - 1
    out = {}
    for mono, c in free[order[-1]].items():
        c *= sign
        k = 0
        while c:
            digit = c & (1 << b) - 1
            if digit >> b - 1:
                digit -= 1 << b
            if digit:
                out[_mono_mul(mono, ((s, k),) if k else ())] = Fraction(
                    digit, scale)
            c = (c - digit) >> b
            k += 1
    return _poly(out), n - 1


def _laplace(m, ring):
    """Laplace expansion along the columns, left to right, by levels after
    Gentleman and Johnson (1976): the determinant of ``m`` as a packed term
    dict of ``ring``, which must hold n times the largest exponent of an
    entry; every term of a minor of side k takes one entry from each of k
    rows, so no exponent exceeds that bound.

    The minor left after the first c columns is keyed by the bitmask of
    the rows still unused.  One pass lists the masks of each level, top
    down; a second forms their minors bottom up, dropping each level once
    the one above it is formed, so at most two levels are held.  Expanding
    a minor along its first column at row r takes the sign of the parity
    of the unused rows above r.  A minor sums its products in row order
    whenever it is formed, so its terms keep the order of the recursive
    expansion.
    """
    n = len(m)
    packed = [[ring.pack(e.terms) for e in row] for row in m]
    columns = [[(1 << r, e, {k: -v for k, v in e.items()})
                for r in range(n) if (e := packed[r][c])]
               for c in range(n)]
    levels = [{(1 << n) - 1}]
    for column in columns[:-1]:
        levels.append({unused ^ bit for unused in levels[-1]
                       for bit, _, _ in column if unused & bit})
    below = {unused: packed[unused.bit_length() - 1][n - 1]
             for unused in levels.pop()}
    for column in reversed(columns[:-1]):
        level = {}
        for unused in levels.pop():
            det = level[unused] = {}
            for bit, e, neg in column:
                if unused & bit and (sub := below[unused ^ bit]):
                    odd = (unused & (bit - 1)).bit_count() & 1
                    _add_product(det, neg if odd else e, sub)
        below = level
    return below[(1 << n) - 1]


def _det_laplace(m, images=None):
    """The Laplace route of ``_det_with_image``: the determinant of ``m``
    and the packed terms of its image under ``substitute(images)`` (None
    when ``images`` is None), from one ring that serves the expansion and
    the substitution; the determinant is unpacked once.

    A term of the expansion keeps at most n times the largest exponent E
    of an entry on any symbol, and it takes one entry from each column, so
    the sum of its exponents on replaced symbols is at most the sum, over
    the columns, of the largest such sum in an entry of the column.  The
    ring holds n E plus that many times the largest exponent of an image.
    """
    entries = [e for row in m for e in row]
    symbols = set().union(*(e.symbols() for e in entries))
    derived = _derived_images(images or {}, symbols)
    for img in derived.values():
        symbols |= img.symbols()

    def replaced(e):
        return max((sum(x for s, x in mono if s in derived)
                    for mono in e.terms), default=0)

    spread = sum(max(map(replaced, column)) for column in zip(*m))
    entry_top = max(_max_exponent(e.terms) for e in entries)
    image_top = max((_max_exponent(img.terms) for img in derived.values()),
                    default=0)
    ring = _Ring(symbols, len(m) * entry_top + spread * image_top)
    det = _laplace(m, ring)
    image = None if images is None else _psubstitute(det, ring, {
        s: ring.pack(img.terms) for s, img in derived.items()})
    return ring.unpack(det), image


def _square(m):
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise NonSquare(f"matrix is not square: {n} rows")
    return [[as_poly(e) for e in row] for row in m]


def _route(m):
    """The route rule of ``_det_with_image``: (True, s) when H holds no
    symbol but s (None for a numeric H) and the free column does not hold
    s, for ``_bareiss_frame``; (False, None) for ``_det_laplace``."""
    s = None
    for row in m:
        for e in row[:-1]:
            for mono in e.terms:
                if mono:
                    if len(mono) > 1 or s is not None and mono[0][0] is not s:
                        return False, None
                    s = mono[0][0]
    if s is not None and any(t is s for row in m for mono in row[-1].terms
                             for t, _ in mono):
        return False, None
    return True, s


def _det_with_image(m, images=None):
    """The determinant router, the one place that picks a route: the exact
    determinant of the square matrix ``m``, the packed terms of its image
    under ``substitute(images)``, which are empty exactly when the image
    is 0 (None when ``images`` is None), and the rank of H over the
    fraction field when the route is Bareiss's (None on the Laplace route).

    The frames built here have the form [H | f], with the derived free
    terms in the last column.  When H holds at most one symbol s and f
    does not hold s, ``_bareiss_frame`` runs the integer elimination on H
    with its denominators cleared and s replaced by a power of two large
    enough to read the coefficients in s off the digits of the result,
    carrying the last column as one linear form per row; the image is
    then one packed substitution of the result.  The perturbed frame of a
    numeric system, whose H holds only the perturbation variable, takes
    this route.  Otherwise ``_det_laplace`` expands along the columns,
    level by level, in one ring that also holds the image.
    Both routes are exact and agree.
    """
    m = _square(m)
    bareiss, s = _route(m)
    if not bareiss:
        return (*_det_laplace(m, images), None)
    det, pivots = _bareiss_frame(m, s)
    image = None if images is None else _substitution(det, images)[1]
    return det, image, pivots


def determinant(m):
    """Exact determinant of a square matrix of polynomials: the first
    value of ``_det_with_image``, which picks the route."""
    return _det_with_image(m)[0]


# ---------------------------------------------------------------------------
# rank over the fraction field
# ---------------------------------------------------------------------------


def _bareiss_at(m, point):
    """``_bareiss`` on the matrix of polynomials ``m`` evaluated at
    ``point`` (Sym -> rational), each row cleared of denominators:
    (pivot columns, row order)."""
    rows, _ = _int_rows([[e.evaluate(point) for e in row] for row in m])
    cols, order, _ = _bareiss(rows)
    return cols, order


def rank(m):
    """Rank over the fraction field of a matrix of polynomials (or scalars
    and symbols; a ``Frac`` entry raises TypeError).

    ``_bareiss_at`` eliminates the matrix at one fixed point of seeded
    integers.  Its r pivots mark an r x r minor that is nonzero at the
    point, so the rank is at least r (Schwartz 1980).  While the matrix
    holds symbols, the (r+1)-minors bordering that minor are taken by
    ``determinant``: a nonzero one grows r by one, and when all vanish the
    rank is exactly r.
    """
    m = [[as_poly(e) for e in row] for row in m]
    symbols = sorted(set().union(*(e.symbols() for row in m for e in row)))
    rng = random.Random(0)
    cols, order = _bareiss_at(m, {s: rng.randrange(1, 1 << 16)
                                  for s in symbols})
    rows = order[:len(cols)]
    while symbols:
        bordering = ((i, j) for i in range(len(m)) if i not in rows
                     for j in range(len(m[0])) if j not in cols)
        for i, j in bordering:
            minor = [[m[r][c] for c in cols + [j]] for r in rows + [i]]
            if not determinant(minor).is_zero():
                rows.append(i)
                cols.append(j)
                break
        else:
            break
    return len(cols)
