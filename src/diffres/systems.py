"""Linear differential polynomials and systems.

A system holds n polynomials, each of the shape

    f_i = a_i + sum_j L_{i,j}(u_j)

where a_i is a polynomial in the coefficient symbols and every L_{i,j} is a
finite sum of coefficient polynomials times powers of the derivation acting
on the parameter u_j.  The standing assumptions are:

  P1  every polynomial really involves some parameter (order >= 0),
  P2  the polynomials are pairwise distinct,
  P3  not all free terms vanish,
  P4  the number of parameters that occur is n - 1.

Construction never enforces P1-P4; ``validate`` reports them, so subsystems
and degenerate inputs stay representable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .algebra import Poly, as_poly, sym
from .errors import AssumptionViolated, InputError


def param_sym(j, k=0):
    """The k-th derivative symbol of parameter u_j."""
    return sym(f"u{j}", k)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


class DiffOperator:
    """sum_k c_k * D^k with polynomial coefficients, applied to one parameter."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = {k: p for k, c in coeffs.items()
                       if not (p := as_poly(c)).is_zero()}
        if any(k < 0 for k in self.coeffs):
            raise ValueError("negative derivative order in operator")

    def is_zero(self):
        return not self.coeffs

    def support(self):
        return sorted(self.coeffs)

    def deg(self):
        if not self.coeffs:
            raise ValueError("zero operator has no degree")
        return max(self.coeffs)

    def ldeg(self):
        if not self.coeffs:
            raise ValueError("zero operator has no trailing degree")
        return min(self.coeffs)

    def coefficient(self, k):
        return self.coeffs.get(k, Poly.zero())

    def derive(self):
        """D composed with the operator: c_k -> c_k' at k plus c_k at k+1."""
        out = {}
        for k, c in self.coeffs.items():
            dc = c.derive()
            if not dc.is_zero():
                out[k] = out.get(k, Poly.zero()) + dc
            out[k + 1] = out.get(k + 1, Poly.zero()) + c
        return DiffOperator(out)

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, Poly.zero()) + c
        return DiffOperator(out)

    def __neg__(self):
        return DiffOperator({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, q):
        return DiffOperator({k: c * q for k, c in self.coeffs.items()})

    def apply(self, j):
        """Expand the operator applied to u_j into a polynomial."""
        return Poly.sum(c * Poly.var(param_sym(j, k))
                        for k, c in self.coeffs.items())

    def __eq__(self, other):
        return isinstance(other, DiffOperator) and self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs, reverse=True):
            c = self.coeffs[k]
            head = "" if k == 0 else ("D" if k == 1 else f"D^{k}")
            parts.append(f"({c!r}){head}" if head else f"({c!r})")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# linear differential polynomials
# ---------------------------------------------------------------------------


class LinearDiffPoly:
    """free term plus one operator per parameter it involves."""

    __slots__ = ("free", "ops")

    def __init__(self, free, ops=None):
        self.free = as_poly(free)
        clean = {}
        for j, op in (ops or {}).items():
            if not isinstance(op, DiffOperator):
                op = DiffOperator(op)
            if not op.is_zero():
                clean[j] = op
        self.ops = clean

    def order(self):
        """Largest derivative order of any parameter; -1 with no parameters."""
        if not self.ops:
            return -1
        return max(op.deg() for op in self.ops.values())

    def derive(self):
        return LinearDiffPoly(self.free.derive(),
                              {j: op.derive() for j, op in self.ops.items()})

    def to_poly(self):
        return self.free + self.param_part()

    def param_part(self):
        """to_poly() without the free term."""
        return Poly.sum(op.apply(j) for j, op in self.ops.items())

    def __eq__(self, other):
        return (isinstance(other, LinearDiffPoly)
                and self.free == other.free and self.ops == other.ops)

    def __repr__(self):
        return repr(self.to_poly())


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------


class LinearSystem:
    """An ordered tuple of linear differential polynomials over u_1..u_m.

    The parameters occur only through the operators: a coefficient or free
    term that names one of u_1..u_m is an InputError, as in a system file.
    """

    __slots__ = ("polys", "params")

    def __init__(self, polys, params):
        polys = tuple(polys)
        if len(polys) < 2:
            raise ValueError("a system needs at least two polynomials")
        if params < 1:
            raise ValueError("a system needs at least one parameter slot")
        names = {param_sym(j).name for j in range(1, params + 1)}
        for f in polys:
            for j in f.ops:
                if not 1 <= j <= params:
                    raise ValueError(f"operator index {j} outside 1..{params}")
            for c in chain((f.free,), *(op.coeffs.values()
                                        for op in f.ops.values())):
                for mono in c.terms:
                    for s, _ in mono:
                        if s.name in names:
                            raise InputError(f"parameter symbol {s!r} inside "
                                             f"a coefficient or free term")
        self.polys = polys
        self.params = params

    @property
    def n(self):
        return len(self.polys)

    def active_params(self):
        seen = set()
        for f in self.polys:
            seen.update(f.ops)
        return sorted(seen)

    def orders(self):
        return tuple(f.order() for f in self.polys)

    def __eq__(self, other):
        return (isinstance(other, LinearSystem)
                and self.polys == other.polys and self.params == other.params)

    def __repr__(self):
        body = ", ".join(repr(f) for f in self.polys)
        return f"LinearSystem([{body}], params={self.params})"


def nu(system):
    """Number of parameters that actually occur."""
    return len(system.active_params())


@dataclass
class ValidationReport:
    p1_failures: tuple     # indices (1-based) of polynomials with no parameter
    p2_failures: tuple     # pairs (i, k) of equal polynomials
    p3_ok: bool
    p4_ok: bool
    nu: int
    n: int

    @property
    def ok(self):
        return (not self.p1_failures and not self.p2_failures
                and self.p3_ok and self.p4_ok)


def validate(system):
    """Check the standing assumptions P1-P4 and report every failure."""
    p1 = tuple(i + 1 for i, f in enumerate(system.polys) if not f.ops)
    p2 = []
    for i in range(system.n):
        for k in range(i + 1, system.n):
            if system.polys[i] == system.polys[k]:
                p2.append((i + 1, k + 1))
    p3 = any(not f.free.is_zero() for f in system.polys)
    count = nu(system)
    return ValidationReport(p1, tuple(p2), p3, count == system.n - 1,
                            count, system.n)


# ---------------------------------------------------------------------------
# the order profile (the gamma data of a system)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderProfile:
    """Derivative-order statistics of a system, keyed by the labels of
    its active parameters.

    low[j]   least derivative order of u_j occurring anywhere,
    high[j]  least gap between a polynomial's order and its top degree in u_j,
    span[j]  low[j] + high[j],
    total    sum of span[j] over the parameters,
    order_sum  sum of the polynomial orders,
    orders   the polynomial orders.
    """

    low: dict
    high: dict
    span: dict
    total: int
    order_sum: int
    orders: tuple

    def column_interval(self, j):
        """Derivative orders of u_j indexing determinant columns."""
        return (self.low[j], self.order_sum - self.high[j] - self.total)

    def row_bound(self, i):
        """Number of times polynomial i (0-based) may be derived."""
        return self.order_sum - self.orders[i] - self.total


def order_profile(system):
    """Compute the profile over the active parameters; every polynomial
    must involve one."""
    orders = system.orders()
    for i, f in enumerate(system.polys):
        if not f.ops:
            raise AssumptionViolated(
                f"polynomial {i + 1} involves no parameter")
    low = {}
    high = {}
    for j in system.active_params():
        rows = [(i, f.ops[j]) for i, f in enumerate(system.polys) if j in f.ops]
        low[j] = min(op.ldeg() for _, op in rows)
        high[j] = min(orders[i] - op.deg() for i, op in rows)
    span = {j: low[j] + high[j] for j in low}
    return OrderProfile(low=low, high=high, span=span,
                        total=sum(span.values()),
                        order_sum=sum(orders),
                        orders=orders)


# ---------------------------------------------------------------------------
# specialization
# ---------------------------------------------------------------------------


def specialize(system, assignment):
    """Substitute coefficient symbols throughout the system.

    Keys are base symbol names; a derivative of an assigned symbol is
    replaced by the corresponding derivative of the image.  Operators whose
    coefficients all vanish are dropped.
    """
    images = {name: as_poly(v) for name, v in assignment.items()}
    new_polys = []
    for f in system.polys:
        free = f.free.substitute(images)
        ops = {}
        for j, op in f.ops.items():
            coeffs = {k: c.substitute(images) for k, c in op.coeffs.items()}
            op2 = DiffOperator(coeffs)
            if not op2.is_zero():
                ops[j] = op2
        new_polys.append(LinearDiffPoly(free, ops))
    return LinearSystem(new_polys, system.params)


# ---------------------------------------------------------------------------
# convenience builders (used heavily by tests and the parser)
# ---------------------------------------------------------------------------


def linear_poly(free, ops):
    """Build a LinearDiffPoly from {param: {order: coeff}} with coercion."""
    return LinearDiffPoly(as_poly(free),
                          {j: DiffOperator({k: as_poly(c)
                                            for k, c in spec.items()})
                           for j, spec in ops.items()})


def constant(q):
    return Poly.const(Fraction(q))
