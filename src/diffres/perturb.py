"""Perturbations that rescue a vanishing elimination determinant.

A square determinant formula can vanish even for a well-posed system.  The
cure implemented here: shift every polynomial by a small multiple of one or
two parameter derivatives, chosen along a matching of the presence pattern,
so that the perturbed determinant is provably nonzero.  The lowest
coefficient of the perturbation variable then still belongs to the ideal of
the original system, and dividing its operator decomposition by the common
left factor recovers a normalized eliminant.

The module covers the whole pipeline: building the standard perturbation,
applying arbitrary ones, extracting the lowest coefficient, operator
decomposition and left gcd arithmetic, normalization, an ideal membership
check, and a one-call `eliminate` driver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (Frac, Poly, _det_with_image, _mono_gcd, _substitution,
                      as_poly, const_sym, exact_div, sym)
from .errors import (
    AssumptionViolated,
    DivisionByZero,
    EmptyInput,
    NotDefinable,
    NotDivisible,
    NotDPPEShaped,
    NotLinear,
    NotSuperEssential,
    PerturbationOutside,
    SymbolClash,
    ZeroInput,
)
from .formulas import assemble, co_order, spec_fres
from .structure import (
    PatternMatrix,
    is_super_essential,
    pattern_matrix,
    restrict,
    row_deleted_matching,
    super_essential_subsystem,
)
from .systems import (
    DiffOperator,
    LinearDiffPoly,
    LinearSystem,
    order_profile,
    validate,
)


# ---------------------------------------------------------------------------
# perturbations
# ---------------------------------------------------------------------------

P_NAME = "p"  # the perturbation variable, a constant symbol


@dataclass(frozen=True)
class Perturbation:
    """One homogeneous linear shift per polynomial of a system.

    ``terms[i]`` is what gets subtracted (times the perturbation variable)
    from the i-th polynomial.  ``matching`` records, when the terms come
    from a matching of the presence pattern, which column each row used:
    sorted pairs (row, j), where row is the 1-based position that indexes
    ``terms`` (``terms[row - 1]`` involves u_j) and j the parameter label.
    In the report of ``eliminate`` the perturbation is the subsystem's, so
    a row counts the members (row r is equation ``members[r - 1]`` of the
    full system) while j keeps its label in the full system.
    """

    terms: tuple
    matching: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            if not isinstance(t, LinearDiffPoly):
                raise TypeError("perturbation terms must be LinearDiffPoly")
            if not t.free.is_zero():
                raise NotLinear("perturbation terms must be homogeneous "
                                "in the parameters")
            for op in t.ops.values():
                for c in op.coeffs.values():
                    if not c.is_constant():
                        raise NotLinear("perturbation coefficients must be "
                                        "rational constants")

    @classmethod
    def zero(cls, n):
        return cls(tuple(LinearDiffPoly(Poly.zero(), {}) for _ in range(n)))

    def is_zero(self):
        return all(not t.ops for t in self.terms)

    @property
    def n(self):
        return len(self.terms)


def _chain_terms(orders_seq, mu, profile):
    """The standard shift along a matching, rows taken in the given order.

    Row 1 gets the top admissible derivative of its matched parameter, the
    last row gets the bottom admissible derivative of the previous row's
    parameter, and every row in between gets both.
    """
    n = len(orders_seq)
    terms = []
    for pos in range(1, n + 1):
        ops = {}
        if pos < n:
            j = mu[pos]
            ops.setdefault(j, {})
            k = orders_seq[pos - 1] - profile.high[j]
            ops[j][k] = ops[j].get(k, 0) + 1
        if pos > 1:
            j = mu[pos - 1]
            ops.setdefault(j, {})
            k = profile.low[j]
            ops[j][k] = ops[j].get(k, 0) + 1
        terms.append(LinearDiffPoly(Poly.zero(), ops))
    return terms


def _chain_fits(mu, orders_seq, profile):
    return all(profile.span[mu[pos - 1]] <= orders_seq[pos - 1]
               for pos in range(2, len(orders_seq) + 1))


def default_perturbation(system):
    """The standard perturbation of a super essential system.

    Uses the lexicographically greatest matching that avoids the last row.
    Every shifted derivative stays inside the admissible window of its
    column, so the perturbed system keeps the original frame.  When the
    rows are ordered so badly that some shift would overflow a window, the
    chain is built along the rows sorted by ascending order instead.
    """
    if not is_super_essential(system):
        raise NotSuperEssential(
            "the standard perturbation needs a super essential system")
    profile = order_profile(system)
    n = system.n
    orders = profile.orders
    pattern = pattern_matrix(system)
    mu = row_deleted_matching(pattern, n, prefer="greatest")
    if _chain_fits(mu, orders, profile):
        return Perturbation(tuple(_chain_terms(orders, mu, profile)),
                            matching=tuple(sorted(mu.items())))
    perm = sorted(range(1, n + 1), key=lambda i: (orders[i - 1], i))
    reordered = PatternMatrix(tuple(pattern.rows[i - 1] for i in perm),
                              pattern.columns)
    mu2 = row_deleted_matching(reordered, n, prefer="greatest")
    orders2 = tuple(orders[i - 1] for i in perm)
    terms2 = _chain_terms(orders2, mu2, profile)
    placed = [None] * n
    for pos, i in enumerate(perm):
        placed[i - 1] = terms2[pos]
    pairs = tuple(sorted((perm[pos - 1], j) for pos, j in mu2.items()))
    return Perturbation(tuple(placed), matching=pairs)


def perturb_system(system, pert):
    """Subtract p times each perturbation term from the polynomials."""
    if pert.n != system.n:
        raise ValueError(
            f"perturbation has {pert.n} terms for {system.n} polynomials")
    used = set()
    for f in system.polys:
        used.update(s.name for s in f.free.symbols())
        for op in f.ops.values():
            for c in op.coeffs.values():
                used.update(s.name for s in c.symbols())
    if P_NAME in used:
        raise SymbolClash(f"symbol {P_NAME!r} already appears in the system")
    p = Poly.var(const_sym(P_NAME))
    polys = []
    for f, t in zip(system.polys, pert.terms):
        ops = dict(f.ops)
        for j, op in t.ops.items():
            shift = op.scale(-p)
            ops[j] = ops[j] + shift if j in ops else shift
        polys.append(LinearDiffPoly(f.free, ops))
    return LinearSystem(polys, system.params)


def perturbed_matrix(system, pert, spec=None):
    """The square matrix of the perturbed system on the original frame."""
    if not is_super_essential(system):
        raise NotSuperEssential(
            "perturbed determinants need a super essential system")
    if spec is None:
        spec = spec_fres(system)
    return assemble(perturb_system(system, pert), spec)


# ---------------------------------------------------------------------------
# the perturbation variable
# ---------------------------------------------------------------------------


def lowest_p_coefficient(f):
    """(d, A) with f = A * p^d + higher powers of p, A free of p."""
    f = as_poly(f)
    if f.is_zero():
        raise ZeroInput("the zero polynomial has no lowest coefficient")
    lowest = None
    split = []
    for mono, c in f.terms.items():
        e = 0
        rest = []
        for s, k in mono:
            if s.name == P_NAME and s.order == 0:
                e = k
            else:
                rest.append((s, k))
        split.append((e, tuple(rest), c))
        lowest = e if lowest is None else min(lowest, e)
    # distinct monomials of f stay distinct once the lowest power is removed
    return lowest, Poly({rest: c for e, rest, c in split if e == lowest})


# ---------------------------------------------------------------------------
# operator decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorDecomposition:
    """A linear combination split as one operator per designated symbol."""

    operators: dict


def decompose_linear(B, names):
    """Split B as a sum of operators applied to the named symbols.

    Every term of B must contain exactly one derivative of exactly one of
    the names, with exponent one; whatever multiplies it goes into the
    operator coefficient.
    """
    B = as_poly(B)
    names = tuple(names)
    wanted = set(names)
    table = {name: {} for name in names}
    for mono, coeff in B.terms.items():
        hits = [(s, e) for s, e in mono if s.name in wanted]
        if not hits:
            raise NotLinear("a term is free of the designated symbols")
        if len(hits) > 1 or hits[0][1] != 1:
            raise NotLinear("a term has degree two in the designated symbols")
        s = hits[0][0]
        rest = tuple(p for p in mono if p[0].name not in wanted)
        # one bucket per derivative of one name: the rests are distinct
        table[s.name].setdefault(s.order, {})[rest] = coeff
    return OperatorDecomposition(
        {name: DiffOperator({k: Poly(t) for k, t in table[name].items()})
         for name in names})


# ---------------------------------------------------------------------------
# left division and left gcd
# ---------------------------------------------------------------------------
#
# Operators are handled as dense coefficient lists, index = derivative
# order.  A constant coefficient is held as its Fraction value and any other
# coefficient as a Frac, so an operator with constant coefficients is
# reduced over plain rationals and a Frac appears only where a coefficient
# holds a symbol; mixed lists work because Frac takes a Fraction on either
# side.  Composition with the derivation D obeys D * a = a * D + a', so
# dividing from the left needs Leibniz corrections, and these vanish on
# constant coefficients.


def _coeff(c):
    """A coefficient under the rule above: Fraction if constant, else Frac."""
    if isinstance(c, Frac):
        if c.num.is_constant() and c.den.is_constant():
            return c.num.constant_value() / c.den.constant_value()
        return c
    c = as_poly(c)
    return Fraction(c.constant_value()) if c.is_constant() else Frac(c)


def _is_zero(c):
    return c.is_zero() if isinstance(c, Frac) else not c


def _derive(c):
    return c.derive() if isinstance(c, Frac) else Fraction(0)


def _dense(op):
    """The dense coefficient list of an operator, under the rule above."""
    if isinstance(op, FractionOperator):
        items = dict(enumerate(op.coeffs))
    elif isinstance(op, DiffOperator):
        items = op.coeffs
    elif isinstance(op, dict):
        items = op
    else:
        raise TypeError(f"cannot view {type(op).__name__} as an operator")
    dense = [Fraction(0)] * (max(items) + 1 if items else 0)
    for k, c in items.items():
        dense[k] = _coeff(c)
    return _trim(dense)


@dataclass(frozen=True)
class FractionOperator:
    """Dense operator with every coefficient a Frac, constants included:
    the form in which ``gcld`` returns its answer.  The routines below
    work on lists under the coefficient rule and convert at that border."""

    coeffs: tuple

    @classmethod
    def of(cls, op):
        if isinstance(op, FractionOperator):
            return op
        return cls(tuple(Frac.of(c) for c in _dense(op)))

    def is_zero(self):
        return not self.coeffs

    def deg(self):
        if not self.coeffs:
            raise ValueError("zero operator has no degree")
        return len(self.coeffs) - 1

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c.is_zero():
                continue
            head = "" if k == 0 else ("D" if k == 1 else f"D^{k}")
            parts.append(f"({c!r}){head}" if head else f"({c!r})")
        return " + ".join(parts)


def _trim(a):
    while a and _is_zero(a[-1]):
        a.pop()
    return a


def _sub_lists(a, b):
    out = list(a) + [Fraction(0)] * (len(b) - len(a))
    for k, c in enumerate(b):
        out[k] = out[k] - c
    return out


def _compose_term(b, q, k):
    """Coefficients of B composed with (q * D^k).

    By Leibniz, b_j D^j q = sum over l of C(j, l) b_j q^(l) D^(j-l).  The
    derivatives q, q', ... are formed once, up to the first that vanishes,
    so a constant q keeps only l = 0.
    """
    derived = [] if _is_zero(q) else [q]
    while 0 < len(derived) < len(b):
        d = _derive(derived[-1])
        if _is_zero(d):
            break
        derived.append(d)
    out = [Fraction(0)] * (len(b) + k)
    for j, bj in enumerate(b):
        if _is_zero(bj):
            continue
        for l, d in enumerate(derived[:j + 1]):
            out[j - l + k] = out[j - l + k] + bj * d * math.comb(j, l)
    return out


def _divmod_left(a, b):
    """q, r with a = b composed with q, plus r of smaller degree than b."""
    b = _trim(list(b))
    if not b:
        raise DivisionByZero("left division by the zero operator")
    r = _trim(list(a))
    d = len(b) - 1
    lead = b[-1]
    q = [Fraction(0)] * max(len(r) - d, 0)
    while r and len(r) - 1 >= d:
        m = len(r) - 1
        c = r[m] / lead
        q[m - d] = q[m - d] + c
        r = _trim(_sub_lists(r, _compose_term(b, c, m - d)))
    return q, r


def _gcld_pair(a, b):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        _, r = _divmod_left(a, b)
        a, b = b, r
    return a


def _monic(g):
    lead = g[-1]
    if lead == 1:
        return g
    return _trim(_compose_term(g, 1 / lead, 0))


def _left_gcd(ops):
    """A greatest common left divisor of dense operators, as the remainder
    sequence leaves it (not monic); ZeroInput if every operator is zero."""
    g = []
    for a in ops:
        if not a:
            continue
        g = a if not g else _gcld_pair(g, a)
        if len(g) == 1:
            break
    if not g:
        raise ZeroInput("every operator is zero")
    return g


def gcld(ops):
    """Greatest common left divisor, normalized to leading coefficient one.

    Left divisors survive composition with a unit on the right, so the
    Euclidean scheme runs on left remainders and the result is made monic
    by composing with the inverse of its leading coefficient.
    """
    ops = [_dense(op) for op in ops]
    if not ops:
        raise EmptyInput("no operators to combine")
    return FractionOperator(tuple(Frac.of(c)
                                  for c in _monic(_left_gcd(ops))))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def _normalize_linear(A, names):
    """Rational content one and a positive most-significant coefficient.

    Significance orders the names first (earlier in ``names`` is bigger)
    and the derivative order within a name second.
    """
    if A.is_zero():
        raise ZeroInput("cannot normalize the zero combination")
    content = A.rational_content()
    A = A * (1 / content)
    rank = {name: i for i, name in enumerate(names)}
    best = None
    for mono, c in A.terms.items():
        for s, e in mono:
            r = rank.get(s.name)
            if r is None:
                continue
            key = (-r, s.order, mono)
            if best is None or key > best[0]:
                best = (key, c)
    if best is not None and best[1] < 0:
        A = -A
    return A


def id_primitive_part(B, names):
    """Divide out the common left factor and renormalize.

    The operators of the decomposition of B are divided on the left by
    their gcd, the quotients are re-applied to the names, denominators are
    cleared and the result is content-normalized.
    """
    B = as_poly(B)
    if B.is_zero():
        raise ZeroInput("the zero combination has no primitive part")
    dec = decompose_linear(B, names)
    present = [(name, _dense(op))
               for name, op in dec.operators.items() if not op.is_zero()]
    # Any common left divisor serves, so it is not made monic: composing
    # with 1/lead differentiates that fraction up to deg g times, and with
    # a symbolic lead each derivative squares its denominator.
    g = _left_gcd([a for _, a in present])
    pending = []
    common = as_poly(1)
    for name, a in present:
        q, r = _divmod_left(a, g)
        if _trim(list(r)):
            raise NotDivisible("the common left factor fails to divide "
                               f"the operator of {name}")
        for k, c in enumerate(q):
            if _is_zero(c):
                continue
            num, den = ((c.num, c.den) if isinstance(c, Frac)
                        else (Poly.const(c), Poly.one()))
            pending.append((name, k, num, den))
            try:
                exact_div(common, den)
            except NotDivisible:
                common = common * den
    out = Poly.sum(num * exact_div(common, den) * Poly.var(sym(name, k))
                   for name, k, num, den in pending)
    return _normalize_linear(out, names)


def extract_resultant(det, names):
    """Strip coefficient-field content from a determinant, then normalize.

    A common monomial factor of the operator coefficients is divided out
    exactly; after that the smallest remaining coefficient is tried as a
    full common factor until nothing divides any more.
    """
    det = as_poly(det)
    if det.is_zero():
        raise ZeroInput("the zero determinant carries no information")
    dec = decompose_linear(det, names)
    coeffs = {}
    for name, op in dec.operators.items():
        for k, c in op.coeffs.items():
            coeffs[(name, k)] = c
    polys = list(coeffs.values())
    mono = polys[0].monomial_content()
    for c in polys[1:]:
        if not mono:
            break
        mono = _mono_gcd(mono, c.monomial_content())
    if mono:
        divisor = Poly({mono: Fraction(1)})
        coeffs = {key: exact_div(c, divisor) for key, c in coeffs.items()}
    while True:
        cand = None
        for c in coeffs.values():
            if c.is_constant():
                continue
            size = (c.total_degree(), len(c.terms))
            if cand is None or size < cand[0]:
                cand = (size, c)
        if cand is None:
            break
        probe = cand[1] * (1 / cand[1].rational_content())
        try:
            divided = {key: exact_div(c, probe) for key, c in coeffs.items()}
        except NotDivisible:
            break
        coeffs = divided
    out = Poly.sum(c * Poly.var(sym(name, k))
                   for (name, k), c in coeffs.items())
    return _normalize_linear(out, names)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def _free_constant(f):
    free = f.free
    if len(free.terms) == 1:
        (mono, coeff), = free.terms.items()
        if coeff == 1 and len(mono) == 1:
            s, e = mono[0]
            if e == 1 and s.order == 0 and not s.constant:
                return s
    raise NotDPPEShaped("free term must be a single fresh symbol")


def _membership_images(system):
    """Each free constant's name -> minus the parameter part of its
    polynomial, the substitution under which a member of the ideal
    vanishes; NotDPPEShaped unless the free terms are pairwise distinct
    fresh symbols that no coefficient mentions."""
    images = {}
    mentioned = set()
    for f in system.polys:
        s = _free_constant(f)
        if s.name in images:
            raise NotDPPEShaped("free constants must be pairwise distinct")
        images[s.name] = -f.param_part()
        for op in f.ops.values():
            for c in op.coeffs.values():
                mentioned.update(t.name for t in c.symbols())
    if not mentioned.isdisjoint(images):
        raise NotDPPEShaped("free constants reappear inside coefficients")
    return images


def verify_membership(B, system):
    """Does B lie in the ideal generated by the system?

    Needs every free term to be its own fresh symbol; each such symbol is
    replaced by minus the parameter part of its polynomial and membership
    holds exactly when the substitution cancels B.  The substitution runs
    packed, in one ring sized by the largest exponent of each term plus
    e_s times the largest image exponent of each replaced symbol s.
    ``eliminate`` runs the same kernel with the same images on its
    answer; on the direct branch the ring is the one of the Laplace
    expansion, sized for n times the largest exponent of an entry as well
    (``algebra._det_laplace``).
    """
    images = _membership_images(system)
    return not _substitution(as_poly(B), images)[1]


# ---------------------------------------------------------------------------
# the elimination driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EliminationReport:
    branch: str
    members: tuple
    output: Poly
    side: int
    co_order: int
    profile: object
    membership: bool | None
    perturbation: Perturbation | None
    lowest_degree: int | None
    recomputed_side: int | None
    notes: tuple


def _verdict(image, notes):
    """Membership read off the packed image of an answer under the
    substitution of ``_membership_images``; None, with a note, when the
    system has no such substitution (``image`` is None)."""
    if image is None:
        notes.append("free terms are not single fresh constants; "
                     "membership not checked")
        return None
    return not image


def _restricted_perturbation(eps, system, sub, members):
    """The terms of the given perturbation ``eps`` on the equations of the
    subsystem ``sub`` of ``system``, whose 1-based indices are
    ``members``.  A wrong number of terms raises ValueError; a term on a
    parameter that ``sub`` does not involve, or a nonzero term on an
    equation outside it, raises PerturbationOutside."""
    if eps.n != system.n:
        raise ValueError(f"{eps.n} perturbation terms "
                         f"for {system.n} polynomials")
    active = set(sub.active_params())
    for i, t in enumerate(eps.terms, 1):
        member = i in members
        for j in sorted(t.ops):
            if not member or j not in active:
                raise PerturbationOutside(i, j, member)
    return Perturbation(tuple(eps.terms[i - 1] for i in members))


def eliminate(system, perturbation="auto"):
    """Produce a nonzero eliminant of the parameter-free ideal.

    Restricts to the canonical super essential subsystem, tries the direct
    determinant, and on a vanishing determinant switches to the standard
    perturbation: the lowest coefficient of the perturbation variable is
    normalized and returned.  The report records which branch ran and what
    was checked along the way.

    ``perturbation`` picks the rescue strategy when the determinant
    vanishes: "auto" builds the standard one, "off" raises instead, and a
    Perturbation instance (one term per polynomial of the full system) is
    restricted to the subsystem and used as given.  A given perturbation
    is checked before anything is assembled: a term that the subsystem
    cannot take raises PerturbationOutside.
    """
    if (not isinstance(perturbation, Perturbation)
            and perturbation not in ("auto", "off")):
        raise ValueError(f"unknown perturbation mode {perturbation!r}")
    report = validate(system)
    if not report.ok:
        raise AssumptionViolated("the system fails the standing assumptions")
    cert = super_essential_subsystem(system)
    sub, _ = restrict(system, cert.members)
    if isinstance(perturbation, Perturbation):
        perturbation = _restricted_perturbation(perturbation, system, sub,
                                                cert.members)
    profile = order_profile(sub)
    spec = spec_fres(sub)
    matrix = assemble(sub, spec)
    notes = []
    if len(cert.members) != system.n:
        shown = ", ".join(f"f{i}" for i in cert.members)
        notes.append(f"working on the proper subsystem {{{shown}}}")
    images = None
    try:
        images = _membership_images(sub)
    except NotDPPEShaped:
        pass
    det, image, pivots = _det_with_image(matrix.entries, images)
    if not det.is_zero():
        membership = _verdict(image, notes)
        return EliminationReport(
            branch="direct", members=cert.members, output=det,
            side=spec.side, co_order=0, profile=profile,
            membership=membership, perturbation=None, lowest_degree=None,
            recomputed_side=None, notes=tuple(notes))
    # the pivots of the Bareiss route count the rank of H already
    deficiency = (co_order(matrix) if pivots is None
                  else spec.side - 1 - pivots)
    notes.append(f"direct determinant vanishes; matrix co-order {deficiency}")
    if perturbation == "off":
        raise AssumptionViolated(
            "the direct determinant vanishes and perturbation is disabled")
    eps = (perturbation if isinstance(perturbation, Perturbation)
           else default_perturbation(sub))
    shifted = perturb_system(sub, eps)
    pdet = assemble(shifted, spec).determinant()
    if pdet.is_zero():
        raise AssumptionViolated(
            "the perturbed determinant vanished; no eliminant found")
    degree, low = lowest_p_coefficient(pdet)
    try:
        recomputed = spec_fres(shifted).side
    except (NotDefinable, AssumptionViolated):
        recomputed = None
        notes.append("frame of the shifted system is not definable; "
                     "kept the original frame")
    else:
        if recomputed != spec.side:
            notes.append(f"shifted system on its own frame has side "
                         f"{recomputed}, not {spec.side}")
    try:
        names = tuple(_free_constant(f).name for f in sub.polys)
        output = id_primitive_part(low, names)
    except NotDPPEShaped:
        output = low
        notes.append("free terms are not single fresh constants; "
                     "lowest coefficient left unnormalized")
    image = None if images is None else _substitution(output, images)[1]
    membership = _verdict(image, notes)
    return EliminationReport(
        branch="perturbed", members=cert.members, output=output,
        side=spec.side, co_order=deficiency, profile=profile,
        membership=membership, perturbation=eps, lowest_degree=degree,
        recomputed_side=recomputed, notes=tuple(notes))
