"""Determinant formula specifications and their matrices.

A formula spec fixes how often each polynomial is derived (row bounds L_i)
and which derivatives of each parameter index the columns.  Four recipes
are provided: ``spec_fres`` reads the order profile, and ``spec_cf``,
``spec_cres`` and ``spec_general`` are shift data (beta, omega) for one
builder.  All satisfy the square-shape identity

    sum_i (L_i + 1)  =  1 + sum_j (hi_j - lo_j + 1)

so the assembled matrix, with the free-term column appended, is square.
The elimination output is the determinant of the frame built from the
order profile.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Poly, _bareiss_at, determinant, rank
from .errors import (AssumptionViolated, BetaOmegaViolated, ColumnMissing,
                     NotDefinable, NotDifferentiallyEssential)
from .structure import (is_differentially_essential, restrict,
                        super_essential_subsystem)
from .systems import nu, order_profile

EXACT_SIDE_CAP = 24


class Kind(enum.Enum):
    CF = "cf"
    CRES = "cres"
    FRES = "fres"
    GENERAL = "general"


@dataclass(frozen=True)
class FormulaSpec:
    """Row bounds and column intervals of one determinant frame."""

    kind: Kind
    row_bounds: dict        # 1-based polynomial index -> L_i
    column_intervals: dict  # parameter -> (lo, hi), both inclusive
    beta_omega: tuple = None

    def __post_init__(self):
        for i, bound in self.row_bounds.items():
            if bound < 0:
                raise NotDefinable(i, bound)
        if self.side != self.width + 1:
            raise AssumptionViolated(
                f"{self.side} rows against {self.width} parameter columns")

    @property
    def side(self):
        return sum(b + 1 for b in self.row_bounds.values())

    @property
    def width(self):
        return sum(hi - lo + 1
                   for lo, hi in self.column_intervals.values())


def _square_profile(system):
    if nu(system) != system.n - 1:
        raise AssumptionViolated(
            f"{nu(system)} active parameters for {system.n} polynomials")
    return order_profile(system)


def spec_fres(system):
    """Smallest frame: rows up to N - o_i - gamma, columns clipped to the
    occurring derivative range of each parameter."""
    profile = _square_profile(system)
    bounds = {i + 1: profile.row_bound(i) for i in range(system.n)}
    intervals = {j: profile.column_interval(j) for j in profile.low}
    return FormulaSpec(Kind.FRES, bounds, intervals)


def _shifted_spec(kind, beta, omega, beta_omega=None):
    """The frame of shift data (beta, omega), with beta keyed by parameter
    label: rows up to Omega - omega_i - beta, columns 0..Omega - beta_j -
    beta, where Omega and beta are the sums of omega and of beta.
    ``FormulaSpec`` raises NotDefinable for a negative row bound."""
    big_omega, beta_total = sum(omega), sum(beta.values())
    bounds = {i + 1: big_omega - w - beta_total for i, w in enumerate(omega)}
    intervals = {j: (0, big_omega - b - beta_total) for j, b in beta.items()}
    return FormulaSpec(kind, bounds, intervals, beta_omega)


def spec_cres(system):
    """Frame shrunk by the clipped gap profile: shift data beta_j =
    gamma_hat_j, which also counts the order of any polynomial missing
    the parameter entirely, and omega = the polynomial orders."""
    profile = _square_profile(system)
    orders = profile.orders
    hat = {}
    for j in profile.low:
        absent = [orders[i] for i, f in enumerate(system.polys)
                  if j not in f.ops]
        hat[j] = min([profile.high[j]] + absent)
    return _shifted_spec(Kind.CRES, hat, orders)


def spec_cf(system):
    """The full frame, shift data beta = 0 and omega = the polynomial
    orders: rows up to N - o_i, columns for every derivative order 0..N
    of every parameter."""
    profile = _square_profile(system)
    return _shifted_spec(Kind.CF, dict.fromkeys(profile.low, 0),
                         profile.orders)


def _check_beta_omega(system, beta, omega):
    n = system.n
    if len(beta) != system.params or len(omega) != n:
        raise BetaOmegaViolated(
            f"need {system.params} beta and {n} omega entries, "
            f"got {len(beta)} and {len(omega)}")
    if min(beta, default=0) < 0 or min(omega, default=0) < 0:
        raise BetaOmegaViolated("beta and omega entries must be >= 0")
    big_omega = sum(omega)
    beta_total = sum(beta)
    for i in range(n):
        if big_omega - omega[i] - beta_total < 0:
            raise BetaOmegaViolated(
                f"(b1) fails at row {i + 1}: "
                f"{big_omega} - {omega[i]} - {beta_total} < 0")
    for i, f in enumerate(system.polys):
        for j, op in f.ops.items():
            if op.deg() > omega[i] - beta[j - 1]:
                raise BetaOmegaViolated(
                    f"(b2) fails at operator ({i + 1}, {j}): degree "
                    f"{op.deg()} > {omega[i]} - {beta[j - 1]}")


def spec_general(system, beta, omega):
    """Frame for arbitrary shift data, checked against (b1) and (b2):
    rows up to Omega - omega_i - beta, columns 0..Omega - beta_j - beta."""
    _check_beta_omega(system, beta, omega)
    return _shifted_spec(Kind.GENERAL, dict(enumerate(beta, 1)), omega,
                         (tuple(beta), tuple(omega)))


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def _column_order(intervals):
    labels = [(j, k) for j, (lo, hi) in intervals.items()
              for k in range(lo, hi + 1)]
    labels.sort(key=lambda t: (t[1], t[0]), reverse=True)
    return labels


@dataclass
class FormulaMatrix:
    """Assembled grid: parameter columns in decreasing ranking, then the
    free-term column."""

    rows: tuple      # (i, k) pairs, i ascending, k descending
    columns: tuple   # (j, k) labels of the parameter columns
    entries: tuple   # row tuples of Poly, width len(columns) + 1
    spec: FormulaSpec

    @property
    def side(self):
        return len(self.entries)

    def homogeneous(self):
        """The grid without the free-term column."""
        return [row[:-1] for row in self.entries]

    def determinant(self):
        return determinant(self.entries)


def assemble(system, spec):
    """Build the matrix of all ``derive^k f_i`` for the given spec.

    Row (i, k) holds the coefficient of u_{j,k'} in the k-th derivative of
    f_i under each column (j, k'), and the derived free term last.  Any
    derivative of a parameter falling outside the declared columns is a
    hard error; the recipes above never produce one.
    """
    columns = _column_order(spec.column_intervals)
    position = {label: idx for idx, label in enumerate(columns)}
    rows = []
    grid = []
    for i in sorted(spec.row_bounds):
        f = system.polys[i - 1]
        stack = [f]
        for _ in range(spec.row_bounds[i]):
            stack.append(stack[-1].derive())
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


def zero_columns(matrix):
    """Labels of parameter columns that vanish identically."""
    out = []
    for idx, label in enumerate(matrix.columns):
        if all(row[idx].is_zero() for row in matrix.entries):
            out.append(label)
    return out


def dfres(system):
    """The elimination determinant on the tight frame."""
    return assemble(system, spec_fres(system)).determinant()


def rank_homogeneous(matrix):
    return rank(matrix.homogeneous())


def co_order(matrix):
    """Corank of the parameter part against its maximum possible rank."""
    return matrix.side - 1 - rank_homogeneous(matrix)


# ---------------------------------------------------------------------------
# order bounds
# ---------------------------------------------------------------------------


def order_bounds(system):
    """Largest derivative of each free term that the elimination output
    can contain: N* - o_i - gamma over the canonical subsystem, -1 for
    polynomials outside it."""
    if not is_differentially_essential(system):
        raise NotDifferentiallyEssential(
            "no row-deleted matching exists for any row")
    members = super_essential_subsystem(system).members
    sub, _ = restrict(system, members)
    profile = order_profile(sub)
    bounds = {i: -1 for i in range(1, system.n + 1)}
    for pos, i in enumerate(members):
        bounds[i] = profile.row_bound(pos)
    return bounds


# ---------------------------------------------------------------------------
# randomized nonzero certification
# ---------------------------------------------------------------------------


class Verdict(enum.Enum):
    NONZERO_CERTIFIED = "nonzero-certified"
    ZERO_PROVEN = "zero-proven"
    UNKNOWN = "unknown"


_POOL = [Fraction(a, b) for b in range(1, 5) for a in range(-12, 13) if a]


def certify_nonzero(matrix, trials=20, seed=0):
    """Random evaluation of the determinant at rationals from a fixed pool.

    Treating every derivative symbol as an independent unknown is sound
    here: distinct derivatives are algebraically independent, so a nonzero
    evaluation certifies a nonzero determinant.  Each evaluated matrix is
    cleared of denominators and eliminated by ``algebra._bareiss_at``; it
    is nonsingular when every column finds a pivot.  Zero can only be
    proven by the exact determinant, attempted up to side EXACT_SIDE_CAP.
    """
    rng = random.Random(seed)
    names = sorted({s for row in matrix.entries for p in row
                    for s in p.symbols()}, key=lambda s: s.key)
    for _ in range(trials):
        cols, _ = _bareiss_at(matrix.entries,
                              {s: rng.choice(_POOL) for s in names})
        if len(cols) == matrix.side:
            return Verdict.NONZERO_CERTIFIED
    if matrix.side <= EXACT_SIDE_CAP:
        if matrix.determinant().is_zero():
            return Verdict.ZERO_PROVEN
        return Verdict.NONZERO_CERTIFIED
    return Verdict.UNKNOWN
