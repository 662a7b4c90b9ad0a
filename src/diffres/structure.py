"""Structural analysis of a system through its operator presence pattern.

The pattern matrix X has one row per polynomial and one column per active
parameter, with a fresh symbol x{i}_{j} wherever the operator L_{i,j} is
nonzero.  Differential essentiality (some row-deleted perfect matching),
super essentiality (all of them) and the super essential subsystem are read
from one maximum matching and its alternating paths; by Edmonds (1967) the
rank of X is the size of a maximum matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import Frac, Poly, determinant, sym
from .errors import AssumptionViolated, TooLarge
from .systems import LinearDiffPoly, LinearSystem

ENUMERATION_BOUND = 12


def pattern_sym(i, j):
    """Symbol standing for the presence of operator (i, j), 1-based."""
    return sym(f"x{i}_{j}")


@dataclass(frozen=True)
class PatternMatrix:
    """Boolean presence pattern; rows 1..n, columns the active parameters."""

    rows: tuple            # tuple of frozensets of active column labels
    columns: tuple         # sorted tuple of active parameter labels

    @property
    def n(self):
        return len(self.rows)

    def symbolic(self):
        """The pattern with one fresh symbol per present entry."""
        out = []
        for i, present in enumerate(self.rows):
            out.append([Poly.var(pattern_sym(i + 1, j)) if j in present
                        else Poly.zero() for j in self.columns])
        return out

    def restricted(self, members):
        """Subpattern on the given 1-based row indices and their columns."""
        members = tuple(sorted(members))
        cols = set()
        for i in members:
            cols.update(self.rows[i - 1])
        cols = tuple(sorted(cols))
        rows = tuple(frozenset(self.rows[i - 1] & set(cols)) for i in members)
        return PatternMatrix(rows, cols), members


def pattern_matrix(system):
    if isinstance(system, PatternMatrix):
        return system
    cols = tuple(system.active_params())
    rows = tuple(frozenset(f.ops.keys()) for f in system.polys)
    return PatternMatrix(rows, cols)


# ---------------------------------------------------------------------------
# matchings
# ---------------------------------------------------------------------------


def _matching(rows, adjacency, owner=()):
    """Maximum matching of ``rows`` into columns, as {row: column}.

    ``owner`` (column -> row) is a matching of other rows to extend.  Rows
    are tried in the given order, each by one breadth-first search for a
    shortest augmenting path (no recursion).  A row that fails when its
    turn comes stays unmatched for good, and the rows tried so far are
    always maximally matched.
    """
    owner = dict(owner)
    match = {r: c for c, r in owner.items()}
    for root in rows:
        came_from = {}              # column -> the row that reached it
        queue = [root]              # grows while it is scanned
        free = None
        for r in queue:
            for c in adjacency[r]:
                if c not in came_from:
                    came_from[c] = r
                    if c not in owner:
                        free = c
                        break
                    queue.append(owner[c])
            if free is not None:
                break
        while free is not None:     # flip the path back to the root
            r = came_from[free]
            owner[free], match[r], free = r, free, match.get(r)
    return match


def _canonical_matching(rows, adjacency, prefer="least"):
    """The lexicographically least (or greatest) perfect matching on ``rows``,
    scanning rows in increasing order; None if there is none.

    Each row in turn is fixed to the first column that keeps the matching
    perfect; only the row that held that column is rematched, and fixed
    rows lose their edges so that no later search moves them.
    """
    rows = sorted(rows)
    match = _matching(rows, adjacency)
    if len(match) < len(rows):
        return None
    adjacency = dict(adjacency)
    for idx, r in enumerate(rows):
        fixed = {match[rr] for rr in rows[:idx]}
        options = sorted(adjacency[r] - fixed, reverse=(prefer == "greatest"))
        adjacency[r] = ()
        for c in options:
            owner = {cc: rr for rr, cc in match.items() if rr != r}
            displaced = owner.pop(c, None)
            owner[c] = r
            moved = _matching([] if displaced is None else [displaced],
                              adjacency, owner)
            if len(moved) == len(rows):
                match = moved
                break
    return match


def row_deleted_matching(pattern, i, prefer="least"):
    """Perfect matching of the rows other than i into the columns, or None.

    Rows are scanned in increasing index and each takes the smallest
    (``prefer="least"``) or largest feasible column, giving the
    lexicographically extreme matching.
    """
    pattern = pattern_matrix(pattern)
    rows = [r + 1 for r in range(pattern.n) if r + 1 != i]
    adjacency = {r: pattern.rows[r - 1] for r in rows}
    return _canonical_matching(rows, adjacency, prefer=prefer)


def _reached(root, adjacency, match):
    """Rows reached from the unmatched ``root`` by alternating paths of the
    maximum matching ``match`` (row -> column): exactly the rows whose
    removal leaves ``root`` and the matched rows perfectly matchable."""
    owner = {c: r for r, c in match.items()}
    reached = {root}
    frontier = [root]
    while frontier:
        for c in adjacency[frontier.pop()]:
            r = owner[c]
            if r not in reached:
                reached.add(r)
                frontier.append(r)
    return reached


def is_differentially_essential(system):
    """Some row-deleted matching exists: the pattern has structural rank
    at least n-1."""
    pattern = pattern_matrix(system)
    return structural_rank(pattern) >= pattern.n - 1


def is_super_essential(system):
    """Every row-deleted matching exists: a maximum matching misses no row,
    or one row that alternating paths link to all the others."""
    pattern = pattern_matrix(system)
    rows = range(1, pattern.n + 1)
    adjacency = {r: pattern.rows[r - 1] for r in rows}
    match = _matching(rows, adjacency)
    if len(match) != pattern.n - 1:
        return len(match) == pattern.n
    root = next(r for r in rows if r not in match)
    return len(_reached(root, adjacency, match)) == pattern.n


def structural_rank(pattern):
    """Size of a maximum matching of the full pattern."""
    pattern = pattern_matrix(pattern)
    rows = range(1, pattern.n + 1)
    return len(_matching(rows, {r: pattern.rows[r - 1] for r in rows}))


# ---------------------------------------------------------------------------
# the super essential subsystem
# ---------------------------------------------------------------------------


@dataclass
class SubsystemCertificate:
    members: tuple          # 1-based polynomial indices
    pattern: PatternMatrix  # the whole pattern the members come from

    @property
    def proper(self):
        return len(self.members) != self.pattern.n

    @cached_property
    def kernel_row(self):
        """The left kernel vector of X supported on the members, as Frac
        coefficients with 1 at the first member.

        By Cramer's rule the entry of member r is, up to one common factor,
        the signed maximal minor of the member rows without r.
        """
        sub, members = self.pattern.restricted(self.members)
        x = [[Poly.var(pattern_sym(i, j)) if j in sub.rows[pos]
              else Poly.zero() for j in sub.columns]
             for pos, i in enumerate(members)]
        if len(x) == 1:
            minors = [Poly.one()]
        else:
            minors = [determinant(x[:pos] + x[pos + 1:])
                      for pos in range(len(x))]
        row = [Frac.of(0)] * self.pattern.n
        for pos, i in enumerate(members):
            row[i - 1] = Frac((-1) ** pos * minors[pos], minors[0])
        return tuple(row)


def super_essential_subsystem(system):
    """Indices of the canonical super essential subsystem, with evidence.

    Rows of the pattern are matched from the last one up.  The first row k
    that cannot be matched closes the shortest row suffix {k..n} that is
    structurally dependent; its members are k and the rows that an
    alternating path from k reaches, which are exactly the rows whose
    removal leaves the suffix perfectly matchable.  For a super essential
    system that is everything.
    """
    pattern = pattern_matrix(system)
    n = pattern.n
    if len(pattern.columns) != n - 1:
        raise AssumptionViolated(
            f"{len(pattern.columns)} active parameters for {n} polynomials")
    adjacency = {r: pattern.rows[r - 1] for r in range(1, n + 1)}
    matched = _matching(range(n, 0, -1), adjacency)
    k = max(r for r in adjacency if r not in matched)
    reached = _reached(k, adjacency, _matching(range(n, k, -1), adjacency))
    return SubsystemCertificate(members=tuple(sorted(reached)), pattern=pattern)


def restrict(system, members):
    """The subsystem on the given 1-based indices, parameters renumbered.

    Returns (subsystem, param_map) with param_map original -> new label.
    """
    members = tuple(sorted(members))
    polys = [system.polys[i - 1] for i in members]
    active = sorted({j for f in polys for j in f.ops})
    param_map = {j: k + 1 for k, j in enumerate(active)}
    rebuilt = [LinearDiffPoly(f.free, {param_map[j]: op
                                       for j, op in f.ops.items()})
               for f in polys]
    return LinearSystem(rebuilt, params=len(active)), param_map


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def _subsets(n, minimum):
    for mask in range(1, 1 << n):
        s = tuple(i + 1 for i in range(n) if mask >> i & 1)
        if len(s) >= minimum:
            yield s


def enumerate_super_essential(system):
    """All subsets of size >= 2 that are super essential on their own
    active parameters; TooLarge above ENUMERATION_BOUND polynomials."""
    pattern = pattern_matrix(system)
    if pattern.n > ENUMERATION_BOUND:
        raise TooLarge(f"enumeration over {pattern.n} > {ENUMERATION_BOUND} "
                       f"polynomials")
    out = []
    for s in _subsets(pattern.n, 2):
        sub, _ = pattern.restricted(s)
        if len(sub.columns) == len(s) - 1 and is_super_essential(sub):
            out.append(s)
    return out

