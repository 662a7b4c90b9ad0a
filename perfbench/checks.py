"""Independent checks of diffres outputs.

Nothing here calls diffres.  Systems arrive as plain specs (see
``workloads.Spec``) and outputs as plain term tables::

    {((name, order, exponent), ...): Fraction}

so every answer is judged by arithmetic written for the benchmark:
bipartite matchings by augmenting paths, frames built from the
derivation rule, ranks by Gaussian elimination over ``Fraction``, and
ideal membership by evaluation at random polynomial images (sound by
Schwartz 1980: a nonzero result proves non-membership, and a wrong answer
survives several random points only with negligible probability).

Every ``check_*`` function returns a list of problems; empty means correct.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

# ---------------------------------------------------------------------------
# order profile and frame shape (the tight "fres" frame)
# ---------------------------------------------------------------------------


def orders(rows):
    """Largest derivative order of any parameter in each row."""
    return [max(k for op in row.values() for k in op) for row in rows]


def frame_shape(rows):
    """(row bounds L_i, parameter columns) of the tight frame.

    L_i = N - o_i - gamma with N the order sum and gamma the sum over
    parameters of low_j + high_j; parameter j spans derivative orders
    low_j .. N - high_j - gamma.  Columns are sorted by (order, parameter)
    descending, as the frame lays them out.
    """
    o = orders(rows)
    params = sorted({j for row in rows for j in row})
    low, high = {}, {}
    for j in params:
        used = [(i, row[j]) for i, row in enumerate(rows) if j in row]
        low[j] = min(min(op) for _, op in used)
        high[j] = min(o[i] - max(op) for i, op in used)
    gamma = sum(low[j] + high[j] for j in params)
    total = sum(o)
    bounds = [total - oi - gamma for oi in o]
    columns = [(j, k) for j in params
               for k in range(low[j], total - high[j] - gamma + 1)]
    columns.sort(key=lambda jk: (jk[1], jk[0]), reverse=True)
    return bounds, columns


def gamma_profile(rows):
    """The CLI's gamma payload, computed from its min-over-operators
    definition."""
    o = orders(rows)
    low, high = {}, {}
    for j in sorted({j for row in rows for j in row}):
        used = [(i, row[j]) for i, row in enumerate(rows) if j in row]
        low[j] = min(min(op) for _, op in used)
        high[j] = min(o[i] - max(op) for i, op in used)
    span = {j: low[j] + high[j] for j in low}
    return {"low": low, "high": high, "span": span,
            "total": sum(span.values()), "orderSum": sum(o), "orders": o}


def frame_rows(rows, bounds):
    return [(i, r) for i in range(len(rows)) for r in range(bounds[i], -1, -1)]


def frame_entry(row, r, j, k, value):
    """Coefficient of u_j^(k) in D^r of the row, by the Leibniz rule:
    D^r (a u^(m)) = sum_l C(r, l) a^(l) u^(m + r - l).  ``value(a, l)``
    gives a^(l); numeric coefficients have no derivatives."""
    total = Fraction(0)
    for m, a in row.get(j, {}).items():
        l = m + r - k
        if 0 <= l <= r:
            total += math.comb(r, l) * value(a, l)
    return total


def homogeneous_frame(rows, value):
    """The frame without its free-term column, as a Fraction matrix."""
    bounds, columns = frame_shape(rows)
    return [[frame_entry(rows[i], r, j, k, value) for j, k in columns]
            for i, r in frame_rows(rows, bounds)]


def structural_zero_columns(rows):
    """Parameter columns that no frame row can reach.  Symbolic
    coefficients never vanish under derivation, numeric ones do."""
    bounds, columns = frame_shape(rows)
    dead = []
    for j, k in columns:
        hit = False
        for i, r in frame_rows(rows, bounds):
            for m, a in rows[i].get(j, {}).items():
                l = m + r - k
                if l == 0 or (0 < l <= r and isinstance(a, str)):
                    hit = True
        if not hit:
            dead.append((j, k))
    return dead


def rank(matrix):
    """Rank over Q by Gaussian elimination."""
    a = [list(row) for row in matrix]
    r = 0
    ncols = len(a[0]) if a else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        for i in range(r + 1, len(a)):
            if a[i][c]:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def random_valuation(rng):
    """value(a, l) with a fresh random rational for each symbolic a^(l)."""
    table = {}

    def value(a, l):
        if not isinstance(a, str):
            return Fraction(a) if l == 0 else Fraction(0)
        got = table.get((a, l))
        if got is None:
            got = table[(a, l)] = Fraction(rng.randint(-97, 97) or 1,
                                           rng.randint(1, 13))
        return got
    return value


def frame_corank(rows, rng, trials=3):
    """Smallest corank of the homogeneous frame seen at random points
    (exact for numeric systems; an upper bound for symbolic ones)."""
    side = sum(b + 1 for b in frame_shape(rows)[0])
    best = None
    for _ in range(trials):
        h = homogeneous_frame(rows, random_valuation(rng))
        co = side - 1 - rank(h)
        best = co if best is None else min(best, co)
        if best == 0 or all(isinstance(a, int) for row in rows
                            for op in row.values() for a in op.values()):
            break
    return best


# ---------------------------------------------------------------------------
# matchings on the presence pattern
# ---------------------------------------------------------------------------


def max_matching(rows):
    """Size of a maximum matching; ``rows`` is a list of column sets."""
    owner = {}

    def augment(r, seen):
        for c in rows[r]:
            if c not in seen:
                seen.add(c)
                if c not in owner or augment(owner[c], seen):
                    owner[c] = r
                    return True
        return False
    return sum(1 for r in range(len(rows)) if augment(r, set()))


def pattern(rows):
    return [set(row) for row in rows]


def row_deleted_matchable(pat, i):
    rest = [pat[r] for r in range(len(pat)) if r != i]
    return max_matching(rest) == len(rest)


def is_differentially_essential(pat):
    return any(row_deleted_matchable(pat, i) for i in range(len(pat)))


def is_super_essential(pat):
    return all(row_deleted_matchable(pat, i) for i in range(len(pat)))


def canonical_subsystem(pat):
    """The shortest structurally dependent row suffix, cut to the rows
    whose removal makes it independent (0-based indices)."""
    n = len(pat)
    for k in range(n - 1, -1, -1):
        suffix = list(range(k, n))
        if max_matching([pat[r] for r in suffix]) < len(suffix):
            return [r for r in suffix
                    if max_matching([pat[q] for q in suffix if q != r])
                    == len(suffix) - 1]
    return None


def super_essential_subsets(pat):
    """Every row subset of size >= 2 with one active column fewer than rows
    and all row-deleted matchings (0-based indices)."""
    out = []
    for size in range(2, len(pat) + 1):
        for subset in combinations(range(len(pat)), size):
            sub = [pat[r] for r in subset]
            if len(set().union(*sub)) == size - 1 and is_super_essential(sub):
                out.append(subset)
    return out


# ---------------------------------------------------------------------------
# univariate polynomials in t (integer coefficient lists, index = degree)
# ---------------------------------------------------------------------------


def padd(a, b):
    out = list(a) + [0] * (len(b) - len(a))
    for k, c in enumerate(b):
        out[k] += c
    return out


def pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def pderiv(a):
    return [k * c for k, c in enumerate(a)][1:] or [0]


class _Images:
    """Random integer polynomial images in t of every symbol, and the free
    terms' images forced by the system: c_i = -(parameter part of f_i)."""

    def __init__(self, spec, rng, degree=24):
        def rand_poly():
            return [rng.randint(-20, 20) for _ in range(degree + 1)]
        self.base = {name: rand_poly() for name in spec.coeff_names()}
        u = {j: rand_poly() for j in range(1, spec.n)}
        for name, row in zip(spec.free, spec.rows):
            total = [0]
            for j, op in row.items():
                for k, a in op.items():
                    coeff = self.base[a] if isinstance(a, str) else [a]
                    total = padd(total, pmul(coeff, self._nth(u[j], k)))
            self.base[name] = [-c for c in total]
        self.degree = max(len(p) for p in self.base.values()) - 1
        self.derivs = {}

    @staticmethod
    def _nth(p, k):
        for _ in range(k):
            p = pderiv(p)
        return p

    def scaled_value(self, name, order, a, b):
        """b^degree times the order-th derivative of the image at t = a/b,
        an integer."""
        key = (name, order)
        p = self.derivs.get(key)
        if p is None:
            p = self.derivs[key] = self._nth(self.base[name], order)
        return sum(c * a ** i * b ** (self.degree - i) for i, c in enumerate(p))


def membership_residues(spec, terms, rng, points=3):
    """The output evaluated at ``points`` random rationals t = a/b after
    every free term is replaced by minus its row's parameter part.  All
    zero iff (with overwhelming probability) the output is in the ideal.

    Exact rational evaluation with the denominators cleared: every symbol
    value is N / b^degree, so the value times b^(degree * top) times the
    common denominator of the coefficients is the integer summed here."""
    images = _Images(spec, rng)
    top = max(sum(e for _, _, e in mono) for mono in terms)
    den = math.lcm(*(Fraction(c).denominator for c in terms.values()))
    out = []
    for _ in range(points):
        a, b = rng.randint(-40, 40), rng.randint(1, 17)
        pad = [b ** (images.degree * (top - d)) for d in range(top + 1)]
        cache = {}
        total = 0
        for mono, c in terms.items():
            c = Fraction(c)
            v = c.numerator * (den // c.denominator)
            degree = 0
            for name, order, e in mono:
                x = cache.get((name, order))
                if x is None:
                    x = cache[(name, order)] = images.scaled_value(
                        name, order, a, b)
                v *= x ** e
                degree += e
            total += v * pad[degree]
        out.append(total)
    return out


# ---------------------------------------------------------------------------
# eliminate outputs
# ---------------------------------------------------------------------------


def check_eliminant(spec, result, rng):
    """``result`` holds branch, members, co_order, lowest_degree and terms
    of one eliminate report."""
    errs = []
    n = spec.n
    want_branch = "perturbed" if spec.degenerate else "direct"
    if result["branch"] != want_branch:
        errs.append(f"branch {result['branch']}, expected {want_branch}")
    if tuple(result["members"]) != tuple(range(1, n + 1)):
        errs.append(f"members {result['members']} of a super essential "
                    f"system")
    terms = result["terms"]
    if not terms:
        return errs + ["output is zero"]
    bounds, _ = frame_shape(spec.rows)
    free = {name: i for i, name in enumerate(spec.free)}
    allowed = set(spec.coeff_names())
    for mono, c in terms.items():
        hits = [(name, order, e) for name, order, e in mono if name in free]
        stray = [name for name, _, _ in mono
                 if name not in free and name not in allowed]
        if stray:
            errs.append(f"term with foreign symbols {sorted(set(stray))}")
        if len(hits) != 1 or hits[0][2] != 1:
            errs.append(f"term {mono} is not linear in one free term")
            continue
        name, order, _ = hits[0]
        if order > bounds[free[name]]:
            errs.append(f"{name}^({order}) exceeds the row bound "
                        f"{bounds[free[name]]}")
    if errs:
        return errs
    residues = membership_residues(spec, terms, rng)
    if any(residues):
        errs.append("not in the ideal of the system (random evaluation)")
    if spec.degenerate:
        errs += _check_degenerate(spec, result, rng)
    return errs


def _check_degenerate(spec, result, rng):
    errs = []
    co = frame_corank(spec.rows, rng)
    if result["co_order"] != co:
        errs.append(f"co-order {result['co_order']}, frame corank {co}")
    if result["lowest_degree"] is None or result["lowest_degree"] < co:
        errs.append(f"lowest degree {result['lowest_degree']} below the "
                    f"corank {co}: det(M + pE) is divisible by p^corank")
    if spec.eliminant is not None:
        terms = result["terms"]
        want = spec.eliminant
        if set(terms) != {((name, order, 1),) for name, order in want}:
            errs.append("output is not a multiple of the built-in eliminant")
        elif len({terms[((name, order, 1),)] / c
                  for (name, order), c in want.items()}) != 1:
            errs.append("output is not a rational multiple of the built-in "
                        "eliminant")
    return errs


# ---------------------------------------------------------------------------
# CLI payloads
# ---------------------------------------------------------------------------


def _refusal_expected(spec):
    return any(b < 0 for b in frame_shape(spec.rows)[0])


def check_cli(spec, command, code, payload, rng):
    """One ``diffres <command> --format json`` answer on a pattern file.

    ``code`` is the exit status and ``payload`` the parsed stdout (None on
    a refusal).  Schema validation happens in the caller.
    """
    pat = pattern(spec.rows)
    names = list(spec.names)
    framed = command in ("matrix", "det")
    if framed and _refusal_expected(spec):
        return [] if code == 1 else [f"{command}: answered a system whose "
                                     f"frame is not definable"]
    if code != 0:
        return [f"{command}: refused (exit {code}) a valid request"]
    if command == "check":
        return _check_check(spec, pat, payload["system"])
    if command == "gamma":
        return _check_gamma(spec, payload["gamma"])
    if command in ("subsystem", "subsystem --all"):
        return _check_subsystem(pat, names, payload["subsystem"],
                                command.endswith("--all"))
    if command == "matrix":
        return _check_matrix(spec, payload["formula"])
    if command == "det":
        return _check_det(spec, payload, rng)
    return [f"unknown command {command}"]


def _check_check(spec, pat, got):
    errs = []
    want = {"equations": spec.n, "parameters": spec.n - 1,
            "activeParameters": len(set().union(*pat)),
            "orders": orders(spec.rows),
            "differentiallyEssential": is_differentially_essential(pat),
            "superEssential": is_super_essential(pat)}
    for key, value in want.items():
        if got.get(key) != value:
            errs.append(f"check: {key} = {got.get(key)}, expected {value}")
    a = got.get("assumptions", {})
    if not (a.get("ok") and a.get("p3") and a.get("p4")
            and not a.get("p1") and not a.get("p2")):
        errs.append("check: assumptions reported failing on a valid system")
    return errs


def _check_gamma(spec, got):
    want = gamma_profile(spec.rows)
    errs = []
    for key in ("low", "high", "span"):
        table = {f"u{j}": v for j, v in want[key].items()}
        if got.get(key) != table:
            errs.append(f"gamma: {key} = {got.get(key)}, expected {table}")
    for key in ("total", "orderSum", "orders"):
        if got.get(key) != want[key]:
            errs.append(f"gamma: {key} = {got.get(key)}, expected "
                        f"{want[key]}")
    return errs


def _check_subsystem(pat, names, got, every):
    errs = []
    members = got.get("members")
    want = [names[r] for r in canonical_subsystem(pat)]
    if members != want:
        errs.append(f"subsystem: members {members}, expected {want}")
    else:
        rows = [pat[names.index(m)] for m in members]
        if (len(set().union(*rows)) != len(rows) - 1
                or not is_super_essential(rows)):
            errs.append("subsystem: members are not super essential")
        if got.get("proper") != (len(members) != len(names)):
            errs.append("subsystem: wrong 'proper' flag")
    if every:
        want_all = {tuple(names[r] for r in s)
                    for s in super_essential_subsets(pat)}
        got_all = {tuple(s) for s in got.get("all", [])}
        if got_all != want_all or len(got.get("all", [])) != len(want_all):
            errs.append(f"subsystem --all: {sorted(got_all)}, expected "
                        f"{sorted(want_all)}")
    return errs


def _check_frame(spec, got):
    """Side and row and column labels of a frame payload."""
    errs = []
    bounds, columns = frame_shape(spec.rows)
    side = sum(b + 1 for b in bounds)
    if got.get("side") != side:
        errs.append(f"frame: side {got.get('side')}, expected {side}")
    want_rows = [[spec.names[i], r] for i, r in frame_rows(spec.rows, bounds)]
    if got.get("rows") != want_rows:
        errs.append("frame: row labels differ")
    if got.get("columns") != [[f"u{j}", k] for j, k in columns]:
        errs.append("frame: column labels differ")
    return errs


def _check_matrix(spec, got):
    errs = _check_frame(spec, got)
    dead = sorted(structural_zero_columns(spec.rows))
    want_dead = [[f"u{j}", k] for j, k in dead]
    if sorted(got.get("zeroColumns", [])) != sorted(want_dead):
        errs.append(f"matrix: zero columns {got.get('zeroColumns')}, "
                    f"expected {want_dead}")
    if is_super_essential(pattern(spec.rows)) and got.get("zeroColumns"):
        errs.append("matrix: zero columns on a super essential system")
    return errs


def _check_det(spec, got, rng):
    errs = _check_frame(spec, got.get("formula", {}))
    if errs:
        return errs
    verdict = got.get("certificate", {}).get("verdict")
    nonzero = frame_corank(spec.rows, rng) == 0
    if nonzero and verdict != "nonzero-certified":
        return [f"det: verdict {verdict} for a nonzero frame determinant"]
    if not nonzero and verdict == "nonzero-certified":
        return ["det: certified nonzero, but the frame is singular at "
                "every random point"]
    return []
