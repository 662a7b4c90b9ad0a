"""Randomized invariants over small systems.

Every suite runs at least one hundred seeded cases with up to four
polynomials and derivative orders up to four.  Generators build systems
that satisfy the standing assumptions by construction; suites that need
a rarer shape (super essential, definable frame) draw more candidates
and count how many they actually checked.
"""

from __future__ import annotations

import random
from fractions import Fraction

from conftest import (SE_DE_1, SE_DE_2, four_eq_system, generic_four_system,
                      generic_three_system, motivation_system, pattern_system,
                      tall_order_system, v)
from test_algebra import cofactor_det, numeric_h, substitute_oracle
from test_structure import hall_irredundant
from diffres.algebra import (Poly, _bareiss_frame, _det_laplace,
                             _det_with_image, as_poly, const_sym, determinant,
                             rank, sym)
from diffres.errors import BetaOmegaViolated, MathError, NotDefinable
from diffres.formulas import (assemble, spec_cf, spec_cres, spec_fres,
                              spec_general, zero_columns)
from diffres.perturb import (default_perturbation, eliminate,
                             perturbed_matrix, verify_membership)
from diffres.structure import (is_super_essential, pattern_matrix,
                               structural_rank)
from diffres.systems import (LinearSystem, linear_poly, order_profile,
                             param_sym)


def nonzero_fraction(rng):
    num = rng.choice([x for x in range(-6, 7) if x])
    return Fraction(num, rng.choice([1, 1, 1, 2, 3]))


def random_system(rng, max_n=4, max_order=4, density=0.55, symbolic=0.0,
                  power=1):
    """Systems meeting the standing assumptions: distinct free constants,
    every polynomial touches a parameter, every parameter is used.  A
    symbolic coefficient is a fresh symbol to a power of at most
    ``power``."""
    n = rng.randint(2, max_n)
    m = n - 1
    hosts = {j: rng.randrange(n) for j in range(1, m + 1)}
    polys = []
    for i in range(n):
        ops = {}
        for j in range(1, m + 1):
            if hosts[j] != i and rng.random() >= density:
                continue
            entry = {}
            for k in rng.sample(range(max_order + 1), rng.randint(1, 2)):
                if rng.random() < symbolic:
                    entry[k] = v(f"a{i + 1}{j}{k}")
                    if power > 1:
                        entry[k] = entry[k] ** rng.randint(1, power)
                else:
                    entry[k] = nonzero_fraction(rng)
            ops[j] = entry
        if not ops:
            ops[rng.randint(1, m)] = {
                rng.randint(0, max_order): nonzero_fraction(rng)}
        polys.append(linear_poly(v(f"c{i + 1}"), ops))
    return LinearSystem(polys, params=m)


# ---------------------------------------------------------------------------
# (a) every frame has one more row than parameter columns
# ---------------------------------------------------------------------------


def test_frames_balance_rows_against_columns():
    rng = random.Random(101)
    built = {"fres": 0, "cres": 0, "cf": 0, "general": 0}
    for _ in range(300):
        system = random_system(rng)
        profile = order_profile(system)
        specs = []
        for kind, build in (("fres", spec_fres), ("cres", spec_cres),
                            ("cf", spec_cf)):
            try:
                specs.append((kind, build(system)))
            except NotDefinable:
                continue
        omega = tuple(o + rng.randint(0, 2) for o in profile.orders)
        beta = tuple(rng.randint(0, profile.low[j])
                     for j in sorted(profile.low))
        try:
            specs.append(("general", spec_general(system, beta, omega)))
        except BetaOmegaViolated:
            # zero shifts with padded row budgets are always admissible
            specs.append(("general",
                          spec_general(system, (0,) * system.params, omega)))
        for kind, spec in specs:
            built[kind] += 1
            assert spec.side == spec.width + 1
            rows = sum(bound + 1 for bound in spec.row_bounds.values())
            cols = sum(hi - lo + 1
                       for lo, hi in spec.column_intervals.values())
            assert rows == cols + 1
    assert all(count >= 100 for count in built.values()), built


# ---------------------------------------------------------------------------
# (b) a nonzero determinant always lies in the generated ideal
# ---------------------------------------------------------------------------


def test_determinant_is_always_a_member():
    rng = random.Random(202)
    checked = 0
    for _ in range(600):
        if checked >= 110:
            break
        system = random_system(rng, max_order=rng.choice([1, 2, 2, 3, 4]),
                               symbolic=0.1)
        try:
            spec = spec_fres(system)
        except NotDefinable:
            continue
        if spec.side > 12:
            continue
        matrix = assemble(system, spec)
        det = matrix.determinant()
        assert det == _det_laplace(matrix.entries)[0]
        if det.is_zero():
            continue
        assert verify_membership(det, system)
        checked += 1
    assert checked >= 100, checked


def test_membership_verdicts_match_the_substitution_oracle():
    """The packed membership check, from a polynomial and from the shared
    ring of the direct branch, against the tuple substitution oracle: the
    determinant is a member, so is the determinant times a free constant
    (exponent 2 on a replaced symbol), and the determinant plus one of its
    own monomials is not."""
    rng = random.Random(909)
    checked = 0
    for _ in range(800):
        if checked >= 100:
            break
        system = random_system(rng, max_n=3, max_order=rng.choice([1, 2, 3]),
                               symbolic=0.5, power=3)
        try:
            spec = spec_fres(system)
        except NotDefinable:
            continue
        if spec.side > 8:
            continue
        matrix = assemble(system, spec)
        det = determinant(matrix.entries)
        if det.is_zero():
            continue
        images = {f"c{i + 1}": -f.param_part()
                  for i, f in enumerate(system.polys)}
        shared, image, _ = _det_with_image(matrix.entries, images)
        assert list(shared.terms.items()) == list(det.terms.items())
        assert not image
        stray = next(iter(det.terms))
        for B, member in ((det, True), (det * v("c1"), True),
                          (det + Poly({stray: 1}), False)):
            assert substitute_oracle(B, images).is_zero() is member
            assert verify_membership(B, system) is member
        checked += 1
    assert checked >= 100, checked


# ---------------------------------------------------------------------------
# (c) the matching test agrees with irredundancy by enumeration
# ---------------------------------------------------------------------------


def test_matching_test_agrees_with_enumeration():
    rng = random.Random(303)
    seen = {True: 0, False: 0}
    for _ in range(160):
        system = random_system(rng, density=rng.choice([0.3, 0.5, 0.8]))
        verdict = is_super_essential(system)
        assert verdict == hall_irredundant(pattern_matrix(system))
        seen[verdict] += 1
    assert sum(seen.values()) >= 150
    assert min(seen.values()) >= 10, seen


# ---------------------------------------------------------------------------
# (d) structural rank equals the rank of the symbolic pattern matrix
# ---------------------------------------------------------------------------


def test_structural_rank_matches_symbolic_rank():
    rng = random.Random(404)
    for _ in range(120):
        system = random_system(rng, density=rng.choice([0.25, 0.5, 0.9]))
        pattern = pattern_matrix(system)
        assert structural_rank(pattern) == rank(pattern.symbolic())


# ---------------------------------------------------------------------------
# (e) super essential systems never produce a zero column
# ---------------------------------------------------------------------------


def test_super_essential_frames_have_no_zero_columns():
    rng = random.Random(505)
    checked = 0
    for _ in range(500):
        if checked >= 110:
            break
        system = random_system(rng, symbolic=0.15)
        if not is_super_essential(system):
            continue
        try:
            matrix = assemble(system, spec_fres(system))
        except NotDefinable:
            continue
        assert zero_columns(matrix) == []
        checked += 1
    assert checked >= 100, checked


# ---------------------------------------------------------------------------
# (f) the standard perturbation always rescues the determinant
# ---------------------------------------------------------------------------


def test_perturbed_determinant_never_vanishes():
    rng = random.Random(606)
    checked = 0
    for _ in range(500):
        if checked >= 105:
            break
        system = random_system(rng, max_order=2)
        if not is_super_essential(system):
            continue
        try:
            if spec_fres(system).side > 11:
                continue
        except NotDefinable:
            continue
        eps = default_perturbation(system)
        assert not perturbed_matrix(system, eps).determinant().is_zero()
        checked += 1
    assert checked >= 100, checked


# ---------------------------------------------------------------------------
# (g) no output of eliminate holds a parameter
# ---------------------------------------------------------------------------


def test_eliminate_outputs_hold_no_parameter():
    rng = random.Random(909)
    systems = [motivation_system(), tall_order_system(), four_eq_system(5),
               four_eq_system(1), generic_three_system(),
               generic_four_system(), pattern_system(SE_DE_1),
               pattern_system(SE_DE_2)]
    for symbolic, cap in ((0.0, 14), (0.3, 11)):
        for _ in range(200):
            system = random_system(rng, max_order=2, symbolic=symbolic)
            try:
                if spec_fres(system).side <= cap:
                    systems.append(system)
            except MathError:
                continue
    branches = {"direct": 0, "perturbed": 0}
    for system in systems:
        report = eliminate(system)
        params = {param_sym(j).name for j in range(1, system.params + 1)}
        assert not {s.name for s in report.output.symbols()} & params
        branches[report.branch] += 1
    assert branches["direct"] >= 240 and branches["perturbed"] >= 5, branches


# ---------------------------------------------------------------------------
# (i) rank-deficient numeric systems answer their built-in eliminant
# ---------------------------------------------------------------------------


def rank_deficient_system(rng, orders, a):
    """A numeric system of len(orders) + 1 polynomials whose last
    parameter part is mu D^a f1 + lam f2, so c_n - mu c1^(a) - lam c2 lies
    in its ideal; row i reaches its order in parameter (i mod m) + 1.
    Returns (system, that eliminant), or None when the system is not super
    essential or the operator matrix of its first m rows is singular (then
    the ideal may hold an eliminant of lower order)."""
    m = len(orders)
    rows = []
    for i, o in enumerate(orders):
        row = {}
        for j in range(1, m + 1):
            ks = ([k for k in range(o + 1) if rng.random() < 0.5]
                  or [rng.randrange(o + 1)])
            row[j] = {k: nonzero_fraction(rng) for k in ks}
        row[i % m + 1].setdefault(o, nonzero_fraction(rng))
        rows.append(row)
    mu, lam = nonzero_fraction(rng), nonzero_fraction(rng)
    last = {}
    for src, scale, shift in ((rows[0], mu, a), (rows[1], lam, 0)):
        for j, op in src.items():
            for k, c in op.items():
                slot = last.setdefault(j, {})
                slot[k + shift] = slot.get(k + shift, 0) + scale * c
    last = {j: {k: c for k, c in op.items() if c} for j, op in last.items()}
    rows.append({j: op for j, op in last.items() if op})
    system = LinearSystem([linear_poly(v(f"c{i + 1}"), row)
                           for i, row in enumerate(rows)], params=m)
    d = Poly.var(const_sym("D"))
    ops = [[Poly.sum(c * d ** k for k, c in row.get(j, {}).items())
            for j in range(1, m + 1)] for row in rows[:m]]
    if not is_super_essential(system) or cofactor_det(ops).is_zero():
        return None
    n = m + 1
    return system, v(f"c{n}") - mu * v("c1", a) - lam * v("c2")


def test_rank_deficient_systems_answer_their_built_in_eliminant():
    """Numeric perturbed frames of side 20 to about 37, far past the ones
    the fixtures and ``random_system`` reach."""
    rng = random.Random(1010)
    sides = []
    for orders, a in (((3, 3), 1), ((4, 3), 0), ((4, 4), 1), ((5, 4), 1),
                      ((6, 4), 1), ((2, 2, 2), 1), ((3, 2, 2), 0)):
        for _ in range(2):
            built = None
            while built is None:
                built = rank_deficient_system(rng, orders, a)
            system, eliminant = built
            report = eliminate(system)
            assert report.branch == "perturbed"
            mono, c = next(iter(eliminant.terms.items()))
            assert report.output == eliminant * (report.output.terms[mono] / c)
            assert report.membership is True
            assert report.lowest_degree >= report.co_order >= 1
            sides.append(report.side)
    assert min(sides) <= 22 and max(sides) >= 36, sides


# ---------------------------------------------------------------------------
# (h) derivations obey the product rule; determinant routes agree
# ---------------------------------------------------------------------------


_GENERATORS = [sym("a"), sym("a", 1), sym("b"), sym("b", 2), sym("t")]


def random_poly(rng, max_terms=3):
    p = Poly.zero()
    for _ in range(rng.randint(0, max_terms)):
        piece = as_poly(nonzero_fraction(rng))
        for s in rng.sample(_GENERATORS, rng.randint(0, 2)):
            piece = piece * Poly.var(s)
        p = p + piece
    return p


def test_derive_satisfies_the_product_rule():
    rng = random.Random(707)
    for _ in range(120):
        p = random_poly(rng)
        q = random_poly(rng)
        assert (p * q).derive() == p.derive() * q + p * q.derive()


def det_cofactor(m):
    if len(m) == 1:
        return m[0][0]
    total = Poly.zero()
    for c, e in enumerate(m[0]):
        if e.is_zero():
            continue
        minor = [row[:c] + row[c + 1:] for row in m[1:]]
        piece = e * det_cofactor(minor)
        total = total + piece if c % 2 == 0 else total - piece
    return total


def test_determinant_methods_agree_with_cofactor_expansion():
    rng = random.Random(808)
    for trial in range(110):
        side = rng.randint(2, 5 if trial % 3 else 6)
        m = [[random_poly(rng, max_terms=1) if rng.random() < 0.6
              else Poly.zero() for _ in range(side)] for _ in range(side)]
        expected = det_cofactor(m)
        if numeric_h(m):
            assert _bareiss_frame(m, None)[0] == expected
        assert _det_laplace(m)[0] == expected
        assert determinant(m) == expected
