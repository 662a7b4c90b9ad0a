"""Frame specifications, assembly and determinant plumbing.

The assembly oracle reconstructs each matrix row as a polynomial,
free term plus sum of entry times column variable, and compares with the
independently expanded derivative of the source polynomial.
"""

from __future__ import annotations

import random

import pytest

from diffres import algebra, formulas
from diffres.algebra import Poly, const_sym, determinant, sym
from diffres.errors import (AssumptionViolated, BetaOmegaViolated,
                            ColumnMissing, NotDefinable,
                            NotDifferentiallyEssential)
from diffres.formulas import (FormulaMatrix, FormulaSpec, Kind, Verdict,
                              assemble, certify_nonzero, co_order, dfres,
                              order_bounds, rank_homogeneous, spec_cf,
                              spec_cres, spec_fres, spec_general,
                              zero_columns)
from diffres.perturb import default_perturbation, perturbed_matrix
from diffres.systems import (LinearDiffPoly, LinearSystem, linear_poly,
                             param_sym, specialize)

from conftest import (GENERIC_FOUR_VALUES, SE_DE_2, SE_DE_3, four_eq_system,
                      derive_n, generic_four_system,
                      generic_three_system, motivation_system, ordered_entries,
                      pattern_system, reference_assemble, tall_order_system, v)
from test_algebra import numeric_h_frames
from test_properties import random_system


def skewed_system():
    """One high-order polynomial hoarding its own parameter; the tight
    frame is undefinable here."""
    f1 = linear_poly(v("c1"), {1: {4: 1}})
    f2 = linear_poly(v("c2"), {2: {0: 1}})
    f3 = linear_poly(v("c3"), {2: {0: 1}})
    return LinearSystem([f1, f2, f3], params=2)


def dense_flat_system():
    """Every operator present with full order gaps closed."""
    f1 = linear_poly(v("b1"), {1: {0: v("b110")}, 2: {1: v("b121")}})
    f2 = linear_poly(v("b2"), {1: {1: v("b211")}, 2: {0: v("b220")}})
    f3 = linear_poly(v("b3"), {1: {0: v("b310")}, 2: {0: v("b320")}})
    return LinearSystem([f1, f2, f3], params=2)


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------


def test_tight_spec_of_motivation_system():
    spec = spec_fres(motivation_system())
    assert spec.kind is Kind.FRES
    assert spec.row_bounds == {1: 3, 2: 2, 3: 3}
    assert spec.column_intervals == {1: (0, 4), 2: (1, 5)}
    assert spec.side == 11


def test_tight_spec_of_four_eq_system():
    spec = spec_fres(four_eq_system())
    assert spec.row_bounds == {1: 3, 2: 5, 3: 3, 4: 3}
    assert spec.side == 18


def test_tight_spec_clips_unused_low_orders():
    spec = spec_fres(tall_order_system())
    assert spec.row_bounds == {1: 1, 2: 5, 3: 5}
    assert spec.column_intervals == {1: (1, 6), 2: (0, 6)}
    assert spec.side == 14


def test_tight_spec_undefinable():
    with pytest.raises(NotDefinable) as err:
        spec_fres(skewed_system())
    assert err.value.row == 1
    assert err.value.bound == -4


def test_clipped_full_spec_of_motivation_system():
    spec = spec_cres(motivation_system())
    assert spec.row_bounds == {1: 4, 2: 3, 3: 4}
    assert spec.column_intervals == {1: (0, 5), 2: (0, 6)}
    assert spec.side == 14


def test_clipped_full_spec_can_coincide_with_full():
    # gap profile zero and the only missing operator sits in an order-0 row
    for system in (four_eq_system(), dense_flat_system()):
        clipped = spec_cres(system)
        full = spec_cf(system)
        assert clipped.row_bounds == full.row_bounds
        assert clipped.column_intervals == full.column_intervals


def test_full_spec_of_four_eq_system():
    spec = spec_cf(four_eq_system())
    assert spec.row_bounds == {1: 4, 2: 6, 3: 4, 4: 4}
    assert spec.side == 22
    assert spec.column_intervals == {1: (0, 6), 2: (0, 6), 3: (0, 6)}


def test_full_spec_of_motivation_system():
    spec = spec_cf(motivation_system())
    assert spec.side == 17
    assert spec.column_intervals == {1: (0, 7), 2: (0, 7)}


def test_general_spec_with_zero_shift_is_the_full_spec():
    system = four_eq_system()
    spec = spec_general(system, [0, 0, 0], list(system.orders()))
    full = spec_cf(system)
    assert spec.row_bounds == full.row_bounds
    assert spec.column_intervals == full.column_intervals
    assert spec.beta_omega == ((0, 0, 0), (2, 0, 2, 2))


def test_general_spec_rejects_bad_shift_data():
    system = four_eq_system()
    with pytest.raises(BetaOmegaViolated, match="b1"):
        spec_general(system, [2, 2, 2], list(system.orders()))
    with pytest.raises(BetaOmegaViolated, match="b2"):
        spec_general(system, [1, 0, 0], list(system.orders()))
    with pytest.raises(BetaOmegaViolated):
        spec_general(system, [0, 0], list(system.orders()))
    with pytest.raises(BetaOmegaViolated):
        spec_general(system, [0, 0, -1], list(system.orders()))


def test_every_spec_is_square():
    systems = (motivation_system(), four_eq_system(), tall_order_system(),
               generic_three_system(), generic_four_system())
    for system in systems:
        for ctor in (spec_fres, spec_cres, spec_cf):
            spec = ctor(system)
            assert spec.side == spec.width + 1


def test_frames_keep_parameter_labels_with_gaps():
    """Labels 2 and 4 of four slots give the frames of labels 1 and 2,
    with the labels on the columns."""
    system = motivation_system()
    label = {1: 2, 2: 4}
    gapped = LinearSystem([LinearDiffPoly(f.free, {label[j]: op
                                                   for j, op in f.ops.items()})
                           for f in system.polys], params=4)
    for ctor in (spec_fres, spec_cres, spec_cf):
        want, got = (assemble(s, ctor(s)) for s in (system, gapped))
        assert got.columns == tuple((label[j], k) for j, k in want.columns)
        assert got.entries == want.entries


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_assembly_order_of_motivation_system():
    m = assemble(motivation_system(), spec_fres(motivation_system()))
    assert m.rows == ((1, 3), (1, 2), (1, 1), (1, 0),
                      (2, 2), (2, 1), (2, 0),
                      (3, 3), (3, 2), (3, 1), (3, 0))
    assert m.columns == ((2, 5), (2, 4), (1, 4), (2, 3), (1, 3),
                         (2, 2), (1, 2), (2, 1), (1, 1), (1, 0))
    assert m.entries[0][0] == v("a122")          # top corner
    assert m.entries[6][3] == v("a223")          # undifferentiated row
    assert m.entries[7][-1] == Poly.var(sym("a3", 3))
    assert m.side == 11


def test_assembled_rows_reconstruct_the_derivatives():
    cases = [
        (motivation_system(), spec_fres),
        (motivation_system(), spec_cres),
        (four_eq_system(), spec_fres),
        (tall_order_system(), spec_fres),
        (generic_four_system(), spec_cf),
    ]
    for system, ctor in cases:
        m = assemble(system, ctor(system))
        for (i, k), row in zip(m.rows, m.entries):
            recon = row[-1]
            for label, entry in zip(m.columns, row):
                recon = recon + entry * Poly.var(param_sym(*label))
            assert recon == derive_n(system.polys[i - 1].to_poly(), k)


def test_assembly_fails_fast_on_missing_column():
    spec = FormulaSpec(Kind.FRES, {1: 1, 2: 5, 3: 5},
                       {1: (0, 5), 2: (0, 6)})
    with pytest.raises(ColumnMissing) as err:
        assemble(tall_order_system(), spec)
    assert err.value.label == (1, 6)


def general_specs(system):
    """Every valid shift datum with beta_j in {0, 1} and omega the orders,
    or the orders plus one."""
    orders = list(system.orders())
    for omega in (orders, [o + 1 for o in orders]):
        for bits in range(1 << system.params):
            beta = [bits >> j & 1 for j in range(system.params)]
            try:
                yield spec_general(system, beta, omega)
            except (BetaOmegaViolated, NotDefinable):
                pass


def assembled_or_missing(assembler, system, spec):
    try:
        return assembler(system, spec)
    except ColumnMissing as err:
        return err.label


def check_assembly(system, spec):
    """The frame of the derivative tables against the derive-stack
    reference: rows, columns and entries, the term order of each entry
    included, or the same ColumnMissing label.  True when both raised."""
    want = assembled_or_missing(reference_assemble, system, spec)
    got = assembled_or_missing(assemble, system, spec)
    if isinstance(want, tuple):
        assert got == want
        return True
    assert (got.rows, got.columns) == (want.rows, want.columns)
    assert ordered_entries(got) == ordered_entries(want)
    return False


def test_assembly_matches_the_derive_stack_reference():
    systems = [motivation_system(), generic_three_system(),
               generic_four_system(), four_eq_system(5), four_eq_system(1),
               tall_order_system(), skewed_system(), dense_flat_system(),
               pattern_system(SE_DE_2), pattern_system(SE_DE_3, order=2)]
    compared = 0
    for system in systems:
        specs = []
        for ctor in (spec_fres, spec_cres, spec_cf):
            try:
                specs.append(ctor(system))
            except (NotDefinable, AssumptionViolated):
                pass
        for spec in specs + list(general_specs(system)):
            assert not check_assembly(system, spec)
            compared += 1
    assert compared >= 40, compared


def test_assembly_matches_the_reference_on_random_symbolic_systems():
    """Symbolic coefficients up to the third power, derived to several
    orders, with their derivative orders drawn out of order, so the sums
    c_(m-1) + c_m' meet in either order."""
    rng = random.Random(3301)
    kinds = {"fres": 0, "cres": 0, "cf": 0, "general": 0}
    for _ in range(200):
        system = random_system(rng, max_n=3, max_order=3, symbolic=0.6,
                               power=3)
        for kind, ctor in (("fres", spec_fres), ("cres", spec_cres),
                           ("cf", spec_cf)):
            try:
                spec = ctor(system)
            except (NotDefinable, AssumptionViolated):
                continue
            if spec.side <= 16:
                assert not check_assembly(system, spec)
                kinds[kind] += 1
        for spec in list(general_specs(system))[:2]:
            if spec.side <= 16:
                assert not check_assembly(system, spec)
                kinds["general"] += 1
    assert min(kinds.values()) >= 50, kinds


def test_assembly_raises_the_reference_column_missing_label():
    """Tight frames with their column windows slid by up to three orders
    either way keep their shape; where coefficients fall outside, often
    several of one parameter or of several, both assemblies name the same
    label."""
    rng = random.Random(3302)
    raised = matched = 0
    for _ in range(300):
        system = random_system(rng, max_n=3, max_order=3, symbolic=0.4,
                               power=2)
        try:
            spec = spec_fres(system)
        except (NotDefinable, AssumptionViolated):
            continue
        if spec.side > 16:
            continue
        intervals = {}
        for j, (lo, hi) in spec.column_intervals.items():
            d = rng.choice([d for d in range(-3, 4) if lo + d >= 0])
            intervals[j] = (lo + d, hi + d)
        slid = FormulaSpec(Kind.FRES, spec.row_bounds, intervals)
        if check_assembly(system, slid):
            raised += 1
        else:
            matched += 1
    assert raised >= 30 and matched >= 30, (raised, matched)


def test_zero_columns():
    tall = tall_order_system()
    assert zero_columns(assemble(tall, spec_fres(tall))) == [(1, 4), (1, 3)]
    motiv = motivation_system()
    assert zero_columns(assemble(motiv, spec_cres(motiv))) == [(2, 0)]
    for system in (motiv, four_eq_system(), generic_four_system()):
        assert zero_columns(assemble(system, spec_fres(system))) == []


# ---------------------------------------------------------------------------
# determinants, ranks, bounds
# ---------------------------------------------------------------------------


def expected_four_eq_output():
    terms = {
        ("c4", 0): 128, ("c3", 0): 192, ("c3", 1): 64, ("c1", 1): -64,
        ("c4", 2): 128, ("c2", 4): -128, ("c1", 2): 64, ("c3", 3): -320,
        ("c1", 3): 64, ("c2", 3): 256, ("c3", 2): -192, ("c1", 0): -64,
        ("c2", 0): -128,
    }
    total = Poly.zero()
    for (name, order), coeff in terms.items():
        total = total + Poly.var(sym(name, order)) * coeff
    return total


def test_elimination_output_of_four_eq_system():
    got = dfres(four_eq_system())
    want = expected_four_eq_output()
    assert got == want or got == -want


def test_elimination_output_commutes_with_specialization():
    special = specialize(four_eq_system(),
                         {"c1": v("x"), "c2": 0, "c3": 0, "c4": 0})
    got = dfres(special)
    want = (Poly.var(sym("x", 2)) * 64 + Poly.var(sym("x", 3)) * 64
            - Poly.var(sym("x", 1)) * 64 - Poly.var(sym("x")) * 64)
    assert got == want or got == -want


def test_elimination_output_can_vanish():
    assert dfres(four_eq_system(first_leading_coeff=1)).is_zero()


def test_determinant_route_follows_the_frame(monkeypatch):
    """Bareiss when H holds at most one symbol and the free-term column
    does not hold it, Laplace otherwise, whatever the share of zeros."""
    calls = []
    for name in ("_bareiss_frame", "_det_laplace"):
        def recorded(m, *args, name=name, route=getattr(algebra, name)):
            calls.append(name)
            return route(m, *args)
        monkeypatch.setattr(algebra, name, recorded)

    def routes(matrix):
        calls.clear()
        determinant(getattr(matrix, "entries", matrix))
        return calls

    numeric = assemble(four_eq_system(5), spec_fres(four_eq_system(5)))
    zeros = sum(e.is_zero() for row in numeric.entries for e in row)
    assert numeric.side == 18 and zeros > 0.75 * 18 * 18
    assert routes(numeric) == ["_bareiss_frame"]
    symbolic = assemble(motivation_system(), spec_fres(motivation_system()))
    assert routes(symbolic) == ["_det_laplace"]
    degenerate = four_eq_system(1)
    perturbed = perturbed_matrix(degenerate, default_perturbation(degenerate))
    assert routes(perturbed) == ["_bareiss_frame"]
    # a constant symbol k as the one symbol of H: the direct frame takes
    # Bareiss, the perturbed one holds k and p and takes Laplace
    lead = four_eq_system(Poly.var(const_sym("k")))
    assert routes(assemble(lead, spec_fres(lead))) == ["_bareiss_frame"]
    two = perturbed_matrix(lead, default_perturbation(lead))
    assert routes(two) == ["_det_laplace"]
    # the one symbol of H also in the free-term column
    a = v("a")
    assert routes([[a, v("c1") + a], [Poly.one(), v("c2")]]) == [
        "_det_laplace"]


def test_homogeneous_rank_detects_degeneracy():
    good = assemble(four_eq_system(), spec_fres(four_eq_system()))
    assert rank_homogeneous(good) == 17
    assert co_order(good) == 0
    bad_system = four_eq_system(first_leading_coeff=1)
    bad = assemble(bad_system, spec_fres(bad_system))
    assert rank_homogeneous(bad) < 17
    assert co_order(bad) >= 1


def test_co_order_of_a_symbolic_rank_deficient_frame():
    """f3 is D f1 + f2 in its parameter part, with symbolic coefficients.
    The homogeneous part loses rank 3, so its columns are dependent and
    the frame determinant vanishes."""
    f1 = linear_poly(v("c1"), {1: {0: v("a"), 1: v("b")}, 2: {1: v("e")}})
    f2 = linear_poly(v("c2"), {1: {1: v("g")}, 2: {0: v("h"), 2: v("k")}})
    df1 = LinearDiffPoly(Poly.zero(), f1.ops).derive()
    f3 = LinearDiffPoly(v("c3"), {j: df1.ops[j] + f2.ops[j] for j in (1, 2)})
    system = LinearSystem([f1, f2, f3], params=2)
    matrix = assemble(system, spec_fres(system))
    assert matrix.side == 13
    assert matrix.determinant().is_zero()
    assert co_order(matrix) == 3
    assert rank_homogeneous(matrix) == 9


def test_co_order_of_the_generic_frames_is_zero():
    """Full rank at the evaluation point settles these symbolic frames
    without a symbolic minor."""
    for system in (motivation_system(), generic_three_system(),
                   generic_four_system()):
        matrix = assemble(system, spec_fres(system))
        assert co_order(matrix) == 0
        assert rank_homogeneous(matrix) == matrix.side - 1


def test_order_bounds():
    assert order_bounds(generic_three_system()) == {1: 2, 2: 1, 3: 2}
    assert order_bounds(pattern_system(SE_DE_2)) == {1: -1, 2: -1,
                                                     3: 0, 4: 0}
    with pytest.raises(NotDifferentiallyEssential):
        order_bounds(pattern_system(SE_DE_3))


def test_order_bounds_respected_by_the_actual_output():
    bounds = order_bounds(four_eq_system())
    output = dfres(four_eq_system())
    top = {}
    for mono in output.terms:
        for s, _ in mono:
            top[s.name] = max(top.get(s.name, -1), s.order)
    for i, bound in bounds.items():
        assert top.get(f"c{i}", -1) <= bound


def test_nonzero_certification(monkeypatch):
    generic = generic_four_system()
    m = assemble(generic, spec_fres(generic))
    assert certify_nonzero(m, trials=5, seed=1) is Verdict.NONZERO_CERTIFIED

    special = specialize(generic, GENERIC_FOUR_VALUES)
    ms = assemble(special, spec_fres(special))
    assert ms.side == 10
    assert certify_nonzero(ms, trials=3, seed=1) is Verdict.ZERO_PROVEN
    monkeypatch.setattr(formulas, "EXACT_SIDE_CAP", 4)
    assert certify_nonzero(ms, trials=3, seed=1) is Verdict.UNKNOWN


def test_certification_of_constant_matrices():
    spec = FormulaSpec(Kind.GENERAL, {1: 0}, {})
    eye = FormulaMatrix(rows=((1, 0),), columns=(),
                        entries=((Poly.one(),),), spec=spec)
    assert certify_nonzero(eye, trials=1) is Verdict.NONZERO_CERTIFIED


def test_certification_matches_the_determinant_on_numeric_frames(
        monkeypatch):
    """Each evaluated frame goes through the integer elimination: with no
    exact fallback, exactly the frames with a nonzero determinant are
    certified, rational entries, zero rows and zero columns included."""
    monkeypatch.setattr(formulas, "EXACT_SIDE_CAP", 0)
    spec = FormulaSpec(Kind.GENERAL, {1: 0}, {})
    verdicts = []
    for m in numeric_h_frames(random.Random(43)):
        matrix = FormulaMatrix(rows=(), columns=(), spec=spec,
                               entries=tuple(tuple(row) for row in m))
        verdict = certify_nonzero(matrix, trials=4, seed=2)
        assert verdict is (Verdict.UNKNOWN if determinant(m).is_zero()
                           else Verdict.NONZERO_CERTIFIED)
        verdicts.append(verdict)
    assert verdicts.count(Verdict.UNKNOWN) >= 20
    assert verdicts.count(Verdict.NONZERO_CERTIFIED) >= 60
