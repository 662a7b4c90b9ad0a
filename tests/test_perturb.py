import hashlib
import math
import random
from fractions import Fraction

import pytest
from conftest import (
    SE_DE_2,
    four_eq_system,
    generic_four_system,
    generic_three_system,
    motivation_system,
    pattern_system,
    tall_order_system,
    v,
)
from test_algebra import substitute_oracle

from diffres.algebra import (Frac, Poly, _det_with_image, const_sym,
                             determinant, exact_div, sym)
from diffres.errors import (
    AssumptionViolated,
    EmptyInput,
    NotDPPEShaped,
    NotLinear,
    NotSuperEssential,
    SymbolClash,
    ZeroInput,
)
from diffres.formulas import Verdict, certify_nonzero, dfres, spec_cres
from diffres import perturb
from diffres.perturb import (
    FractionOperator,
    Perturbation,
    _dense,
    _divmod_left,
    _left_gcd,
    decompose_linear,
    default_perturbation,
    eliminate,
    extract_resultant,
    gcld,
    id_primitive_part,
    lowest_p_coefficient,
    perturb_system,
    perturbed_matrix,
    verify_membership,
)
from diffres.structure import is_super_essential
from diffres.systems import (
    DiffOperator,
    LinearDiffPoly,
    LinearSystem,
    linear_poly,
)


def term(ops):
    return LinearDiffPoly(Poly.zero(), ops)


def expand(decomposition):
    """The combination that a decomposition splits, put back together."""
    return Poly.sum(c * Poly.var(sym(name, k))
                    for name, op in decomposition.operators.items()
                    for k, c in op.coeffs.items())


def compose(outer, inner):
    """Operator composition; differentiation acts on the inner coefficients.
    The oracle for left division and gcld."""
    out = {}
    for k, c in inner.coeffs.items():
        for j, b in outer.coeffs.items():
            d = c
            for l in range(j + 1):
                key = j - l + k
                out[key] = out.get(key, Poly.zero()) + b * d * math.comb(j, l)
                d = d.derive()
    return DiffOperator(out)


def skewed_chain_system():
    """Super essential, but the rows are ordered against their orders."""
    f1 = linear_poly(v("c1"), {1: {3: 1}})
    f2 = linear_poly(v("c2"), {2: {0: 1}})
    f3 = linear_poly(v("c3"), {1: {4: 1}, 2: {0: 1}})
    return LinearSystem([f1, f2, f3], params=2)


C4 = ("c1", "c2", "c3", "c4")


def normalized_target():
    return (-v("c1", 1) - v("c1") - 2 * v("c2", 2) - 2 * v("c2")
            + v("c3", 1) + 3 * v("c3") + 2 * v("c4"))


def operators_up_to_sign(decomposition, expected):
    got = {name: decomposition.operators[name] for name in expected}
    plain = {name: DiffOperator(d) for name, d in expected.items()}
    if got == plain:
        return True
    flipped = {name: DiffOperator({k: -c for k, c in d.items()})
               for name, d in expected.items()}
    return got == flipped


# ---------------------------------------------------------------------------
# building perturbations
# ---------------------------------------------------------------------------


def test_default_perturbation_of_the_four_eq_system():
    eps = default_perturbation(four_eq_system(1))
    assert eps.terms == (
        term({3: {2: 1}}),
        term({1: {0: 1}, 3: {0: 1}}),
        term({2: {1: 1}, 1: {0: 1}}),
        term({2: {0: 1}}),
    )
    assert eps.matching == ((1, 3), (2, 1), (3, 2))


def test_default_perturbation_requires_super_essential():
    with pytest.raises(NotSuperEssential):
        default_perturbation(tall_order_system())


def test_default_perturbation_reorders_an_awkward_chain():
    system = skewed_chain_system()
    eps = default_perturbation(system)
    assert eps.terms == (
        term({1: {3: 1}, 2: {0: 1}}),
        term({2: {0: 1}}),
        term({1: {3: 1}}),
    )
    assert eps.matching == ((1, 1), (2, 2))
    det = perturbed_matrix(system, eps).determinant()
    assert not det.is_zero()


def test_perturbation_terms_must_be_homogeneous():
    with pytest.raises(NotLinear):
        Perturbation((LinearDiffPoly(v("c1"), {1: {0: 1}}),))
    with pytest.raises(NotLinear):
        Perturbation((term({1: {0: v("a")}}),))


# ---------------------------------------------------------------------------
# applying perturbations
# ---------------------------------------------------------------------------


def test_perturb_system_shifts_the_operators():
    system = four_eq_system(1)
    shifted = perturb_system(system, default_perturbation(system))
    p = Poly.var(const_sym("p"))
    assert shifted.polys[0].ops[3] == DiffOperator({0: 1, 2: -p})
    assert shifted.polys[1].ops[1] == DiffOperator({0: 1 - p})
    assert shifted.polys[1].ops[3] == DiffOperator({0: 1 - p})
    assert shifted.polys[2].ops[2] == DiffOperator({0: 1, 1: -p})
    assert shifted.polys[3].ops[2] == DiffOperator({0: -p, 1: 1})
    assert shifted.polys[0].free == v("c1")


def test_perturbing_by_zero_changes_nothing():
    system = four_eq_system(1)
    assert perturb_system(system, Perturbation.zero(4)) == system


def test_perturbation_vanishes_with_the_variable():
    system = four_eq_system(1)
    shifted = perturb_system(system, default_perturbation(system))
    for before, after in zip(system.polys, shifted.polys):
        assert after.to_poly().substitute({"p": 0}) == before.to_poly()


def test_perturb_system_refuses_a_used_symbol():
    f1 = linear_poly(v("c1"), {1: {0: Poly.var(sym("p"))}})
    f2 = linear_poly(v("c2"), {1: {1: 1}})
    system = LinearSystem([f1, f2], params=1)
    with pytest.raises(SymbolClash):
        perturb_system(system, Perturbation.zero(2))


def test_perturb_system_checks_the_length():
    with pytest.raises(ValueError):
        perturb_system(four_eq_system(1), Perturbation.zero(3))


def test_zero_perturbation_reproduces_the_determinant():
    system = four_eq_system(5)
    det = perturbed_matrix(system, Perturbation.zero(4)).determinant()
    assert det == dfres(system)


def test_perturbed_matrix_requires_super_essential():
    with pytest.raises(NotSuperEssential):
        perturbed_matrix(tall_order_system(), Perturbation.zero(3))


# ---------------------------------------------------------------------------
# the singular four-polynomial example, end to end
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def singular_run():
    system = four_eq_system(1)
    matrix = perturbed_matrix(system, default_perturbation(system))
    det = matrix.determinant()
    degree, low = lowest_p_coefficient(det)
    return system, matrix, det, degree, low


def test_perturbed_frame_keeps_its_size(singular_run):
    _, matrix, _, _, _ = singular_run
    assert matrix.side == 18


def test_lowest_coefficient_sits_at_degree_two(singular_run):
    _, _, det, degree, low = singular_run
    assert degree == 2
    assert not low.is_zero()
    p = Poly.var(const_sym("p"))
    rest = det - p * p * low
    if not rest.is_zero():
        assert lowest_p_coefficient(rest)[0] >= 3


def test_the_operator_decomposition_is_the_known_one(singular_run):
    _, _, _, _, low = singular_run
    dec = decompose_linear(low, C4)
    assert operators_up_to_sign(dec, {
        "c1": {3: -24, 2: -24, 1: 24, 0: 24},
        "c2": {4: -48, 0: 48},
        "c3": {3: 24, 2: 72, 1: -24, 0: -72},
        "c4": {2: 48, 0: -48},
    })
    assert expand(dec) == low


def test_the_common_left_factor_is_quadratic(singular_run):
    _, _, _, _, low = singular_run
    dec = decompose_linear(low, C4)
    g = gcld(dec.operators.values())
    assert g == FractionOperator.of({0: -1, 2: 1})


def test_the_primitive_part_is_the_known_eliminant(singular_run):
    system, _, _, _, low = singular_run
    prim = id_primitive_part(low, C4)
    target = normalized_target()
    assert prim in (target, -target)
    assert verify_membership(low, system)
    assert verify_membership(prim, system)


def test_the_shifted_formula_gives_the_same_eliminant():
    system = four_eq_system(1)
    # the closed-form perturbation of the shift/degree pair beta = (0, 0, 0),
    # omega = (2, 0, 2, 2)
    eps = Perturbation((
        term({3: {2: 1}}),
        term({2: {0: 1}, 3: {0: 1}}),
        term({1: {2: 1}, 2: {0: 1}}),
        term({1: {0: 1}}),
    ))
    matrix = perturbed_matrix(system, eps, spec=spec_cres(system))
    assert matrix.side == 22
    _, low = lowest_p_coefficient(matrix.determinant())
    prim = id_primitive_part(low, C4)
    target = normalized_target()
    assert prim in (target, -target)


# ---------------------------------------------------------------------------
# lowest coefficient in the perturbation variable
# ---------------------------------------------------------------------------


def test_lowest_coefficient_without_the_variable():
    f = v("c1") + 2 * v("x", 1)
    assert lowest_p_coefficient(f) == (0, f)


def test_lowest_coefficient_of_a_pure_power():
    p = Poly.var(const_sym("p"))
    assert lowest_p_coefficient(p ** 3 * v("c1")) == (3, v("c1"))
    mixed = p ** 2 * v("x") + p ** 5 * v("y")
    assert lowest_p_coefficient(mixed) == (2, v("x"))


def test_lowest_coefficient_rejects_zero():
    with pytest.raises(ZeroInput):
        lowest_p_coefficient(Poly.zero())


# ---------------------------------------------------------------------------
# decomposition and left-sided arithmetic
# ---------------------------------------------------------------------------


def test_decompose_linear_of_the_regular_determinant():
    det = dfres(four_eq_system(5))
    dec = decompose_linear(det, C4)
    assert operators_up_to_sign(dec, {
        "c1": {0: -64, 1: -64, 2: 64, 3: 64},
        "c2": {0: -128, 3: 256, 4: -128},
        "c3": {0: 192, 1: 64, 2: -192, 3: -320},
        "c4": {0: 128, 2: 128},
    })
    assert expand(dec) == det
    g = gcld(dec.operators.values())
    assert g == FractionOperator.of({0: 1})
    prim = id_primitive_part(det, C4)
    scaled = det * Fraction(1, 64)
    assert prim in (scaled, -scaled)


def test_decompose_linear_rejects_nonlinear_input():
    with pytest.raises(NotLinear):
        decompose_linear(v("c1") * v("c2"), C4)
    with pytest.raises(NotLinear):
        decompose_linear(v("c1") * v("c1"), C4)
    with pytest.raises(NotLinear):
        decompose_linear(v("c1") + v("x"), C4)


def test_left_division_picks_up_the_derivative():
    a = Poly.var(sym("a"))
    da = Poly.var(sym("a", 1))
    q, r = _divmod_left(FractionOperator.of({0: da, 1: a}).coeffs,
                        FractionOperator.of({1: a}).coeffs)
    assert q == list(FractionOperator.of({0: 1}).coeffs)
    assert r == list(FractionOperator.of({0: da}).coeffs)


def test_gcld_of_one_operator_is_its_monic_form():
    g = gcld([DiffOperator({0: 4, 2: 2})])
    assert g == FractionOperator.of({0: 2, 2: 1})
    with pytest.raises(EmptyInput):
        gcld([])
    with pytest.raises(ZeroInput):
        gcld([DiffOperator({})])


def test_gcld_divides_random_products():
    rng = random.Random(7)
    for trial in range(58):
        # symbolic operators stay at degree one: a symbolic lead makes the
        # remainder sequence fractional and large
        symbolic = trial >= 50
        max_deg = 1 if symbolic else 2

        def rand_op():
            deg = rng.randint(0, max_deg)
            coeffs = {}
            for k in range(deg + 1):
                c = rng.randint(1, 4) if k == deg else rng.randint(-3, 3)
                if c:
                    coeffs[k] = Fraction(c)
                if symbolic and rng.random() < 0.5:
                    coeffs[k] = Poly.var(sym("t")) + c
            return DiffOperator(coeffs)

        a, b, c = rand_op(), rand_op(), rand_op()
        left = compose(a, b)
        right = compose(a, c)
        g = gcld([left, right])
        assert g.coeffs[-1] == Frac.of(1)
        assert g.deg() >= a.deg()
        for product in (left, right):
            _, r = _divmod_left(FractionOperator.of(product).coeffs, g.coeffs)
            assert not r


def test_compose_applies_the_product_rule():
    a = Poly.var(sym("a"))
    got = compose(DiffOperator({1: 1}), DiffOperator({0: a}))
    assert got == DiffOperator({0: Poly.var(sym("a", 1)), 1: a})


def same_coeffs(fast, reference):
    """Fraction entries equal to the Frac entries of the reference, term
    order of numerator and denominator included (the reference pads with
    Fraction zeros, as the routines do)."""
    if len(fast) != len(reference):
        return False
    for c, ref in zip(fast, reference):
        c, ref = Frac.of(c), Frac.of(ref)
        if (list(c.num.terms.items()) != list(ref.num.terms.items())
                or list(c.den.terms.items()) != list(ref.den.terms.items())):
            return False
    return True


def test_constant_operators_reduce_over_fractions_like_the_frac_route(
        monkeypatch):
    """Operators g composed with q_i, all with rational constant
    coefficients, reduced on Fraction lists and on all-Frac lists."""
    rng = random.Random(27)
    names = ("c1", "c2", "c3")

    def rand_op(deg):
        coeffs = {k: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for k in range(deg)}
        coeffs[deg] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                               rng.randint(1, 3))
        return DiffOperator(coeffs)

    draws = []
    for _ in range(200):
        g = rand_op(rng.randint(0, 2))
        products = [compose(g, rand_op(rng.randint(0, 2)))
                    for _ in range(rng.randint(1, 3))]
        draws.append(products)

    built = []
    frac_init = Frac.__init__

    def counting_init(self, *args):
        built.append(args)
        frac_init(self, *args)

    fast = []
    monkeypatch.setattr(Frac, "__init__", counting_init)
    for products in draws:
        dense = [_dense(a) for a in products]
        g = _left_gcd(dense)
        divided = [_divmod_left(a, g) for a in dense]
        combination = Poly.sum(c * Poly.var(sym(name, k))
                               for name, a in zip(names, products)
                               for k, c in a.coeffs.items())
        primitive = id_primitive_part(combination, names)
        fast.append((g, divided, combination, primitive))
    monkeypatch.undo()
    assert not built
    for g, divided, _, _ in fast:
        assert all(isinstance(c, Fraction) for c in g)
        assert all(isinstance(c, Fraction) for q, r in divided for c in q + r)

    # the reference: the same routines, handed all-Frac lists
    dense_of = perturb._dense
    monkeypatch.setattr(perturb, "_dense",
                        lambda op: [Frac.of(c) for c in dense_of(op)])
    for products, (g, divided, combination, primitive) in zip(draws, fast):
        lists = [list(FractionOperator.of(a).coeffs) for a in products]
        ref_g = _left_gcd(lists)
        assert same_coeffs(g, ref_g)
        for a, (q, r) in zip(lists, divided):
            ref_q, ref_r = _divmod_left(a, ref_g)
            assert same_coeffs(q, ref_q) and same_coeffs(r, ref_r)
        reference = id_primitive_part(combination, names)
        assert ([(m, type(c), c) for m, c in primitive.terms.items()]
                == [(m, type(c), c) for m, c in reference.terms.items()])


# ---------------------------------------------------------------------------
# content extraction
# ---------------------------------------------------------------------------


def test_extract_resultant_from_the_sparse_generic_system():
    system = generic_three_system()
    det = dfres(system)
    reduced = extract_resultant(det, ("c1", "c2", "c3"))
    quotient = exact_div(det, reduced)
    ((mono, _),) = quotient.terms.items()
    assert mono == ((sym("c212"), 1),)
    assert verify_membership(reduced, system)


def test_extract_resultant_rejects_zero():
    with pytest.raises(ZeroInput):
        extract_resultant(Poly.zero(), ("c1",))


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_membership_of_the_generators_and_their_determinant():
    system = four_eq_system(5)
    assert verify_membership(system.polys[0].to_poly(), system)
    assert verify_membership(dfres(system), system)
    assert not verify_membership(v("c1"), system)


def test_membership_needs_fresh_constants():
    bad = LinearSystem([
        linear_poly(2 * v("c1"), {1: {0: 1}}),
        linear_poly(v("c2"), {1: {1: 1}}),
    ], params=1)
    with pytest.raises(NotDPPEShaped):
        verify_membership(v("c1"), bad)
    repeated = LinearSystem([
        linear_poly(v("c1"), {1: {0: 1}}),
        linear_poly(v("c1"), {1: {1: 1}}),
    ], params=1)
    with pytest.raises(NotDPPEShaped):
        verify_membership(v("c1"), repeated)
    tangled = LinearSystem([
        linear_poly(v("c1"), {1: {0: v("c2")}}),
        linear_poly(v("c2"), {1: {1: 1}}),
    ], params=1)
    with pytest.raises(NotDPPEShaped):
        verify_membership(v("c1"), tangled)


def test_the_direct_ring_holds_the_substitution_bound():
    """eliminate keeps the determinant packed in one ring for the Laplace
    expansion and the membership substitution, so the ring must hold the
    larger of the two bounds."""
    a3 = v("a") ** 3
    system = LinearSystem([
        linear_poly(v("c1"), {1: {2: a3, 0: v("b")}}),
        linear_poly(v("c2"), {1: {1: v("d")}}),
    ], params=1)
    # side 5 and a^3: the Laplace bound 15 fits four bits, the bound
    # 15 + 3 of the substitution needs five
    report = eliminate(system)
    assert report.side == 5 and report.branch == "direct"
    assert report.membership is True
    # images of a higher degree than any entry: a^4 does not fit the
    # two-bit fields that the Laplace bound 2 of this matrix would give
    m = [[v("b"), v("c")], [Poly.one(), v("a")]]
    for image, member in ((v("a") * v("b"), True),
                          (v("a") ** 4 * v("b"), False)):
        images = {"c": image}
        det, packed, _ = _det_with_image(m, images)
        assert det == determinant(m)
        assert substitute_oracle(det, images).is_zero() is member
        assert (not packed) is member


def eliminate_digest(reports):
    """sha256 over branch, members, co-order, lowest degree, membership,
    notes and the ordered terms of each output, coefficient type included."""
    h = hashlib.sha256()
    for r in reports:
        terms = [(tuple((s.name, s.order, s.constant, e) for s, e in mono),
                  type(c).__name__, str(c))
                 for mono, c in r.output.terms.items()]
        h.update(repr((r.branch, r.members, r.co_order, r.lowest_degree,
                       r.membership, r.notes, terms)).encode())
    return h.hexdigest()


def test_eliminate_outputs_match_the_pinned_digest():
    """Every output, term order and coefficient type included, as pinned
    before the direct branch kept its determinant packed."""
    systems = [motivation_system(), generic_three_system(),
               generic_four_system(), four_eq_system(5), four_eq_system(1),
               tall_order_system()]
    assert eliminate_digest(eliminate(s) for s in systems) == (
        "e71085bb29ea516f5504793758eba026c3ef76136634943fb099a5e31e0b0ded")


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


def test_eliminate_takes_the_direct_branch():
    system = four_eq_system(5)
    report = eliminate(system)
    assert report.branch == "direct"
    assert report.members == (1, 2, 3, 4)
    assert report.output == dfres(system)
    assert report.side == 18
    assert report.co_order == 0
    assert report.membership is True
    assert report.perturbation is None
    assert report.lowest_degree is None


def test_eliminate_switches_to_the_perturbed_branch():
    report = eliminate(four_eq_system(1))
    assert report.branch == "perturbed"
    assert report.lowest_degree == 2
    assert report.co_order >= 1
    assert report.recomputed_side == 18
    target = normalized_target()
    assert report.output in (target, -target)
    assert report.membership is True
    assert report.perturbation is not None
    assert any("co-order" in note for note in report.notes)


def test_eliminate_on_a_symbolic_rank_deficient_frame():
    """f3 is c3 plus the parameter part of D f1 + f2, with symbolic
    coefficients, so c3 - c1' - c2 lies in the ideal.  The frame of side 11
    has co-order 2; a monic left gcd of the perturbed branch would
    differentiate 1/lead and square its denominator each time."""
    f1 = linear_poly(v("c1"), {1: {0: v("a"), 1: v("b")}, 2: {0: v("e")}})
    f2 = linear_poly(v("c2"), {1: {1: v("g")}, 2: {0: v("h"), 1: v("k")}})
    df1 = LinearDiffPoly(Poly.zero(), f1.ops).derive()
    f3 = LinearDiffPoly(v("c3"), {j: df1.ops[j] + f2.ops[j] for j in (1, 2)})
    report = eliminate(LinearSystem([f1, f2, f3], params=2))
    assert (report.branch, report.side, report.co_order) == ("perturbed",
                                                             11, 2)
    assert report.membership is True
    target = v("c3") - v("c1", 1) - v("c2")
    scale = report.output.terms.get(((sym("c3"), 1),), 0)
    assert scale and report.output == target * scale


def test_eliminate_reports_a_proper_subsystem():
    report = eliminate(pattern_system(SE_DE_2))
    assert report.branch == "direct"
    assert report.members == (3, 4)
    expected = (Poly.var(sym("x32")) * v("c4")
                - v("c3") * Poly.var(sym("x42")))
    assert report.output == expected
    assert report.membership is True
    assert any("subsystem" in note for note in report.notes)


def shifted(f, by):
    """The polynomial with every parameter label raised by ``by``."""
    return LinearDiffPoly(f.free, {j + by: op for j, op in f.ops.items()})


def test_eliminate_keeps_the_parameter_labels_of_the_system():
    """An equation c0 + u1 that the subsystem drops, ahead of the singular
    four-equation system on labels 2-4: the perturbation is the standard
    one on those labels, and given back it yields the same output."""
    four = four_eq_system(1)
    system = LinearSystem([linear_poly(v("c0"), {1: {0: 1}})]
                          + [shifted(f, 1) for f in four.polys], params=4)
    report = eliminate(system)
    assert (report.branch, report.members) == ("perturbed", (2, 3, 4, 5))
    standard = default_perturbation(four).terms
    assert report.perturbation.terms == tuple(shifted(t, 1) for t in standard)
    assert sorted(report.profile.low) == [2, 3, 4]
    assert report.output == eliminate(four).output
    given = Perturbation((term({}),) + report.perturbation.terms)
    assert eliminate(system, perturbation=given).output == report.output


@pytest.mark.parametrize("lead, branch, note", [
    (5, "direct", "membership not checked"),
    (1, "perturbed", "lowest coefficient left unnormalized"),
])
def test_eliminate_without_fresh_free_constants(lead, branch, note):
    """With 2*c1 in place of c1 the membership substitution does not
    exist, and the perturbed branch returns its lowest coefficient as is."""
    four = four_eq_system(lead)
    f1 = LinearDiffPoly(2 * v("c1"), four.polys[0].ops)
    system = LinearSystem((f1,) + four.polys[1:], params=3)
    report = eliminate(system)
    assert report.branch == branch
    assert report.membership is None
    assert any(note in n for n in report.notes)
    if branch == "direct":
        assert report.output == dfres(system)
    else:
        pdet = perturbed_matrix(system, report.perturbation).determinant()
        assert report.output == lowest_p_coefficient(pdet)[1]


def test_eliminate_rejects_invalid_systems():
    f = linear_poly(v("c1"), {1: {0: 1}})
    with pytest.raises(AssumptionViolated):
        eliminate(LinearSystem([f, f], params=1))


# ---------------------------------------------------------------------------
# random smoke: the perturbed determinant stays nonzero
# ---------------------------------------------------------------------------


def random_super_essential(rng):
    while True:
        n = rng.choice((3, 3, 4))
        m = n - 1
        rows = [sorted(rng.sample(range(1, m + 1), rng.randint(1, m)))
                for _ in range(n)]
        if not all(any(j in row for row in rows) for j in range(1, m + 1)):
            continue
        polys = []
        for i, row in enumerate(rows):
            ops = {j: {rng.randint(0, 2): rng.randint(1, 5)} for j in row}
            polys.append(linear_poly(v(f"c{i + 1}"), ops))
        system = LinearSystem(polys, params=m)
        if is_super_essential(system):
            return system


def test_random_perturbed_determinants_do_not_vanish():
    rng = random.Random(23)
    for trial in range(10):
        system = random_super_essential(rng)
        eps = default_perturbation(system)
        matrix = perturbed_matrix(system, eps)
        verdict = certify_nonzero(matrix, trials=12, seed=trial)
        assert verdict is Verdict.NONZERO_CERTIFIED
