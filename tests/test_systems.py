"""Differential systems: operators, derivation, validation, profiles,
specialization."""

import pytest

from conftest import four_eq_system, motivation_system, tall_order_system, v

from diffres.algebra import Poly, sym
from diffres.errors import AssumptionViolated, InputError
from diffres.systems import (
    DiffOperator,
    LinearDiffPoly,
    LinearSystem,
    linear_poly,
    nu,
    order_profile,
    param_sym,
    specialize,
    validate,
)


def test_operator_derive():
    # D o (1 + D) = D + D^2 when the coefficients are rational constants
    op = DiffOperator({0: 1, 1: 1})
    assert op.derive() == DiffOperator({1: 1, 2: 1})
    # with a variable coefficient the product rule kicks in
    a = v("a")
    op = DiffOperator({1: a})
    assert op.derive() == DiffOperator({1: a.derive(), 2: a})


def test_linear_poly_derive_matches_expected():
    f = linear_poly(v("c2"), {2: {0: 1, 1: 1}})
    df = f.derive()
    assert df.free == v("c2", 1)
    assert df.ops[2] == DiffOperator({1: 1, 2: 1})
    # as a polynomial: c2' + u2' + u2''
    expected = (v("c2", 1) + Poly.var(param_sym(2, 1))
                + Poly.var(param_sym(2, 2)))
    assert df.to_poly() == expected


def test_derive_raises_order_by_one():
    P = motivation_system()
    for f in P.polys:
        assert f.derive().order() == f.order() + 1


def test_orders_and_nu():
    P = motivation_system()
    assert P.orders() == (2, 3, 2)
    assert nu(P) == 2
    Q = four_eq_system()
    assert Q.orders() == (2, 0, 2, 2)
    assert nu(Q) == 3


def test_validate_flags_each_assumption():
    P = motivation_system()
    assert validate(P).ok

    # P1: a polynomial without parameters
    bad = LinearSystem([LinearDiffPoly(v("c1"), {}),
                        linear_poly(v("c2"), {1: {0: 1}})], params=1)
    rep = validate(bad)
    assert rep.p1_failures == (1,)
    assert not rep.ok

    # P2: duplicate polynomials
    f = linear_poly(v("c1"), {1: {0: 1}})
    g = linear_poly(v("c1"), {1: {0: 1}})
    rep = validate(LinearSystem([f, g], params=1))
    assert rep.p2_failures == ((1, 2),)

    # P3: all free terms zero
    f = linear_poly(0, {1: {0: 1}})
    g = linear_poly(0, {1: {1: 1}})
    rep = validate(LinearSystem([f, g], params=1))
    assert not rep.p3_ok

    # P4: too many parameters for the number of polynomials
    f = linear_poly(v("c1"), {1: {0: 1}})
    g = linear_poly(v("c2"), {2: {0: 1}})
    rep = validate(LinearSystem([f, g], params=2))
    assert not rep.p4_ok and rep.nu == 2


def test_profile_motivation_values():
    prof = order_profile(motivation_system())
    assert prof.low == {1: 0, 2: 1}
    assert prof.high == {1: 1, 2: 0}
    assert prof.span == {1: 1, 2: 1}
    assert prof.total == 2
    assert prof.order_sum == 7


def test_profile_tall_order_values():
    P = tall_order_system()
    prof = order_profile(P)
    assert prof.total == prof.low[1] == 1
    assert prof.high == {1: 0, 2: 0}
    # room for derivatives: 1 for the order-5 row, 5 for the others
    assert [prof.row_bound(i) for i in range(3)] == [1, 5, 5]


def test_profile_four_eq_values():
    prof = order_profile(four_eq_system())
    assert prof.order_sum == 6
    assert prof.total == 1
    assert prof.high[2] == 1
    assert prof.span == {1: 0, 2: 1, 3: 0}


def test_profile_skips_inactive_parameters():
    f = linear_poly(v("c1"), {2: {0: 1}})
    g = linear_poly(v("c2"), {2: {1: 1}})
    prof = order_profile(LinearSystem([f, g], params=3))
    assert (prof.low, prof.high, prof.span) == ({2: 0}, {2: 0}, {2: 0})
    assert (prof.total, prof.orders) == (0, (0, 1))


def test_profile_requires_parameters_everywhere():
    f = LinearDiffPoly(v("c1"), {})
    g = linear_poly(v("c2"), {1: {0: 1}})
    with pytest.raises(AssumptionViolated):
        order_profile(LinearSystem([f, g], params=1))


def test_specialize_replaces_all_derivatives():
    P = four_eq_system()
    Q = specialize(P, {"c1": Poly.var(sym("x")), "c2": 0, "c3": 0, "c4": 0})
    assert Q.polys[0].free == v("x")
    assert Q.polys[1].free.is_zero()
    # operators untouched
    assert Q.polys[0].ops == P.polys[0].ops
    # derivative consistency: specialize-then-derive == derive-then-specialize
    image = {"c1": Poly.var(sym("x")) ** 2}
    lhs = specialize(P, image).polys[0].derive().to_poly()
    rhs = P.polys[0].derive().to_poly().substitute(image)
    assert lhs == rhs


def test_specialize_generic_coefficients():
    f = linear_poly(v("c1"), {1: {0: v("a")}})
    g = linear_poly(v("c2"), {1: {1: v("b")}})
    P = LinearSystem([f, g], params=1)
    Q = specialize(P, {"a": 2, "b": 0})
    assert Q.polys[0].ops[1] == DiffOperator({0: 2})
    assert 1 not in Q.polys[1].ops  # operator vanished entirely


def test_a_parameter_inside_a_coefficient_is_rejected():
    # f1 = c1 + (u1 + a D) u1: the parser refuses it as nonlinear
    u1 = Poly.var(param_sym(1))
    f1 = linear_poly(v("c1"), {1: {0: u1, 1: v("a")}})
    f2 = linear_poly(v("c2"), {1: {0: v("b")}})
    with pytest.raises(InputError, match="u1"):
        LinearSystem([f1, f2], params=1)
    # a derivative counts too
    f1 = linear_poly(v("c1"), {1: {0: Poly.var(param_sym(1, 2))}})
    with pytest.raises(InputError, match="u1"):
        LinearSystem([f1, f2], params=1)


def test_a_parameter_inside_a_free_term_is_rejected():
    f1 = linear_poly(v("c1") + Poly.var(param_sym(1)), {1: {0: v("a")}})
    f2 = linear_poly(v("c2"), {1: {0: v("b")}})
    with pytest.raises(InputError, match="u1"):
        LinearSystem([f1, f2], params=1)
    # only u_1..u_m are the parameters of a system with m of them
    f1 = linear_poly(v("c1") + Poly.var(param_sym(2)), {1: {0: v("a")}})
    assert LinearSystem([f1, f2], params=1).polys[0] == f1
    # specialization builds a system too
    f1 = linear_poly(v("c1"), {1: {0: v("a")}})
    with pytest.raises(InputError, match="u1"):
        specialize(LinearSystem([f1, f2], params=1),
                   {"a": Poly.var(param_sym(1))})


def test_symbols_of_negative_order_are_rejected():
    with pytest.raises(InputError, match="negative"):
        sym("a", -1)
    with pytest.raises(InputError, match="negative"):
        param_sym(1, -2)
