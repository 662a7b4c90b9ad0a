"""Shared fixture systems used across the test modules.

Builders, not pytest fixtures: most tests want fresh objects and explicit
names.  All symbols here are differential indeterminates unless noted.
"""

from fractions import Fraction

from diffres.algebra import Poly, _merge, sym
from diffres.systems import LinearDiffPoly, LinearSystem, linear_poly


def v(name, order=0):
    return Poly.var(sym(name, order))


def derive_n(p, k):
    """The k-th formal derivative of a polynomial."""
    for _ in range(k):
        p = p.derive()
    return p


def motivation_system():
    """Three polynomials in two parameters with generic symbolic coefficients;
    orders (2, 3, 2)."""
    f1 = linear_poly(v("a1"), {
        1: {0: v("a110"), 1: v("a111")},
        2: {1: v("a121"), 2: v("a122")},
    })
    f2 = linear_poly(v("a2"), {
        2: {2: v("a222"), 3: v("a223")},
    })
    f3 = linear_poly(v("a3"), {
        1: {1: v("a311")},
        2: {1: v("a321"), 2: v("a322")},
    })
    return LinearSystem([f1, f2, f3], params=2)


def tall_order_system():
    """Orders (5, 1, 1); parameter 1 occurs only in the first polynomial at
    derivative orders {1, 5}, the others share parameter 2 at {0, 1}."""
    f1 = linear_poly(v("c1"), {1: {1: 1, 5: 1}})
    f2 = linear_poly(v("c2"), {2: {0: 1, 1: 1}})
    f3 = linear_poly(v("c3"), {2: {0: 2, 1: 1}})
    return LinearSystem([f1, f2, f3], params=2)


def four_eq_system(first_leading_coeff=5):
    """The four-polynomial example; orders (2, 0, 2, 2).

    ``first_leading_coeff`` 5 gives the variant with a nonzero determinant,
    1 the singular one."""
    f1 = linear_poly(v("c1"), {
        1: {2: first_leading_coeff}, 2: {0: 3}, 3: {0: 1},
    })
    f2 = linear_poly(v("c2"), {1: {0: 1}, 3: {0: 1}})
    f3 = linear_poly(v("c3"), {1: {2: 1}, 2: {0: 1}, 3: {0: 1}})
    f4 = linear_poly(v("c4"), {1: {0: 1}, 2: {1: 1}, 3: {2: 1}})
    return LinearSystem([f1, f2, f3, f4], params=3)


def generic_three_system():
    """Three sparse generic polynomials in two parameters; orders (1, 2, 1)."""
    f1 = linear_poly(v("c1"), {1: {0: v("c110")}, 2: {1: v("c121")}})
    f2 = linear_poly(v("c2"), {1: {2: v("c212")}})
    f3 = linear_poly(v("c3"), {1: {0: v("c310")}, 2: {1: v("c321")}})
    return LinearSystem([f1, f2, f3], params=2)


def generic_four_system():
    """Four sparse generic polynomials in three parameters; orders (1,1,0,0)."""
    f1 = linear_poly(v("c1"), {
        1: {0: v("c110"), 1: v("c111")},
        3: {0: v("c130"), 1: v("c131")},
    })
    f2 = linear_poly(v("c2"), {2: {0: v("c220"), 1: v("c221")}})
    f3 = linear_poly(v("c3"), {1: {0: v("c310")}, 3: {0: v("c330")}})
    f4 = linear_poly(v("c4"), {
        1: {0: v("c410")}, 2: {0: v("c420")}, 3: {0: v("c430")},
    })
    return LinearSystem([f1, f2, f3, f4], params=3)


GENERIC_FOUR_VALUES = {
    "c110": 1, "c111": 2, "c130": 1, "c131": 2,
    "c220": 1, "c221": 1,
    "c310": 1, "c330": 1,
    "c410": 1, "c420": 1, "c430": 1,
}


def pattern_system(pattern, order=1):
    """A system whose operator pattern matches the boolean matrix given;
    each present operator is a fresh symbolic coefficient times D^order."""
    n = len(pattern)
    m = len(pattern[0])
    polys = []
    for i, row in enumerate(pattern):
        ops = {}
        for j, present in enumerate(row):
            if present:
                ops[j + 1] = {order: v(f"x{i + 1}{j + 1}")}
        polys.append(linear_poly(v(f"c{i + 1}"), ops))
    return LinearSystem(polys, params=m)


SE_DE_1 = [[1, 1], [1, 0], [0, 1]]
SE_DE_2 = [[1, 1, 0], [1, 0, 1], [0, 1, 0], [0, 1, 0]]
SE_DE_3 = [[1, 1, 1], [0, 1, 0], [0, 1, 0], [0, 1, 0]]


def half(x):
    return Fraction(x, 2)


def eager_bareiss(rows, free=None):
    """Reference for ``algebra._bareiss``: the eager elimination it replaced,
    which rewrites every later row, whole, at every step.  Its body is kept
    as it was."""
    n = len(rows)
    order = list(range(n))
    cols = []
    sign = prev = 1
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
        top = rows[order[k]]
        pivot = top[c]
        for i in order[k + 1:]:
            a = rows[i][c]
            rows[i] = [(pivot * x - a * y) // prev for x, y in zip(rows[i], top)]
            if free is not None:
                f = _merge({m: pivot * v for m, v in free[i].items()},
                           ((m, -a * v) for m, v in free[order[k]].items() if a))
                free[i] = {m: v // prev for m, v in f.items()}
        prev = pivot
        cols.append(c)
    return cols, order, sign
