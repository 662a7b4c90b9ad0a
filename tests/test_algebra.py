"""Exact arithmetic layer: symbols, polynomials, fractions, determinants.

The determinant oracle used here is an independent cofactor expansion that
shares no code with the library paths it checks.
"""

import copy
import gc
import hashlib
import pickle
import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, permutations

import pytest

from diffres import algebra
from diffres.algebra import (
    Frac,
    Poly,
    _det_bareiss,
    _det_laplace,
    _mono_cmp,
    _mono_div,
    _pmul,
    _ppow,
    _Ring,
    as_poly,
    const_sym,
    determinant,
    exact_div,
    format_poly,
    rank,
    sym,
)
from diffres.errors import DivisionByZero, NonSquare, NotDivisible


def cofactor_det(m):
    """Oracle: plain first-row cofactor expansion, no memoization."""
    n = len(m)
    if n == 1:
        return as_poly(m[0][0])
    total = Poly.zero()
    for j in range(n):
        e = as_poly(m[0][j])
        if e.is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = e * cofactor_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def random_poly(rng, syms, max_terms=3, max_exp=2):
    p = Poly.zero()
    for _ in range(rng.randint(0, max_terms)):
        mono = Poly.one()
        for s in rng.sample(syms, rng.randint(0, 2)):
            mono = mono * Poly.var(s) ** rng.randint(1, max_exp)
        p = p + mono * Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return p


# ---------------------------------------------------------------------------
# symbols and polynomials
# ---------------------------------------------------------------------------


def test_symbol_interning_and_derivative():
    a = sym("a")
    assert a is sym("a")
    assert a.derived() is sym("a", 1)
    assert repr(sym("a", 2)) == "a^(2)"
    k = const_sym("k")
    with pytest.raises(ValueError):
        k.derived()


def test_symbols_are_unique_by_construction():
    for args in [("a",), ("a", 2), ("k", 0, True)]:
        s = sym(*args)
        assert sym(*args) is s
        assert copy.copy(s) is s
        assert copy.deepcopy(s) is s
        assert pickle.loads(pickle.dumps(s)) is s
    assert sym("a") is not const_sym("a")
    p = Poly.var(sym("x", 1)) ** 2 * Poly.var(const_sym("k")) - 3
    q = copy.deepcopy(p)
    assert q is not p and q == p
    assert pickle.loads(pickle.dumps(p)) == p


def test_poly_arithmetic_basics():
    x, y = sym("x"), sym("y")
    p = Poly.var(x) + Poly.var(y)
    q = Poly.var(x) - Poly.var(y)
    assert p * q == Poly.var(x) ** 2 - Poly.var(y) ** 2
    assert (p - p).is_zero()
    assert p * 0 == Poly.zero()
    assert Poly.const(Fraction(3, 2)) * 2 == Poly.const(3)


def test_derive_product_rule():
    x = sym("x")
    k = const_sym("k")
    p = Poly.var(x) ** 2 * Poly.var(k)
    # (k x^2)' = 2 k x x'
    assert p.derive() == 2 * Poly.var(k) * Poly.var(x) * Poly.var(x.derived())


def test_constant_and_differential_symbols_of_one_name_stay_apart():
    k = Poly.var(const_sym("a"))
    a = Poly.var(sym("a"))
    assert k * a == a * k
    [mono] = (k * a).terms
    assert len(mono) == 2
    assert (k * a).derive() == (a * k).derive() == k * Poly.var(sym("a", 1))


def test_constant_polys_hash_like_their_values():
    for q in (0, 3, Fraction(-1, 2)):
        assert Poly.const(q) == q
        assert hash(Poly.const(q)) == hash(q)
        assert len({Poly.const(q), q}) == 1


def test_derive_leibniz_random():
    rng = random.Random(7)
    syms = [sym("a"), sym("b", 1), const_sym("c")]
    for _ in range(200):
        f = random_poly(rng, syms)
        g = random_poly(rng, syms)
        lhs = (f * g).derive()
        rhs = f.derive() * g + f * g.derive()
        assert lhs == rhs


def test_poly_sum_matches_a_fold_of_add_random():
    rng = random.Random(23)
    syms = [sym("a"), sym("b", 1), const_sym("c")]
    for trial in range(300):
        polys = [random_poly(rng, syms) for _ in range(rng.randint(0, 6))]
        if trial % 3 == 0:
            # append the negation of every summand, so the sum cancels to zero
            back = list(polys)
            rng.shuffle(back)
            polys += [-p for p in back]
        before = [list(p.terms.items()) for p in polys]
        total = Poly.sum(polys)
        folded = Poly.zero()
        for p in polys:
            folded = folded + p
        assert total == folded
        assert list(total.terms.items()) == list(folded.terms.items())
        assert all(total.terms.values())
        if trial % 3 == 0:
            assert total.is_zero()
        assert [list(p.terms.items()) for p in polys] == before
        assert all(total.terms is not p.terms for p in polys)


def test_poly_sum_edge_cases():
    x, y = Poly.var(sym("x")), Poly.var(sym("y"))
    assert Poly.sum([]) == Poly.zero()
    assert Poly.sum(iter([])).is_zero()
    assert Poly.sum([x + y, -x]).terms == y.terms
    assert Poly.sum([2, Fraction(1, 2), sym("x"), x]) == 2 * x + Fraction(5, 2)
    p = x + y
    alone = Poly.sum([p])
    assert alone == p and alone.terms is not p.terms
    doubled = Poly.sum([p, p])
    assert doubled == 2 * p and p == x + y


def test_substitute_consistent_across_derivatives():
    c = sym("c")
    x = sym("x")
    p = Poly.var(sym("c", 2)) + 3 * Poly.var(c)
    q = p.substitute({"c": Poly.var(x) ** 2})
    # (x^2)'' = 2 x'' x + 2 x' x'
    expected = (2 * Poly.var(sym("x", 2)) * Poly.var(x)
                + 2 * Poly.var(sym("x", 1)) ** 2
                + 3 * Poly.var(x) ** 2)
    assert q == expected


def substitute_oracle(p, images):
    """Oracle: each term as its kept factors times the product of the
    derived images of the replaced ones, summed left to right."""
    parts = []
    for mono, c in p.terms.items():
        term = Poly.const(c)
        factor = None
        for s, e in mono:
            if s.name in images:
                img = as_poly(images[s.name]).derive_n(s.order) ** e
                factor = img if factor is None else factor * img
            else:
                term = term * Poly.var(s) ** e
        parts.append(term if factor is None else term * factor)
    return Poly.sum(parts)


def test_substitute_matches_oracle_random():
    rng = random.Random(29)
    a, b = sym("a"), sym("b")
    replaced = [a, sym("a", 1), sym("a", 2), b, sym("b", 1), const_sym("a")]
    kept = [sym("x"), sym("x", 1), const_sym("k")]
    image_syms = [sym("x"), sym("y"), sym("y", 1), const_sym("k")]
    images_seen = set()
    for trial in range(150):
        p = Poly.sum(random_poly(rng, replaced + kept, max_terms=2, max_exp=3)
                     for _ in range(rng.randint(0, 3)))
        images = {}
        for name in ("a", "b"):
            kind = rng.choice(["poly", "poly", "zero", "constant", "scalar"])
            images_seen.add(kind)
            if kind == "poly":
                images[name] = random_poly(rng, image_syms, max_exp=2)
            elif kind == "zero":
                images[name] = Poly.zero()
            elif kind == "constant":
                images[name] = Poly.const(Fraction(rng.randint(-5, 5), 3))
            else:
                images[name] = rng.randint(-3, 3)
        got = p.substitute(images)
        want = substitute_oracle(p, images)
        assert got == want
        assert list(got.terms.items()) == list(want.terms.items())
        assert all(type(c) is Fraction for c in got.terms.values())
    assert images_seen == {"poly", "zero", "constant", "scalar"}
    # exponents 2 and 3 on replaced symbols, an image with a denominator
    x, y = Poly.var(sym("x")), Poly.var(sym("y"))
    p = (Poly.var(a) ** 3 * Poly.var(sym("b", 1)) ** 2 * Poly.var(sym("x", 1))
         - Fraction(2, 3) * Poly.var(sym("a", 1)) ** 2 + Poly.var(const_sym("a")))
    images = {"a": Fraction(1, 2) * x + y ** 2, "b": x * y - 1}
    assert p.substitute(images) == substitute_oracle(p, images)
    assert p.substitute({}) == p
    # two replaced symbols whose images have equal lengths: the product of
    # their images, and so the term order, follows the order of the symbols
    p = Poly.var(a) * Poly.var(b) + Poly.var(sym("b", 1))
    images = {"a": x + y, "b": Poly.var(sym("z")) - Poly.var(sym("w"))}
    got = p.substitute(images)
    assert list(got.terms.items()) == list(
        substitute_oracle(p, images).terms.items())


def test_evaluate():
    x, y = sym("x"), sym("y")
    p = Poly.var(x) ** 2 + Poly.var(y)
    assert p.evaluate({x: Fraction(2), y: Fraction(1, 2)}) == Fraction(9, 2)


def test_format_poly_is_deterministic():
    c1 = sym("c1")
    p = Poly.var(sym("c1", 2)) - Poly.var(c1) * 2
    assert format_poly(p) == "c1^(2) - 2*c1"


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------


def test_exact_div_roundtrip_random():
    rng = random.Random(11)
    syms = [sym("a"), sym("b"), sym("a", 1)]
    done = 0
    while done < 150:
        f = random_poly(rng, syms)
        g = random_poly(rng, syms)
        if g.is_zero():
            continue
        assert exact_div(f * g, g) == f
        done += 1


def mono_of(exps):
    """Monomial of an exponent dict, sorted by key like the library's."""
    return tuple(sorted(((s, e) for s, e in exps.items() if e),
                        key=lambda t: t[0].key))


def test_mono_div_matches_exponent_oracle_random():
    rng = random.Random(12)
    syms = [sym("a"), sym("b"), sym("a", 1), const_sym("a"), sym("c", 2)]
    seen = {True: 0, False: 0}
    for _ in range(400):
        b = {s: rng.randint(0, 3) for s in syms}
        a = {s: rng.randint(1, 2)
             for s in rng.sample(syms, rng.randint(0, 3))}
        got = _mono_div(mono_of(b), mono_of(a))
        divides = all(b[s] >= e for s, e in a.items())
        seen[divides] += 1
        if not divides:
            assert got is None
            continue
        assert got == mono_of({s: b[s] - a.get(s, 0) for s in syms})
        assert [s.key for s, _ in got] == sorted(s.key for s, _ in got)
    assert min(seen.values()) > 100


def test_exact_div_failure():
    a, b = sym("a"), sym("b")
    with pytest.raises(NotDivisible):
        exact_div(Poly.var(a) + Poly.one(), Poly.var(b))
    with pytest.raises(DivisionByZero):
        exact_div(Poly.var(a), Poly.zero())


# ---------------------------------------------------------------------------
# fractions
# ---------------------------------------------------------------------------


def test_frac_cancellation_and_equality():
    a, b = sym("a"), sym("b")
    pa, pb = Poly.var(a), Poly.var(b)
    f = Frac(pa ** 2 - pb ** 2, pa - pb)
    assert f == Frac(pa + pb)
    g = Frac(pa, pa * pb)
    assert g == Frac(Poly.one(), pb)
    assert (f - f).is_zero()
    with pytest.raises(DivisionByZero):
        Frac(pa, Poly.zero())


def test_frac_field_axioms_random():
    rng = random.Random(13)
    syms = [sym("a"), sym("b")]
    done = 0
    while done < 100:
        n1, d1 = random_poly(rng, syms), random_poly(rng, syms)
        n2, d2 = random_poly(rng, syms), random_poly(rng, syms)
        if d1.is_zero() or d2.is_zero():
            continue
        f, g = Frac(n1, d1), Frac(n2, d2)
        assert f + g == g + f
        assert f * g == g * f
        if not g.is_zero():
            assert (f / g) * g == f
        done += 1


def test_frac_derive_quotient_rule():
    a = sym("a")
    f = Frac(Poly.one(), Poly.var(a))
    # (1/a)' = -a'/a^2
    assert f.derive() == Frac(-Poly.var(a.derived()), Poly.var(a) ** 2)


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------


def test_determinant_rejects_nonsquare():
    with pytest.raises(NonSquare):
        determinant([[Poly.one(), Poly.one()]])
    with pytest.raises(NonSquare):
        determinant([])


def numeric_h(m):
    """The Bareiss route takes [H | f] when every entry of H is a constant."""
    return all(as_poly(e).is_constant() for row in m for e in row[:-1])


def permutation_matrices():
    """Every permutation matrix of side <= 5 whose entries are distinct
    symbols, with its determinant sign(sigma) times the product of the
    entries, so that each term shows its sign."""
    for n in range(1, 6):
        xs = [Poly.var(sym(f"x{i}")) for i in range(n)]
        product = Poly.one()
        for x in xs:
            product = product * x
        for sigma in permutations(range(n)):
            m = [[xs[i] if j == sigma[i] else Poly.zero() for j in range(n)]
                 for i in range(n)]
            inversions = sum(sigma[i] > sigma[j]
                             for i, j in combinations(range(n), 2))
            yield m, -product if inversions % 2 else product


def sparse_frames(rng, syms):
    """Seeded frame-like [H | f] matrices of side <= 7: a sparse H with a
    planted transversal, sometimes a zero row or a zero column, and a
    dense last column."""
    for _ in range(80):
        n = rng.randint(2, 7)
        density = rng.choice([0.25, 0.4, 0.6])
        m = [[random_poly(rng, syms, max_terms=2, max_exp=1)
              if rng.random() < density else Poly.zero()
              for _ in range(n - 1)] for _ in range(n)]
        for i, j in enumerate(rng.sample(range(n), n)):
            if j < n - 1:
                m[i][j] = Poly.var(rng.choice(syms)) + rng.randint(1, 3)
        for i, row in enumerate(m):
            row.append(random_poly(rng, syms, max_terms=2, max_exp=1)
                       + Poly.var(sym(f"f{i}")))
        shape = rng.choice(["zero row", "zero column", "plain"])
        if shape == "zero row":
            m[rng.randrange(n)] = [Poly.zero()] * n
        elif shape == "zero column":
            c = rng.randrange(n - 1)
            for row in m:
                row[c] = Poly.zero()
        yield m


def test_determinant_matches_cofactor_oracle_random():
    rng = random.Random(17)
    syms = [sym("a"), sym("b"), sym("c", 1)]
    cases = []
    for _ in range(60):
        n = rng.randint(1, 5)
        m = [[random_poly(rng, syms, max_terms=2, max_exp=1) for _ in range(n)]
             for _ in range(n)]
        cases.append((m, cofactor_det(m)))
    # higher exponents widen the packed fields of the Laplace route
    for _ in range(40):
        n = rng.randint(1, 4)
        m = [[random_poly(rng, syms, max_terms=2, max_exp=5) for _ in range(n)]
             for _ in range(n)]
        cases.append((m, cofactor_det(m)))
    cases += [(m, cofactor_det(m)) for m in sparse_frames(rng, syms)]
    cases += permutation_matrices()
    for m, expected in cases:
        if numeric_h(m):
            assert _det_bareiss(m) == expected
        assert _det_laplace(m) == expected
        assert determinant(m) == expected


def numeric_h_frames(rng):
    """Seeded frames [H | f] of side 1-7 for the integer route: H holds
    rationals with denominators up to 6, often a zero where the top row
    would pivot (a row swap), sometimes a zero row or a zero column; each
    free entry sums up to four rational multiples of monomials that the
    rows share, so the merges of the free column cancel and re-add."""
    f0, f1, f2 = (Poly.var(sym(f"f{i}")) for i in range(3))
    monos = [f0, f1, f2, f0 * f1, Poly.var(sym("f0", 1)), Poly.one()]
    for _ in range(150):
        n = rng.randint(1, 7)
        density = rng.choice([0.3, 0.6, 0.9])
        m = [[Poly.const(Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3, 6])))
              if rng.random() < density else Poly.zero()
              for _ in range(n - 1)] for _ in range(n)]
        for i, j in enumerate(rng.sample(range(n), n)):
            if j < n - 1 and m[i][j].is_zero():
                m[i][j] = Poly.const(rng.choice([-2, -1, 1, 3]))
        if n > 2 and rng.random() < 0.5:
            m[0][0] = Poly.zero()
        for row in m:
            row.append(Poly.sum(rng.choice(monos) * Fraction(rng.randint(-3, 3),
                                                             rng.randint(1, 4))
                                for _ in range(rng.randint(0, 4))))
        shape = rng.choice(["zero row", "zero column", "plain", "plain"])
        if shape == "zero row":
            m[rng.randrange(n)][:n - 1] = [Poly.zero()] * (n - 1)
        elif shape == "zero column" and n > 1:
            c = rng.randrange(n - 1)
            for row in m:
                row[c] = Poly.zero()
        yield m


def ordered_terms_digest(polys):
    """sha256 over the ordered terms of each polynomial, coefficient type
    included."""
    h = hashlib.sha256()
    for p in polys:
        h.update(repr([(tuple((s.name, s.order, s.constant, e) for s, e in mono),
                        type(c).__name__, str(c))
                       for mono, c in p.terms.items()]).encode())
    return h.hexdigest()


def test_integer_route_matches_cofactor_oracle_random():
    frames = list(numeric_h_frames(random.Random(41)))
    dets = []
    for m in frames:
        expected = cofactor_det(m)
        assert numeric_h(m)
        det = _det_bareiss(m)
        assert det == expected
        assert _det_laplace(m) == expected
        assert determinant(m) == expected
        assert all(type(c) is Fraction for c in det.terms.values())
        dets.append(det)
    assert sum(len(m) == 1 for m in frames) >= 5
    assert sum(not d.is_zero() for d in dets) >= 60
    assert sum(len(d.terms) >= 3 for d in dets) >= 30


def test_integer_route_keeps_the_term_order():
    """The ordered terms of ``determinant`` on the frames above, as the
    Bareiss elimination over ``Poly`` entries gave them."""
    dets = [determinant(m) for m in numeric_h_frames(random.Random(41))]
    assert ordered_terms_digest(dets) == (
        "c17a46d7e10bf28e296c7c94505587a0c1a501d8b7f90d4210aee14f6c756e14")


def one_symbol_frames(rng):
    """Seeded frames [H | f] of side 1-7 whose H holds one symbol s, the
    constant p or the derivative a', in entries of up to three terms with
    rational coefficients of either sign and powers of s up to 3; a third
    have a column that is a multiple of another (a rank-deficient H, so a
    zero determinant); each free entry sums up to four monomials free of
    s.  Yields (frame, s)."""
    f0, f1 = Poly.var(sym("f0")), Poly.var(sym("f1"))
    monos = [f0, f1, f0 * f1, Poly.var(sym("f0", 1)), Poly.one()]
    for _ in range(120):
        s = rng.choice([const_sym("p"), sym("a", 1)])
        x = Poly.var(s)

        def entry():
            return Poly.sum(x ** rng.randint(0, 3)
                            * Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 6]))
                            for _ in range(rng.randint(1, 3)))
        n = rng.randint(1, 7)
        density = rng.choice([0.4, 0.7, 1.0])
        m = [[entry() if rng.random() < density else Poly.zero()
              for _ in range(n - 1)] for _ in range(n)]
        if n > 2 and rng.random() < 1 / 3:
            i, c = rng.sample(range(n - 1), 2)
            factor = entry()
            for row in m:
                row[c] = factor * row[i]
        for row in m:
            row.append(Poly.sum(rng.choice(monos) * Fraction(rng.randint(-3, 3),
                                                             rng.randint(1, 4))
                                for _ in range(rng.randint(0, 4))))
        yield m, s


def test_kronecker_route_matches_laplace_random():
    """The Bareiss route with s = 2^b equals the Laplace route on frames
    whose H holds one symbol, and its pivots count the rank of H."""
    dets = []
    for m, s in one_symbol_frames(random.Random(43)):
        det = _det_bareiss(m, s)
        assert det == _det_laplace(m)
        assert determinant(m) == det
        assert all(type(c) is Fraction for c in det.terms.values())
        _, _, pivots = algebra._det_with_image(m, None)
        assert pivots == (rank([row[:-1] for row in m]) if len(m) > 1 else 0)
        dets.append((det, pivots < len(m) - 1))
    assert sum(deficient for _, deficient in dets) >= 15
    assert sum(d.is_zero() and not deficient for d, deficient in dets) >= 1
    nonzero = [d for d, _ in dets if not d.is_zero()]
    assert len(nonzero) >= 60
    assert sum(len(d.terms) >= 3 for d in nonzero) >= 40
    assert max(e for d in nonzero for mono in d.terms for _, e in mono) >= 9


def test_laplace_leaves_no_garbage_cycle():
    """The memo of minors is freed when the determinant returns, not held
    by a reference cycle until the next collection."""
    m = [[Poly.var(sym(f"x{i}{j}")) for j in range(5)] for i in range(5)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        det = _det_laplace(m)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert len(det.terms) == 120


def test_determinant_numeric_and_sparse_agree():
    rng = random.Random(19)
    for _ in range(30):
        n = rng.randint(2, 6)
        m = [[Poly.const(rng.randint(-3, 3)) if rng.random() < 0.5 else Poly.zero()
              for _ in range(n)] for _ in range(n)]
        assert _det_bareiss(m) == _det_laplace(m) == determinant(m)


# ---------------------------------------------------------------------------
# rank and left kernel
# ---------------------------------------------------------------------------


def test_rank_numeric():
    one = Poly.one()
    zero = Poly.zero()
    assert rank([[one, zero], [zero, one]]) == 2
    assert rank([[one, one], [one, one]]) == 1
    assert rank([[zero, zero], [zero, zero]]) == 0


def test_rank_symbolic_independent_rows():
    a, b = Poly.var(sym("a")), Poly.var(sym("b"))
    z = Poly.zero()
    assert rank([[a, z], [z, b]]) == 2
    assert rank([[a, b], [a * 2, b * 2]]) == 1


def test_rank_with_denominators_cleared_and_frac_rejected():
    """rank works over polynomials: rows with fractions are cleared of
    denominators first, and a Frac entry is refused outright."""
    a = Poly.var(sym("a"))
    one = Poly.one()
    # rows [1/a, 1], [1, 2a] with the first multiplied by a
    assert rank([[one, a], [one, a * 2]]) == 2
    # rows [1/a, 1], [1, a]: det = a/a - 1 = 0
    assert rank([[one, a], [one, a]]) == 1
    with pytest.raises(TypeError):
        rank([[Frac(one, a), one], [one, a]])


def rank_by_minors(m):
    """Oracle: the largest k with a nonzero k x k minor (cofactor_det)."""
    rows, cols = len(m), len(m[0])
    for k in range(min(rows, cols), 0, -1):
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                if not cofactor_det([[m[r][c] for c in cs] for r in rs]).is_zero():
                    return k
    return 0


def test_rank_matches_minor_oracle_random():
    rng = random.Random(23)
    syms = [sym("a"), sym("b"), sym("c", 1)]
    shapes = [(r, c) for r in range(1, 6) for c in range(1, 6) if r + c < 10]
    for trial in range(120):
        rows, cols = rng.choice(shapes)
        if trial % 2:
            m = [[random_poly(rng, syms, max_terms=2, max_exp=1)
                  for _ in range(cols)] for _ in range(rows)]
        else:
            m = [[Poly.const(rng.randint(-2, 2)) for _ in range(cols)]
                 for _ in range(rows)]
        if rows > 1 and rng.random() < 0.4:
            i, j = rng.sample(range(rows), 2)
            m[i] = list(m[j])                       # a repeated row
        if rows > 2 and rng.random() < 0.4:
            i, j, k = rng.sample(range(rows), 3)    # a combination of two
            s, t = rng.choice(syms), rng.randint(-2, 2)
            m[i] = [x * Poly.var(s) + y * t for x, y in zip(m[j], m[k])]
        if rng.random() < 0.3:
            m[rng.randrange(rows)] = [Poly.zero()] * cols
        if rng.random() < 0.3:
            c = rng.randrange(cols)
            for row in m:
                row[c] = Poly.zero()
        assert rank(m) == rank_by_minors(m)


def test_rank_grows_past_a_point_where_the_entries_vanish(monkeypatch):
    """``rank`` eliminates at one fixed point.  Entries that vanish there
    find no pivot, and the minors bordering the pivots that were found,
    taken by ``determinant``, restore the symbolic rank."""
    x, y = sym("x"), sym("y")
    seen = []
    evaluate = Poly.evaluate
    monkeypatch.setattr(Poly, "evaluate",
                        lambda p, values: seen.append(values) or evaluate(p, values))
    rank([[x, y]])
    point = seen[0]
    bordered = []
    det = algebra.determinant
    monkeypatch.setattr(algebra, "determinant",
                        lambda m: bordered.append(len(m)) or det(m))
    X, Y, z = Poly.var(x) - point[x], Poly.var(y) - point[y], Poly.zero()
    cases = [
        ([[X]], 1),
        ([[X, Y], [Y, X]], 2),
        ([[X, Y, X + Y], [Y, X, X + Y], [X * Y, z, X * Y]], 2),
        ([[X, X * Y], [Y, Y * Y]], 1),
        ([[x, y], [point[x], point[y]]], 2),        # rank 1 at the point
        ([[z, X, z], [Y, z, z], [z, z, X * Y + 1]], 3),
    ]
    for m, want in cases:
        bordered.clear()
        assert rank(m) == want == rank_by_minors(m)
        assert bordered, m
    bordered.clear()
    assert rank([[x, y], [y, x]]) == 2 and not bordered


# ---------------------------------------------------------------------------
# packed monomials
# ---------------------------------------------------------------------------


def test_packed_products_match_tuple_products_random():
    """Packed products unpack to ``Poly.__mul__`` and ``**`` term for term,
    in the same order, and packed monomials compare like ``_mono_cmp``."""
    rng = random.Random(31)
    syms = [sym("a"), sym("b", 1), sym("a", 2), const_sym("a"), sym("c")]
    for _ in range(300):
        f = random_poly(rng, syms, max_terms=4, max_exp=6)
        g = random_poly(rng, syms, max_terms=4, max_exp=6)
        if rng.random() < 0.3:
            g = g + f * Fraction(rng.randint(-2, 2), 3)  # overlapping terms
        ring = _Ring(f.symbols() | g.symbols(), 12)
        pf, pg = ring.pack(f.terms), ring.pack(g.terms)
        assert all(type(c) is (int if c.denominator == 1 else Fraction)
                   for c in pf.values())
        assert ring.unpack(pf).terms == f.terms
        got = ring.unpack(_pmul(pf, pg))
        assert list(got.terms.items()) == list((f * g).terms.items())
        cubes = _Ring(f.symbols(), 18)
        cube = cubes.unpack(_ppow(cubes.pack(f.terms), 3))
        assert list(cube.terms.items()) == list((f ** 3).terms.items())
        monos = list(f.terms) + list(g.terms)
        by_packing = sorted(monos, key=ring.pack_mono)
        assert by_packing == sorted(monos, key=cmp_to_key(_mono_cmp))


def test_packing_past_the_field_width_raises():
    x, y = sym("x"), sym("y")
    ring = _Ring([x, y], 3)  # two-bit fields
    assert ring.width == 2
    assert ring.pack_mono(((x, 3), (y, 3))) == 0b1111
    with pytest.raises(OverflowError):
        ring.pack_mono(((x, 4),))
    with pytest.raises(OverflowError):
        ring.pack({((y, 1),): Fraction(1), ((y, 7),): Fraction(2)})
