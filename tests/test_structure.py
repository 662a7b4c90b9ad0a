"""Pattern matchings, essentiality tests and subsystem extraction.

Oracles here are deliberately naive: perfect matchings are enumerated with
itertools.permutations, subsystem members are found from symbolic ranks,
and kernel rows are checked by multiplying against the symbolic pattern
matrix.
"""

from __future__ import annotations

import itertools
import random

import pytest

from diffres.algebra import Frac, Poly, rank
from diffres.errors import AssumptionViolated, TooLarge
from diffres.structure import (PatternMatrix, enumerate_super_essential,
                               is_differentially_essential,
                               is_super_essential, pattern_matrix,
                               pattern_sym, restrict, row_deleted_matching,
                               structural_rank, super_essential_subsystem)
from diffres.systems import nu

from conftest import (SE_DE_1, SE_DE_2, SE_DE_3, motivation_system,
                      pattern_system, tall_order_system)


def as_pattern(rows):
    """Hand-built pattern from a 0/1 grid, columns labelled from 1."""
    sets = tuple(frozenset(j + 1 for j, bit in enumerate(row) if bit)
                 for row in rows)
    cols = tuple(sorted(set().union(*sets))) if sets else ()
    return PatternMatrix(sets, cols)


def all_matchings(pattern, rows):
    """Every perfect matching of the listed rows, by brute force."""
    rows = sorted(rows)
    cols = sorted({c for r in rows for c in pattern.rows[r - 1]})
    found = []
    for perm in itertools.permutations(cols, len(rows)):
        if all(c in pattern.rows[r - 1] for r, c in zip(rows, perm)):
            found.append(dict(zip(rows, perm)))
    return found


def matching_key(rows, matching):
    return tuple(matching[r] for r in sorted(rows))


def test_pattern_of_motivation_system():
    pat = pattern_matrix(motivation_system())
    assert pat.columns == (1, 2)
    assert pat.rows == (frozenset({1, 2}), frozenset({2}), frozenset({1, 2}))


def test_row_deleted_matching_is_lexicographically_extreme():
    rng = random.Random(61)
    for _ in range(150):
        n = rng.randint(2, 5)
        m = rng.randint(1, n)
        grid = [[1 if rng.random() < 0.6 else 0 for _ in range(m)]
                for _ in range(n)]
        for row in grid:
            if not any(row):
                row[rng.randrange(m)] = 1
        pat = as_pattern(grid)
        for i in range(1, n + 1):
            rows = [r for r in range(1, n + 1) if r != i]
            oracle = all_matchings(pat, rows)
            least = row_deleted_matching(pat, i)
            greatest = row_deleted_matching(pat, i, prefer="greatest")
            if not oracle:
                assert least is None and greatest is None
                continue
            keys = sorted(matching_key(rows, m_) for m_ in oracle)
            assert matching_key(rows, least) == keys[0]
            assert matching_key(rows, greatest) == keys[-1]


def test_essentiality_of_fixture_patterns():
    p1 = pattern_system(SE_DE_1)
    assert is_differentially_essential(p1)
    assert is_super_essential(p1)

    p2 = pattern_system(SE_DE_2)
    assert is_differentially_essential(p2)
    assert not is_super_essential(p2)

    p3 = pattern_system(SE_DE_3)
    assert not is_differentially_essential(p3)
    assert not is_super_essential(p3)

    tall = tall_order_system()
    assert is_differentially_essential(tall)
    assert not is_super_essential(tall)
    assert row_deleted_matching(pattern_matrix(tall), 1) is None


def test_subsystem_of_super_essential_system_is_everything():
    cert = super_essential_subsystem(pattern_system(SE_DE_1))
    assert cert.members == (1, 2, 3)
    assert not cert.proper


def test_subsystem_certificate_for_rank_deficient_pattern():
    cert = super_essential_subsystem(pattern_system(SE_DE_2))
    assert cert.members == (3, 4)
    assert cert.proper
    x32 = Frac(Poly.var(pattern_sym(3, 2)))
    x42 = Frac(Poly.var(pattern_sym(4, 2)))
    scale = cert.kernel_row[2] / -(x42 / x32)
    assert not scale.is_zero()
    expected = (Frac.of(0), Frac.of(0), -(x42 / x32) * scale, scale)
    assert cert.kernel_row == expected


def test_kernel_row_annihilates_pattern_matrix():
    for pattern in (SE_DE_1, SE_DE_2, SE_DE_3):
        system = pattern_system(pattern)
        cert = super_essential_subsystem(system)
        x = pattern_matrix(system).symbolic()
        for col in range(len(x[0])):
            total = Frac.of(0)
            for row in range(len(x)):
                total = total + cert.kernel_row[row] * Frac(x[row][col])
            assert total.is_zero()


def test_two_dimensional_kernel_picks_the_bottom_row():
    cert = super_essential_subsystem(pattern_system(SE_DE_3))
    assert cert.members == (3, 4)
    assert cert.kernel_row[0].is_zero() and cert.kernel_row[1].is_zero()


def oracle_members(pattern):
    """Members of the subsystem by symbolic rank alone: the shortest row
    suffix of rank below its size, then the rows whose removal restores
    full rank."""
    x = pattern.symbolic()
    n = pattern.n
    k = next(k for k in range(n, 0, -1) if rank(x[k - 1:]) < n - k + 1)
    suffix = range(k, n + 1)
    return tuple(r for r in suffix
                 if rank([x[i - 1] for i in suffix if i != r]) == n - k)


def test_subsystem_matches_rank_oracle_on_every_small_grid():
    for n in range(1, 5):
        m = n - 1
        for bits in itertools.product((0, 1), repeat=n * m):
            grid = [bits[i * m:(i + 1) * m] for i in range(n)]
            sets = tuple(frozenset(j + 1 for j, bit in enumerate(row) if bit)
                         for row in grid)
            pat = PatternMatrix(sets, tuple(range(1, m + 1)))
            cert = super_essential_subsystem(pat)
            assert cert.members == oracle_members(pat), grid
            assert cert.proper == (len(cert.members) != n)
            k = cert.kernel_row
            support = tuple(i + 1 for i in range(n) if not k[i].is_zero())
            assert support == cert.members
            assert k[cert.members[0] - 1] == Frac.of(1)
            x = pat.symbolic()
            for col in range(m):
                total = Frac.of(0)
                for row in cert.members:
                    total = total + k[row - 1] * Frac(x[row - 1][col])
                assert total.is_zero(), grid


def test_dense_patterns_are_their_own_subsystem():
    for n in (5, 12):
        cert = super_essential_subsystem(as_pattern([[1] * (n - 1)] * n))
        assert cert.members == tuple(range(1, n + 1))
        assert not cert.proper


def test_subsystem_requires_square_minus_one_profile():
    with pytest.raises(AssumptionViolated):
        super_essential_subsystem(as_pattern([[1, 1], [1, 1]]))


def test_enumeration_of_super_essential_subsets():
    assert enumerate_super_essential(pattern_system(SE_DE_1)) == [(1, 2, 3)]
    assert enumerate_super_essential(pattern_system(SE_DE_2)) == [(3, 4)]
    assert enumerate_super_essential(pattern_system(SE_DE_3)) == [
        (2, 3), (2, 4), (3, 4)]


def test_enumeration_bound():
    pattern = as_pattern([[1] * 12 for _ in range(13)])
    with pytest.raises(TooLarge):
        enumerate_super_essential(pattern)
    # the matching screen needs no bound
    assert is_super_essential(pattern)


def hall_irredundant(pattern):
    """Oracle: every proper nonempty set S of rows has |S| <= nu(S)."""
    return all(len(s) <= len(set().union(*(pattern.rows[i - 1] for i in s)))
               for size in range(1, pattern.n)
               for s in itertools.combinations(range(1, pattern.n + 1), size))


def test_irredundance_matches_super_essentiality():
    # Hall's theorem makes the two notions coincide row by row.
    rng = random.Random(62)
    for _ in range(150):
        n = rng.randint(2, 5)
        m = rng.randint(1, n)
        grid = [[1 if rng.random() < 0.55 else 0 for _ in range(m)]
                for _ in range(n)]
        for row in grid:
            if not any(row):
                row[rng.randrange(m)] = 1
        pat = as_pattern(grid)
        assert is_super_essential(pat) == hall_irredundant(pat)


def row_deleted_verdicts(pattern):
    """For each row, whether the other rows match perfectly: the
    definitions of both screens, row by row."""
    return [row_deleted_matching(pattern, i) is not None
            for i in range(1, pattern.n + 1)]


def screen_patterns():
    """Every pattern with n <= 4 rows and n - 1 columns, then seeded random
    patterns with n <= 8 rows and any number of columns."""
    for n in range(1, 5):
        m = n - 1
        for mask in range(1 << (n * m)):
            yield PatternMatrix(
                tuple(frozenset(j + 1 for j in range(m)
                                if mask >> (i * m + j) & 1)
                      for i in range(n)),
                tuple(range(1, m + 1)))
    rng = random.Random(65)
    for _ in range(600):
        n = rng.randint(1, 8)
        m = rng.randint(0, 9)
        density = rng.random()
        yield PatternMatrix(
            tuple(frozenset(j for j in range(1, m + 1)
                            if rng.random() < density)
                  for _ in range(n)),
            tuple(range(1, m + 1)))


def test_screens_from_one_matching_match_the_row_deleted_definitions():
    counts = {(de, se): 0 for de in (True, False) for se in (True, False)}
    for pat in screen_patterns():
        verdicts = row_deleted_verdicts(pat)
        de, se = is_differentially_essential(pat), is_super_essential(pat)
        assert de == any(verdicts), pat
        assert se == all(verdicts), pat
        counts[de, se] += 1
    assert counts[False, True] == 0
    assert min(counts[True, True], counts[True, False],
               counts[False, False]) > 100


def test_enumeration_matches_the_row_deleted_definition():
    rng = random.Random(66)
    for _ in range(60):
        n = rng.randint(2, 6)
        m = rng.randint(1, n)
        grid = [[1 if rng.random() < 0.4 else 0 for _ in range(m)]
                for _ in range(n)]
        pat = as_pattern(grid)
        oracle = []
        for size in range(2, n + 1):
            for s in itertools.combinations(range(1, n + 1), size):
                sub, _ = pat.restricted(s)
                if (len(sub.columns) == size - 1
                        and all(row_deleted_verdicts(sub))):
                    oracle.append(s)
        assert sorted(enumerate_super_essential(pat)) == sorted(oracle)


def test_structural_rank_equals_symbolic_rank():
    rng = random.Random(63)
    for _ in range(80):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        grid = [[1 if rng.random() < 0.45 else 0 for _ in range(m)]
                for _ in range(n)]
        sets = tuple(frozenset(j + 1 for j, bit in enumerate(row) if bit)
                     for row in grid)
        cols = tuple(range(1, m + 1))
        pat = PatternMatrix(sets, cols)
        assert structural_rank(pat) == rank(pat.symbolic())


def test_random_kernel_supports_are_super_essential():
    rng = random.Random(64)
    seen_proper = 0
    for _ in range(120):
        n = rng.randint(2, 5)
        m = n - 1
        grid = [[1 if rng.random() < 0.5 else 0 for _ in range(m)]
                for _ in range(n)]
        for row in grid:
            if not any(row):
                row[rng.randrange(m)] = 1
        sets = tuple(frozenset(j + 1 for j, bit in enumerate(row) if bit)
                     for row in grid)
        if sorted(set().union(*sets)) != list(range(1, m + 1)):
            continue
        pat = PatternMatrix(sets, tuple(range(1, m + 1)))
        cert = super_essential_subsystem(pat)
        sub, _ = pat.restricted(cert.members)
        assert is_super_essential(sub)
        if cert.proper:
            seen_proper += 1
    assert seen_proper > 5


def test_restrict_keeps_parameter_labels():
    system = pattern_system(SE_DE_3)
    sub, members = restrict(system, (4, 3))
    assert members == (3, 4)
    assert sub.polys == (system.polys[2], system.polys[3])
    assert sub.params == system.params
    assert sub.active_params() == [2]
    assert nu(sub) == 1
