"""Seeded inputs of the four workloads, as plain specs.

A spec lists, for each equation, ``{parameter: {derivative order:
coefficient}}`` with integer coefficients or coefficient-symbol names,
plus the free-term symbol of each equation.  The generators never call
diffres: validity (super essential, nonvanishing or vanishing frame,
nonsingular operator matrix) is decided with ``checks``.

The eliminate workloads fix the shape of each slot, and the seed draws
only what does not move the cost: the values of constant-coefficient
systems on the direct branch, and otherwise the free-term names.  That keeps
the work per pass the same for every seed, so a seed change cannot pass
for a speed change.  The screen workload draws its patterns from the
seed, within a sparse family whose screens all finish in milliseconds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import checks


@dataclass
class Spec:
    label: str
    rows: list                      # rows[i] = {j: {k: int | str}}
    free: tuple = ()
    degenerate: bool = False
    eliminant: dict | None = None   # {(free name, order): Fraction}
    names: tuple = field(init=False)

    def __post_init__(self):
        if not self.free:
            self.free = tuple(f"c{i + 1}" for i in range(self.n))
        self.names = tuple(f"f{i + 1}" for i in range(self.n))

    @property
    def n(self):
        return len(self.rows)

    def coeff_names(self):
        return sorted({a for row in self.rows for op in row.values()
                       for a in op.values() if isinstance(a, str)})

    def text(self):
        """The spec as a diffres system file."""
        m = self.n - 1
        lines = ["diff: " + ", ".join(list(self.free) + self.coeff_names())
                 + ";",
                 "params: " + ", ".join(f"u{j}" for j in range(1, m + 1)) + ";"]
        for name, free, row in zip(self.names, self.free, self.rows):
            terms = [free]
            for j in sorted(row):
                for k, a in sorted(row[j].items()):
                    deriv = f"u{j}" + ("'" * k if k <= 2 else f"^({k})")
                    terms.append(f"{a}*{deriv}")
            lines.append(f"eq {name}: " + " + ".join(terms) + ";")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# fixed systems (the worked examples of the test suite, transcribed)
# ---------------------------------------------------------------------------


def four_eq(lead):
    return Spec(f"four_eq({lead})", [
        {1: {2: lead}, 2: {0: 3}, 3: {0: 1}},
        {1: {0: 1}, 3: {0: 1}},
        {1: {2: 1}, 2: {0: 1}, 3: {0: 1}},
        {1: {0: 1}, 2: {1: 1}, 3: {2: 1}},
    ], degenerate=lead == 1)


def motivation():
    return Spec("motivation", [
        {1: {0: "a110", 1: "a111"}, 2: {1: "a121", 2: "a122"}},
        {2: {2: "a222", 3: "a223"}},
        {1: {1: "a311"}, 2: {1: "a321", 2: "a322"}},
    ], free=("a1", "a2", "a3"))


def generic_three():
    return Spec("generic_three", [
        {1: {0: "c110"}, 2: {1: "c121"}},
        {1: {2: "c212"}},
        {1: {0: "c310"}, 2: {1: "c321"}},
    ])


def generic_four():
    return Spec("generic_four", [
        {1: {0: "c110", 1: "c111"}, 3: {0: "c130", 1: "c131"}},
        {2: {0: "c220", 1: "c221"}},
        {1: {0: "c310"}, 3: {0: "c330"}},
        {1: {0: "c410"}, 2: {0: "c420"}, 3: {0: "c430"}},
    ])


# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------

_VALUES = (-3, -2, -1, 1, 2, 3)


def _shape(rng, n, orders, fill):
    """Derivative orders present in each operator of an n x (n-1) system;
    every operator is present and row i reaches its order o_i in
    parameter (i mod (n-1)) + 1."""
    m = n - 1
    rows = []
    for i, o in enumerate(orders):
        row = {}
        for j in range(1, m + 1):
            ks = [k for k in range(o + 1) if rng.random() < fill]
            row[j] = ks or [rng.randrange(o + 1)]
        top = row[i % m + 1]
        if o not in top:
            top.append(o)
        rows.append(row)
    return rows


def _fill(shape, rng):
    return [{j: {k: rng.choice(_VALUES) for k in sorted(ks)}
             for j, ks in row.items()} for row in shape]


def _first_valid(label, candidates, valid):
    for spec in candidates:
        if valid(spec):
            return spec
    raise RuntimeError(f"no valid draw for {label}")


def _renamed(spec, rng):
    """The spec with its free terms c1..cn permuted by the seed.  (Renaming
    the coefficient symbols changes their order inside monomials, and that
    alone moves the cost of some symbolic systems by 25 %.)"""
    order = list(range(1, spec.n + 1))
    rng.shuffle(order)
    free = tuple(f"c{k}" for k in order)
    eliminant = None
    if spec.eliminant is not None:
        eliminant = {(free[spec.free.index(name)], k): c
                     for (name, k), c in spec.eliminant.items()}
    return Spec(spec.label, spec.rows, free=free,
                degenerate=spec.degenerate, eliminant=eliminant)


def _draws(label, seed):
    for attempt in range(200):
        yield random.Random(f"{label}/{seed}/{attempt}")


# ---------------------------------------------------------------------------
# numeric_frames: constant coefficients, nonzero frame determinant
# ---------------------------------------------------------------------------

NUMERIC_SLOTS = [
    (3, (1, 1, 1), 0.6), (3, (1, 1, 1), 0.9), (3, (2, 2, 2), 0.5),
    (3, (1, 2, 2), 0.5), (3, (1, 2, 3), 0.5), (3, (2, 2, 3), 0.4),
    (3, (3, 3, 3), 0.4), (3, (2, 3, 3), 0.4), (4, (1, 1, 1, 1), 0.6),
    (4, (1, 1, 1, 1), 0.8), (4, (2, 1, 1, 1), 0.5), (4, (1, 1, 2, 2), 0.4),
    (4, (1, 2, 1, 2), 0.3), (4, (2, 2, 1, 1), 0.3),
]


def _full_rank(spec):
    pat = checks.pattern(spec.rows)
    return (checks.is_super_essential(pat)
            and checks.frame_corank(spec.rows, random.Random(0)) == 0)


def _numeric_shape(label, n, orders, fill):
    """The first shape drawn for the slot whose frame is not structurally
    singular (one probe draw of values has full rank)."""
    rng = random.Random(label)
    while True:
        shape = _shape(rng, n, orders, fill)
        probe = Spec(label, _fill(shape, random.Random(f"{label}/probe")))
        if _full_rank(probe):
            return shape


def numeric_frames(seed):
    specs = []
    for slot, (n, orders, fill) in enumerate(NUMERIC_SLOTS):
        label = f"numeric-{slot}"
        shape = _numeric_shape(label, n, orders, fill)
        specs.append(_first_valid(
            label, (Spec(label, _fill(shape, rng)) for rng in
                    _draws(label, seed)), _full_rank))
    specs.append(four_eq(5))
    return specs


# ---------------------------------------------------------------------------
# degenerate_frames: last parameter part = mu * D^a(first) + lam * (second)
# ---------------------------------------------------------------------------

DEGENERATE_SLOTS = [
    (3, (1, 1), 0, 0.6), (3, (1, 1), 1, 0.6), (3, (2, 1), 0, 0.5),
    (3, (1, 2), 1, 0.5), (3, (2, 2), 0, 0.5), (3, (2, 2), 1, 0.4),
    (3, (1, 1), 1, 0.9), (3, (2, 1), 1, 0.6), (4, (1, 1, 1), 0, 0.6),
    (4, (1, 1, 1), 1, 0.5),
]


def _operator_det(matrix):
    """Determinant of a square matrix of constant-coefficient operators,
    each an integer list in D (they commute)."""
    if len(matrix) == 1:
        return matrix[0][0]
    total = [0]
    for c, entry in enumerate(matrix[0]):
        minor = [row[:c] + row[c + 1:] for row in matrix[1:]]
        term = checks.pmul(entry, _operator_det(minor))
        if c % 2:
            term = [-x for x in term]
        total = checks.padd(total, term)
    return total


def _degenerate_valid(spec):
    m = spec.n - 1
    ops = [[[row.get(j, {}).get(k, 0)
             for k in range(max(row.get(j, {0: 0})) + 1)]
            for j in range(1, m + 1)] for row in spec.rows[:m]]
    return (checks.is_super_essential(checks.pattern(spec.rows))
            and any(_operator_det(ops)))


def _degenerate(label, shape, a, rng):
    rows = _fill(shape, rng)
    mu, lam = rng.choice(_VALUES), rng.choice(_VALUES)
    last = {}
    for src, scale, shift in ((rows[0], mu, a), (rows[1], lam, 0)):
        for j, op in src.items():
            for k, c in op.items():
                slot = last.setdefault(j, {})
                slot[k + shift] = slot.get(k + shift, 0) + scale * c
    last = {j: {k: c for k, c in op.items() if c} for j, op in last.items()}
    rows.append({j: op for j, op in last.items() if op})
    n = len(rows)
    eliminant = {(f"c{n}", 0): Fraction(1), ("c1", a): Fraction(-mu),
                 ("c2", 0): Fraction(-lam)}
    return Spec(label, rows, degenerate=True, eliminant=eliminant)


def degenerate_frames(seed):
    """The values of these systems drive the cost of the perturbed
    determinant by up to 40 %, so they are fixed per slot; the seed draws
    the names."""
    rng = random.Random(f"degenerate/{seed}")
    specs = []
    for slot, (n, orders, a, fill) in enumerate(DEGENERATE_SLOTS):
        label = f"degenerate-{slot}"
        shape = _shape(random.Random(label), n, orders, fill)
        spec = _first_valid(
            label, (_degenerate(label, shape, a, draw)
                    for draw in _draws(label, "values")), _degenerate_valid)
        specs.append(_renamed(spec, rng))
    specs.append(four_eq(1))
    return specs


# ---------------------------------------------------------------------------
# symbolic_generic: one fresh coefficient symbol per operator term
# ---------------------------------------------------------------------------

SYMBOLIC_SLOTS = 14
SYMBOLIC_MAX_SIDE = 13
SYMBOLIC_MAX_TERMS = 6


def _symbolic_shape(slot):
    """A fixed sparse 3 x 2 shape with a generically nonzero frame of side
    at most SYMBOLIC_MAX_SIDE and at most SYMBOLIC_MAX_TERMS operator
    terms (determinant size grows steeply with both)."""
    rng = random.Random(f"symbolic-{slot}")
    while True:
        orders = [rng.randint(1, 3) for _ in range(3)]
        rows = []
        for i, o in enumerate(orders):
            row = {}
            for j in (1, 2):
                if j == i % 2 + 1 or rng.random() < 0.7:
                    ks = {k for k in range(o + 1) if rng.random() < 0.35}
                    row[j] = ks or {rng.randrange(o + 1)}
            row[i % 2 + 1].add(o)
            rows.append({j: {k: f"x{i}{j}{k}" for k in ks}
                         for j, ks in row.items()})
        bounds, _ = checks.frame_shape(rows)
        side = sum(b + 1 for b in bounds)
        spec = Spec("shape", rows)
        terms = sum(len(op) for row in rows for op in row.values())
        if (min(bounds) >= 0 and 9 <= side <= SYMBOLIC_MAX_SIDE
                and terms <= SYMBOLIC_MAX_TERMS and _full_rank(spec)):
            return rows


def symbolic_generic(seed):
    """The fixed systems of the test suite, and fixed sparse shapes whose
    free-term names the seed draws (row order alone moves their cost by
    30 %)."""
    rng = random.Random(f"symbolic/{seed}")
    specs = [motivation(), generic_three(), generic_four()]
    for slot in range(SYMBOLIC_SLOTS):
        shape = Spec(f"symbolic-{slot}", _symbolic_shape(slot))
        specs.append(_renamed(shape, rng))
    return specs


# ---------------------------------------------------------------------------
# screen_cli: pattern systems, one symbol per present operator
# ---------------------------------------------------------------------------

SCREEN_SIZES = (3, 4, 5, 6, 7, 8)
SCREEN_PER_SIZE = 2
CLI_COMMANDS = (
    ("check", []), ("gamma", []), ("subsystem", []),
    ("subsystem --all", ["--all"]), ("matrix", []),
    ("det", ["--mode", "random"]),
)


def _pattern_spec(label, pat, orders):
    rows = []
    for i, present in enumerate(pat):
        rows.append({j + 1: {orders[i][j]: f"x{i + 1}_{j + 1}"}
                     for j, on in enumerate(present) if on})
    return Spec(label, rows)


def _sparse_pattern(rng, n):
    """A path through the columns (super essential), plus at most two
    extra entries; sometimes two rows cut to one shared column, which
    gives a proper subsystem.  Over 1,000 draws with n = 8 the slowest
    screen took 28 ms; with up to n/2 + 1 extras some took over 3 s."""
    m = n - 1
    cols = list(range(m))
    rng.shuffle(cols)
    order = list(range(n))
    rng.shuffle(order)
    pat = [[0] * m for _ in range(n)]
    for pos, r in enumerate(order):
        if pos > 0:
            pat[r][cols[pos - 1]] = 1
        if pos < m:
            pat[r][cols[pos]] = 1
    for _ in range(rng.randrange(3)):
        r = rng.randrange(n)
        if sum(pat[r]) < 3:
            pat[r][rng.randrange(m)] = 1
    if rng.random() < 0.4:
        # a row reduced to one column shared with another such row
        r1, r2 = rng.sample(range(n), 2)
        c = rng.randrange(m)
        pat[r1] = [int(j == c) for j in range(m)]
        pat[r2] = [int(j == c) for j in range(m)]
    return pat


def _screenable(spec):
    """Every parameter occurs, some row-deleted matching exists, and the
    frame is either not definable (matrix and det refuse) or has a nonzero
    determinant (det certifies it without an exact determinant)."""
    pat = checks.pattern(spec.rows)
    if (len(set().union(*pat)) != spec.n - 1
            or not checks.is_differentially_essential(pat)):
        return False
    return (min(checks.frame_shape(spec.rows)[0]) < 0
            or checks.frame_corank(spec.rows, random.Random(0)) == 0)


def screen_cli(seed):
    """(spec, command, extra argv) triples: every command on every
    pattern, except ``subsystem --all`` on the dense 5 x 4 pattern."""
    rng = random.Random(f"screen/{seed}")
    specs = []
    for n in SCREEN_SIZES:
        for copy in range(SCREEN_PER_SIZE):
            label = f"screen-{n}-{copy}"
            while True:
                pat = _sparse_pattern(rng, n)
                orders = [[rng.choice((0, 1)) for _ in row] for row in pat]
                spec = _pattern_spec(label, pat, orders)
                if _screenable(spec):
                    break
            specs.append(spec)
    for n in (3, 4, 5):
        pat = [[1] * (n - 1) for _ in range(n)]
        specs.append(_pattern_spec(f"dense-{n}", pat,
                                   [[1] * (n - 1) for _ in range(n)]))
    ops = []
    for spec in specs:
        for command, extra in CLI_COMMANDS:
            if spec.label == "dense-5" and command == "subsystem --all":
                continue
            ops.append((spec, command, extra))
    return ops


WORKLOADS = {
    "numeric_frames": numeric_frames,
    "degenerate_frames": degenerate_frames,
    "symbolic_generic": symbolic_generic,
    "screen_cli": screen_cli,
}
