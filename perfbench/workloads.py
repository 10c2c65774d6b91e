"""Seeded query generation for the benchmark workloads.

Every query is a ``contactsurgery`` command line (the argv handed to
``contactsurgery.cli.entry``) plus the parameters the independent checker
needs.  The same seed gives the same queries and the same gram files,
byte for byte.

Each workload is built from *cycles*: a cycle has a fixed composition
(how many queries of each class, and the size strata inside a class),
while the seed picks the concrete slopes, knots and forms and the order
inside the cycle.  Fixing the composition keeps the cost distribution,
and so the latency quantiles, the same from seed to seed; the seed only
moves the fine parameters.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from check import KNOTS, det

WORKLOADS = ("certify", "survey", "embed")

# Per-query time limit in seconds, per workload.  Each is at least twice
# the slowest query the workload draws today, and the certify frontier
# queries (n = 4, 5, 6) take at least twice the certify limit, so no
# query's decided/undecided status hangs on timing noise.
LIMITS = {"certify": 2.5, "survey": 5.0, "embed": 2.0}

# Cycles generated up front; a run that gets through them wraps around.
POOL_CYCLES = {"certify": 20, "survey": 30, "embed": 30}

# The ROADMAP baseline slopes beyond n = 3, run once at the start of
# every certify run.
FRONTIER = ((4, Fraction(15, 2)), (5, Fraction(12)), (6, Fraction(15)))


@dataclass(frozen=True)
class Query:
    kind: str  # which checker applies
    argv: tuple[str, ...]
    params: dict


@dataclass(frozen=True)
class Inputs:
    """What a run sends: a one-off prefix, then the pool, repeated."""

    prefix: tuple[Query, ...]
    pool: tuple[Query, ...]

    def query(self, i: int) -> Query:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.pool[(i - len(self.prefix)) % len(self.pool)]


def rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _slope_between(rng: random.Random, lo: Fraction, hi: Fraction, max_den: int) -> Fraction:
    """A reduced p/q in [lo, hi] with q <= max_den."""
    while True:
        q = rng.randint(1, max_den)
        p_lo, p_hi = math.ceil(lo * q), math.floor(hi * q)
        if p_lo > p_hi:
            continue
        p = rng.randint(p_lo, p_hi)
        if math.gcd(p, q) == 1:
            return Fraction(p, q)


# ---------------------------------------------------------------------------
# certify


def _certify_query(n: int, r: Fraction) -> Query:
    argv = ("fillable", "--n", str(n), f"--slope={rational(r)}", "--certify", "--json")
    return Query("certify", argv, {"n": n, "slope": rational(r)})


# (n, a1) strata of one 20-query cycle.  a1 = 1 + ceil(1/(4n - r)) is the
# coefficient that selects the rank-6 form lambda(a1, n).  n = 3 and
# a1 = 4 cost 1.4 to 3.6 s today, too close to any limit the frontier
# slice allows, so the frontier carries the larger searches instead.
# The costliest stratum, (2, 3), makes up a fifth of the draws, so p90
# falls inside its cost spread rather than in the sparse tail above it.
_CERTIFY_CYCLE = [(1, 2)] * 7 + [(1, 3)] * 3 + [(2, 2)] * 6 + [(2, 3)] * 4

# Plumbing sizes, in vertices, each taken once in turn (in seeded order)
# by the draws of a stratum.  The sublattice search grows steeply with
# the plumbing, most of all at a1 = 3 (17 vertices cost 0.9 s there, 24
# cost 6.5 s), so sizes stop at 17 for a1 = 2 and at 14 for a1 = 3.
_SIZES = {2: range(6, 18), 3: range(6, 15)}


def plumbing_size(n: int, r: Fraction) -> int:
    """Vertices of the plumbing for r < 4n.  In [2n - 1, 4n) it is the
    certificate's star: the centre, legs of one and two vertices, and a
    leg of one vertex plus the tail of the negative continued fraction
    of (r - 4n - 2)/(r - 4n - 1); the count holds below 2n - 1 too."""
    x, terms = (r - 4 * n - 2) / (r - 4 * n - 1), 1
    while x.denominator != 1:
        x = 1 / (math.ceil(x) - x)
        terms += 1
    return 4 + terms


def _certify_slopes(n: int, a1: int) -> dict[int, list[Fraction]]:
    """Slopes p/q, q <= 20, in the a1 part of [2n-1, 4n), by plumbing size."""
    top = Fraction(4 * n)
    # a1 = 2: 4n - r >= 1; a1 = 3: 1/2 <= 4n - r < 1
    lo, hi = (Fraction(2 * n - 1), top - 1) if a1 == 2 else (top - 1, top - Fraction(1, 2))
    out: dict[int, list[Fraction]] = {size: [] for size in _SIZES[a1]}
    for q in range(1, 21):
        for p in range(math.ceil(lo * q), math.floor(hi * q) + 1):
            r = Fraction(p, q)
            size = plumbing_size(n, r)
            if r.denominator == q and size in out and (a1 == 2 or r > lo):
                out[size].append(r)
    return out


def certify_inputs(seed: int) -> Inputs:
    rng = random.Random(f"certify:{seed}")
    slopes = {stratum: _certify_slopes(*stratum) for stratum in set(_CERTIFY_CYCLE)}
    sizes: dict[tuple[int, int], list[int]] = {stratum: [] for stratum in slopes}
    pool = []
    for _ in range(POOL_CYCLES["certify"]):
        cycle = list(_CERTIFY_CYCLE)
        rng.shuffle(cycle)
        for n, a1 in cycle:
            if not sizes[n, a1]:
                sizes[n, a1] = list(_SIZES[a1])
                rng.shuffle(sizes[n, a1])
            r = rng.choice(slopes[n, a1][sizes[n, a1].pop()])
            pool.append(_certify_query(n, r))
    prefix = tuple(_certify_query(n, r) for n, r in FRONTIER)
    return Inputs(prefix, tuple(pool))


# ---------------------------------------------------------------------------
# survey


def _contact_slope_with_members(rng: random.Random, members: int) -> Fraction:
    """A contact slope whose (+1/-1) translation has about `members` members.

    1/k gives k (+1) members; -a/q with q about a * k gives a chain of
    about k (-1) members.
    """
    if rng.random() < 0.5:
        return Fraction(1, members)
    a = rng.randint(1, 3)
    while True:
        q = a * members + rng.randint(0, a - 1)
        if math.gcd(a, q) == 1:
            return Fraction(-a, q)


def _translate(rng: random.Random, stratum: int) -> Query:
    knot = rng.choice(sorted(KNOTS))
    members = rng.randint(30 * stratum + 1, 30 * stratum + 30)
    r = _contact_slope_with_members(rng, members)
    argv = ("translate", "--knot", knot, f"--slope={rational(r)}", "--json")
    return Query("translate", argv, {"knot": knot, "slope": rational(r)})


def _tight(rng: random.Random) -> Query:
    knot = rng.choice(sorted(KNOTS))
    tb = KNOTS[knot][1]
    while True:
        r = _slope_between(rng, Fraction(tb - 6), Fraction(tb + 6), 9)
        if r != tb:
            break
    argv = ("tight", "--knot", knot, f"--slope={rational(r)}", "--json")
    return Query("tight", argv, {"knot": knot, "slope": rational(r)})


def _fillable_outside(rng: random.Random) -> Query:
    n = rng.randint(1, 8)
    if rng.random() < 0.5:
        r = _slope_between(rng, Fraction(-10), Fraction(2 * n - 1), 12)
        if r == 2 * n - 1:
            r -= 1
    else:
        r = _slope_between(rng, Fraction(4 * n), Fraction(4 * n + 10), 12)
    argv = ("fillable", "--n", str(n), f"--slope={rational(r)}", "--json")
    return Query("fillable", argv, {"n": n, "slope": rational(r)})


def _plumbing(rng: random.Random, n: int) -> Query:
    """A negative slope whose plumbing has 4n + 8 to 4n + 11 vertices.

    Such slopes have continued fractions of several terms (-41/29,
    -100/37, ...).  Over all negative slopes the size ranges from 4n + 6
    vertices up; this band lets sizes fill the steps between consecutive
    n, so the cost spread has no gaps.  For r < 0 the size less 4n does
    not depend on n, so n = 1 measures it.
    """
    extra = rng.randint(8, 11)
    while True:
        q = rng.randint(13, 120)
        p = rng.randint(-3 * q, -1)
        if math.gcd(p, q) == 1 and plumbing_size(1, Fraction(p, q)) - 4 == extra:
            break
    r = Fraction(p, q)
    argv = ("plumbing", "--n", str(n), f"--slope={rational(r)}", "--json")
    return Query("plumbing", argv, {"n": n, "slope": rational(r)})


def _lspace(rng: random.Random) -> Query:
    knot = rng.choice(sorted(KNOTS))
    genus, _, tabulated = KNOTS[knot]
    floor = 2 * genus - 1
    argv = ["lspace", "--knot", knot]
    seed = tabulated
    if seed is None or rng.random() < 0.3:
        seed = rng.randint(floor, floor + 8)
        argv.append(f"--seed={seed}")
    if rng.random() < 0.3:
        query = _slope_between(rng, Fraction(1, 12), Fraction(floor), 12)
    else:
        query = _slope_between(rng, Fraction(floor), Fraction(floor + 10), 12)
    argv += ["--query", rational(query), "--json"]
    return Query("lspace", tuple(argv), {"knot": knot, "seed": seed, "query": rational(query)})


def _homology(rng: random.Random) -> Query:
    while True:
        p, q = rng.randint(-10**6, 10**6), rng.randint(1, 10**4)
        if p != 0 and math.gcd(p, q) == 1:
            break
    r = Fraction(p, q)
    return Query("homology", ("homology", f"--slope={rational(r)}", "--json"),
                 {"slope": rational(r)})


def _witness(rng: random.Random) -> Query:
    m = rng.randint(1, 8)
    return Query("witness", ("witness", "--m", str(m), "--json"), {"m": m})


# Plumbing sizes n, each taken once in turn (in seeded order).  The three
# plumbing queries of a cycle are its costliest, so p90 falls inside
# their cost spread rather than between two query classes.
_PLUMBING_N = range(11, 31)


def survey_inputs(seed: int) -> Inputs:
    rng = random.Random(f"survey:{seed}")
    plumbing_n: list[int] = []
    pool = []
    for _ in range(POOL_CYCLES["survey"]):
        cycle = [_translate(rng, s) for s in range(4)]
        cycle += [_tight(rng) for _ in range(3)]
        cycle += [_fillable_outside(rng) for _ in range(2)]
        for _ in range(3):
            if not plumbing_n:
                plumbing_n = list(_PLUMBING_N)
                rng.shuffle(plumbing_n)
            cycle.append(_plumbing(rng, plumbing_n.pop()))
        cycle += [_lspace(rng) for _ in range(3)]
        cycle += [_homology(rng) for _ in range(3)]
        cycle += [_witness(rng) for _ in range(2)]
        rng.shuffle(cycle)
        pool.extend(cycle)
    return Inputs((), tuple(pool))


# ---------------------------------------------------------------------------
# embed


def _root_form(k: int, edges) -> list[list[int]]:
    g = [[0] * k for _ in range(k)]
    for i in range(k):
        g[i][i] = -2
    for i, j in edges:
        g[i][j] = g[j][i] = 1
    return g


def form_a(k: int) -> list[list[int]]:
    return _root_form(k, [(i, i + 1) for i in range(k - 1)])


def form_d(k: int) -> list[list[int]]:
    return _root_form(k, [(i, i + 1) for i in range(k - 2)] + [(k - 3, k - 1)])


def form_e(k: int) -> list[list[int]]:
    # a chain of k - 1 nodes with the last node hung off the third
    return _root_form(k, [(i, i + 1) for i in range(k - 2)] + [(2, k - 1)])


def random_form(rng: random.Random, m: int, norms) -> list[list[int]]:
    """G = -V V^T for independent rows of Z^m with the given squared norms."""
    while True:
        rows = []
        for t in norms:
            while True:
                v = [0] * m
                for _ in range(t):
                    v[rng.randrange(m)] += rng.choice((-1, 1))
                if sum(x * x for x in v) == t:
                    break
            rows.append(v)
        rng.shuffle(rows)  # the search places rows by norm; the answer keeps form order
        g = [[-sum(a * b for a, b in zip(u, w)) for w in rows] for u in rows]
        if det(g) != 0:
            return g


# (m, row norms) strata for the random forms of one cycle.  The search
# lists every vector of each row norm in Z^m, so fixing the norms fixes
# that part of the cost; the norms fall as m grows, keeping each query
# under a second.
_EMBED_RANDOM = (
    (6, (5, 3)),
    (8, (5, 4, 2)),
    (9, (5, 3, 2, 1)),
    (10, (4, 3, 2, 2, 1)),
    (11, (3, 3, 2, 2, 1, 1)),
    (12, (3, 3, 2, 2, 2, 1, 1, 1)),
)


def embed_inputs(seed: int, workdir: Path) -> Inputs:
    """Queries with known answers; gram files are written into workdir."""
    rng = random.Random(f"embed:{seed}")
    named: dict[str, Path] = {}

    def gram_file(name: str, g: list[list[int]]) -> str:
        if name not in named:
            path = workdir / f"{name}.txt"
            body = "\n".join(" ".join(str(x) for x in row) for row in g)
            path.write_text(f"{len(g)} {len(g)}\n{body}\n")
            named[name] = path
        return str(named[name])

    def query(name: str, g, m: int, found: bool) -> Query:
        argv = ("lattice-embed", "--gram", gram_file(name, g), "--bound", str(m), "--json")
        return Query("embed", argv, {"gram": g, "m": m, "found": found})

    pool = []
    for c in range(POOL_CYCLES["embed"]):
        cycle = []
        for j, (m, norms) in enumerate(_EMBED_RANDOM):
            cycle.append(query(f"r{c}-{j}", random_form(rng, m, norms), m, True))
        k = rng.randint(4, 8)
        cycle.append(query(f"a{k}", form_a(k), k, False))
        cycle.append(query(f"a{k}", form_a(k), k + 1, True))
        for k in rng.sample(range(4, 9), 2):
            cycle.append(query(f"d{k}", form_d(k), k, True))
        for k in (6, 7, 8):  # at embed_bound: the sum of the diagonal norms
            cycle.append(query(f"e{k}", form_e(k), 2 * k, False))
        rng.shuffle(cycle)
        pool.extend(cycle)
    return Inputs((), tuple(pool))


def make_inputs(workload: str, seed: int, workdir: Path) -> Inputs:
    if workload == "certify":
        return certify_inputs(seed)
    if workload == "survey":
        return survey_inputs(seed)
    if workload == "embed":
        return embed_inputs(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")
