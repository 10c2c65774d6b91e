"""Brute-force and reference oracles shared by the test modules."""

import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterator, Optional

from contactsurgery.floer import DerivationChain, DerivationStep, SlopeKnowledge
from contactsurgery.homology import (
    Definiteness,
    Matrix,
    bareiss,
    definiteness,
    det_bareiss,
    smith_normal_form,
    symmetric_size,
)
from contactsurgery.kirby import (
    PLUMBING_N_BUDGET,
    Component,
    GraphDiagram,
    InternalConsistencyError,
    PlumbingTree,
    blow_up,
    handle_slide,
    rational_to_integer,
    rolfsen_twist,
    slam_dunk,
)
from contactsurgery.lattice import EmbeddingWitness


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    assert all(len(r) == inner for r in a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def check_snf(a):
    """smith_normal_form(a), after checking U A V = D exactly, U and V
    unimodular, D diagonal, and its diagonal a nonnegative divisor chain."""
    rows, cols = len(a), len(a[0]) if a else 0
    snf = smith_normal_form(a)
    assert mat_mul(mat_mul(snf.u, a), snf.v) == snf.d
    assert abs(det_bareiss(snf.u)) == 1
    assert abs(det_bareiss(snf.v)) == 1
    diag = snf.diagonal
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert snf.d[i][j] == 0
    for i in range(len(diag) - 1):
        if diag[i] == 0:
            assert diag[i + 1] == 0
        else:
            assert diag[i + 1] % diag[i] == 0
    assert all(x >= 0 for x in diag)
    return snf


def determinantal_divisors(a):
    """gcd of all k-by-k minors, for k = 1..min(rows, cols)."""
    rows, cols = len(a), len(a[0])
    out = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in itertools.combinations(range(rows), k):
            for csel in itertools.combinations(range(cols), k):
                g = math.gcd(g, det_bareiss([[a[i][j] for j in csel] for i in rsel]))
        out.append(g)
    return out


def _floor_plus_sqrt(s, rad):
    """Largest integer <= s + sqrt(rad), exactly (rad >= 0)."""
    x = math.floor(s) + math.isqrt(math.ceil(rad)) + 2
    while True:
        diff = x - s
        if diff <= 0 or diff * diff <= rad:
            return x
        x -= 1


def fraction_short_vectors(gram, t):
    """Norm-t vectors of a definite form by rational quadratic completion.

    The reference for short_vectors: q(x) = sum_i d_i (x_i +
    sum_{j>i} c_ij x_j)^2 over Fraction, walked from the last coordinate,
    then sorted.
    """
    kind = definiteness(gram)
    if kind is Definiteness.NEGATIVE_DEFINITE:
        return fraction_short_vectors([[-x for x in row] for row in gram], -t)
    if kind is not Definiteness.POSITIVE_DEFINITE:
        raise ValueError("short vector enumeration needs a definite form")
    if t <= 0:
        return []
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    d = [Fraction(0)] * n
    c = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = a[i][i]
        for j in range(i + 1, n):
            c[i][j] = a[i][j] / d[i]
        for j in range(i + 1, n):
            for k in range(j, n):
                a[j][k] -= d[i] * c[i][j] * c[i][k]
                a[k][j] = a[j][k]
    out = []
    x = [0] * n

    def walk(i, budget):
        if i < 0:
            if budget == 0:
                out.append(tuple(x))
            return
        s = sum(c[i][j] * x[j] for j in range(i + 1, n))
        rad = budget / d[i]
        hi = _floor_plus_sqrt(-s, rad)
        lo = -_floor_plus_sqrt(s, rad)
        for v in range(lo, hi + 1):
            x[i] = v
            walk(i - 1, budget - d[i] * (v + s) ** 2)
        x[i] = 0

    walk(n - 1, Fraction(t))
    return sorted(out)


# The sublattice search, and the short-vector walk it draws candidates
# from, left the library once the certificate wrote its copy of the
# obstruction form down as six plumbing vertices.  They stay here as
# oracles: the search must agree that the copy exists, and
# SublatticeWitness re-checks a copy against a dense ambient form.


def negate(m: Matrix) -> Matrix:
    return [[-x for x in row] for row in m]


def freeze(m):
    return tuple(tuple(row) for row in m)


def _dot(x, y) -> int:
    return sum(a * b for a, b in zip(x, y))


def _lex_vectors(gram: Matrix, t: int) -> Iterator[tuple[int, ...]]:
    """Yield the norm-t vectors of a positive definite form, sorted.

    One bareiss pass over the coordinate-reversed form must leave its
    leading minors D_1..D_n > 0 (D_0 = 1) as pivots, else ValueError,
    and rows M_k with

        q(x) = sum_k Y_k^2 / (D_k D_{k+1}),
        Y_k = D_{k+1} z_k + sum_{j>k} M_k[j] z_j,   z_k = x_{n-1-k}.

    With L = lcm_k(D_k D_{k+1}) and w_k = L / (D_k D_{k+1}) the target
    L t = sum_k w_k Y_k^2 is an identity of integers, and the remaining
    budget bounds each coordinate exactly by |Y_k| <= isqrt(budget // w_k)
    (Fincke & Pohst, Math. Comp. 44, 1985).  The walk fixes x_0 first and
    every range upwards, so the vectors come out in lexicographic order.
    """
    n = len(gram)
    a, _, swap = bareiss([row[::-1] for row in reversed(gram)])
    pivots = [1] + [a[k][k] for k in range(n)]
    if swap < n or min(pivots) <= 0:
        raise ValueError("short vector enumeration needs a definite form")
    if t <= 0:
        return
    scale = 1
    for k in range(n):
        scale = math.lcm(scale, pivots[k] * pivots[k + 1])
    # coordinate x_i is z_k for k = n - 1 - i
    lead = [pivots[n - i] for i in range(n)]
    weight = [scale // (pivots[n - 1 - i] * pivots[n - i]) for i in range(n)]
    coef = [[a[n - 1 - i][n - 1 - j] for j in range(i)] for i in range(n)]

    x = [0] * n

    def walk(i: int, budget: int) -> Iterator[tuple[int, ...]]:
        s = sum(map(mul, coef[i], x))
        d, w = lead[i], weight[i]
        r = math.isqrt(budget // w)
        for x[i] in range(-((r + s) // d), (r - s) // d + 1):
            y = d * x[i] + s
            left = budget - w * y * y
            if i < n - 1:
                yield from walk(i + 1, left)
            elif left == 0:
                yield tuple(x)

    yield from walk(0, scale * t)


def short_vectors(gram: Matrix, t: int) -> list[tuple[int, ...]]:
    """All integer vectors of norm exactly t in a definite lattice, sorted.

    A definite form is negative definite iff gram[0][0] < 0; then both
    the form and t are negated.  One elimination checks definiteness and
    drives the integer-only walk (see _lex_vectors), whose vectors come
    out in lexicographic order, so nothing is sorted afterwards.
    """
    symmetric_size(gram)
    if gram[0][0] < 0:
        gram, t = negate(gram), -t
    return list(_lex_vectors(gram, t))


@dataclass(frozen=True)
class SublatticeWitness:
    """Coordinate vectors inside the ambient form realizing gram."""

    ambient: tuple[tuple[int, ...], ...]
    gram: tuple[tuple[int, ...], ...]
    vectors: tuple[tuple[int, ...], ...]

    def verify(self) -> bool:
        k, n = len(self.gram), len(self.ambient)
        if len(self.vectors) != k or any(len(v) != n for v in self.vectors):
            return False
        images = [[_dot(row, v) for row in self.ambient] for v in self.vectors]
        return all(
            _dot(self.vectors[i], images[j]) == self.gram[i][j]
            for i in range(k)
            for j in range(k)
        )


def contains_sublattice(target: Matrix, gram: Matrix) -> Optional[SublatticeWitness]:
    """Find a copy of gram inside the definite form target, if one exists.

    The vectors of gram are
    placed in order of decreasing norm, each drawn from the target's
    vectors of that norm in lexicographic order, so the witness is the
    lexicographically first copy.  The first depth streams its
    candidates; deeper depths start from one list per norm.
    Placing v computes A v once and filters every deeper depth's pool by
    its inner product u . (A v) with v; a pool left empty ends the branch
    at once, and since pools only lose vectors that cannot be placed, the
    order of the search, and its witness, is unchanged.
    """
    dt, dg = definiteness(target), definiteness(gram)
    definite = (Definiteness.POSITIVE_DEFINITE, Definiteness.NEGATIVE_DEFINITE)
    if dt not in definite or dg is not dt:
        raise ValueError("both forms must be definite, of the same sign")
    n, k = len(target), len(gram)
    if k > n:
        return None
    sign = 1 if dt is Definiteness.POSITIVE_DEFINITE else -1
    form = target if sign == 1 else negate(target)
    order = sorted(range(k), key=lambda i: -abs(gram[i][i]))
    want = [[sign * gram[order[d]][order[e]] for e in range(d + 1)] for d in range(k)]
    lists = {t: short_vectors(form, t) for t in {want[d][d] for d in range(1, k)}}
    norm = want[0][0]
    first = lists[norm] if norm in lists else _lex_vectors(form, norm)
    placed: list[tuple[int, ...]] = []

    def dfs(depth: int, pools: list) -> bool:
        # pools[e - depth]: the candidates for depth e that pass every
        # inner product with the vectors placed so far
        if depth == k:
            return True
        for v in pools[0]:
            image = [sum(map(mul, row, v)) for row in form]
            rest = []
            for e in range(depth + 1, k):
                g = want[e][depth]
                pool = [u for u in pools[e - depth] if sum(map(mul, u, image)) == g]
                if not pool:
                    break
                rest.append(pool)
            else:
                placed.append(v)
                if dfs(depth + 1, rest):
                    return True
                placed.pop()
        return False

    if not dfs(0, [first] + [lists[want[e][e]] for e in range(1, k)]):
        return None
    vectors: list[Optional[tuple[int, ...]]] = [None] * k
    for depth, idx in enumerate(order):
        vectors[idx] = placed[depth]
    return SublatticeWitness(freeze(target), freeze(gram), tuple(vectors))


def seen_set_embed_in_diagonal(gram, m):
    """Diagonal embedding search over all of Z^m, pruned by a seen set.

    The reference for lattice.embed_in_diagonal: every norm-t vector of
    Z^m is a candidate, in lexicographic order, and a partial placement
    whose signed-permutation class was already exhausted is skipped.
    Skipping only exhausted classes keeps the first witness found equal
    to the lexicographically first one.  The vectors are placed in the
    same order, increasing norm, so both name the same first witness.
    """
    if definiteness(gram) is not Definiteness.NEGATIVE_DEFINITE:
        raise ValueError("the embedding search expects a negative definite form")
    k = len(gram)
    if m < 1:
        raise ValueError("m must be >= 1")
    if k > m:
        return None
    order = sorted(range(k), key=lambda i: -gram[i][i])
    identity = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    candidates = {
        t: fraction_short_vectors(identity, t) for t in {-gram[i][i] for i in range(k)}
    }
    placed = []
    seen = set()

    def dot(x, y):
        return sum(a * b for a, b in zip(x, y))

    def canonical_key(vs):
        rows = []
        for r in range(m):
            row = tuple(v[r] for v in vs)
            for entry in row:
                if entry:
                    if entry < 0:
                        row = tuple(-x for x in row)
                    break
            rows.append(row)
        rows.sort()
        return tuple(rows)

    def dfs(depth):
        if depth == k:
            return True
        want_norm = -gram[order[depth]][order[depth]]
        for v in candidates[want_norm]:
            if any(
                dot(v, placed[a]) != -gram[order[depth]][order[a]]
                for a in range(depth)
            ):
                continue
            placed.append(v)
            key = canonical_key(placed)
            if key not in seen:
                seen.add(key)
                if dfs(depth + 1):
                    return True
            placed.pop()
        return False

    if not dfs(0):
        return None
    vectors = [None] * k
    for depth, idx in enumerate(order):
        vectors[idx] = placed[depth]
    return EmbeddingWitness(tuple(map(tuple, gram)), m, tuple(vectors))


def intersection_matrix(tree: PlumbingTree) -> Matrix:
    """The dense form of a plumbing: weights on the diagonal, 1 per edge."""
    index = {vid: i for i, (vid, _) in enumerate(tree.vertices)}
    m = [[0] * len(index) for _ in index]
    for i, (_, w) in enumerate(tree.vertices):
        m[i][i] = w
    for a, b in tree.edges:
        m[index[a]][index[b]] = m[index[b]][index[a]] = 1
    return m


def generalized_linking_matrix(d: GraphDiagram) -> Matrix:
    """Row i: framing numerator on the diagonal, denominator-scaled linking off it."""
    ids = d.ids()
    n = len(ids)
    m = [[0] * n for _ in range(n)]
    for i, comp in enumerate(d.components):
        m[i][i] = comp.coeff.numerator
        for j in range(n):
            if j != i:
                m[i][j] = comp.coeff.denominator * d.lk(ids[i], ids[j])
    return m


def homology_magnitude(d: GraphDiagram) -> int:
    """|H1| of the surgered manifold, 0 when the group is infinite."""
    if not d.components:
        return 1
    return abs(det_bareiss(generalized_linking_matrix(d)))


def union_find_components(vertices, edges) -> Optional[int]:
    """The number of connected components of a graph, or None when it has
    a cycle: an edge whose two ends are already connected closes one."""
    root = {vid: vid for vid, _ in vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    components = len(root)
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return None
        root[ra] = rb
        components -= 1
    return components


def bfs_lspace_propagate(kb: SlopeKnowledge, query: Fraction) -> Optional[DerivationChain]:
    """Derive the query slope from the seeds by breadth-first search.

    The reference for floer.lspace_propagate, which builds the same
    chains in closed form.

    Slopes are tracked as unreduced pairs (a, b).  Three rules apply:
    integral slopes above 2g-1 step down by one; any slope with value
    at least 2g-1 steps up by 1/b; an integral slope may be rewritten
    with denominator q before stepping up in finer increments.  The
    search is breadth-first, so returned chains have minimal length.
    """
    query = Fraction(query)
    if query <= 0:
        return None
    floor = kb.floor_slope
    qd = query.denominator
    cap = max(max(kb.seeds), query)
    start_states = [(s, 1) for s in kb.seeds]
    parent: dict[tuple[int, int], tuple[tuple[int, int], str]] = {}
    queue = deque()
    for st in start_states:
        if st not in parent:
            parent[st] = (None, "seed")
            queue.append(st)
    goal = None
    for st in start_states:
        if Fraction(*st) == query:
            goal = st
    while queue and goal is None:
        a, b = queue.popleft()
        moves: list[tuple[tuple[int, int], str]] = []
        if b == 1 and a > floor:
            moves.append(((a - 1, 1), "step_down"))
        if Fraction(a, b) >= floor and Fraction(a + 1, b) <= cap:
            moves.append(((a + 1, b), "step_up"))
        if b == 1 and qd > 1:
            moves.append(((a * qd, qd), "represent"))
        for nxt, kind in moves:
            if nxt in parent:
                continue
            parent[nxt] = ((a, b), kind)
            if Fraction(*nxt) == query:
                goal = nxt
                break
            queue.append(nxt)
    if goal is None:
        return None
    steps = []
    cur = goal
    while cur is not None:
        prev, kind = parent[cur]
        steps.append(DerivationStep(kind, cur[0], cur[1]))
        cur = prev
    steps.reverse()
    return DerivationChain(kb.knot.name, query, tuple(steps))


def copying_plumbing_move_sequence(
    n: int, r: Fraction
) -> list[tuple[str, GraphDiagram]]:
    """kirby.plumbing_move_sequence as the six public moves chained on
    GraphDiagrams, each move copying and re-validating the whole diagram.
    The pipeline edits one working diagram in place instead; its labeled
    states must equal these."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > PLUMBING_N_BUDGET:
        raise ValueError(f"n = {n} is over the plumbing budget of {PLUMBING_N_BUDGET}")
    r = Fraction(r)
    if r >= 4 * n:
        raise ValueError("the plumbing rewriting needs r < 4n")
    states = []
    d = GraphDiagram((Component("k", r, torus=(2 * n + 1, 2)),))
    states.append(("start", d))
    # one blowup per full twist of the band; k unknots at the end
    ring: list[str] = []
    for i in range(n):
        d, cid = blow_up(d, {"k": 2}, -1, new_id=f"c{i + 1}")
        ring.append(cid)
    states.append(("band-blowups", d))
    # chain the ring circles together and off the band
    for i in range(n - 1):
        d = handle_slide(d, ring[i], ring[i + 1], -1)
    head, tail = ring[-1], ring[:-1]
    states.append(("ring-slides", d))
    d, e1 = blow_up(d, {"k": 1, head: 1}, -1, new_id="e1")
    d, e2 = blow_up(d, {"k": 1, head: 1}, -1, new_id="e2")
    states.append(("clasp-blowups", d))
    for cid in tail:  # absorb the chain, far end first
        d = slam_dunk(d, cid)
    if d.component(head).coeff != Fraction(-(2 * n + 1), n):
        raise InternalConsistencyError("chain absorption gave the wrong head")
    states.append(("dunked", d))
    d = handle_slide(d, e1, e2, -1)
    states.append(("arm-slide", d))
    for cid in (head, "k", e1):
        d = rolfsen_twist(d, cid, 1)
    for cid, want in ((e1, Fraction(2)), (e2, Fraction(2)),
                      (head, Fraction(2 * n + 1, n + 1))):
        if d.component(cid).coeff != want:
            raise InternalConsistencyError(f"twist left {cid} at {d.component(cid).coeff}")
    states.append(("twists", d))
    d, _ = rational_to_integer(d, head, prefix="h")
    d, _ = rational_to_integer(d, "k", prefix="a")
    states.append(("integral", d))
    return states
