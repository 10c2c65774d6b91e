"""Integral lattice arithmetic for the filling obstruction.

A symplectic filling of one of the surgered manifolds could be glued to
the positive definite plumbing from the kirby module; Donaldson's
diagonalization theorem would force the (negated) plumbing lattice, and
in particular a distinguished rank-6 sublattice of it, to embed into a
diagonal lattice.  Everything here is exact integer linear algebra in
service of that argument, with no fractions and no floating point:

  * short_vectors enumerates lattice vectors of an exact given norm,
    already in lexicographic order, from one fraction-free elimination
    (which also checks definiteness) and math.isqrt bounds;
  * contains_sublattice searches for a copy of one form inside another,
    for general forms; the certificate needs no search here, since the
    obstruction form is spanned by six signed plumbing vertices, and
    only re-checks that copy with SublatticeWitness.verify;
  * embed_in_diagonal searches for an isometric embedding into the
    negative diagonal lattice of a given rank by orderly generation,
    placing the vectors in order of increasing norm: each new vector is
    built only in the least form that the signed coordinate permutations
    fixing the vectors already placed allow.  The search never lists
    Z^m, is exhaustive, so a None really does prove nonexistence, and
    returns the lexicographically first witness.

A vector of norm t has at most t nonzero coordinates in any diagonal
embedding, so the sum of the diagonal norms bounds the rank that ever
needs to be searched; that is the embed_bound used by the certificate
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Iterator, Optional

from .homology import Matrix, bareiss, symmetric_size
from .kirby import Definiteness, definiteness


def negate(m: Matrix) -> Matrix:
    return [[-x for x in row] for row in m]


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


def embed_bound(gram: Matrix) -> int:
    """Rank beyond which a diagonal embedding search cannot learn more."""
    return sum(abs(gram[i][i]) for i in range(symmetric_size(gram)))


def lambda_gram(a1: int, n: int) -> Matrix:
    """The rank-6 obstruction form carried by the surgery plumbing.

    A path of norms -(n+1), -2, -2, -2, -a1 with a -2 branch hanging
    off the middle vertex; a1 is the first nontrivial coefficient of
    the continued fraction leg.  Always negative definite.
    """
    if a1 < 2:
        raise ValueError("a1 must be >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    diag = (-n - 1, -2, -2, -2, -a1, -2)
    g = [[0] * 6 for _ in range(6)]
    for i in range(6):
        g[i][i] = diag[i]
    for i, j in ((0, 1), (1, 2), (2, 3), (3, 4), (2, 5)):
        g[i][j] = g[j][i] = 1
    return g


@dataclass(frozen=True)
class EmbeddingWitness:
    """Vectors in the negative diagonal lattice of rank m realizing gram."""

    gram: tuple[tuple[int, ...], ...]
    m: int
    vectors: tuple[tuple[int, ...], ...]

    def verify(self) -> bool:
        k = len(self.gram)
        if len(self.vectors) != k or any(len(v) != self.m for v in self.vectors):
            return False
        return all(
            _dot(self.vectors[i], self.vectors[j]) == -self.gram[i][j]
            for i in range(k)
            for j in range(k)
        )


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


def freeze(m: Matrix) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(row) for row in m)


def _orderly_vectors(
    t: int, want: list[int], placed: list[tuple[int, ...]], starts: list[bool], m: int
) -> Iterator[tuple[int, ...]]:
    """Yield the orderly candidates for the next vector, in lex order.

    The columns 0..p-1 (p = len(starts)) of the vectors placed so far
    form blocks of equal columns, each beginning where starts is True;
    the columns p..m-1 are zero.  A candidate has norm t, inner product
    want[a] with placed[a], is non-decreasing inside every block, and is
    non-positive and non-decreasing on the zero columns, where a 0 ends
    it.  It is yielded over its support prefix only.  A partial vector
    is dropped as soon as a residual r = want[a] - (v . placed[a] so far)
    fails r^2 <= (sum of the remaining placed[a][j]^2) * (remaining
    norm), the exact form of Cauchy-Schwarz.
    """
    p = len(starts)
    cols = [tuple(u[j] for u in placed) for j in range(p)]
    tails = [(0,) * len(placed)]
    for col in reversed(cols):
        tails.append(tuple(s + c * c for s, c in zip(tails[-1], col)))
    tails.reverse()  # tails[j][a] = sum of placed[a][i]^2 over i >= j
    v: list[int] = []

    def walk(j: int, budget: int, res: list[int]) -> Iterator[tuple[int, ...]]:
        if j < p:
            r = math.isqrt(budget)
            lo = -r if starts[j] else max(-r, v[-1])
            col, tail = cols[j], tails[j + 1]
            for x in range(lo, r + 1):
                left = budget - x * x
                rest = [e - x * c for e, c in zip(res, col)]
                if all(e * e <= left * s for e, s in zip(rest, tail)):
                    v.append(x)
                    yield from walk(j + 1, left, rest)
                    v.pop()
        elif budget == 0:
            yield tuple(v)
        elif j < m:
            r = math.isqrt(budget)
            lo = -r if j == p else max(-r, v[-1])
            for x in range(lo, 0):
                v.append(x)
                yield from walk(j + 1, budget - x * x, res)
                v.pop()

    yield from walk(0, t, want)


def embed_in_diagonal(gram: Matrix, m: int) -> Optional[EmbeddingWitness]:
    """Search for vectors v_1..v_k in Z^m with v_i . v_j = -gram[i][j].

    The form must be negative definite.  The vectors are placed in order
    of increasing norm (ties in index order), so the most rigid ones,
    the norm-2 roots, fix the coordinates first; each is generated in
    lexicographic order under the signed coordinate permutations fixing
    the vectors already placed
    (orderly generation, McKay, J. Algorithms 26, 1998): the placed
    vectors' columns fall into contiguous blocks of equal columns and a
    trailing block of zero columns, and the next vector is non-decreasing
    inside every block and non-positive on the zero block.  The
    lexicographically first embedding (vectors compared in placement
    order) is the least point of its orbit, so it obeys these rules and
    is the witness returned; the search is exhaustive, so a None return
    means no embedding exists in rank m, hence in any rank if m is at
    least embed_bound(gram).  Supports stay a prefix of the coordinates,
    so the work does not grow with m.
    """
    if definiteness(gram) is not Definiteness.NEGATIVE_DEFINITE:
        raise ValueError("the embedding search expects a negative definite form")
    k = len(gram)
    if m < 1:
        raise ValueError("m must be >= 1")
    if k > m:
        return None
    order = sorted(range(k), key=lambda i: -gram[i][i])  # increasing norm

    def dfs(
        depth: int, placed: list[tuple[int, ...]], starts: list[bool]
    ) -> Optional[list[tuple[int, ...]]]:
        if depth == k:
            return placed
        row = gram[order[depth]]
        want = [-row[order[a]] for a in range(depth)]
        p = len(starts)
        for v in _orderly_vectors(-row[order[depth]], want, placed, starts, m):
            q = len(v)
            grown = [u + (0,) * (q - p) for u in placed] + [v]
            blocks = [
                j == p or (j < p and starts[j]) or v[j] != v[j - 1]
                for j in range(q)
            ]
            found = dfs(depth + 1, grown, blocks)
            if found is not None:
                return found
        return None

    placed = dfs(0, [], [])
    if placed is None:
        return None
    vectors: list[Optional[tuple[int, ...]]] = [None] * k
    for depth, idx in enumerate(order):
        vectors[idx] = placed[depth] + (0,) * (m - len(placed[depth]))
    return EmbeddingWitness(freeze(gram), m, tuple(vectors))


def contains_sublattice(target: Matrix, gram: Matrix) -> Optional[SublatticeWitness]:
    """Find a copy of gram inside the definite form target, if one exists.

    A general kernel; the nonfillability certificate does not call it,
    because there the copy of the obstruction form is six signed
    plumbing vertices, written down directly.  The vectors of gram are
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
