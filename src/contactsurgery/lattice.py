"""Integral lattice arithmetic for the filling obstruction.

A symplectic filling of one of the surgered manifolds could be glued to
the positive definite plumbing from the kirby module; Donaldson's
diagonalization theorem would force the (negated) plumbing lattice, and
in particular a distinguished rank-6 sublattice of it, to embed into a
diagonal lattice.  Everything here is exact integer linear algebra in
service of that argument:

  * short_vectors enumerates lattice vectors of an exact given norm by
    completing the square over the rationals;
  * contains_sublattice locates a copy of one form inside another;
  * embed_in_diagonal searches for an isometric embedding into the
    negative diagonal lattice of a given rank, pruning partial
    placements that differ by a signed coordinate permutation, so an
    exhausted search really does prove nonexistence.

A vector of norm t has at most t nonzero coordinates in any diagonal
embedding, so the sum of the diagonal norms bounds the rank that ever
needs to be searched; that is the embed_bound used by the certificate
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .homology import Matrix, symmetric_size
from .kirby import Definiteness, definiteness


def _negate(m: Matrix) -> Matrix:
    return [[-x for x in row] for row in m]


def _bilinear(x, m: Matrix, y) -> int:
    return sum(x[i] * m[i][j] * y[j] for i in range(len(m)) for j in range(len(m)))


def _dot(x, y) -> int:
    return sum(a * b for a, b in zip(x, y))


def _floor_plus_sqrt(s: Fraction, rad: Fraction) -> int:
    """Largest integer <= s + sqrt(rad), exactly (rad >= 0)."""
    x = math.floor(s) + math.isqrt(math.ceil(rad)) + 2
    while True:
        diff = x - s
        if diff <= 0 or diff * diff <= rad:
            return x
        x -= 1


def short_vectors(gram: Matrix, t: int) -> list[tuple[int, ...]]:
    """All integer vectors of norm exactly t in a definite lattice.

    Negative definite forms are handled by negating both the form and
    the target norm.  The enumeration completes the square: with
    q(x) = sum_i d_i (x_i + sum_{j>i} c_ij x_j)^2 and all d_i > 0, the
    trailing coordinates bound the leading ones exactly, with no
    floating point anywhere.
    """
    kind = definiteness(gram)
    if kind is Definiteness.NEGATIVE_DEFINITE:
        return short_vectors(_negate(gram), -t)
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
    out: list[tuple[int, ...]] = []
    x = [0] * n

    def walk(i: int, budget: Fraction) -> None:
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
        amb = [list(r) for r in self.ambient]
        k = len(self.gram)
        if len(self.vectors) != k or any(len(v) != len(amb) for v in self.vectors):
            return False
        return all(
            _bilinear(self.vectors[i], amb, self.vectors[j]) == self.gram[i][j]
            for i in range(k)
            for j in range(k)
        )


def _freeze(m: Matrix) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(row) for row in m)


def embed_in_diagonal(gram: Matrix, m: int) -> Optional[EmbeddingWitness]:
    """Search for vectors v_1..v_k in Z^m with v_i . v_j = -gram[i][j].

    The form must be negative definite.  Partial placements are pruned
    up to signed permutations of the m coordinates (automorphisms of
    the diagonal lattice), which keeps the search exhaustive: a None
    return means no embedding exists in rank m, hence in any rank if m
    is at least embed_bound(gram).  The first witness found under the
    fixed candidate order is returned, so results are reproducible.
    """
    if definiteness(gram) is not Definiteness.NEGATIVE_DEFINITE:
        raise ValueError("the embedding search expects a negative definite form")
    k = len(gram)
    if m < 1:
        raise ValueError("m must be >= 1")
    if k > m:
        return None
    order = sorted(range(k), key=lambda i: gram[i][i])  # decreasing norm
    identity = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    candidates = {
        t: short_vectors(identity, t) for t in {-gram[i][i] for i in range(k)}
    }
    placed: list[tuple[int, ...]] = []
    seen: set = set()

    def canonical_key(vs: list[tuple[int, ...]]) -> tuple:
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

    def dfs(depth: int) -> bool:
        if depth == k:
            return True
        want_norm = -gram[order[depth]][order[depth]]
        for v in candidates[want_norm]:
            if any(
                _dot(v, placed[a]) != -gram[order[depth]][order[a]]
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
    vectors: list[Optional[tuple[int, ...]]] = [None] * k
    for depth, idx in enumerate(order):
        vectors[idx] = placed[depth]
    return EmbeddingWitness(_freeze(gram), m, tuple(vectors))


def contains_sublattice(target: Matrix, gram: Matrix) -> Optional[SublatticeWitness]:
    """Find a copy of gram inside the definite form target, if one exists."""
    dt, dg = definiteness(target), definiteness(gram)
    definite = (Definiteness.POSITIVE_DEFINITE, Definiteness.NEGATIVE_DEFINITE)
    if dt not in definite or dg is not dt:
        raise ValueError("both forms must be definite, of the same sign")
    n, k = len(target), len(gram)
    if k > n:
        return None
    order = sorted(range(k), key=lambda i: -abs(gram[i][i]))
    candidates = {
        t: short_vectors(target, t) for t in {gram[i][i] for i in range(k)}
    }
    placed: list[tuple[int, ...]] = []

    def dfs(depth: int) -> bool:
        if depth == k:
            return True
        for v in candidates[gram[order[depth]][order[depth]]]:
            if any(
                _bilinear(v, target, placed[a]) != gram[order[depth]][order[a]]
                for a in range(depth)
            ):
                continue
            placed.append(v)
            if dfs(depth + 1):
                return True
            placed.pop()
        return False

    if not dfs(0):
        return None
    vectors: list[Optional[tuple[int, ...]]] = [None] * k
    for depth, idx in enumerate(order):
        vectors[idx] = placed[depth]
    return SublatticeWitness(_freeze(target), _freeze(gram), tuple(vectors))
