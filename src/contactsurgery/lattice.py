"""Integral lattice arithmetic for the filling obstruction.

A symplectic filling of one of the surgered manifolds could be glued to
the positive definite plumbing from the kirby module; Donaldson's
diagonalization theorem would force the (negated) plumbing lattice, and
in particular a distinguished rank-6 sublattice of it, lambda_gram, to
embed into a diagonal lattice.  The certificate writes that sublattice
down as six plumbing vertices and checks it on the tree; what is left
here is exact integer arithmetic on small forms, with no fractions and
no floating point:

  * lambda_gram is the rank-6 obstruction form, and d4_lemma proves from
    its D4 part that no diagonal lattice holds it, for any a1 and n;
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
module.  The module sits on the homology leaf only.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .homology import Definiteness, Matrix, definiteness, symmetric_size


def _dot(x, y) -> int:
    return sum(a * b for a, b in zip(x, y))


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


@functools.cache
def d4_lemma() -> bool:
    """Whether lambda_gram(a1, n) embeds in no diagonal lattice, for all a1, n.

    Its D4 is the center e2 with the pairwise orthogonal leaves c{n}, k
    and e1, each pairing 1 with e2; h1 pairs only with c{n}, a1 only with
    k.  The norm-2 vectors of Z^m are +-e_i +- e_j, so the four roots use
    at most 5 coordinates, and up to signed permutations every labeled
    copy sits in Z^5 with e2 = e_0 + e_1: the loop below is exhaustive.
    Each copy must span exactly 4 coordinates S; the roots then span Q^S,
    so a vector's part on S is fixed by its pairings with them.  h1's part
    is -(c + e2 + (k + e1)/2), integral iff k = e1 mod 2, and a1's part is
    -(k + e2 + (c + e1)/2), integral iff c = e1 mod 2.  No copy allows
    both (D4 triality: one nonzero class of D4*/D4 lies in Z^4;
    Conway-Sloane, SPLAG ch. 4).  The work is constant and done once.
    """
    center = (1, 1, 0, 0, 0)
    roots = [tuple(s * (i == a) + t * (i == b) for i in range(5))
             for a, b in itertools.combinations(range(5), 2) for s in (1, -1) for t in (1, -1)]
    leaves = [v for v in roots if _dot(v, center) == -1]
    for c, k, e1 in itertools.permutations(leaves, 3):
        if _dot(c, k) or _dot(c, e1) or _dot(k, e1):
            continue
        if sum(any(col) for col in zip(center, c, k, e1)) != 4:
            return False
        h1_fits = all((x - y) % 2 == 0 for x, y in zip(k, e1))
        a1_fits = all((x - y) % 2 == 0 for x, y in zip(c, e1))
        if h1_fits and a1_fits:
            return False
    return True


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
    return EmbeddingWitness(tuple(map(tuple, gram)), m, tuple(vectors))
