"""Plumbing trees for surgeries on the two-strand torus knots.

plumbing_presentation gives r-surgery on the (2n+1, 2) torus knot,
r < 4n, as a plumbing of disk bundles along a three-legged tree; for r
in [2n-1, 4n) its intersection form is positive definite, which is what
the lattice obstruction consumes.  The Kirby calculus that turns the one
diagram into the other always ends in the same star, so the tree is
written down in closed form; the move engine and the move sequence are
a test oracle (tests/kirby_moves.py, tests/oracles.py) that the closed
form must match.  The tree checks itself: its determinant must equal
the numerator of the surgery slope up to sign.

A PlumbingTree indexes its graph once and reads its form leaf first,
along one cached walk that also answers is_tree; it pairs vectors in its
negated form from the same index, without a dense matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence

from .cfrac import neg_cf_expand, neg_cf_length
from .homology import Definiteness


class InternalConsistencyError(RuntimeError):
    """A construction produced a result violating one of its own invariants."""


# ---------------------------------------------------------------------------
# the Seifert invariants of torus knot surgeries


@dataclass(frozen=True)
class SeifertClassification:
    """What r-surgery on the (p, q) torus knot is, by multiplicities.

    The result fibers over the sphere with at most three exceptional
    fibers of multiplicities p, q and |a - b*p*q| for r = a/b.  When the
    third multiplicity is 1 the space is a lens space; when it is 0 the
    fibration degenerates (the reducible surgery).
    """

    multiplicities: tuple[int, int, int]
    is_lens: bool
    is_degenerate: bool


def moser_seifert(p: int, q: int, r: Fraction) -> SeifertClassification:
    if not (p > q >= 2) or math.gcd(p, q) != 1:
        raise ValueError("need coprime p > q >= 2")
    r = Fraction(r)
    third = abs(r.numerator - r.denominator * p * q)
    return SeifertClassification(
        multiplicities=(p, q, third),
        is_lens=third == 1,
        is_degenerate=third == 0,
    )


# ---------------------------------------------------------------------------
# plumbing trees


@dataclass(frozen=True)
class PlumbingTree:
    """Vertices weighted by Euler numbers, edges for the plumbed pairs.

    The graph is validated and indexed once: _index maps a vertex id to
    its position, and _nbrs[i][j] = 1 for each plumbed pair.  One walk
    (_walk), made on first use and kept, serves is_tree and the
    leaf-first elimination (_leaf_first) behind determinant and
    definiteness, which need a forest and raise ValueError on a graph
    with a cycle.  negated_pairing reads the weights and _nbrs directly,
    so the certificate checks its vectors in O(V + E) per pair.
    """

    vertices: tuple[tuple[str, int], ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        index = {vid: i for i, (vid, _) in enumerate(self.vertices)}
        if len(index) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        nbrs: list[dict[int, int]] = [{} for _ in self.vertices]
        for a, b in self.edges:
            if a not in index or b not in index:
                raise ValueError(f"edge ({a}, {b}) names unknown vertices")
            if a == b:
                raise ValueError("self edge")
            i, j = index[a], index[b]
            if j in nbrs[i]:
                raise ValueError(f"duplicate edge ({a}, {b})")
            nbrs[i][j] = nbrs[j][i] = 1
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_nbrs", nbrs)

    @cached_property
    def _walk(self) -> Optional[tuple[list[int], list[int], int]]:
        """The parent of each vertex (-1 at a root), the vertices children
        before parents, and the number of components; None when the graph
        has a cycle.  Each component is rooted at its first vertex."""
        parent: list = [None] * len(self.vertices)  # None until reached
        order: list[int] = []  # parents before children, reversed at the end
        components = 0
        for root in range(len(self.vertices)):
            if parent[root] is not None:
                continue
            components += 1
            parent[root] = -1
            stack = [root]
            while stack:
                v = stack.pop()
                order.append(v)
                for u in self._nbrs[v]:
                    if u == parent[v]:
                        continue
                    if parent[u] is not None:
                        return None
                    parent[u] = v
                    stack.append(u)
        order.reverse()
        return parent, order, components

    def _leaf_first(self) -> Optional[tuple[list[Fraction], int]]:
        """Eliminate the intersection form leaves first, along _walk.

        A vertex's pivot is its weight minus the sum of 1/pivot over its
        eliminated children; eliminating it changes only its parent's
        entry, so nothing fills in and the form is congruent to the
        diagonal of the pivots.  A zero pivot at a vertex v whose parent
        p remains spans with p a hyperbolic plane, inertia (1, 1) and
        determinant -1, whose complement is the form on the forest
        without v and p: both are deleted.  Returns the nonzero pivots
        and the number of hyperbolic pairs, or None when a zero pivot
        has no parent left, since that vertex is then in the radical.
        """
        if self._walk is None:
            raise ValueError("the plumbing graph has a cycle")
        parent, order, _ = self._walk
        entry = [Fraction(w) for _, w in self.vertices]
        alive = [True] * len(self.vertices)
        pivots: list[Fraction] = []
        pairs = 0
        for v in order:
            if not alive[v]:
                continue
            p = parent[v]
            if p >= 0 and not alive[p]:
                p = -1
            if entry[v] == 0:
                if p < 0:
                    return None
                alive[p] = False
                pairs += 1
                continue
            pivots.append(entry[v])
            if p >= 0:
                entry[p] -= 1 / entry[v]
        return pivots, pairs

    @cached_property
    def _form(self) -> tuple[int, Definiteness]:
        if not self.vertices:
            raise ValueError("need a nonempty plumbing")
        found = self._leaf_first()
        if found is None:
            return 0, Definiteness.DEGENERATE
        pivots, pairs = found
        det = math.prod(pivots, start=(-1) ** pairs)
        negative = pairs + sum(1 for x in pivots if x < 0)
        if negative == 0:
            kind = Definiteness.POSITIVE_DEFINITE
        elif negative == len(self.vertices):
            kind = Definiteness.NEGATIVE_DEFINITE
        else:
            kind = Definiteness.INDEFINITE
        return int(det), kind

    @property
    def determinant(self) -> int:
        return self._form[0]

    @property
    def definiteness(self) -> Definiteness:
        return self._form[1]

    def weight(self, vid: str) -> int:
        return self.vertices[self._index[vid]][1]

    def is_tree(self) -> bool:
        return self._walk is not None and self._walk[2] == 1

    def negated_pairing(self, x: Sequence[int], y: Sequence[int]) -> int:
        """x . y in the negated intersection form, one coordinate per vertex.

        Vertex i contributes -x_i (w_i y_i + the sum of y_j over its
        neighbors j), read off the weights and _nbrs, so the cost is
        O(V + E) and no V x V matrix is built.
        """
        size = len(self.vertices)
        if len(x) != size or len(y) != size:
            raise ValueError(f"the pairing needs vectors of length {size}")
        total = 0
        for i, xi in enumerate(x):
            if xi:
                total -= xi * (self.vertices[i][1] * y[i] + sum(y[j] for j in self._nbrs[i]))
        return total


# The tree is written down in closed form, in time linear in its vertex
# count, so n no longer bounds any work: the budget stays as the bound on
# the input n, past which the CLI answers with a one-line error.
PLUMBING_N_BUDGET = 500

# The tree has 4 + len(negative continued fraction of (r-4n-2)/(r-4n-1))
# vertices, a count that grows with the slope's denominator, not with n:
# 20001/10000 at n = 1 gives 10,005.  Euclid counts them before the leg
# is expanded.  At 20,000 vertices fillable --certify --json takes about
# 0.3 s at n = 1 or n = 500, and 36 MB (2-vCPU x86 VM, Python 3.11.7).
PLUMBING_VERTEX_BUDGET = 20_000


def plumbing_presentation(n: int, r: Fraction) -> PlumbingTree:
    """The plumbing tree bounding r-surgery on the (2n+1, 2) torus knot.

    Valid for any rational r < 4n (at 4n and above a different, fillable
    recipe applies).  The Kirby calculus -- one band blowup per full
    twist, ring slides, two clasp blowups, slam dunks, an arm slide,
    three Rolfsen twists and two inverse dunks -- always ends in the
    same three-legged star, written down here directly:

      * the center e2 of weight 2;
      * a leg e1 of weight 2;
      * a leg c{n}, h1 of weights 2 and n + 1;
      * a leg k, a1, a2, ... whose weights are the negative continued
        fraction of (r - 4n - 2)/(r - 4n - 1), which lies in (1, 2), so
        the leg has at least the two vertices k and a1.

    The vertices come in the order k, c{n}, e1, e2, h1, a1, a2, ... and
    the edges in that order of their first end.  An n below 1 or above
    PLUMBING_N_BUDGET, r >= 4n, or a tree of more than
    PLUMBING_VERTEX_BUDGET vertices is refused with a ValueError before
    the tree is built.  The tree must then be a tree, carry the right
    homology, and be positive definite whenever r lies in [2n-1, 4n),
    else InternalConsistencyError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > PLUMBING_N_BUDGET:
        raise ValueError(f"n = {n} is over the plumbing budget of {PLUMBING_N_BUDGET}")
    r = Fraction(r)
    if r >= 4 * n:
        raise ValueError("the plumbing rewriting needs r < 4n")
    x = (r - 4 * n - 2) / (r - 4 * n - 1)
    size = 4 + neg_cf_length(x)
    if size > PLUMBING_VERTEX_BUDGET:
        raise ValueError(
            f"the plumbing would have {size} vertices; the budget is {PLUMBING_VERTEX_BUDGET}"
        )
    leg = neg_cf_expand(x).terms
    head, tail = f"c{n}", [f"a{i}" for i in range(1, len(leg))]
    tree = PlumbingTree(
        (("k", leg[0]), (head, 2), ("e1", 2), ("e2", 2), ("h1", n + 1), *zip(tail, leg[1:])),
        (("k", "e2"), ("k", "a1"), (head, "e2"), (head, "h1"), ("e1", "e2"),
         *zip(tail, tail[1:])),
    )
    if not tree.is_tree():
        raise InternalConsistencyError("end state is not a tree")
    if abs(tree.determinant) != abs(r.numerator):
        raise InternalConsistencyError("homology magnitude lost in the rewriting")
    if Fraction(2 * n - 1) <= r and tree.definiteness is not Definiteness.POSITIVE_DEFINITE:
        raise InternalConsistencyError(
            f"expected a positive definite form for r = {r} in [2n-1, 4n)"
        )
    return tree


# ---------------------------------------------------------------------------
# the text format


def format_plumbing_tree(t: PlumbingTree) -> str:
    lines = [f"{vid} {w}" for vid, w in t.vertices]
    lines.extend(f"{a} {b}" for a, b in t.edges)
    return "\n".join(lines) + "\n"
