"""Smooth surgery diagrams on graphs of framed circles and their calculus.

A diagram here is purely combinatorial: components carry a knot kind
(unknot, or a torus knot), a rational framing coefficient, and pairwise
linking numbers.  The moves below rewrite diagrams without changing the
surgered 3-manifold:

  * blow_up / blow_down introduce or delete a (+-1)-framed unknot,
    twisting whatever strands run through its disk;
  * handle_slide adds one integrally framed unknot to another;
  * rolfsen_twist re-expresses a rationally framed unknot, pushing a
    full twist onto the strands through its disk;
  * slam_dunk absorbs a rationally framed leaf into the integrally
    framed component it claspes once;
  * rational_to_integer is the inverse dunk iterated: a rational
    coefficient becomes a chain of integrally framed unknots.

Each move is a method of one working diagram (_Diagram), edited in
place; blow_up, blow_down and rolfsen_twist share its twist loop.  The
public functions copy a GraphDiagram, move the copy and build a new one.

Every move preserves the order of the first homology of the surgered
manifold.  The plumbing pipeline checks that order at its end: the
tree's determinant must equal the numerator of the surgery slope up to
sign.

The pipeline at the bottom converts r-surgery on the (2n+1, 2) torus
knot, r < 4n, into a plumbing of disk bundles along a three-legged
tree; for r in [2n-1, 4n) the resulting intersection form is positive
definite, which is what the lattice obstruction consumes.  It edits one
working diagram and builds GraphDiagrams only at its labeled states.
A PlumbingTree indexes its graph once and reads its form leaf first,
along one cached walk that also answers is_tree; it pairs vectors in its
negated form from the same index, without a dense matrix.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence

from .cfrac import format_rational, neg_cf_expand, neg_cf_length, parse_rational
from .homology import Definiteness, content_lines


class MoveError(ValueError):
    """A Kirby move was attempted where its preconditions fail."""


class InternalConsistencyError(RuntimeError):
    """A pipeline produced a state violating one of its own invariants."""


_ID_RE = re.compile(r"[A-Za-z0-9_.-]+")


@dataclass(frozen=True)
class Component:
    """One framed circle: an unknot unless a torus (p, q) pair is given."""

    cid: str
    coeff: Fraction
    torus: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        if not _ID_RE.fullmatch(self.cid):
            raise ValueError(f"bad component id {self.cid!r}")
        object.__setattr__(self, "coeff", Fraction(self.coeff))
        if self.torus is not None:
            p, q = self.torus
            if not (p > q >= 2) or math.gcd(p, q) != 1:
                raise ValueError(f"bad torus parameters {self.torus}")

    @property
    def kind(self) -> str:
        if self.torus is None:
            return "unknot"
        return f"torus:{self.torus[0]},{self.torus[1]}"

    @property
    def is_integral(self) -> bool:
        return self.coeff.denominator == 1


def _component(comps: Mapping[str, Component], cid: str) -> Component:
    try:
        return comps[cid]
    except KeyError:
        raise MoveError(f"no component {cid!r}") from None


@dataclass(frozen=True)
class GraphDiagram:
    """Framed-circle diagram: components in order plus sparse linking data.

    Linking entries are (a, b, lk) with a occurring before b in the
    component order and lk nonzero; absent pairs are unlinked.
    """

    components: tuple[Component, ...]
    linking: tuple[tuple[str, str, int], ...] = ()

    def __post_init__(self) -> None:
        index = {}
        for i, comp in enumerate(self.components):
            if comp.cid in index:
                raise ValueError(f"duplicate component id {comp.cid!r}")
            index[comp.cid] = i
        nbrs: dict[str, dict[str, int]] = {cid: {} for cid in index}
        for a, b, v in self.linking:
            if a not in index or b not in index:
                raise ValueError(f"linking entry ({a}, {b}) names unknown ids")
            if a == b:
                raise ValueError(f"self-linking entry on {a!r}")
            if index[a] > index[b]:
                raise ValueError(f"linking entry ({a}, {b}) out of component order")
            if v == 0:
                raise ValueError(f"zero linking entry ({a}, {b})")
            if b in nbrs[a]:
                raise ValueError(f"duplicate linking entry ({a}, {b})")
            nbrs[a][b] = nbrs[b][a] = v
        # lookup tables, built once: nbrs[a][b] is the linking number of a pair
        object.__setattr__(self, "_by_id", {c.cid: c for c in self.components})
        object.__setattr__(self, "_nbrs", nbrs)

    def ids(self) -> tuple[str, ...]:
        return tuple(c.cid for c in self.components)

    def component(self, cid: str) -> Component:
        return _component(self._by_id, cid)

    def lk(self, a: str, b: str) -> int:
        if a == b:
            raise ValueError("linking number needs two distinct components")
        self.component(a), self.component(b)
        return self._nbrs[a].get(b, 0)

    def neighbors(self, cid: str) -> list[tuple[str, int]]:
        self.component(cid)
        return list(self._nbrs[cid].items())


# ---------------------------------------------------------------------------
# the moves, on a working diagram edited in place


class _Diagram:
    """The mutable diagram the moves edit in place.

    comps holds the components in component order and nbrs[a][b] =
    nbrs[b][a] the nonzero linking numbers.  A move checks all of its
    preconditions before its first edit, so one that raises leaves the
    diagram as it was.
    """

    def __init__(self, d: GraphDiagram):
        self.comps = dict(d._by_id)
        self.nbrs = {cid: dict(adj) for cid, adj in d._nbrs.items()}

    def component(self, cid: str) -> Component:
        return _component(self.comps, cid)

    def fresh_ids(self, prefix: str) -> Iterator[str]:
        """prefix1, prefix2, ... skipping the ids in use."""
        return (f"{prefix}{i}" for i in count(1) if f"{prefix}{i}" not in self.comps)

    def build(self) -> GraphDiagram:
        index = {cid: i for i, cid in enumerate(self.comps)}
        linking = tuple(
            (a, b, v)
            for a in self.comps
            for b, v in sorted(self.nbrs[a].items(), key=lambda e: index[e[0]])
            if index[a] < index[b]
        )
        return GraphDiagram(tuple(self.comps.values()), linking)

    def _reframe(self, cid: str, coeff: Fraction) -> None:
        self.comps[cid] = Component(cid, coeff, self.comps[cid].torus)

    def _add_lk(self, a: str, b: str, delta: int) -> None:
        v = self.nbrs[a].get(b, 0) + delta
        if v:
            self.nbrs[a][b] = self.nbrs[b][a] = v
        elif b in self.nbrs[a]:
            del self.nbrs[a][b], self.nbrs[b][a]

    def _add(self, comp: Component) -> None:
        self.comps[comp.cid] = comp
        self.nbrs[comp.cid] = {}

    def _remove(self, cid: str) -> None:
        del self.comps[cid]
        for u in self.nbrs.pop(cid):
            del self.nbrs[u][cid]

    def twist_neighbors(self, cid: str, t: int) -> None:
        """t full twists on the strands through cid's disk: each neighbor's
        framing gains t * lk^2 and each pair of neighbors t * lk * lk."""
        nbrs = list(self.nbrs[cid].items())
        for u, l in nbrs:
            self._reframe(u, self.comps[u].coeff + t * l * l)
        for i, (u, lu) in enumerate(nbrs):
            for w, lw in nbrs[i + 1 :]:
                self._add_lk(u, w, t * lu * lw)

    def blow_up(self, strands: Mapping[str, int], sign: int, new_id: Optional[str]) -> str:
        # a (sign)-blowup is a (sign)-twist about the new circle
        if sign not in (1, -1):
            raise MoveError("blowup sign must be +1 or -1")
        for cid, mult in strands.items():
            comp = self.component(cid)
            if mult == 0:
                raise MoveError("zero strand multiplicity")
            if comp.torus is not None:
                if comp.torus[1] != 2:
                    raise MoveError("band blowup needs a two-strand torus knot")
                if sign != -1 or mult != 2:
                    raise MoveError("a torus-knot band admits only a (-1) blowup on 2 strands")
        new = Component(next(self.fresh_ids("e")) if new_id is None else new_id, Fraction(sign))
        if new.cid in self.comps:
            raise MoveError(f"id {new.cid!r} already in use")
        self._add(new)
        for cid, mult in strands.items():
            self._add_lk(new.cid, cid, mult)
            comp = self.comps[cid]
            if comp.torus is not None:  # the band blowup strips one full twist
                p = comp.torus[0] - 2
                self.comps[cid] = Component(cid, comp.coeff, None if p == 1 else (p, 2))
        self.twist_neighbors(new.cid, sign)
        return new.cid

    def blow_down(self, cid: str) -> None:
        # the inverse twist about the deleted circle
        v = self.component(cid)
        if v.torus is not None or v.coeff not in (1, -1):
            raise MoveError(f"can only blow down a (+-1)-framed unknot, not {cid!r}")
        self.twist_neighbors(cid, -int(v.coeff))
        self._remove(cid)

    def handle_slide(self, a: str, b: str, sign: int) -> None:
        if a == b:
            raise MoveError("cannot slide a component over itself")
        if sign not in (1, -1):
            raise MoveError("slide sign must be +1 or -1")
        ca, cb = self.component(a), self.component(b)
        for c in (ca, cb):
            if c.torus is not None or not c.is_integral:
                raise MoveError(f"handle slides need integrally framed unknots, {c.cid!r} is not")
        self._reframe(a, ca.coeff + cb.coeff + 2 * sign * self.nbrs[a].get(b, 0))
        for x, v in self.nbrs[b].items():
            if x != a:
                self._add_lk(a, x, sign * v)
        self._add_lk(a, b, sign * int(cb.coeff))

    def rolfsen_twist(self, cid: str, t: int) -> None:
        v = self.component(cid)
        if v.torus is not None:
            raise MoveError("can only twist along an unknot")
        p, q = v.coeff.numerator, v.coeff.denominator
        if q + t * p == 0:
            raise MoveError("twist would empty the surgery coefficient")
        self._reframe(cid, Fraction(p, q + t * p))
        self.twist_neighbors(cid, t)

    def slam_dunk(self, cid: str) -> None:
        v = self.component(cid)
        if v.torus is not None:
            raise MoveError("can only dunk an unknot")
        if v.coeff == 0:
            raise MoveError("cannot dunk a 0-framed component")
        nbrs = self.nbrs[cid]
        if len(nbrs) != 1:
            raise MoveError(f"dunk needs exactly one neighbor, {cid!r} has {len(nbrs)}")
        ((u, l),) = nbrs.items()
        if abs(l) != 1:
            raise MoveError("dunk needs linking number +-1 with the neighbor")
        cu = self.comps[u]
        if not cu.is_integral:
            raise MoveError(f"dunk target {u!r} must be integrally framed")
        self._reframe(u, cu.coeff - 1 / v.coeff)
        self._remove(cid)

    def rational_to_integer(self, cid: str, prefix: Optional[str]) -> tuple[str, ...]:
        v = self.component(cid)
        if v.is_integral:
            return ()
        terms = _integer_chain(v.coeff)
        fresh = self.fresh_ids(prefix if prefix is not None else f"{cid}.")
        chain = [Component(nid, Fraction(a)) for a, nid in zip(terms[1:], fresh)]
        self._reframe(cid, Fraction(terms[0]))
        for prev, comp in zip((v, *chain), chain):
            self._add(comp)
            self._add_lk(prev.cid, comp.cid, 1)
        return tuple(c.cid for c in chain)


def blow_up(
    d: GraphDiagram,
    strands: Mapping[str, int],
    sign: int,
    new_id: Optional[str] = None,
) -> tuple[GraphDiagram, str]:
    """Add a (sign)-framed unknot encircling the given strand multiplicities.

    Each target gains sign * mult^2 on its framing, pairs of targets
    gain sign * mult_a * mult_b on their linking, and the new circle
    links each target with its multiplicity.  A two-strand torus knot
    admits the blowup across its band (multiplicity 2, sign -1 only),
    which strips one full twist: (p, 2) becomes (p-2, 2), an unknot
    once p-2 = 1.  Other targets must be unknots, any framing.
    """
    w = _Diagram(d)
    new_id = w.blow_up(strands, sign, new_id)
    return w.build(), new_id


def blow_down(d: GraphDiagram, cid: str) -> GraphDiagram:
    """Delete a (+-1)-framed unknot, compensating its neighbors."""
    w = _Diagram(d)
    w.blow_down(cid)
    return w.build()


def handle_slide(d: GraphDiagram, a: str, b: str, sign: int) -> GraphDiagram:
    """Replace a by the band sum a + sign * b; both integrally framed unknots."""
    w = _Diagram(d)
    w.handle_slide(a, b, sign)
    return w.build()


def rolfsen_twist(d: GraphDiagram, cid: str, t: int) -> GraphDiagram:
    """Add t full twists along the disk of a rationally framed unknot.

    The coefficient p/q becomes p/(q + t*p); everything through the
    disk picks up t twists: framings gain t * lk^2 and pairs of
    neighbors gain t * lk * lk.
    """
    w = _Diagram(d)
    w.rolfsen_twist(cid, t)
    return w.build()


def slam_dunk(d: GraphDiagram, cid: str) -> GraphDiagram:
    """Absorb a rationally framed unknot leaf into its integrally framed neighbor."""
    w = _Diagram(d)
    w.slam_dunk(cid)
    return w.build()


def _integer_chain(x: Fraction) -> tuple[int, ...]:
    # head coefficient first; the tail realizes the remainder by iterated
    # inverse dunks.  x > 1 is the plain ceiling expansion, x < -1 its
    # negated mirror; in between take one ceiling step and recurse.
    if x > 1:
        return neg_cf_expand(x).terms
    if x < -1:
        return tuple(-a for a in neg_cf_expand(-x).terms)
    a0 = math.ceil(x)
    return (a0,) + neg_cf_expand(1 / (a0 - x)).terms


def rational_to_integer(
    d: GraphDiagram, cid: str, prefix: Optional[str] = None
) -> tuple[GraphDiagram, tuple[str, ...]]:
    """Trade the rational coefficient on cid for a chain of integral unknots.

    cid keeps its kind and linking and takes the first chain term; each
    further term is a fresh unknot clasped once onto its predecessor.
    Integral coefficients are left untouched.
    """
    w = _Diagram(d)
    created = w.rational_to_integer(cid, prefix)
    return (w.build() if created else d), created


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
    its position, and _nbrs[i][j] = 1 for each plumbed pair, as in
    GraphDiagram.  One walk (_walk), made on first use and kept, serves
    is_tree and the leaf-first elimination (_leaf_first) behind
    determinant and definiteness, which need a forest and raise
    ValueError on a graph with a cycle.  negated_pairing reads the
    weights and _nbrs directly, so the certificate checks its vectors in
    O(V + E) per pair.
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


# The rewriting's ~3n moves each edit a few components of one working
# diagram, and only its 8 labeled states are built, so its time grows
# about linearly in n: n = 100 takes about 12 ms and n = 500 about 55 ms
# on a 2-vCPU x86 VM under Python 3.11.
PLUMBING_N_BUDGET = 500

# The tree has 4 + len(negative continued fraction of (r-4n-2)/(r-4n-1))
# vertices, a count that grows with the slope's denominator, not with n:
# 20001/10000 at n = 1 gives 10,005.  Euclid counts them before any move.
# At 20,000 vertices fillable --certify --json takes about 0.6 s at n = 1
# or n = 500, and 40 MB (2-vCPU x86 VM, Python 3.11).
PLUMBING_VERTEX_BUDGET = 20_000


def plumbing_move_sequence(
    n: int, r: Fraction
) -> list[tuple[str, GraphDiagram]]:
    """Rewrite r-surgery on the (2n+1, 2) torus knot into a plumbing.

    Returns the labeled intermediate diagrams; the last one is integral.
    Valid for any rational r < 4n (at 4n and above a different, fillable
    recipe applies and this rewriting would leave the integral range).
    An n above PLUMBING_N_BUDGET, or a tree of more than
    PLUMBING_VERTEX_BUDGET vertices, is refused with a ValueError before
    any move.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > PLUMBING_N_BUDGET:
        raise ValueError(f"n = {n} is over the plumbing budget of {PLUMBING_N_BUDGET}")
    r = Fraction(r)
    if r >= 4 * n:
        raise ValueError("the plumbing rewriting needs r < 4n")
    size = 4 + neg_cf_length((r - 4 * n - 2) / (r - 4 * n - 1))
    if size > PLUMBING_VERTEX_BUDGET:
        raise ValueError(
            f"the plumbing would have {size} vertices; the budget is {PLUMBING_VERTEX_BUDGET}"
        )
    states = [("start", GraphDiagram((Component("k", r, torus=(2 * n + 1, 2)),)))]
    w = _Diagram(states[0][1])
    # one blowup per full twist of the band; k unknots at the end
    ring = [w.blow_up({"k": 2}, -1, f"c{i + 1}") for i in range(n)]
    states.append(("band-blowups", w.build()))
    # chain the ring circles together and off the band
    for i in range(n - 1):
        w.handle_slide(ring[i], ring[i + 1], -1)
    head, tail = ring[-1], ring[:-1]
    states.append(("ring-slides", w.build()))
    e1 = w.blow_up({"k": 1, head: 1}, -1, "e1")
    e2 = w.blow_up({"k": 1, head: 1}, -1, "e2")
    states.append(("clasp-blowups", w.build()))
    for cid in tail:  # absorb the chain, far end first
        w.slam_dunk(cid)
    if w.comps[head].coeff != Fraction(-(2 * n + 1), n):
        raise InternalConsistencyError("chain absorption gave the wrong head")
    states.append(("dunked", w.build()))
    w.handle_slide(e1, e2, -1)
    states.append(("arm-slide", w.build()))
    for cid in (head, "k", e1):
        w.rolfsen_twist(cid, 1)
    for cid, want in ((e1, Fraction(2)), (e2, Fraction(2)),
                      (head, Fraction(2 * n + 1, n + 1))):
        if w.comps[cid].coeff != want:
            raise InternalConsistencyError(f"twist left {cid} at {w.comps[cid].coeff}")
    states.append(("twists", w.build()))
    w.rational_to_integer(head, "h")
    w.rational_to_integer("k", "a")
    states.append(("integral", w.build()))
    return states


def plumbing_presentation(n: int, r: Fraction) -> PlumbingTree:
    """The plumbing tree bounding r-surgery on the (2n+1, 2) torus knot.

    The budgets of plumbing_move_sequence refuse it before any move.
    Checks its own output: the tree must be a tree, carry the right
    homology, and be positive definite whenever r lies in [2n-1, 4n).
    """
    r = Fraction(r)
    label, d = plumbing_move_sequence(n, r)[-1]
    if label != "integral":
        raise InternalConsistencyError(f"the move sequence ended at {label!r}")
    for comp in d.components:
        if not comp.is_integral or comp.torus is not None:
            raise InternalConsistencyError(f"nonintegral end state at {comp.cid}")
    for a, b, v in d.linking:
        if v != 1:
            raise InternalConsistencyError(f"non-plumbing linking {v} on ({a}, {b})")
    tree = PlumbingTree(
        tuple((c.cid, int(c.coeff)) for c in d.components),
        tuple((a, b) for a, b, _ in d.linking),
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
# text formats


def format_graph_diagram(d: GraphDiagram) -> str:
    lines = [
        f"{c.cid} {c.kind} {format_rational(c.coeff)}" for c in d.components
    ]
    lines.extend(f"{a} {b} {v}" for a, b, v in d.linking)
    return "\n".join(lines) + "\n"


def parse_graph_diagram(text: str) -> GraphDiagram:
    components: list[Component] = []
    linking: list[tuple[str, str, int]] = []
    for line in content_lines(text):
        toks = line.split()
        if len(toks) != 3:
            raise ValueError(f"bad line {line!r}")
        if toks[1] == "unknot" or toks[1].startswith("torus:"):
            torus = None
            if toks[1] != "unknot":
                p, q = (int(x) for x in toks[1][len("torus:") :].split(","))
                torus = (p, q)
            components.append(Component(toks[0], parse_rational(toks[2]), torus))
        else:
            linking.append((toks[0], toks[1], int(toks[2])))
    return GraphDiagram(tuple(components), tuple(linking))


def format_plumbing_tree(t: PlumbingTree) -> str:
    lines = [f"{vid} {w}" for vid, w in t.vertices]
    lines.extend(f"{a} {b}" for a, b in t.edges)
    return "\n".join(lines) + "\n"


def parse_plumbing_tree(text: str) -> PlumbingTree:
    vertices: list[tuple[str, int]] = []
    edges: list[tuple[str, str]] = []
    known: set[str] = set()
    for line in content_lines(text):
        toks = line.split()
        if len(toks) != 2:
            raise ValueError(f"bad line {line!r}")
        if toks[0] in known:  # edge lines start with an already defined vertex
            if toks[1] not in known:
                raise ValueError(f"edge to undefined vertex in {line!r}")
            edges.append((toks[0], toks[1]))
        else:
            vertices.append((toks[0], int(toks[1])))
            known.add(toks[0])
    return PlumbingTree(tuple(vertices), tuple(edges))
