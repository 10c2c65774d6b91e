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

Every move preserves the order of the first homology of the surgered
manifold.  The plumbing pipeline checks that order at its end: the
tree's determinant must equal the numerator of the surgery slope up to
sign.

The pipeline at the bottom converts r-surgery on the (2n+1, 2) torus
knot, r < 4n, into a plumbing of disk bundles along a three-legged
tree; for r in [2n-1, 4n) the resulting intersection form is positive
definite, which is what the lattice obstruction consumes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence

from .cfrac import format_rational, neg_cf_expand, parse_rational
from .homology import Matrix, bareiss, symmetric_size


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
        lk: dict[tuple[str, str], int] = {}
        nbrs: dict[str, list[tuple[str, int]]] = {c.cid: [] for c in self.components}
        for a, b, v in self.linking:
            if a not in index or b not in index:
                raise ValueError(f"linking entry ({a}, {b}) names unknown ids")
            if a == b:
                raise ValueError(f"self-linking entry on {a!r}")
            if index[a] > index[b]:
                raise ValueError(f"linking entry ({a}, {b}) out of component order")
            if v == 0:
                raise ValueError(f"zero linking entry ({a}, {b})")
            if (a, b) in lk:
                raise ValueError(f"duplicate linking entry ({a}, {b})")
            lk[a, b] = lk[b, a] = v
            nbrs[a].append((b, v))
            nbrs[b].append((a, v))
        # lookup tables, built once: the moves query every pair of a diagram
        object.__setattr__(self, "_by_id", {c.cid: c for c in self.components})
        object.__setattr__(self, "_lk", lk)
        object.__setattr__(self, "_nbrs", nbrs)

    def ids(self) -> tuple[str, ...]:
        return tuple(c.cid for c in self.components)

    def component(self, cid: str) -> Component:
        try:
            return self._by_id[cid]
        except KeyError:
            raise MoveError(f"no component {cid!r}") from None

    def lk(self, a: str, b: str) -> int:
        if a == b:
            raise ValueError("linking number needs two distinct components")
        v = self._lk.get((a, b))
        if v is None:
            self.component(a), self.component(b)
            return 0
        return v

    def neighbors(self, cid: str) -> list[tuple[str, int]]:
        self.component(cid)
        return list(self._nbrs[cid])


# ---------------------------------------------------------------------------
# editing machinery shared by the moves


class _Editor:
    def __init__(self, d: GraphDiagram):
        self.order: list[str] = list(d.ids())
        self.comp: dict[str, Component] = {c.cid: c for c in d.components}
        self.lk: dict[frozenset, int] = {
            frozenset((a, b)): v for a, b, v in d.linking
        }

    def get_lk(self, a: str, b: str) -> int:
        return self.lk.get(frozenset((a, b)), 0)

    def add_lk(self, a: str, b: str, delta: int) -> None:
        key = frozenset((a, b))
        self.lk[key] = self.lk.get(key, 0) + delta

    def set_coeff(self, cid: str, coeff: Fraction) -> None:
        old = self.comp[cid]
        self.comp[cid] = Component(cid, Fraction(coeff), old.torus)

    def set_kind(self, cid: str, torus: Optional[tuple[int, int]]) -> None:
        old = self.comp[cid]
        self.comp[cid] = Component(cid, old.coeff, torus)

    def add(self, comp: Component) -> None:
        if comp.cid in self.comp:
            raise MoveError(f"id {comp.cid!r} already in use")
        self.order.append(comp.cid)
        self.comp[comp.cid] = comp

    def remove(self, cid: str) -> None:
        self.order.remove(cid)
        del self.comp[cid]
        self.lk = {k: v for k, v in self.lk.items() if cid not in k}

    def build(self) -> GraphDiagram:
        index = {cid: i for i, cid in enumerate(self.order)}
        entries = []
        for key, v in self.lk.items():
            if v == 0:
                continue
            a, b = sorted(key, key=index.__getitem__)
            entries.append((a, b, v))
        entries.sort(key=lambda t: (index[t[0]], index[t[1]]))
        return GraphDiagram(
            tuple(self.comp[c] for c in self.order), tuple(entries)
        )


def _fresh_ids(taken: Sequence[str], prefix: str) -> Iterator[str]:
    """prefix1, prefix2, ... skipping the ids taken."""
    used = set(taken)
    i = 0
    while True:
        i += 1
        if f"{prefix}{i}" not in used:
            yield f"{prefix}{i}"


# ---------------------------------------------------------------------------
# the moves


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
    if sign not in (1, -1):
        raise MoveError("blowup sign must be +1 or -1")
    ed = _Editor(d)
    for cid, mult in strands.items():
        comp = d.component(cid)
        if mult == 0:
            raise MoveError("zero strand multiplicity")
        if comp.torus is not None:
            if comp.torus[1] != 2:
                raise MoveError("band blowup needs a two-strand torus knot")
            if sign != -1 or mult != 2:
                raise MoveError("a torus-knot band admits only a (-1) blowup on 2 strands")
    targets = list(strands.items())
    for cid, mult in targets:
        comp = ed.comp[cid]
        ed.set_coeff(cid, comp.coeff + sign * mult * mult)
        if comp.torus is not None:
            p = comp.torus[0] - 2
            ed.set_kind(cid, None if p == 1 else (p, 2))
    for i, (a, ma) in enumerate(targets):
        for b, mb in targets[i + 1 :]:
            ed.add_lk(a, b, sign * ma * mb)
    if new_id is None:
        new_id = next(_fresh_ids(ed.order, "e"))
    ed.add(Component(new_id, Fraction(sign)))
    for cid, mult in targets:
        ed.add_lk(new_id, cid, mult)
    return ed.build(), new_id


def blow_down(d: GraphDiagram, cid: str) -> GraphDiagram:
    """Delete a (+-1)-framed unknot, compensating its neighbors."""
    v = d.component(cid)
    if v.torus is not None or v.coeff not in (1, -1):
        raise MoveError(f"can only blow down a (+-1)-framed unknot, not {cid!r}")
    eps = int(v.coeff)
    ed = _Editor(d)
    nbrs = d.neighbors(cid)
    for u, l in nbrs:
        ed.set_coeff(u, ed.comp[u].coeff - eps * l * l)
    for i, (u, lu) in enumerate(nbrs):
        for w, lw in nbrs[i + 1 :]:
            ed.add_lk(u, w, -eps * lu * lw)
    ed.remove(cid)
    return ed.build()


def handle_slide(d: GraphDiagram, a: str, b: str, sign: int) -> GraphDiagram:
    """Replace a by the band sum a + sign * b; both integrally framed unknots."""
    if a == b:
        raise MoveError("cannot slide a component over itself")
    if sign not in (1, -1):
        raise MoveError("slide sign must be +1 or -1")
    ca, cb = d.component(a), d.component(b)
    for c in (ca, cb):
        if c.torus is not None or not c.is_integral:
            raise MoveError(f"handle slides need integrally framed unknots, {c.cid!r} is not")
    fb = int(cb.coeff)
    old_ab = d.lk(a, b)
    ed = _Editor(d)
    ed.set_coeff(a, ca.coeff + cb.coeff + 2 * sign * old_ab)
    for x, v in d.neighbors(b):
        if x != a:
            ed.add_lk(a, x, sign * v)
    ed.add_lk(a, b, sign * fb)
    return ed.build()


def rolfsen_twist(d: GraphDiagram, cid: str, t: int) -> GraphDiagram:
    """Add t full twists along the disk of a rationally framed unknot.

    The coefficient p/q becomes p/(q + t*p); everything through the
    disk picks up t twists: framings gain t * lk^2 and pairs of
    neighbors gain t * lk * lk.
    """
    v = d.component(cid)
    if v.torus is not None:
        raise MoveError("can only twist along an unknot")
    p, q = v.coeff.numerator, v.coeff.denominator
    if q + t * p == 0:
        raise MoveError("twist would empty the surgery coefficient")
    ed = _Editor(d)
    ed.set_coeff(cid, Fraction(p, q + t * p))
    nbrs = d.neighbors(cid)
    for u, l in nbrs:
        ed.set_coeff(u, ed.comp[u].coeff + t * l * l)
    for i, (u, lu) in enumerate(nbrs):
        for w, lw in nbrs[i + 1 :]:
            ed.add_lk(u, w, t * lu * lw)
    return ed.build()


def slam_dunk(d: GraphDiagram, cid: str) -> GraphDiagram:
    """Absorb a rationally framed unknot leaf into its integrally framed neighbor."""
    v = d.component(cid)
    if v.torus is not None:
        raise MoveError("can only dunk an unknot")
    if v.coeff == 0:
        raise MoveError("cannot dunk a 0-framed component")
    nbrs = d.neighbors(cid)
    if len(nbrs) != 1:
        raise MoveError(f"dunk needs exactly one neighbor, {cid!r} has {len(nbrs)}")
    (u, l) = nbrs[0]
    if abs(l) != 1:
        raise MoveError("dunk needs linking number +-1 with the neighbor")
    cu = d.component(u)
    if not cu.is_integral:
        raise MoveError(f"dunk target {u!r} must be integrally framed")
    ed = _Editor(d)
    ed.set_coeff(u, cu.coeff - 1 / v.coeff)
    ed.remove(cid)
    return ed.build()


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
    v = d.component(cid)
    if v.is_integral:
        return d, ()
    terms = _integer_chain(v.coeff)
    ed = _Editor(d)
    ed.set_coeff(cid, Fraction(terms[0]))
    created = []
    prev = cid
    fresh = _fresh_ids(ed.order, prefix if prefix is not None else f"{cid}.")
    for a, nid in zip(terms[1:], fresh):
        ed.add(Component(nid, Fraction(a)))
        ed.add_lk(prev, nid, 1)
        created.append(nid)
        prev = nid
    return ed.build(), tuple(created)


# ---------------------------------------------------------------------------
# definiteness and the Seifert invariants of torus knot surgeries


class Definiteness(Enum):
    POSITIVE_DEFINITE = "positive-definite"
    NEGATIVE_DEFINITE = "negative-definite"
    INDEFINITE = "indefinite"
    DEGENERATE = "degenerate"


def definiteness(m: Matrix) -> Definiteness:
    """Classify a symmetric integer matrix by its quadratic form.

    One fraction-free elimination (homology.bareiss) decides it.  The
    form is degenerate when det = 0.  Otherwise a row exchange means some
    leading principal minor D_k vanishes, so the form is indefinite; with
    no exchange the pivots are D_1..D_n, and the form is positive
    definite iff every D_k > 0 and negative definite iff the signs
    alternate from D_1 < 0 (Sylvester).
    """
    n = symmetric_size(m)
    r, sign, swap = bareiss(m)
    if sign == 0:
        return Definiteness.DEGENERATE
    if swap < n:
        return Definiteness.INDEFINITE
    if all(r[k][k] > 0 for k in range(n)):
        return Definiteness.POSITIVE_DEFINITE
    if all((r[k][k] < 0) == (k % 2 == 0) for k in range(n)):
        return Definiteness.NEGATIVE_DEFINITE
    return Definiteness.INDEFINITE


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


def _leaf_first(
    vertices: Sequence[tuple[str, int]], edges: Sequence[tuple[str, str]]
) -> Optional[tuple[list[Fraction], int]]:
    """Eliminate a plumbing forest's intersection form leaves first.

    Each component is rooted at its first vertex and eliminated children
    before parents.  A vertex's pivot is its weight minus the sum of
    1/pivot over its eliminated children; eliminating it changes only
    its parent's entry, so nothing fills in and the form is congruent to
    the diagonal of the pivots.  A zero pivot at a vertex v whose parent
    p remains spans with p a hyperbolic plane, inertia (1, 1) and
    determinant -1, whose complement is the form on the forest without v
    and p: both are deleted.  Returns the nonzero pivots and the number
    of hyperbolic pairs, or None when a zero pivot has no parent left,
    since that vertex is then in the radical.
    """
    index = {vid: i for i, (vid, _) in enumerate(vertices)}
    adj: list[list[int]] = [[] for _ in vertices]
    for a, b in edges:
        adj[index[a]].append(index[b])
        adj[index[b]].append(index[a])
    parent = [-1] * len(vertices)
    order: list[int] = []  # parents before children
    reached = [False] * len(vertices)
    for root in range(len(vertices)):
        if reached[root]:
            continue
        reached[root] = True
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for u in adj[v]:
                if u == parent[v]:
                    continue
                if reached[u]:
                    raise ValueError("the plumbing graph has a cycle")
                reached[u] = True
                parent[u] = v
                stack.append(u)
    entry = [Fraction(w) for _, w in vertices]
    alive = [True] * len(vertices)
    pivots: list[Fraction] = []
    pairs = 0
    for v in reversed(order):
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


@dataclass(frozen=True)
class PlumbingTree:
    """Vertices weighted by Euler numbers, edges for the plumbed pairs.

    determinant and definiteness describe the intersection form.  They
    come from one leaf-first elimination (_leaf_first), linear in the
    number of vertices, made on first use and kept; they need a forest
    and raise ValueError on a graph with a cycle.
    """

    vertices: tuple[tuple[str, int], ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        ids = [vid for vid, _ in self.vertices]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate vertex ids")
        known = set(ids)
        seen = set()
        for a, b in self.edges:
            if a not in known or b not in known:
                raise ValueError(f"edge ({a}, {b}) names unknown vertices")
            if a == b:
                raise ValueError("self edge")
            key = frozenset((a, b))
            if key in seen:
                raise ValueError(f"duplicate edge ({a}, {b})")
            seen.add(key)

    @cached_property
    def _form(self) -> tuple[int, Definiteness]:
        if not self.vertices:
            raise ValueError("need a nonempty plumbing")
        found = _leaf_first(self.vertices, self.edges)
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
        for v, w in self.vertices:
            if v == vid:
                return w
        raise KeyError(vid)

    def is_tree(self) -> bool:
        ids = [vid for vid, _ in self.vertices]
        if len(self.edges) != len(ids) - 1:
            return False
        adj: dict[str, list[str]] = {vid: [] for vid in ids}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        stack, reached = [ids[0]], {ids[0]}
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in reached:
                    reached.add(nxt)
                    stack.append(nxt)
        return len(reached) == len(ids)

    def intersection_matrix(self) -> Matrix:
        index = {vid: i for i, (vid, _) in enumerate(self.vertices)}
        n = len(self.vertices)
        m = [[0] * n for _ in range(n)]
        for i, (_, w) in enumerate(self.vertices):
            m[i][i] = w
        for a, b in self.edges:
            m[index[a]][index[b]] = m[index[b]][index[a]] = 1
        return m


# The rewriting makes about 3n moves, each copying a diagram of about n
# components, so its time grows as n^2: n = 500 takes about 2.5 s on a
# 2-vCPU x86 VM under Python 3.11, n = 700 about 5 s.
PLUMBING_N_BUDGET = 500


def plumbing_move_sequence(
    n: int, r: Fraction
) -> list[tuple[str, GraphDiagram]]:
    """Rewrite r-surgery on the (2n+1, 2) torus knot into a plumbing.

    Returns the labeled intermediate diagrams; the last one is integral.
    Valid for any rational r < 4n (at 4n and above a different, fillable
    recipe applies and this rewriting would leave the integral range).
    An n above PLUMBING_N_BUDGET is refused with a ValueError.
    """
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


def plumbing_presentation(n: int, r: Fraction) -> PlumbingTree:
    """The plumbing tree bounding r-surgery on the (2n+1, 2) torus knot.

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
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
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
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
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
