"""The Kirby move engine on framed-circle diagrams: a test oracle.

contactsurgery.kirby writes the plumbing star for r-surgery on the
(2n+1, 2) torus knot down in closed form; the move sequence that derives
it (oracles.copying_plumbing_move_sequence) runs on this engine, and
Tier-1 checks the closed form against it.

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
manifold.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import count
from fractions import Fraction
from typing import Iterator, Mapping, Optional

from contactsurgery.cfrac import neg_cf_expand


class MoveError(ValueError):
    """A Kirby move was attempted where its preconditions fail."""


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
