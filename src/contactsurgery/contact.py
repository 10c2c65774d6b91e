"""Contact surgery presentations and their smooth translations.

A contact surgery diagram is a Legendrian link with one nonzero rational
coefficient per component, each measured against the contact framing.
This module rewrites such a diagram into an equivalent one in which every
coefficient is +1 or -1:

  * coefficient 1/k becomes k successive Legendrian pushoffs, each +1;
  * a positive coefficient p/q (p > 1) first splits into 1/k followed by
    a negative leftover p/(q - kp) on a further pushoff;
  * a negative coefficient r becomes a chain of pushoffs governed by the
    negative continued fraction of 1 - r, where the chain member for the
    term a may be stabilized in a - 2 ways split between the two signs.

Choosing the sign split for every stabilization slot enumerates the
candidate contact structures; the count is the product of (a_i - 1).
On top of the rewriting sit the headline verdicts: tightness of surgery
on knots with maximal Thurston-Bennequin invariant 2g_s - 1, fillability
for the two-strand torus knot family, and the arbitrarily-large families
of pairwise non-isomorphic tight structures detected through orders of
first Chern classes.

Conventions fixed here once and for all: a positive stabilization adds
+1 to the rotation number and a negative one adds -1; the Legendrian
pushoff of L links L with linking number tb(L); pushoffs are taken after
the stabilizations of their source.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Optional

from .cfrac import NegCF, format_rational, neg_cf_expand, parse_rational
from .homology import CyclicDecomposition, Matrix, h1_from_linking, order_in_cyclic


class UnsupportedKnotError(ValueError):
    """The requested verdict needs knot hypotheses this knot fails."""


class SearchExhaustedError(RuntimeError):
    """A bounded search ended without a qualifying witness."""


# ---------------------------------------------------------------------------
# knot table


@dataclass(frozen=True)
class KnotInfo:
    """Smooth and contact invariants of a knot, as far as we need them.

    lspace_integer_slope, when set, is one integer surgery coefficient
    known to produce a manifold with minimal-rank Floer homology; it
    seeds the propagation engine in the floer module.
    """

    name: str
    slice_genus: int
    max_tb: int
    lspace_integer_slope: Optional[int] = None

    def __post_init__(self) -> None:
        if self.slice_genus < 0:
            raise ValueError("negative slice genus")
        # slice-Bennequin bound
        if self.max_tb > 2 * self.slice_genus - 1:
            raise ValueError(
                f"max_tb {self.max_tb} exceeds 2*{self.slice_genus} - 1"
            )
        if self.lspace_integer_slope is not None and self.lspace_integer_slope < 1:
            raise ValueError("seed slope must be a positive integer")

    @property
    def tb_is_maximal(self) -> bool:
        """True when max_tb meets the slice-Bennequin bound exactly."""
        return self.max_tb == 2 * self.slice_genus - 1


def torus_knot(p: int, q: int) -> KnotInfo:
    """Positive torus knot, p > q >= 2 coprime."""
    if not (p > q >= 2):
        raise ValueError("need p > q >= 2")
    if math.gcd(p, q) != 1:
        raise ValueError("parameters must be coprime")
    return KnotInfo(
        name=f"torus:{p},{q}",
        slice_genus=(p - 1) * (q - 1) // 2,
        max_tb=p * q - p - q,
        lspace_integer_slope=p * q - 1,
    )


def twist_knot(q: int) -> KnotInfo:
    """Negatively twisted twist knot, q <= -2: genus and max tb are both 1."""
    if q >= -1:
        raise ValueError("only q <= -2 twist knots are tabulated")
    return KnotInfo(name=f"twist:{q}", slice_genus=1, max_tb=1)


def unknot() -> KnotInfo:
    return KnotInfo(name="unknot", slice_genus=0, max_tb=-1, lspace_integer_slope=1)


def custom_knot(
    name: str,
    slice_genus: int,
    max_tb: int,
    lspace_integer_slope: Optional[int] = None,
) -> KnotInfo:
    """A knot outside the table; the caller supplies the invariants."""
    if not re.fullmatch(r"[A-Za-z0-9_-]+", name):
        raise ValueError("custom knot names are [A-Za-z0-9_-]+")
    full = f"custom:{name},{slice_genus},{max_tb}"
    if lspace_integer_slope is not None:
        full += f",{lspace_integer_slope}"
    return KnotInfo(full, slice_genus, max_tb, lspace_integer_slope)


def parse_knot(text: str) -> KnotInfo:
    """Parse 'torus:p,q', 'twist:q', 'unknot' or 'custom:name,g,tb[,slope]'."""
    text = text.strip()
    if text == "unknot":
        return unknot()
    kind, _, rest = text.partition(":")
    if kind == "torus":
        p, q = (int(x) for x in rest.split(","))
        return torus_knot(p, q)
    if kind == "twist":
        return twist_knot(int(rest))
    if kind == "custom":
        parts = rest.split(",")
        if len(parts) == 3:
            return custom_knot(parts[0], int(parts[1]), int(parts[2]))
        if len(parts) == 4:
            return custom_knot(parts[0], int(parts[1]), int(parts[2]), int(parts[3]))
    raise ValueError(f"bad knot id {text!r}")


# ---------------------------------------------------------------------------
# Legendrian representatives and diagrams


@dataclass(frozen=True)
class LegendrianKnot:
    """A Legendrian representative with its stabilization history.

    The unstabilized base representative has base_tb = tb + stab_pos +
    stab_neg and base_rot = rot - stab_pos + stab_neg; the base must not
    beat the knot's maximal tb.
    """

    knot: KnotInfo
    tb: int
    rot: int
    stab_pos: int = 0
    stab_neg: int = 0

    def __post_init__(self) -> None:
        if self.stab_pos < 0 or self.stab_neg < 0:
            raise ValueError("negative stabilization count")
        if self.tb + self.stab_pos + self.stab_neg > self.knot.max_tb:
            raise ValueError(
                f"tb {self.tb} with {self.stab_pos}+{self.stab_neg} stabilizations "
                f"exceeds max tb {self.knot.max_tb}"
            )

    @property
    def base_tb(self) -> int:
        return self.tb + self.stab_pos + self.stab_neg

    @property
    def base_rot(self) -> int:
        return self.rot - self.stab_pos + self.stab_neg


def max_tb_legendrian(knot: KnotInfo) -> LegendrianKnot:
    """The standard rotation-zero representative at maximal tb."""
    return LegendrianKnot(knot, knot.max_tb, 0)


@dataclass(frozen=True)
class ContactComponent:
    leg: LegendrianKnot
    coeff: Fraction
    parent: Optional[int] = None  # index of the component this is a pushoff of

    def __post_init__(self) -> None:
        if self.coeff == 0:
            raise ValueError("contact coefficient must be nonzero")


@dataclass(frozen=True)
class ContactDiagram:
    """Ordered Legendrian components with coefficients and linking data.

    linking holds explicit (i, j, lk) entries with i < j; pairs related
    by a pushoff parent link implicitly with the parent's tb; all other
    pairs are unlinked.
    """

    components: tuple[ContactComponent, ...]
    linking: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self) -> None:
        n = len(self.components)
        seen = set()
        for i, j, _ in self.linking:
            if not (0 <= i < j < n):
                raise ValueError(f"bad linking pair ({i}, {j})")
            if (i, j) in seen:
                raise ValueError(f"duplicate linking pair ({i}, {j})")
            seen.add((i, j))
        for idx, comp in enumerate(self.components):
            if comp.parent is not None:
                if not 0 <= comp.parent < n or comp.parent == idx:
                    raise ValueError(f"bad parent index on component {idx}")
                pair = tuple(sorted((idx, comp.parent)))
                if pair in seen:
                    raise ValueError("explicit linking conflicts with pushoff parent")

    def linking_between(self, i: int, j: int) -> int:
        if i == j:
            raise ValueError("no self linking here")
        a, b = min(i, j), max(i, j)
        for x, y, lk in self.linking:
            if (x, y) == (a, b):
                return lk
        ci, cj = self.components[i], self.components[j]
        if ci.parent == j:
            return self.components[j].leg.tb
        if cj.parent == i:
            return self.components[i].leg.tb
        return 0


# ---------------------------------------------------------------------------
# the rewriting algorithm


def smooth_coefficient(tb: int, r_contact: Fraction) -> Fraction:
    """Surgery coefficient in the Seifert framing: tb + contact coefficient."""
    r_contact = Fraction(r_contact)
    if r_contact == 0:
        raise ValueError("contact 0-surgery has no smooth translation here")
    return tb + r_contact


def split_positive_surgery(r: Fraction, k: Optional[int] = None) -> tuple[Fraction, Fraction]:
    """Split positive contact surgery r = p/q into (1/k, p/(q - kp)).

    Any k with q - kp < 0 works; the default is the smallest, which
    yields the shortest presentations.  The two coefficients recombine
    reciprocally: q/p = k + (q - kp)/p.
    """
    r = Fraction(r)
    if r <= 0:
        raise ValueError("need a positive coefficient")
    p, q = r.numerator, r.denominator
    if k is None:
        k = q // p + 1
    if k < 1:
        raise ValueError("k must be a positive integer")
    if q - k * p >= 0:
        raise ValueError(f"k={k} leaves a nonnegative remainder {q - k * p}")
    return Fraction(1, k), Fraction(p, q - k * p)


@dataclass(frozen=True)
class NegativeRecipe:
    """Chain data for a negative contact surgery coefficient."""

    expansion: NegCF
    budgets: tuple[int, ...]


def negative_surgery_to_legendrian(r: Fraction) -> NegativeRecipe:
    """Chain of stabilization budgets realizing contact r-surgery, r < 0.

    The governing expansion is neg_cf_expand(1 - r) = [a_0, ..., a_m];
    chain member i is a stabilized pushoff of its predecessor carrying
    budget a_i - 2 and coefficient -1.
    """
    r = Fraction(r)
    if r >= 0:
        raise ValueError("need a negative coefficient")
    cf = neg_cf_expand(1 - r)
    return NegativeRecipe(cf, tuple(a - 2 for a in cf.terms))


@dataclass(frozen=True)
class Member:
    """One (+1/-1)-coefficient component of the rewritten presentation."""

    source: int  # index of the originating diagram component
    sign: int  # contact coefficient, +1 or -1
    tb: int
    base_rot: int
    budget: int  # stabilizations still to distribute between the signs

    @property
    def smooth_framing(self) -> int:
        return self.tb + self.sign


@dataclass(frozen=True)
class PlusMinusPresentation:
    """A contact surgery diagram with all coefficients +1 or -1.

    Members originating from one diagram component are successive
    pushoffs, so two of them link with the tb of the earlier one;
    members of different components inherit their sources' linking.
    """

    diagram: ContactDiagram
    members: tuple[Member, ...]

    def linking_matrix(self) -> Matrix:
        n = len(self.members)
        m = [[0] * n for _ in range(n)]
        for i, a in enumerate(self.members):
            m[i][i] = a.smooth_framing
            for j in range(i + 1, n):
                b = self.members[j]
                if a.source == b.source:
                    lk = a.tb  # pushoff chain: earlier member's framing
                else:
                    lk = self.diagram.linking_between(a.source, b.source)
                m[i][j] = m[j][i] = lk
        return m

    def count_structures(self) -> int:
        """Number of stabilization-sign choices: product of (budget + 1)."""
        out = 1
        for mem in self.members:
            out *= mem.budget + 1
        return out

    def choices(self) -> Iterator[tuple[tuple[int, int], ...]]:
        """Every (positive, negative) split of every member's budget.

        Each member's splits run from all-positive to all-negative, so
        the choices come in increasing negative counts read left to right.
        """
        per_member = [
            [(mem.budget - neg, neg) for neg in range(mem.budget + 1)]
            for mem in self.members
        ]
        for choice in itertools.product(*per_member):
            yield tuple(choice)

    def realize(self, choice: tuple[tuple[int, int], ...]) -> tuple[LegendrianKnot, ...]:
        """Fix stabilization signs; gives one Legendrian link per choice."""
        if len(choice) != len(self.members):
            raise ValueError("one (pos, neg) pair per member required")
        out = []
        for mem, (pos, neg) in zip(self.members, choice):
            if pos < 0 or neg < 0 or pos + neg != mem.budget:
                raise ValueError(f"budget {mem.budget} split as ({pos}, {neg})")
            knot = self.diagram.components[mem.source].leg.knot
            out.append(
                LegendrianKnot(
                    knot,
                    tb=mem.tb,
                    rot=mem.base_rot + pos - neg,
                    stab_pos=pos,
                    stab_neg=neg,
                )
            )
        return tuple(out)

    def first_homology(self) -> CyclicDecomposition:
        return h1_from_linking(self.linking_matrix())


def _expand_component(index: int, comp: ContactComponent) -> list[Member]:
    r = comp.coeff
    leg = comp.leg
    if r == 1 or r == -1:
        return [Member(index, int(r), leg.tb, leg.rot, 0)]
    members: list[Member] = []
    tb = leg.tb
    if r > 0:
        p, q = r.numerator, r.denominator
        if p == 1:
            plus, negative = q, None
        else:
            # contact 1/k surgery is k (+1) surgeries on successive pushoffs
            one_over_k, negative = split_positive_surgery(r)
            plus = one_over_k.denominator
        for _ in range(plus):
            members.append(Member(index, +1, tb, leg.rot, 0))
    else:
        negative = r
    if negative is not None and negative != -1:
        for budget in negative_surgery_to_legendrian(negative).budgets:
            tb -= budget
            members.append(Member(index, -1, tb, leg.rot, budget))
    elif negative == -1:
        members.append(Member(index, -1, tb, leg.rot, 0))
    return members


def translate(diagram: ContactDiagram) -> PlusMinusPresentation:
    """Rewrite every rational coefficient into (+1/-1) surgeries."""
    members: list[Member] = []
    for idx, comp in enumerate(diagram.components):
        members.extend(_expand_component(idx, comp))
    return PlusMinusPresentation(diagram, tuple(members))


def translate_single(knot: KnotInfo, r_contact: Fraction) -> PlusMinusPresentation:
    """Translate one contact surgery on the max-tb rotation-zero representative."""
    comp = ContactComponent(max_tb_legendrian(knot), Fraction(r_contact))
    return translate(ContactDiagram((comp,)))


# ---------------------------------------------------------------------------
# Chern class bookkeeping and the witness family


def c1_coefficient(alpha: int, i: int) -> int:
    """First Chern class evaluation for the structure with i positive stabs.

    On the meridian class of the alpha-fold negatively surgered unknot,
    the structure whose stabilization choice uses i positive and
    alpha-1-i negative stabilizations evaluates to 2i - (alpha - 1),
    which is exactly the rotation number under our sign convention.
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    if not 0 <= i <= alpha - 1:
        raise ValueError(f"i must lie in [0, {alpha - 1}]")
    return 2 * i - (alpha - 1)


def witness_diagram(alpha: int) -> ContactDiagram:
    """Trefoil with coefficient +1 and a meridian with coefficient -alpha.

    The underlying manifold is 2 + 1/(1 + alpha) surgery on the trefoil,
    with first homology of order 2*alpha + 3.
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    trefoil = ContactComponent(max_tb_legendrian(torus_knot(3, 2)), Fraction(1))
    meridian = ContactComponent(
        LegendrianKnot(unknot(), tb=-1, rot=0), Fraction(-alpha)
    )
    return ContactDiagram((trefoil, meridian), linking=((0, 1, 1),))


@dataclass(frozen=True)
class WitnessEntry:
    prime: int
    i: int
    c1: int
    order: int


@dataclass(frozen=True)
class WitnessReport:
    """m tight structures on one manifold, pairwise distinguished by c1 orders."""

    primes: tuple[int, ...]
    product: int
    k: int
    alpha: int
    group_order: int
    surgery_slope: Fraction
    entries: tuple[WitnessEntry, ...]

    def as_dict(self) -> dict:
        return {
            "primes": list(self.primes),
            "product": self.product,
            "k": self.k,
            "alpha": self.alpha,
            "group_order": self.group_order,
            "surgery_slope": format_rational(self.surgery_slope),
            "entries": [
                {"prime": e.prime, "i": e.i, "c1": e.c1, "order": e.order}
                for e in self.entries
            ],
        }


def _odd_primes_from(start: int) -> Iterator[int]:
    n = max(start, 3)
    if n % 2 == 0:
        n += 1
    while True:
        for d in range(3, math.isqrt(n) + 1, 2):
            if n % d == 0:
                break
        else:
            yield n
        n += 2


def witness_nonisomorphic(m: int, search_bound: int = 10_000) -> WitnessReport:
    """Find m consecutive odd primes whose product P satisfies P = 4k+3, P > 3.

    Then alpha = 2k puts m pairwise non-isomorphic tight structures on
    the surgered manifold with H1 of order 2*alpha + 3 = P: structure
    number i(j) = (P/p_j + alpha - 1)/2 has c1 coefficient P/p_j, whose
    order in Z/P is exactly p_j.  The window slides upward until the
    congruence holds; P = 3 itself is rejected since alpha would be 0.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    start = 3
    while start <= search_bound:
        gen = _odd_primes_from(start)
        primes = tuple(next(gen) for _ in range(m))
        product = math.prod(primes)
        if product % 4 == 3 and product > 3:
            break
        start = primes[0] + 2  # slide the window to the next odd prime
    else:
        raise SearchExhaustedError(
            f"no window of {m} consecutive odd primes below {search_bound} "
            "has product congruent to 3 mod 4"
        )
    k = (product - 3) // 4
    alpha = 2 * k
    group_order = 2 * alpha + 3
    assert group_order == product
    entries = []
    for p in primes:
        cofactor = product // p
        i = (cofactor + alpha - 1) // 2
        assert (cofactor + alpha - 1) % 2 == 0
        assert 0 <= i <= alpha - 1
        c1 = c1_coefficient(alpha, i)
        assert c1 == cofactor
        order = order_in_cyclic(group_order, c1)
        assert order == p
        entries.append(WitnessEntry(p, i, c1, order))
    orders = [e.order for e in entries]
    assert len(set(orders)) == len(orders)
    return WitnessReport(
        primes=primes,
        product=product,
        k=k,
        alpha=alpha,
        group_order=group_order,
        surgery_slope=Fraction(2) + Fraction(1, 1 + alpha),
        entries=tuple(entries),
    )


# ---------------------------------------------------------------------------
# verdicts


class Tightness(Enum):
    STEIN_FILLABLE = "SteinFillable"
    TIGHT_NONZERO_INVARIANT = "TightNonzeroInvariant"
    EXCLUDED = "Excluded"


@dataclass(frozen=True)
class TightnessVerdict:
    kind: Tightness
    knot: KnotInfo
    smooth_slope: Fraction
    contact_slope: Fraction  # smooth slope minus max tb
    presentation: Optional[PlusMinusPresentation]

    @property
    def structure_count(self) -> Optional[int]:
        if self.presentation is None:
            return None
        return self.presentation.count_structures()


def tightness_verdict(knot: KnotInfo, r: Fraction) -> TightnessVerdict:
    """Existence of tight structures on smooth r-surgery.

    Requires a knot with positive slice genus whose maximal tb meets the
    slice-Bennequin bound.  The critical slope is t = 2g_s - 1: below it
    the surgery is Legendrian (hence Stein fillable), above it the
    structures have nonvanishing contact invariant, and at it no claim
    is made.
    """
    r = Fraction(r)
    if knot.slice_genus < 1 or not knot.tb_is_maximal:
        raise UnsupportedKnotError(
            f"{knot.name}: need slice genus > 0 and max_tb = 2g-1 "
            f"(got g={knot.slice_genus}, max_tb={knot.max_tb})"
        )
    t = knot.max_tb
    contact = r - t
    if r == t:
        return TightnessVerdict(Tightness.EXCLUDED, knot, r, contact, None)
    pres = translate_single(knot, contact)
    kind = Tightness.STEIN_FILLABLE if r < t else Tightness.TIGHT_NONZERO_INVARIANT
    return TightnessVerdict(kind, knot, r, contact, pres)


class Fillability(Enum):
    STEIN_FILLABLE = "SteinFillable"
    NO_FILLABLE = "NoFillable"


@dataclass(frozen=True)
class FillabilityVerdict:
    """Fillability of r-surgery on the (2n+1, 2) torus knot.

    Inside [2n-1, 4n) nothing is fillable; the proof obligation is the
    four-part certificate from the lattice module, flagged here via
    certificate_required.  Below the interval the Legendrian recipe
    applies (presentation attached); at or above 4n the two-curve recipe
    with coefficients -1 - 1/n and -1/(r - 4n) applies (the second curve
    is absent exactly at r = 4n).
    """

    kind: Fillability
    n: int
    slope: Fraction
    interval: tuple[Fraction, Fraction]
    certificate_required: bool = False
    presentation: Optional[PlusMinusPresentation] = None
    recipe_coefficients: Optional[tuple[Fraction, Optional[Fraction]]] = None


def fillability_verdict(n: int, r: Fraction) -> FillabilityVerdict:
    if n < 1:
        raise ValueError("n must be >= 1")
    r = Fraction(r)
    lo, hi = Fraction(2 * n - 1), Fraction(4 * n)
    if lo <= r < hi:
        return FillabilityVerdict(
            Fillability.NO_FILLABLE, n, r, (lo, hi), certificate_required=True
        )
    if r < lo:
        knot = torus_knot(2 * n + 1, 2)
        pres = translate_single(knot, r - knot.max_tb)
        return FillabilityVerdict(
            Fillability.STEIN_FILLABLE, n, r, (lo, hi), presentation=pres
        )
    second = None if r == hi else Fraction(-1, 1) / (r - hi)
    coeffs = (Fraction(-1) - Fraction(1, n), second)
    return FillabilityVerdict(
        Fillability.STEIN_FILLABLE, n, r, (lo, hi), recipe_coefficients=coeffs
    )


# ---------------------------------------------------------------------------
# serialization


def format_contact_diagram(d: ContactDiagram) -> str:
    """One 'knot-id tb rot coeff parent-index' line per component, then
    'lk i j v' lines for the explicit linking entries."""
    lines = []
    for comp in d.components:
        parent = -1 if comp.parent is None else comp.parent
        lines.append(
            f"{comp.leg.knot.name} {comp.leg.tb} {comp.leg.rot} "
            f"{format_rational(comp.coeff)} {parent}"
        )
    for i, j, lk in d.linking:
        lines.append(f"lk {i} {j} {lk}")
    return "\n".join(lines) + "\n"


def parse_contact_diagram(text: str) -> ContactDiagram:
    components: list[ContactComponent] = []
    linking: list[tuple[int, int, int]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if toks[0] == "lk":
            if len(toks) != 4:
                raise ValueError(f"bad linking line {line!r}")
            linking.append((int(toks[1]), int(toks[2]), int(toks[3])))
            continue
        if len(toks) != 5:
            raise ValueError(f"bad component line {line!r}")
        knot = parse_knot(toks[0])
        tb, rot = int(toks[1]), int(toks[2])
        coeff = parse_rational(toks[3])
        parent = int(toks[4])
        components.append(
            ContactComponent(
                LegendrianKnot(knot, tb, rot),
                coeff,
                None if parent < 0 else parent,
            )
        )
    return ContactDiagram(tuple(components), tuple(linking))
