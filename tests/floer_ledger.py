"""Exact-triangle rank bookkeeping on surgeries: a test oracle.

contactsurgery.floer derives minimal-rank slopes on the (2n+1, 2) torus
knot in closed form from one lens-space seed; this module re-derives the
integral ones from the exact triangles, and Tier-1 checks the closed-form
chains against it.  It tracks two mechanizable fragments of the theory:

  * an adjunction-style vanishing criterion for the map induced by a
    cobordism containing a surface of positive self-intersection;
  * exact-triangle arithmetic over a ledger of module dimensions, with
    the extra rigidity that a vanishing map splits the triangle and
    forces the dimension of the remaining corner to be the sum of the
    other two.

Dimensions are plain nonnegative integers (total ranks over the field
with two elements).  A surgered manifold with |H1| = d has dimension at
least d; equality is the minimal-rank condition.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from contactsurgery.kirby import moser_seifert


class NotApplicableError(ValueError):
    """The vanishing criterion was asked outside its hypotheses."""


class InconsistentLedgerError(RuntimeError):
    """The dimension ledger contradicts exact-triangle arithmetic."""


# ---------------------------------------------------------------------------
# adjunction vanishing


@dataclass(frozen=True)
class SurfaceData:
    """A closed surface inside a cobordism: genus, square, pairing with c1."""

    genus: int
    self_intersection: int
    c1_evaluation: int


def vanishing_predicate(surface: SurfaceData) -> bool:
    """Whether the surface forces the cobordism map to vanish.

    Applies to surfaces of positive genus and nonnegative square; the
    map dies as soon as |<c1, S>| + S.S exceeds 2g(S) - 2.
    """
    if surface.genus <= 0 or surface.self_intersection < 0:
        raise NotApplicableError(
            "the criterion needs genus > 0 and nonnegative self-intersection"
        )
    return (
        abs(surface.c1_evaluation) + surface.self_intersection
        > 2 * surface.genus - 2
    )


def adjunction_surface(t: int, k: int) -> SurfaceData:
    """The capped k-fold surface violating adjunction for odd t >= 1.

    Its square is t^2 k + t and its genus t(t-1)k/2 + (t+1)/2, so the
    excess over 2g - 1 is exactly t*k and the vanishing criterion always
    fires on it.
    """
    if t < 1 or t % 2 == 0:
        raise ValueError("t must be odd and >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    return SurfaceData(
        genus=t * (t - 1) * k // 2 + (t + 1) // 2,
        self_intersection=t * t * k + t,
        c1_evaluation=0,
    )


def lens_dim(p: int, q: int) -> int:
    """Total dimension of the Floer module of the (p, q) lens space: p."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if math.gcd(p, q) != 1:
        raise ValueError("lens space parameters must be coprime")
    return p


def lspace_check(dim: int, h1_order: int) -> bool:
    """Minimal-rank test: the dimension can never undercut |H1|."""
    if h1_order < 1 or dim < h1_order:
        raise ValueError(f"dimension {dim} below homology order {h1_order}")
    return dim == h1_order


# ---------------------------------------------------------------------------
# exact-triangle arithmetic


@dataclass(frozen=True)
class Triangle:
    """Three manifolds in a surgery exact triangle.

    zero_map, when present, names the two corners joined by a map known
    to vanish; exactness then splits the module of the remaining corner
    as the direct sum of the other two.
    """

    corners: tuple[str, str, str]
    zero_map: Optional[tuple[str, str]] = None

    def __post_init__(self) -> None:
        if len(set(self.corners)) != 3:
            raise ValueError("triangle corners must be three distinct names")
        if self.zero_map is not None:
            a, b = self.zero_map
            if a == b or a not in self.corners or b not in self.corners:
                raise ValueError("zero_map must join two distinct corners")

    def split_corner(self) -> Optional[str]:
        if self.zero_map is None:
            return None
        (rest,) = set(self.corners) - set(self.zero_map)
        return rest


@dataclass(frozen=True)
class DimLedger:
    """Immutable name -> dimension table."""

    entries: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        names = [n for n, _ in self.entries]
        if len(set(names)) != len(names):
            raise ValueError("duplicate ledger entry")
        for n, d in self.entries:
            if d < 0:
                raise ValueError(f"negative dimension for {n!r}")

    def dim(self, name: str) -> Optional[int]:
        for n, d in self.entries:
            if n == name:
                return d
        return None

    def with_dim(self, name: str, dim: int) -> "DimLedger":
        old = self.dim(name)
        if old is not None:
            if old != dim:
                raise InconsistentLedgerError(
                    f"{name}: ledger holds {old}, asked to record {dim}"
                )
            return self
        return DimLedger(self.entries + ((name, dim),))

    def as_dict(self) -> dict[str, int]:
        return dict(self.entries)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


def ledger_deduce(ledger: DimLedger, triangles: list[Triangle]) -> DimLedger:
    """Close the ledger under the triangle relations.

    A split triangle (one with a vanishing map) pins the split corner
    to the sum of the other two, so any two known corners determine the
    third.  Every fully known triangle must satisfy the rank inequality
    d_i <= d_j + d_k at each corner, split or not.
    """
    known = ledger.as_dict()
    changed = True
    while changed:
        changed = False
        for t in triangles:
            split = t.split_corner()
            if split is not None:
                x, y = t.zero_map
                z = split
                dx, dy, dz = known.get(x), known.get(y), known.get(z)
                vals = {x: dx, y: dy, z: dz}
                if sum(v is not None for v in vals.values()) >= 2:
                    if dx is not None and dy is not None:
                        want = {z: dx + dy}
                    elif dz is not None and dx is not None:
                        want = {y: dz - dx}
                    else:
                        want = {x: dz - dy}
                    for name, value in want.items():
                        if value < 0:
                            raise InconsistentLedgerError(
                                f"triangle {t.corners} forces a negative "
                                f"dimension on {name!r}"
                            )
                        if known.get(name) is None:
                            known[name] = value
                            changed = True
                        elif known[name] != value:
                            raise InconsistentLedgerError(
                                f"triangle {t.corners}: {name!r} must be "
                                f"{value}, ledger holds {known[name]}"
                            )
            dims = [known.get(c) for c in t.corners]
            if all(d is not None for d in dims):
                for i in range(3):
                    if dims[i] > dims[(i + 1) % 3] + dims[(i + 2) % 3]:
                        raise InconsistentLedgerError(
                            f"triangle {t.corners} violates the rank "
                            f"inequality at {t.corners[i]!r}"
                        )
    out = ledger
    for name, dim in known.items():
        out = out.with_dim(name, dim)
    return out


def small_rank_descent(n: int) -> DimLedger:
    """Walk surgery dimensions on the (2n+1, 2) torus knot down from 4n+1.

    The (4n+1)-surgery is a lens space, so its dimension is 4n+1; each
    triangle (standard sphere, m-1 surgery, m surgery) splits because
    the cobordism on the sphere side contains the genus-n capped surface
    of square m-1, which trips the vanishing criterion for every
    m > 2n-1.  The dimensions therefore descend by one per step, ending
    at the minimal-rank slope 2n-1.
    """
    if not 1 <= n <= 5:
        raise ValueError("the descent is tabulated for 1 <= n <= 5")
    top = 4 * n + 1
    if not moser_seifert(2 * n + 1, 2, Fraction(top)).is_lens:
        raise InconsistentLedgerError("the top surgery should be a lens space")
    ledger = DimLedger((("s3", 1), (f"surgery-{top}", lens_dim(top, 4))))
    triangles = []
    for m in range(top, 2 * n - 1, -1):
        surface = SurfaceData(genus=n, self_intersection=m - 1, c1_evaluation=0)
        if not vanishing_predicate(surface):
            raise InconsistentLedgerError(
                f"no vanishing justification at slope {m}"
            )
        triangles.append(
            Triangle(
                ("s3", f"surgery-{m - 1}", f"surgery-{m}"),
                zero_map=("s3", f"surgery-{m - 1}"),
            )
        )
    deduced = ledger_deduce(ledger, triangles)
    for m in range(2 * n - 1, top + 1):
        dim = deduced.dim(f"surgery-{m}")
        if dim != m or not lspace_check(dim, m):
            raise InconsistentLedgerError(f"descent lost track at slope {m}")
    return deduced
