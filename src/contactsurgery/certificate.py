"""The assembled nonfillability certificate.

For r in [2n-1, 4n), r-surgery on the (2n+1, 2) torus knot carries no
fillable contact structure.  The proof has four ingredients, each
produced by a lower layer and re-checkable on its own:

  * floer: a derivation chain showing the surgery has minimal Floer rank;
  * kirby: the positive definite plumbing tree bounding the surgery;
  * lattice: the rank-6 obstruction form located inside the negated
    plumbing lattice, and the exhausted search showing that form has no
    negative diagonal embedding up to the saturating rank.

A symplectic filling glued to the plumbing would, by Donaldson's
diagonalization theorem, embed the negated plumbing lattice, and with it
the obstruction form, into a diagonal lattice; the last ingredient rules
that out.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .cfrac import format_rational, neg_cf_expand
from .contact import torus_knot
from .floer import DerivationChain, knowledge_for, lspace_propagate, verify_chain
from .homology import det_bareiss
from .kirby import Definiteness, PlumbingTree, definiteness, plumbing_presentation
from .lattice import (
    SublatticeWitness,
    _freeze,
    _negate,
    contains_sublattice,
    embed_bound,
    embed_in_diagonal,
    lambda_gram,
)


class CertificateFailure(RuntimeError):
    """One of the four certificate ingredients could not be produced."""

    def __init__(self, part: str, message: str):
        super().__init__(f"{part}: {message}")
        self.part = part


@dataclass(frozen=True)
class NotFillableCertificate:
    """Machine-checkable evidence that r-surgery admits no fillable structure.

    Four ingredients: a derivation that the surgery has minimal Floer
    rank, the positive definite plumbing it bounds, the rank-6 form
    sitting inside the negated plumbing lattice, and the exhausted
    search showing that form has no negative diagonal embedding up to
    the saturating rank.
    """

    n: int
    slope: Fraction
    a1: int
    lspace_chain: DerivationChain
    tree: PlumbingTree
    sublattice: SublatticeWitness
    embedding_bound: int

    def verify(self) -> bool:
        """Re-check every identity in the certificate.

        The embedding part is a nonexistence statement; re-establishing
        it means re-running the exhaustive search (donaldson_certificate
        does exactly that), so here we re-verify the three positive
        witnesses and the interval hypothesis.
        """
        lo, hi = 2 * self.n - 1, 4 * self.n
        if not lo <= self.slope < hi:
            return False
        kb = knowledge_for(torus_knot(2 * self.n + 1, 2))
        try:
            verify_chain(kb, self.lspace_chain)
        except ValueError:
            return False
        if self.lspace_chain.query != self.slope:
            return False
        m = self.tree.intersection_matrix()
        if not self.tree.is_tree():
            return False
        if abs(det_bareiss(m)) != abs(self.slope.numerator):
            return False
        if definiteness(m) is not Definiteness.POSITIVE_DEFINITE:
            return False
        lam = lambda_gram(self.a1, self.n)
        if self.sublattice.gram != _freeze(lam):
            return False
        if self.sublattice.ambient != _freeze(_negate(m)):
            return False
        if not self.sublattice.verify():
            return False
        return self.embedding_bound >= embed_bound(lam)

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "slope": format_rational(self.slope),
            "a1": self.a1,
            "lspace_chain": self.lspace_chain.as_dict(),
            "plumbing": {
                "vertices": [[vid, w] for vid, w in self.tree.vertices],
                "edges": [[a, b] for a, b in self.tree.edges],
            },
            "sublattice_vectors": [list(v) for v in self.sublattice.vectors],
            "embedding": {"bound": self.embedding_bound, "exists": False},
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


def donaldson_certificate(n: int, r: Fraction) -> NotFillableCertificate:
    """Assemble the nonfillability certificate for r in [2n-1, 4n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    r = Fraction(r)
    lo, hi = 2 * n - 1, 4 * n
    if not lo <= r < hi:
        raise ValueError(f"slope {r} outside the obstructed interval [{lo}, {hi})")

    kb = knowledge_for(torus_knot(2 * n + 1, 2))
    chain = lspace_propagate(kb, r)
    if chain is None:
        raise CertificateFailure("lspace", f"no derivation chain reaches {r}")

    tree = plumbing_presentation(n, r)
    m = tree.intersection_matrix()
    if definiteness(m) is not Definiteness.POSITIVE_DEFINITE:
        raise CertificateFailure("plumbing", "intersection form is not positive definite")

    terms = neg_cf_expand((r - 4 * n - 2) / (r - 4 * n - 1)).terms
    a1 = terms[1]
    if tree.weight("a1") != a1:
        raise CertificateFailure("plumbing", "leg coefficient disagrees with the tree")
    lam = lambda_gram(a1, n)
    sub = contains_sublattice(_negate(m), lam)
    if sub is None:
        raise CertificateFailure("sublattice", "obstruction form not found in the plumbing")

    bound = embed_bound(lam)
    if embed_in_diagonal(lam, bound) is not None:
        raise CertificateFailure("embedding", "the obstruction form embeds after all")

    return NotFillableCertificate(
        n=n,
        slope=r,
        a1=a1,
        lspace_chain=chain,
        tree=tree,
        sublattice=sub,
        embedding_bound=bound,
    )
