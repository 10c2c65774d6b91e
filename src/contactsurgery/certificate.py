"""The assembled nonfillability certificate.

For r in [2n-1, 4n), r-surgery on the (2n+1, 2) torus knot carries no
fillable contact structure.  The proof has four ingredients, each
produced by a lower layer and re-checkable on its own:

  * floer: a derivation chain showing the surgery has minimal Floer rank;
  * kirby: the positive definite plumbing tree bounding the surgery;
  * lattice: the rank-6 obstruction form inside the negated plumbing
    lattice, and the exhausted search showing that form has no negative
    diagonal embedding up to the saturating rank.

The copy of the obstruction form needs no search: it is spanned by six
plumbing vertices, as signed unit vectors (lambda_witness), and is
re-checked against the form before it is used.

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
from .kirby import Definiteness, PlumbingTree, plumbing_presentation
from .lattice import (
    SublatticeWitness,
    embed_bound,
    embed_in_diagonal,
    freeze,
    lambda_gram,
    negate,
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
    rank, the positive definite plumbing it bounds, six signed plumbing
    vertices spanning the rank-6 form in the negated plumbing lattice,
    and the bound up to which the exhausted search found no negative
    diagonal embedding of that form.
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
        if not self.tree.is_tree():
            return False
        if abs(self.tree.determinant) != abs(self.slope.numerator):
            return False
        if self.tree.definiteness is not Definiteness.POSITIVE_DEFINITE:
            return False
        lam = lambda_gram(self.a1, self.n)
        if self.sublattice.gram != freeze(lam):
            return False
        if self.sublattice.ambient != freeze(negate(self.tree.intersection_matrix())):
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


def lambda_witness(tree: PlumbingTree, n: int, a1: int) -> SublatticeWitness:
    """The copy of lambda(a1, n) in the negated plumbing lattice.

    The plumbing contains the path h1 - c{n} - e2 - k - a1 with e1 on
    e2, of weights n+1, 2, 2, 2, a1, 2: lambda_gram's vertices in its
    order.  Their unit vectors with alternating signs pair every edge to
    +1 in the negated form, so they span lambda(a1, n) there.  Raises
    CertificateFailure("sublattice", ...) if a vertex is missing or the
    vectors do not realize the form.
    """
    names = ("h1", f"c{n}", "e2", "k", "a1", "e1")
    index = {vid: i for i, (vid, _) in enumerate(tree.vertices)}
    for name in names:
        if name not in index:
            raise CertificateFailure("sublattice", f"plumbing has no vertex {name}")
    vectors = []
    for name, sign in zip(names, (1, -1, 1, -1, 1, -1)):
        v = [0] * len(index)
        v[index[name]] = sign
        vectors.append(tuple(v))
    sub = SublatticeWitness(
        freeze(negate(tree.intersection_matrix())),
        freeze(lambda_gram(a1, n)),
        tuple(vectors),
    )
    if not sub.verify():
        raise CertificateFailure("sublattice", "the six vertices do not span the obstruction form")
    return sub


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
    if tree.definiteness is not Definiteness.POSITIVE_DEFINITE:
        raise CertificateFailure("plumbing", "intersection form is not positive definite")

    terms = neg_cf_expand((r - 4 * n - 2) / (r - 4 * n - 1)).terms
    a1 = terms[1]
    if tree.weight("a1") != a1:
        raise CertificateFailure("plumbing", "leg coefficient disagrees with the tree")
    sub = lambda_witness(tree, n, a1)

    lam = lambda_gram(a1, n)
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
