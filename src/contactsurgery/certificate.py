"""The assembled nonfillability certificate.

For r in [2n-1, 4n), r-surgery on the (2n+1, 2) torus knot carries no
fillable contact structure.  The proof has four ingredients, each
produced by a lower layer and re-checkable on its own:

  * floer: a derivation chain showing the surgery has minimal Floer rank,
    from a seed slope that kirby.moser_seifert proves to be a lens space
    surgery (Moser, Pacific J. Math. 38, 1971), so of minimal rank;
  * kirby: the positive definite plumbing tree bounding the surgery;
  * lattice: the rank-6 obstruction form inside the negated plumbing
    lattice, and the D4 lemma showing that form has no negative diagonal
    embedding in any rank.

The copy of the obstruction form needs no search: it is spanned by six
plumbing vertices, as signed unit vectors (lambda_witness), and is
re-checked against the form before it is used, pair by pair through the
tree's own pairing (PlumbingTree.negated_pairing), so no V x V matrix is
ever built.

A symplectic filling glued to the plumbing would, by Donaldson's
diagonalization theorem (J. Diff. Geom. 26, 1987), embed the negated
plumbing lattice, and with it the obstruction form, into a diagonal
lattice; the last ingredient, a lemma with constant work rather than a
search, rules that out.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .cfrac import format_rational
from .contact import torus_knot
from .floer import (
    DerivationChain,
    SlopeKnowledge,
    knowledge_for,
    lspace_propagate,
    verify_chain,
)
from .homology import Definiteness, Matrix
from .kirby import PlumbingTree, moser_seifert, plumbing_presentation
from .lattice import d4_lemma, embed_bound, lambda_gram


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
    and the D4 lemma (lattice.d4_lemma) that this form has no negative
    diagonal embedding; embedding_bound is the rank a search would need.
    """

    n: int
    slope: Fraction
    a1: int
    lspace_chain: DerivationChain
    tree: PlumbingTree
    sublattice_vectors: tuple[tuple[int, ...], ...]
    embedding_bound: int

    def verify(self) -> bool:
        """Re-check every identity in the certificate.

        The chain must open with an integral seed s whose surgery is a
        lens space by Moser's classification, |s - (4n+2)| = 1, so the
        seed's minimal rank is proved here for every n rather than read
        from the knot table; the chain is then replayed from that seed.
        The six sublattice vectors are paired on the tree itself, in
        O(V + E) per pair, and must give lambda_gram(a1, n): a changed,
        dropped or lengthened vector, a changed a1 or a changed vertex
        weight fails here or at the determinant.  The nonexistence half
        is re-established by the D4 lemma, beside the three positive
        witnesses, the interval hypothesis and the embedding bound.
        """
        lo, hi = 2 * self.n - 1, 4 * self.n
        if self.n < 1 or not lo <= self.slope < hi:
            return False
        steps = self.lspace_chain.steps
        if not steps or steps[0].kind != "seed" or steps[0].denominator != 1:
            return False
        seed = steps[0].numerator
        if not moser_seifert(2 * self.n + 1, 2, seed).is_lens:
            return False
        kb = SlopeKnowledge(torus_knot(2 * self.n + 1, 2), (seed,))
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
        try:
            lam = lambda_gram(self.a1, self.n)
        except ValueError:
            return False
        if not _realizes(self.tree, self.sublattice_vectors, lam):
            return False
        return self.embedding_bound >= embed_bound(lam) and d4_lemma()

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
            "sublattice_vectors": [list(v) for v in self.sublattice_vectors],
            "embedding": {"bound": self.embedding_bound, "exists": False},
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


def _realizes(tree: PlumbingTree, vectors: tuple[tuple[int, ...], ...], gram: Matrix) -> bool:
    """Whether the vectors have Gram matrix gram in the negated tree form."""
    k, size = len(gram), len(tree.vertices)
    if len(vectors) != k or any(len(v) != size for v in vectors):
        return False
    return all(
        tree.negated_pairing(vectors[i], vectors[j]) == gram[i][j]
        for i in range(k)
        for j in range(i, k)
    )


def lambda_witness(tree: PlumbingTree, n: int, lam: Matrix) -> tuple[tuple[int, ...], ...]:
    """The copy of lam = lambda_gram(a1, n) in the negated plumbing lattice.

    The plumbing contains the path h1 - c{n} - e2 - k - a1 with e1 on
    e2, of weights n+1, 2, 2, 2, a1, 2: lambda_gram's vertices in its
    order.  Their unit vectors with alternating signs pair every edge to
    +1 in the negated form, so they span lam there.  Raises
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
    if not _realizes(tree, tuple(vectors), lam):
        raise CertificateFailure("sublattice", "the six vertices do not span the obstruction form")
    return tuple(vectors)


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

    # plumbing_presentation raises unless the tree is positive definite
    tree = plumbing_presentation(n, r)
    # (r-4n-2)/(r-4n-1) = 2 - (4n-r)/(4n+1-r) = [2, a1, ...] as a negative
    # continued fraction, so a1 = ceil((4n+1-r)/(4n-r)) = 1 + ceil(1/(4n-r));
    # lambda_witness rejects a tree whose a1 vertex has another weight
    a1 = 1 + math.ceil(1 / (4 * n - r))
    lam = lambda_gram(a1, n)
    vectors = lambda_witness(tree, n, lam)
    if not d4_lemma():
        raise CertificateFailure("embedding", "the D4 lemma does not hold")

    return NotFillableCertificate(
        n=n,
        slope=r,
        a1=a1,
        lspace_chain=chain,
        tree=tree,
        sublattice_vectors=vectors,
        embedding_bound=embed_bound(lam),
    )
