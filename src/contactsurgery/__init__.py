"""Exact arithmetic for contact surgery diagrams on three-manifolds.

The package turns rational contact surgery presentations into smooth
surgery data, writes the positive definite plumbing that bounds a
surgery on a two-strand torus knot down in closed form (the star the
Kirby calculus ends in; the move engine that derives it is a test
oracle), and then interrogates the resulting intersection lattice for
embedding obstructions.  A small
Heegaard Floer bookkeeping layer tracks which surgery slopes are known
to give manifolds with minimal-rank Floer homology.

Everything is computed in exact `int`/`fractions.Fraction` arithmetic
(the lattice searches are integer-only); there is no floating point
anywhere in the library.
"""

from .cfrac import NegCF, neg_cf_expand, neg_cf_value, parse_rational, format_rational
from .homology import (
    CyclicDecomposition,
    Definiteness,
    definiteness,
    det_bareiss,
    h1_from_linking,
    h1_rational_surgery,
    order_in_cyclic,
    smith_normal_form,
)
from .contact import (
    ContactComponent,
    ContactDiagram,
    Fillability,
    FillabilityVerdict,
    KnotInfo,
    LegendrianKnot,
    PlusMinusPresentation,
    Tightness,
    TightnessVerdict,
    WitnessReport,
    fillability_verdict,
    max_tb_legendrian,
    parse_knot,
    tightness_verdict,
    torus_knot,
    translate,
    translate_single,
    twist_knot,
    unknot,
    witness_nonisomorphic,
)
from .kirby import (
    PlumbingTree,
    SeifertClassification,
    moser_seifert,
    plumbing_presentation,
)
from .floer import (
    DerivationChain,
    SlopeKnowledge,
    knowledge_for,
    lspace_propagate,
    verify_chain,
)
from .lattice import (
    EmbeddingWitness,
    d4_lemma,
    embed_bound,
    embed_in_diagonal,
    lambda_gram,
)
from .certificate import NotFillableCertificate, donaldson_certificate
