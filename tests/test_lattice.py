import dataclasses
import itertools
import json
import math
import operator
import random
import time
from fractions import Fraction

import pytest

from contactsurgery import certificate
from contactsurgery.certificate import (
    CertificateFailure,
    donaldson_certificate,
    lambda_witness,
)
from contactsurgery.homology import Definiteness, definiteness, det_bareiss
from contactsurgery.kirby import PlumbingTree, plumbing_presentation
from contactsurgery.lattice import (
    EmbeddingWitness,
    d4_lemma,
    embed_bound,
    embed_in_diagonal,
    lambda_gram,
)
from oracles import (
    SublatticeWitness,
    contains_sublattice,
    fraction_short_vectors,
    intersection_matrix,
    negate,
    seen_set_embed_in_diagonal,
    short_vectors,
)


def gram_ak(k):
    # chain of k circles of square -2
    g = [[0] * k for _ in range(k)]
    for i in range(k):
        g[i][i] = -2
    for i in range(k - 1):
        g[i][i + 1] = g[i + 1][i] = 1
    return g


def dynkin_gram(k, edges):
    # negative definite tree form: -2 on the diagonal, 1 on each edge
    g = [[0] * k for _ in range(k)]
    for i in range(k):
        g[i][i] = -2
    for i, j in edges:
        g[i][j] = g[j][i] = 1
    return g


def gram_dk(k):
    return dynkin_gram(k, [(i, i + 1) for i in range(k - 2)] + [(k - 3, k - 1)])


def gram_en(k):
    return dynkin_gram(k, [(i, i + 1) for i in range(k - 2)] + [(2, k - 1)])


def form_value(x, m, y):
    n = len(m)
    return sum(x[i] * m[i][j] * y[j] for i in range(n) for j in range(n))


def box_enumerate(gram, t):
    """Brute-force norm-t vectors: box bounds from the adjugate diagonal."""
    n = len(gram)
    det = det_bareiss(gram)
    assert det > 0
    bounds = []
    for i in range(n):
        if n == 1:
            adj = 1
        else:
            minor = [
                [gram[r][c] for c in range(n) if c != i]
                for r in range(n) if r != i
            ]
            adj = det_bareiss(minor)
        bounds.append(math.isqrt(int(Fraction(t * adj, det))))
    hits = [
        v
        for v in itertools.product(*(range(-b, b + 1) for b in bounds))
        if form_value(v, gram, v) == t
    ]
    return sorted(hits)


def random_pd_gram(rng, k):
    b = [[rng.randint(-1, 1) for _ in range(k)] for _ in range(k)]
    g = [[sum(b[r][i] * b[r][j] for r in range(k)) for j in range(k)] for i in range(k)]
    for i in range(k):
        g[i][i] += 1
    return g


# short vector enumeration


def test_short_vectors_frozen_a2():
    got = short_vectors([[2, 1], [1, 2]], 2)
    assert got == [(-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0)]


def test_short_vectors_negative_definite_input():
    assert short_vectors([[-1, 0], [0, -1]], -1) == [
        (-1, 0), (0, -1), (0, 1), (1, 0),
    ]
    # same data as the positive side
    assert short_vectors([[-2, 1], [1, -2]], -2) == short_vectors(
        [[2, -1], [-1, 2]], 2
    )


def test_short_vectors_trivial_targets():
    assert short_vectors([[2, 1], [1, 2]], 0) == []
    assert short_vectors([[2, 1], [1, 2]], -3) == []
    assert short_vectors([[1]], 1) == [(-1,), (1,)]


def test_short_vectors_rejects_bad_forms():
    with pytest.raises(ValueError):
        short_vectors([[1, 0], [0, -1]], 2)
    with pytest.raises(ValueError):
        short_vectors([[0]], 1)
    with pytest.raises(ValueError):
        # a zero leading minor: the elimination exchanges rows, and the
        # pivots it leaves are all positive
        short_vectors([[0, 1], [1, 0]], 2)
    with pytest.raises(ValueError):
        short_vectors([[1, 2], [3, 4]], 2)
    with pytest.raises(ValueError):
        short_vectors([[1, 0]], 1)


def test_short_vectors_against_box_enumeration():
    rng = random.Random(11)
    cases = 0
    while cases < 60:
        k = rng.randint(1, 3)
        g = random_pd_gram(rng, k)
        t = rng.randint(1, 6)
        got = short_vectors(g, t)
        assert got == box_enumerate(g, t)
        assert all(form_value(v, g, v) == t for v in got)
        assert {tuple(-x for x in v) for v in got} == set(got)
        cases += 1


def test_short_vectors_match_fraction_oracle():
    rng = random.Random(29)
    for _ in range(120):
        k = rng.randint(1, 6)
        g = random_pd_gram(rng, k)
        t = rng.randint(1, 7)
        assert short_vectors(g, t) == fraction_short_vectors(g, t)
        assert short_vectors(negate(g), -t) == fraction_short_vectors(g, t)


def test_short_vectors_match_fraction_oracle_on_plumbings():
    # the positive definite forms the certificate searches, at its norms
    for n, r in ((1, Fraction(2)), (1, Fraction(7, 2)), (2, Fraction(15, 2))):
        form = intersection_matrix(plumbing_presentation(n, r))
        for t in (1, 2, 3):
            got = short_vectors(form, t)
            assert got == fraction_short_vectors(form, t)
            assert short_vectors(negate(form), -t) == got


# diagonal embeddings


def test_embed_bound_frozen():
    assert embed_bound(lambda_gram(2, 1)) == 12
    assert embed_bound(lambda_gram(3, 2)) == 14
    assert embed_bound([[-5]]) == 5


def test_lambda_gram_shape():
    g = lambda_gram(2, 1)
    assert [g[i][i] for i in range(6)] == [-2, -2, -2, -2, -2, -2]
    g = lambda_gram(4, 3)
    assert [g[i][i] for i in range(6)] == [-4, -2, -2, -2, -4, -2]
    ones = {(i, j) for i in range(6) for j in range(6) if g[i][j] == 1}
    assert ones == {(0, 1), (1, 2), (2, 3), (3, 4), (2, 5),
                    (1, 0), (2, 1), (3, 2), (4, 3), (5, 2)}
    with pytest.raises(ValueError):
        lambda_gram(1, 1)
    with pytest.raises(ValueError):
        lambda_gram(2, 0)


def test_chain_lattices_embed():
    for k in range(1, 11):
        g = gram_ak(k)
        for m in (k + 1, k + 2):
            w = embed_in_diagonal(g, m)
            assert w is not None and w.verify()
            assert len(w.vectors) == k and all(len(v) == m for v in w.vectors)


def test_chain_lattices_too_tight():
    # x^2 = 2 has no integer solution; rank 2 needs a -1 pairing Z^2 lacks
    assert embed_in_diagonal(gram_ak(1), 1) is None
    assert embed_in_diagonal(gram_ak(2), 2) is None


def test_minus_one_embeds_anywhere():
    w = embed_in_diagonal([[-1]], 3)
    assert w is not None and w.verify()
    assert sorted(abs(x) for x in w.vectors[0]) == [0, 0, 1]


def test_embed_rejects_indefinite():
    with pytest.raises(ValueError):
        embed_in_diagonal([[1]], 2)
    with pytest.raises(ValueError):
        embed_in_diagonal([[-1, 0], [0, 1]], 3)


def test_rank_overflow_returns_none():
    assert embed_in_diagonal(gram_ak(3), 2) is None


def test_obstruction_form_never_embeds():
    # the heart of the filling obstruction, checked at the saturating rank
    assert embed_in_diagonal(lambda_gram(2, 1), 6) is None
    assert embed_in_diagonal(lambda_gram(2, 1), 12) is None


def test_witness_verify_catches_tampering():
    w = embed_in_diagonal(gram_ak(2), 3)
    assert w is not None and w.verify()
    bad = EmbeddingWitness(w.gram, w.m, (w.vectors[0], w.vectors[0]))
    assert not bad.verify()
    short = EmbeddingWitness(w.gram, w.m, w.vectors[:1])
    assert not short.verify()


def test_embed_matches_seen_set_oracle_on_random_forms():
    # -V V^T for random V, sometimes pushed off the image: both answers occur
    rng = random.Random(31)
    cases = found = 0
    while cases < 50:
        k, m = rng.randint(1, 4), rng.randint(1, 7)
        vs = [[rng.randint(-1, 1) for _ in range(rng.randint(1, 5))] for _ in range(k)]
        g = [[-sum(x * y for x, y in zip(u, v)) for v in vs] for u in vs]
        if rng.random() < 0.5:
            i = rng.randrange(k)
            g[i][i] -= 1
        if definiteness(g) is not Definiteness.NEGATIVE_DEFINITE:
            continue
        w = embed_in_diagonal(g, m)
        assert w == seen_set_embed_in_diagonal(g, m)
        cases += 1
        found += w is not None
    assert 0 < found < cases


def test_embed_matches_seen_set_oracle_on_root_lattices():
    cases = [(gram_ak(k), k) for k in range(1, 8)]
    cases += [(gram_dk(k), k) for k in range(4, 8)]
    cases += [(gram_en(k), embed_bound(gram_en(k))) for k in (6, 7, 8)]
    for g, m in cases:
        w = embed_in_diagonal(g, m)
        assert w == seen_set_embed_in_diagonal(g, m)
        assert w is None or w.verify()
    # D_k sits in Z^k, A_4 does not; E8 sits in no diagonal lattice
    assert all(embed_in_diagonal(gram_dk(k), k) is not None for k in range(4, 8))
    assert embed_in_diagonal(gram_ak(3), 3) is not None
    assert embed_in_diagonal(gram_ak(4), 4) is None
    assert embed_in_diagonal(gram_en(8), 16) is None


def test_embed_matches_seen_set_oracle_on_obstruction_forms():
    # the oracle lists Z^m in Fraction arithmetic, about 1 s per form at
    # embed_bound = 13 or 14, so only lambda(2, 1) is checked at its bound
    for a1, n, m in ((2, 1, 12), (2, 2, 10), (3, 1, 10), (3, 2, 10)):
        lam = lambda_gram(a1, n)
        assert m <= embed_bound(lam)
        assert embed_in_diagonal(lam, m) is None
        assert seen_set_embed_in_diagonal(lam, m) is None


def test_embed_witness_at_large_rank():
    # the search works on a support prefix; only the witness is padded to m
    t0 = time.perf_counter()
    w = embed_in_diagonal(gram_ak(3), 5000)
    assert time.perf_counter() - t0 < 1.0
    assert w is not None and w.verify()
    small = embed_in_diagonal(gram_ak(3), 4)
    assert w.vectors == tuple(v + (0,) * 4996 for v in small.vectors)


# the D4 lemma


def test_lambda_gram_d4_part():
    # rows h1, c{n}, e2, k, a1, e1: the D4 is {c{n}, e2, k, e1} centered at
    # e2, h1 touches only c{n} and a1 only k, whatever the long norms are
    for a1, n in ((2, 1), (3, 2), (1001, 500)):
        g = lambda_gram(a1, n)
        center, leaves = 2, (1, 3, 5)
        assert all(g[i][i] == -2 for i in (center, *leaves))
        assert all(g[center][j] == 1 for j in leaves)
        assert all(g[i][j] == 0 for i, j in itertools.combinations(leaves, 2))
        assert [j for j in range(6) if j != 0 and g[0][j]] == [1]
        assert [j for j in range(6) if j != 4 and g[4][j]] == [3]


def _roots(m):
    """The norm-2 vectors +-e_i +- e_j of Z^m."""
    out = []
    for i, j in itertools.combinations(range(m), 2):
        for s, t in itertools.product((1, -1), repeat=2):
            v = [0] * m
            v[i], v[j] = s, t
            out.append(tuple(v))
    return out


def _fraction_solve(rows, rhs):
    """The x with rows . x = rhs for a square nonsingular system, in Fractions."""
    k = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(k):
        pivot = next(r for r in range(col, k) if a[r][col])
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(k):
            if r != col and a[r][col]:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][k] / a[i][i] for i in range(k)]


def _d4_copies(m, centers):
    """(copies, h1 fits, a1 fits, both fit) over the labeled D4s in Z^m.

    A copy is a center from centers and leaves c, k, e1 pairing -1 with
    it and 0 with each other.  The parts of h1 (pairing -1 with c only)
    and of a1 (with k only) on the copy's support solve a 4 x 4 system.
    """
    counts = [0, 0, 0, 0]
    for center in centers:
        leaves = [v for v in _roots(m) if sum(map(operator.mul, v, center)) == -1]
        for c, k, e1 in itertools.permutations(leaves, 3):
            if any(sum(map(operator.mul, x, y)) for x, y in ((c, k), (c, e1), (k, e1))):
                continue
            roots = (center, c, k, e1)
            support = [i for i in range(m) if any(v[i] for v in roots)]
            assert len(support) == 4, roots
            rows = [[v[i] for i in support] for v in roots]
            h1 = all(x.denominator == 1 for x in _fraction_solve(rows, [0, -1, 0, 0]))
            a1 = all(x.denominator == 1 for x in _fraction_solve(rows, [0, 0, -1, 0]))
            for i, hit in enumerate((True, h1, a1, h1 and a1)):
                counts[i] += hit
    return tuple(counts)


def test_d4_lemma_against_an_independent_enumeration():
    # with the center fixed in Z^6 (room beyond the 5 coordinates a copy can
    # use), and over every center in Z^4: h1 or a1 fits, never both
    assert _d4_copies(6, [(1, 1, 0, 0, 0, 0)]) == (288, 96, 96, 0)
    assert _d4_copies(4, _roots(4)) == (1152, 384, 384, 0)
    assert d4_lemma() is True


def test_d4_lemma_against_the_embedding_search():
    # the search exhausts one form at a time; a1, n <= 20 takes under a
    # second, where a1, n <= 40 would take about 5 s
    assert d4_lemma()
    for a1 in range(2, 21):
        for n in range(1, 21):
            lam = lambda_gram(a1, n)
            assert embed_in_diagonal(lam, embed_bound(lam)) is None, (a1, n)


def test_lambda_without_either_long_vertex_embeds():
    # the lemma needs both h1 and a1: dropping either leaves a form that embeds
    for a1, n in ((2, 1), (5, 3), (9, 7)):
        lam = lambda_gram(a1, n)
        for drop in (0, 4):
            keep = [i for i in range(6) if i != drop]
            sub = [[lam[i][j] for j in keep] for i in keep]
            w = embed_in_diagonal(sub, embed_bound(sub))
            assert w is not None and w.verify(), (a1, n, drop)


# sublattice search


def test_sublattice_identity():
    g = gram_ak(2)
    w = contains_sublattice(g, g)
    assert w is not None and w.verify()


def test_sublattice_positive_pair():
    w = contains_sublattice([[1, 0], [0, 1]], [[2, 1], [1, 2]])
    assert w is None  # dot +1 between norm-2 vectors of Z^2 is impossible
    w = contains_sublattice([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[2, 1], [1, 2]])
    assert w is not None and w.verify()


def test_sublattice_rank_and_sign_guards():
    assert contains_sublattice([[-1]], gram_ak(2)) is None
    with pytest.raises(ValueError):
        contains_sublattice([[1]], [[-1]])
    with pytest.raises(ValueError):
        contains_sublattice([[1, 0], [0, -1]], [[1]])


def test_obstruction_form_sits_in_the_plumbing():
    # rank 6 inside the negated rank-6 tree for r = 3: same lattice
    tree = plumbing_presentation(1, Fraction(3))
    w = contains_sublattice(negate(intersection_matrix(tree)), lambda_gram(2, 1))
    assert w is not None and w.verify()


def test_sublattice_search_finds_the_obstruction_form_on_certify_slopes():
    # every slope the certify workload draws: n <= 2, q <= 20, a1 = 2 up
    # to 17 vertices and a1 = 3 up to 14; the certificate writes this copy
    # down instead, the search must agree that one exists, and the copy
    # written down must pass the dense re-check too
    cases = 0
    for n in (1, 2):
        for q in range(1, 21):
            for p in range((2 * n - 1) * q, 4 * n * q):
                if math.gcd(p, q) != 1:
                    continue
                tree = plumbing_presentation(n, Fraction(p, q))
                a1, size = tree.weight("a1"), len(tree.vertices)
                if size > {2: 17, 3: 14}.get(a1, 0):
                    continue
                lam = lambda_gram(a1, n)
                w = contains_sublattice(negate(intersection_matrix(tree)), lam)
                assert w is not None and w.verify(), (n, p, q)
                written = SublatticeWitness(w.ambient, w.gram, lambda_witness(tree, n, lam))
                assert written.verify(), (n, p, q)
                cases += 1
    assert cases == 821


# the assembled certificate


def test_lambda_witness_is_six_signed_vertices():
    tree = plumbing_presentation(3, Fraction(41, 4))
    lam = lambda_gram(tree.weight("a1"), 3)
    vectors = lambda_witness(tree, 3, lam)
    assert SublatticeWitness(negate(intersection_matrix(tree)), lam, vectors).verify()
    ids = [vid for vid, _ in tree.vertices]
    support = [(ids[v.index(x)], x) for v in vectors for x in v if x]
    assert support == [("h1", 1), ("c3", -1), ("e2", 1), ("k", -1), ("a1", 1), ("e1", -1)]


def test_lambda_witness_rejects_a_tree_without_the_form():
    tree = plumbing_presentation(1, Fraction(2))
    no_e1 = PlumbingTree(
        tuple(v for v in tree.vertices if v[0] != "e1"),
        tuple(e for e in tree.edges if "e1" not in e),
    )
    with pytest.raises(CertificateFailure) as err:
        lambda_witness(no_e1, 1, lambda_gram(2, 1))
    assert err.value.part == "sublattice"
    # every name present, but h1 has the wrong weight
    heavy = PlumbingTree(
        tuple((vid, w + 1 if vid == "h1" else w) for vid, w in tree.vertices), tree.edges
    )
    with pytest.raises(CertificateFailure) as err:
        lambda_witness(heavy, 1, lambda_gram(2, 1))
    assert err.value.part == "sublattice"




def test_certificate_integral_slope():
    cert = donaldson_certificate(1, Fraction(2))
    assert cert.a1 == 2
    assert cert.embedding_bound == 12
    assert len(cert.tree.vertices) == 7
    assert cert.lspace_chain.query == 2
    kinds = [s.kind for s in cert.lspace_chain.steps]
    assert kinds == ["seed", "step_down", "step_down", "step_down"]
    assert cert.verify()


def test_certificate_rational_slopes():
    cert = donaldson_certificate(1, Fraction(5, 2))
    assert cert.a1 == 2 and cert.verify()
    cert = donaldson_certificate(2, Fraction(15, 2))
    assert cert.a1 == 3 and cert.embedding_bound == 14
    assert cert.verify()


def test_certificate_json_round_trip():
    cert = donaldson_certificate(1, Fraction(2))
    data = json.loads(cert.to_json())
    assert data["slope"] == "2" and data["a1"] == 2
    assert data["embedding"] == {"bound": 12, "exists": False}
    assert len(data["plumbing"]["vertices"]) == 7
    assert len(data["sublattice_vectors"]) == 6
    # reproducible end to end
    assert donaldson_certificate(1, Fraction(2)).to_json() == cert.to_json()


def test_certificate_rejects_out_of_range():
    with pytest.raises(ValueError):
        donaldson_certificate(0, Fraction(1))
    with pytest.raises(ValueError):
        donaldson_certificate(1, Fraction(4))
    with pytest.raises(ValueError):
        donaldson_certificate(1, Fraction(1, 2))
    with pytest.raises(ValueError):
        donaldson_certificate(2, Fraction(2))


def test_certificate_verify_rejects_tampering():
    cert = donaldson_certificate(1, Fraction(2))
    assert not dataclasses.replace(cert, a1=3).verify()
    assert not dataclasses.replace(cert, slope=Fraction(3)).verify()
    assert not dataclasses.replace(cert, embedding_bound=5).verify()
    bound = cert.embedding_bound
    assert not dataclasses.replace(cert, embedding_bound=bound - 1).verify()
    vectors = [list(v) for v in cert.sublattice_vectors]
    vectors[0] = [-x for x in vectors[0]]  # flip the one nonzero entry
    flipped = tuple(map(tuple, vectors))
    dense = SublatticeWitness(negate(intersection_matrix(cert.tree)), lambda_gram(2, 1), flipped)
    assert not dense.verify()
    assert not dataclasses.replace(cert, sublattice_vectors=flipped).verify()


# n <= 3 and a1 = 2, 3, 4: 4n - r >= 1, in [1/2, 1) and in [1/3, 1/2)
TAMPER_CASES = [(1, Fraction(2)), (3, Fraction(41, 4)), (1, Fraction(7, 2)),
                (2, Fraction(15, 2)), (3, Fraction(23, 2)), (1, Fraction(11, 3))]


@pytest.mark.parametrize("n, r", TAMPER_CASES, ids=lambda x: str(x))
def test_certificate_verify_rejects_tampered_vectors(n, r):
    cert = donaldson_certificate(n, r)
    assert cert.verify()
    vs = cert.sublattice_vectors
    dense = negate(intersection_matrix(cert.tree))
    lam = lambda_gram(cert.a1, n)
    for i, v in enumerate(vs):
        for j in range(len(v)):
            bumped = vs[:i] + (v[:j] + (v[j] + 1,) + v[j + 1:],) + vs[i + 1:]
            # the dense form confirms that the change breaks the copy
            assert not SublatticeWitness(dense, lam, bumped).verify(), (i, j)
            assert not dataclasses.replace(cert, sublattice_vectors=bumped).verify(), (i, j)
    for i in range(len(vs)):
        assert not dataclasses.replace(cert, sublattice_vectors=vs[:i] + vs[i + 1:]).verify()
        longer = vs[:i] + (vs[i] + (0,),) + vs[i + 1:]
        assert not dataclasses.replace(cert, sublattice_vectors=longer).verify()
    assert not dataclasses.replace(cert, sublattice_vectors=vs + vs[:1]).verify()


@pytest.mark.parametrize("n, r", TAMPER_CASES, ids=lambda x: str(x))
def test_certificate_verify_rejects_tampered_a1_and_weights(n, r):
    cert = donaldson_certificate(n, r)
    assert cert.a1 == 1 + math.ceil(1 / (4 * n - r))
    for a1 in (cert.a1 - 1, cert.a1 + 1, cert.a1 + 2):
        assert not dataclasses.replace(cert, a1=a1).verify(), a1
    tree = cert.tree
    for vid, _ in tree.vertices:
        for step in (-1, 1):
            heavier = PlumbingTree(
                tuple((u, w + step if u == vid else w) for u, w in tree.vertices), tree.edges
            )
            assert not dataclasses.replace(cert, tree=heavier).verify(), (vid, step)


def test_certificate_needs_the_d4_lemma(monkeypatch):
    cert = donaldson_certificate(1, Fraction(2))
    assert cert.verify()
    monkeypatch.setattr(certificate, "d4_lemma", lambda: False)
    assert not cert.verify()
    with pytest.raises(CertificateFailure) as err:
        donaldson_certificate(1, Fraction(2))
    assert err.value.part == "embedding"


def test_certificate_failure_carries_part():
    err = CertificateFailure("embedding", "why")
    assert err.part == "embedding"
    assert "embedding" in str(err)
