import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from contactsurgery.certificate import CertificateFailure, donaldson_certificate
from contactsurgery.homology import det_bareiss
from contactsurgery.kirby import plumbing_presentation
from contactsurgery.lattice import (
    EmbeddingWitness,
    contains_sublattice,
    embed_bound,
    embed_in_diagonal,
    lambda_gram,
    short_vectors,
)


def negate(m):
    return [[-x for x in row] for row in m]


def gram_ak(k):
    # chain of k circles of square -2
    g = [[0] * k for _ in range(k)]
    for i in range(k):
        g[i][i] = -2
    for i in range(k - 1):
        g[i][i + 1] = g[i + 1][i] = 1
    return g


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
    w = contains_sublattice(negate(tree.intersection_matrix()), lambda_gram(2, 1))
    assert w is not None and w.verify()


# the assembled certificate


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


def test_certificate_failure_carries_part():
    err = CertificateFailure("embedding", "why")
    assert err.part == "embedding"
    assert "embedding" in str(err)
