"""End-to-end acceptance gate: one test, one pass/fail line, per criterion.

Each test prints a [PASS] line with its measured time once every exact
check and the stated time budget hold; run with -v (or -rA) to see the
per-criterion lines.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from contactsurgery.certificate import donaldson_certificate
from contactsurgery.cfrac import neg_cf_expand, neg_cf_value
from contactsurgery.contact import (
    torus_knot,
    translate,
    translate_single,
    witness_diagram,
    witness_nonisomorphic,
)
from contactsurgery.floer import (
    adjunction_surface,
    knowledge_for,
    lspace_propagate,
    vanishing_predicate,
    verify_chain,
)
from contactsurgery.homology import Definiteness, definiteness, det_bareiss
from contactsurgery.kirby import (
    Component,
    GraphDiagram,
    blow_up,
    handle_slide,
    plumbing_presentation,
    rational_to_integer,
    rolfsen_twist,
)
from contactsurgery.lattice import embed_bound, embed_in_diagonal, lambda_gram
from oracles import (
    SublatticeWitness,
    check_snf,
    determinantal_divisors,
    homology_magnitude,
    intersection_matrix,
    negate,
    short_vectors,
)


def report(num: int, text: str, seconds: float) -> None:
    print(f"[PASS] criterion {num}: {text} ({seconds * 1000:.1f} ms)")


def gram_ak(k):
    g = [[0] * k for _ in range(k)]
    for i in range(k):
        g[i][i] = -2
    for i in range(k - 1):
        g[i][i + 1] = g[i + 1][i] = 1
    return g


def test_criterion_1_plus_two_translation():
    knot = torus_knot(3, 2)
    translate_single(knot, Fraction(2))  # warm the path before timing
    t0 = time.perf_counter()
    pres = translate_single(knot, Fraction(2))
    dt = time.perf_counter() - t0
    assert len(pres.members) == 2
    first, second = pres.members
    assert first.sign == +1 and first.tb == 1 and first.budget == 0
    assert second.sign == -1 and second.tb == 0 and second.budget == 1
    assert pres.count_structures() == 2
    assert dt < 1e-3
    report(1, "contact +2 on the trefoil gives (+1, -1 stabilized), 2 variants", dt)


def test_criterion_2_witness_homology_orders():
    t0 = time.perf_counter()
    for alpha in range(1, 51):
        h = translate(witness_diagram(alpha)).first_homology()
        assert h.orders == (2 * alpha + 3,)
        assert h.free_rank == 0
    dt = time.perf_counter() - t0
    assert dt < 1.0
    report(2, "H1 orders 2*alpha+3 for alpha in [1, 50] via linking + SNF", dt)


def test_criterion_3_witness_family():
    t0 = time.perf_counter()
    rep = witness_nonisomorphic(2)
    assert rep.primes == (3, 5)
    assert rep.alpha == 6
    assert tuple(e.i for e in rep.entries) == (5, 4)
    assert tuple(e.order for e in rep.entries) == (3, 5)
    for m in range(1, 7):
        rep = witness_nonisomorphic(m)
        assert len(rep.primes) == m
        assert rep.product % 4 == 3 and rep.product > 3
        assert rep.group_order == rep.product == 2 * rep.alpha + 3
        orders = [e.order for e in rep.entries]
        assert len(set(orders)) == m
        for entry in rep.entries:
            assert entry.c1 == rep.product // entry.prime
            assert entry.order == entry.prime
            assert 0 <= entry.i <= rep.alpha - 1
    dt = time.perf_counter() - t0
    assert dt < 1.0
    report(3, "m <= 6 witness families, m=2 frozen to primes (3, 5)", dt)


PLUMBING_SAMPLES = {
    1: ["1", "2", "3", "3/2", "5/2", "7/2", "4/3", "5/3", "7/3", "8/3", "10/3", "11/3"],
    2: ["3", "4", "5", "6", "7", "7/2", "9/2", "11/2", "13/2", "15/2", "10/3", "11/3"],
    3: ["5", "6", "7", "8", "9", "10", "11", "11/2", "13/2", "15/2", "17/2", "19/2"],
}


def test_criterion_4_plumbing_oracle():
    worst = 0.0
    for n, slopes in PLUMBING_SAMPLES.items():
        assert len(slopes) == 12
        for text in slopes:
            r = Fraction(text)
            assert 2 * n - 1 <= r < 4 * n and r.denominator <= 5
            t0 = time.perf_counter()
            tree = plumbing_presentation(n, r)
            dt = time.perf_counter() - t0
            m = intersection_matrix(tree)
            assert abs(det_bareiss(m)) == abs(r.numerator)
            assert definiteness(m) is Definiteness.POSITIVE_DEFINITE
            assert dt < 1.0
            worst = max(worst, dt)
    report(4, "36 plumbing trees with |det| = |p| and positive definite forms", worst)


def test_criterion_5_donaldson_embeddings():
    worst = 0.0
    for a1 in (2, 3, 4):
        for n in (1, 2, 3):
            lam = lambda_gram(a1, n)
            t0 = time.perf_counter()
            assert embed_in_diagonal(lam, embed_bound(lam)) is None
            dt = time.perf_counter() - t0
            assert dt < 1.0
            worst = max(worst, dt)
    t0 = time.perf_counter()
    for k in range(1, 11):
        w = embed_in_diagonal(gram_ak(k), k + 1)
        assert w is not None and w.verify()
    chains = time.perf_counter() - t0
    assert chains < 1.0
    report(5, "no diagonal embedding for a1 in {2,3,4}, n in {1,2,3}; chains embed", worst)


def test_criterion_6_full_certificates():
    t0 = time.perf_counter()
    for r in (Fraction(2), Fraction(7, 2)):
        cert = donaldson_certificate(1, r)
        dense = negate(intersection_matrix(cert.tree))
        lam = lambda_gram(cert.a1, 1)
        assert SublatticeWitness(dense, lam, cert.sublattice_vectors).verify()
        assert cert.verify()
    dt = time.perf_counter() - t0
    assert dt < 120.0
    report(6, "four-part certificates for (n=1, r=2) and (n=1, r=7/2)", dt)


def test_certificates_up_to_n_10():
    # the nonfillability certificate for every n <= 10, each under 1 s
    worst = 0.0
    for n in range(1, 11):
        for r in (Fraction(4 * n - 1), Fraction(8 * n - 1, 2)):
            t0 = time.perf_counter()
            cert = donaldson_certificate(n, r)
            assert cert.verify()
            dt = time.perf_counter() - t0
            assert dt < 1.0
            worst = max(worst, dt)
    print(f"[PASS] certificates for n <= 10 at r = 4n-1 and 4n-1/2 (worst {worst * 1000:.1f} ms)")


def test_certificate_goal_every_slope_q_at_most_4_and_baseline():
    # every slope p/q in [2n-1, 4n) with q <= 4 for n <= 10 (720 slopes),
    # then the slopes that once searched for seconds or did not finish
    slopes = [
        (n, Fraction(p, q))
        for n in range(1, 11)
        for q in range(1, 5)
        for p in range((2 * n - 1) * q, 4 * n * q)
        if math.gcd(p, q) == 1
    ]
    assert len(slopes) == 720
    slopes += [(10, Fraction(p, q)) for p, q in ((391, 10), (311, 10), (129, 4), (156, 5))]
    slopes += [(4, Fraction(p, q)) for p, q in ((131, 10), (99, 7), (91, 6))]
    slopes += [(6, Fraction(101, 5)), (6, Fraction(191, 10))]
    slopes += [(40, Fraction(79)), (80, Fraction(319))]
    worst = 0.0
    for n, r in slopes:
        t0 = time.perf_counter()
        cert = donaldson_certificate(n, r)
        assert cert.verify()
        dt = time.perf_counter() - t0
        assert dt < 1.0, (n, r, dt)
        worst = max(worst, dt)
    print(f"[PASS] {len(slopes)} certificates, q <= 4 and baseline (worst {worst * 1000:.1f} ms)")


def test_criterion_7_surface_identity():
    t0 = time.perf_counter()
    for t in range(1, 20, 2):
        for k in range(1, 21):
            s = adjunction_surface(t, k)
            assert s.self_intersection - (2 * s.genus - 1) == t * k
            assert vanishing_predicate(s)
    dt = time.perf_counter() - t0
    assert dt < 0.01
    report(7, "sq - (2g-1) = t*k and vanishing for odd t <= 19, k <= 20", dt)


def test_criterion_8_lspace_engine():
    t0 = time.perf_counter()
    kb = knowledge_for(torus_knot(3, 2))
    pairs = [
        (p, q)
        for p in range(1, 11)
        for q in range(1, 11)
        if math.gcd(p, q) == 1
    ]
    assert len(pairs) == 63
    derivable = 0
    for p, q in pairs:
        slope = Fraction(p, q)
        chain = lspace_propagate(kb, slope)
        if slope >= 1:  # the floor 2g - 1 for the trefoil
            assert chain is not None
            assert verify_chain(kb, chain)
            derivable += 1
        else:
            assert chain is None
    assert lspace_propagate(kb, Fraction(1, 2)) is None
    dt = time.perf_counter() - t0
    assert dt < 1.0
    report(8, f"{derivable} of 63 reduced slopes derivable with replayable chains", dt)


def test_criterion_9_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(9)

    # Smith form reconstruction and determinantal divisors
    for _ in range(500):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        diag = check_snf(a).diagonal
        prod = 1
        for k, divisor in enumerate(determinantal_divisors(a), 1):
            prod *= diag[k - 1]
            assert prod == divisor

    # Kirby moves never change the homology magnitude
    for _ in range(200):
        n = rng.randint(2, 4)
        comps = tuple(
            Component(f"x{i + 1}", Fraction(rng.randint(-8, 8), rng.randint(1, 4)))
            for i in range(n)
        )
        lk = tuple(
            (f"x{i + 1}", f"x{j + 1}", v)
            for i in range(n)
            for j in range(i + 1, n)
            if (v := rng.randint(-2, 2))
        )
        d = GraphDiagram(comps, lk)
        mag = homology_magnitude(d)
        d2, _ = blow_up(
            d, {f"x{rng.randint(1, n)}": rng.choice([-2, -1, 1, 2])},
            rng.choice([1, -1]),
        )
        assert homology_magnitude(d2) == mag
        cid = f"x{rng.randint(1, n)}"
        t = rng.choice([-2, -1, 1, 2])
        c = d.component(cid).coeff
        if c.denominator + t * c.numerator != 0:
            assert homology_magnitude(rolfsen_twist(d, cid, t)) == mag
        integral = [c.cid for c in d.components if c.is_integral]
        if len(integral) >= 2:
            x, y = rng.sample(integral, 2)
            assert homology_magnitude(handle_slide(d, x, y, rng.choice([1, -1]))) == mag
        fractional = [c.cid for c in d.components if not c.is_integral]
        if fractional:
            d4, _ = rational_to_integer(d, rng.choice(fractional))
            assert homology_magnitude(d4) == mag

    # negative continued fractions round-trip on the full small grid
    cases = 0
    for q in range(1, 31):
        for p in range(q + 1, 10 * q + 1):
            if math.gcd(p, q) != 1:
                continue
            x = Fraction(p, q)
            cf = neg_cf_expand(x)
            assert all(a >= 2 for a in cf.terms)
            assert neg_cf_value(cf.terms) == x
            cases += 1
    assert cases > 1000

    # short vector enumeration against the brute-force box
    compared = 0
    for _ in range(40):
        k = rng.randint(1, 4)
        b = [[rng.randint(-1, 1) for _ in range(k)] for _ in range(k)]
        g = [
            [sum(b[r][i] * b[r][j] for r in range(k)) + (i == j) for j in range(k)]
            for i in range(k)
        ]
        t = rng.randint(1, 6)
        det = det_bareiss(g)
        bounds = []
        for i in range(k):
            if k == 1:
                adj = 1
            else:
                minor = [
                    [g[r][c] for c in range(k) if c != i]
                    for r in range(k) if r != i
                ]
                adj = det_bareiss(minor)
            bounds.append(math.isqrt(int(Fraction(t * adj, det))))
        if math.prod(2 * x + 1 for x in bounds) > 100_000:
            continue
        box = sorted(
            v
            for v in itertools.product(*(range(-x, x + 1) for x in bounds))
            if sum(v[i] * g[i][j] * v[j] for i in range(k) for j in range(k)) == t
        )
        assert short_vectors(g, t) == box
        compared += 1
    assert compared >= 30

    dt = time.perf_counter() - t0
    assert dt < 30.0
    report(9, "SNF, Kirby invariance, neg-CF, and short-vector property suites", dt)
