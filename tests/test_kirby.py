import random
from fractions import Fraction

import pytest

from contactsurgery.homology import det_bareiss
from contactsurgery.kirby import (
    Component,
    Definiteness,
    GraphDiagram,
    InternalConsistencyError,
    MoveError,
    PlumbingTree,
    blow_down,
    blow_up,
    definiteness,
    format_graph_diagram,
    format_plumbing_tree,
    generalized_linking_matrix,
    handle_slide,
    homology_magnitude,
    moser_seifert,
    parse_graph_diagram,
    parse_plumbing_tree,
    plumbing_move_sequence,
    plumbing_presentation,
    rational_to_integer,
    rolfsen_twist,
    slam_dunk,
)


def unknot_diagram(*coeffs, lk=()):
    comps = tuple(
        Component(f"x{i + 1}", Fraction(c)) for i, c in enumerate(coeffs)
    )
    return GraphDiagram(comps, tuple(lk))


def test_diagram_validation():
    with pytest.raises(ValueError):
        GraphDiagram((Component("a", Fraction(1)), Component("a", Fraction(2))))
    a, b = Component("a", Fraction(1)), Component("b", Fraction(2))
    with pytest.raises(ValueError):
        GraphDiagram((a, b), (("a", "c", 1),))
    with pytest.raises(ValueError):
        GraphDiagram((a, b), (("b", "a", 1),))  # out of component order
    with pytest.raises(ValueError):
        GraphDiagram((a, b), (("a", "b", 0),))
    with pytest.raises(ValueError):
        Component("bad id", Fraction(1))
    with pytest.raises(ValueError):
        Component("t", Fraction(1), torus=(4, 2))
    d = GraphDiagram((a, b), (("a", "b", 3),))
    assert d.lk("b", "a") == 3
    assert d.neighbors("a") == [("b", 3)]


def test_generalized_matrix_and_magnitude():
    d = unknot_diagram(Fraction(5, 3))
    assert generalized_linking_matrix(d) == [[5]]
    assert homology_magnitude(d) == 5
    d = unknot_diagram(2, -1, lk=[("x1", "x2", 1)])
    assert generalized_linking_matrix(d) == [[2, 1], [1, -1]]
    assert homology_magnitude(d) == 3
    d = unknot_diagram(Fraction(1, 2), Fraction(2, 3), lk=[("x1", "x2", 1)])
    assert generalized_linking_matrix(d) == [[1, 2], [3, 2]]
    assert homology_magnitude(d) == 4
    d = GraphDiagram((Component("k", Fraction(5), torus=(3, 2)),))
    assert homology_magnitude(d) == 5


def test_blow_up_unknot():
    d = unknot_diagram(0)
    d2, new = blow_up(d, {"x1": 1}, -1)
    assert d2.component("x1").coeff == -1
    assert d2.component(new).coeff == -1
    assert d2.lk("x1", new) == 1
    assert homology_magnitude(d2) == homology_magnitude(d) == 0
    # empty blowup just adds a split (+-1) circle
    d3, new = blow_up(d, {}, 1)
    assert d3.lk("x1", new) == 0
    assert homology_magnitude(d3) == 0


def test_blow_up_torus_band():
    d = GraphDiagram((Component("k", Fraction(3), torus=(7, 2)),))
    d, c1 = blow_up(d, {"k": 2}, -1)
    assert d.component("k").torus == (5, 2)
    assert d.component("k").coeff == -1
    assert d.lk("k", c1) == 2
    d, c2 = blow_up(d, {"k": 2}, -1)
    assert d.component("k").torus == (3, 2)
    assert d.lk(c1, c2) == 0
    d, _ = blow_up(d, {"k": 2}, -1)
    assert d.component("k").torus is None  # (1, 2) is the unknot
    assert d.component("k").coeff == 3 - 12
    assert homology_magnitude(d) == 3


def test_blow_up_errors():
    d = GraphDiagram((Component("k", Fraction(3), torus=(7, 2)),))
    with pytest.raises(MoveError):
        blow_up(d, {"k": 2}, 1)
    with pytest.raises(MoveError):
        blow_up(d, {"k": 1}, -1)
    with pytest.raises(MoveError):
        blow_up(d, {"missing": 1}, -1)
    with pytest.raises(MoveError):
        blow_up(d, {"k": 0}, -1)
    d = GraphDiagram((Component("k", Fraction(3), torus=(5, 3)),))
    with pytest.raises(MoveError):
        blow_up(d, {"k": 2}, -1)


def test_blow_down():
    d = unknot_diagram(3, -1, lk=[("x1", "x2", 1)])
    d2 = blow_down(d, "x2")
    assert d2.component("x1").coeff == 4
    assert len(d2.components) == 1
    with pytest.raises(MoveError):
        blow_down(unknot_diagram(2), "x1")
    with pytest.raises(MoveError):
        blow_down(unknot_diagram(Fraction(1, 2)), "x1")


def test_blow_up_blow_down_identity():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 4)
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        lk = []
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.randint(-2, 2)
                if v:
                    lk.append((f"x{i + 1}", f"x{j + 1}", v))
        d = unknot_diagram(*coeffs, lk=lk)
        strands = {
            f"x{i + 1}": rng.choice([-2, -1, 1, 2])
            for i in range(n)
            if rng.random() < 0.7
        }
        sign = rng.choice([1, -1])
        d2, new = blow_up(d, strands, sign)
        assert homology_magnitude(d2) == homology_magnitude(d)
        assert blow_down(d2, new) == d


def test_chain_collapse_to_single_knot():
    # a (-1) leaf at the end of a (-2)-chain eats the chain one blowdown
    # at a time and finally bumps the knot framing by one
    k = 3
    comps = [Component("k", Fraction(-4), torus=(5, 2))]
    comps += [Component(f"u{i + 1}", Fraction(-2)) for i in range(k)]
    comps += [Component("w", Fraction(-1))]
    lk = [("k", "u1", 1)]
    lk += [(f"u{i}", f"u{i + 1}", 1) for i in range(1, k)]
    lk += [(f"u{k}", "w", 1)]
    d = GraphDiagram(tuple(comps), tuple(lk))
    before = homology_magnitude(d)
    for cid in ["w"] + [f"u{i}" for i in range(k, 0, -1)]:
        d = blow_down(d, cid)
        assert homology_magnitude(d) == before
    assert d == GraphDiagram((Component("k", Fraction(-3), torus=(5, 2)),))


def test_handle_slide():
    d = unknot_diagram(-1, -1)
    d2 = handle_slide(d, "x1", "x2", -1)
    assert d2.component("x1").coeff == -2
    assert d2.lk("x1", "x2") == 1
    assert homology_magnitude(d2) == homology_magnitude(d)
    with pytest.raises(MoveError):
        handle_slide(d, "x1", "x1", -1)
    with pytest.raises(MoveError):
        handle_slide(unknot_diagram(Fraction(1, 2), 1), "x1", "x2", 1)
    t = GraphDiagram(
        (Component("k", Fraction(2), torus=(3, 2)), Component("u", Fraction(1)))
    )
    with pytest.raises(MoveError):
        handle_slide(t, "k", "u", 1)


def test_rolfsen_twist():
    d = unknot_diagram(Fraction(-3, 2), -2, lk=[("x1", "x2", 1)])
    d2 = rolfsen_twist(d, "x1", 1)
    assert d2.component("x1").coeff == 3
    assert d2.component("x2").coeff == -1
    assert homology_magnitude(d2) == homology_magnitude(d) == 4
    with pytest.raises(MoveError):
        rolfsen_twist(unknot_diagram(Fraction(1, 2)), "x1", -2)
    with pytest.raises(MoveError):
        rolfsen_twist(
            GraphDiagram((Component("k", Fraction(3), torus=(3, 2)),)), "k", 1
        )


def test_rolfsen_twist_updates_neighbor_pairs():
    d = unknot_diagram(
        Fraction(5, 3), 1, 2, lk=[("x1", "x2", 2), ("x1", "x3", 1), ("x2", "x3", 1)]
    )
    before = homology_magnitude(d)
    d2 = rolfsen_twist(d, "x1", -1)
    assert d2.lk("x2", "x3") == 1 + (-1) * 2 * 1
    assert d2.component("x2").coeff == 1 - 4
    assert homology_magnitude(d2) == before


def test_slam_dunk():
    d = unknot_diagram(-2, -2, lk=[("x1", "x2", 1)])
    d2 = slam_dunk(d, "x2")
    assert d2.component("x1").coeff == Fraction(-3, 2)
    assert homology_magnitude(d2) == homology_magnitude(d)
    d = unknot_diagram(-2, Fraction(-3, 2), lk=[("x1", "x2", -1)])
    assert slam_dunk(d, "x2").component("x1").coeff == Fraction(-4, 3)
    with pytest.raises(MoveError):
        slam_dunk(unknot_diagram(-2, -2, lk=[("x1", "x2", 2)]), "x2")
    with pytest.raises(MoveError):
        slam_dunk(unknot_diagram(Fraction(1, 2), -2, lk=[("x1", "x2", 1)]), "x2")
    with pytest.raises(MoveError):
        slam_dunk(unknot_diagram(-2, 0, lk=[("x1", "x2", 1)]), "x2")
    with pytest.raises(MoveError):
        slam_dunk(
            unknot_diagram(-2, -2, -2, lk=[("x1", "x3", 1), ("x2", "x3", 1)]), "x3"
        )


def test_rational_to_integer():
    d = unknot_diagram(Fraction(7, 5))
    d2, chain = rational_to_integer(d, "x1")
    assert [int(c.coeff) for c in d2.components] == [2, 2, 3]
    assert len(chain) == 2
    assert homology_magnitude(d2) == 7
    d = unknot_diagram(Fraction(-7, 5))
    d2, _ = rational_to_integer(d, "x1")
    assert [int(c.coeff) for c in d2.components] == [-2, -2, -3]
    assert homology_magnitude(d2) == 7
    d = unknot_diagram(Fraction(1, 2))
    d2, _ = rational_to_integer(d, "x1")
    assert [int(c.coeff) for c in d2.components] == [1, 2]
    d = unknot_diagram(Fraction(-1, 2))
    d2, _ = rational_to_integer(d, "x1")
    assert [int(c.coeff) for c in d2.components] == [0, 2]
    assert homology_magnitude(d2) == 1
    d = unknot_diagram(4)
    assert rational_to_integer(d, "x1") == (d, ())


def test_rational_to_integer_dunks_back():
    # the chain must dunk back down to the original coefficient
    for coeff in [Fraction(7, 5), Fraction(-9, 4), Fraction(3, 7), Fraction(-1, 3)]:
        d = unknot_diagram(coeff, 1, lk=[("x1", "x2", 1)])
        d2, chain = rational_to_integer(d, "x1")
        for cid in reversed(chain):
            d2 = slam_dunk(d2, cid)
        assert d2 == d


def test_move_invariance_bulk():
    rng = random.Random(20260817)
    for _ in range(200):
        n = rng.randint(2, 4)
        coeffs = [
            Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n)
        ]
        lk = []
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.randint(-2, 2)
                if v:
                    lk.append((f"x{i + 1}", f"x{j + 1}", v))
        d = unknot_diagram(*coeffs, lk=lk)
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
            a, b = rng.sample(integral, 2)
            d3 = handle_slide(d, a, b, rng.choice([1, -1]))
            assert homology_magnitude(d3) == mag

        cid = rng.choice([c.cid for c in d.components if not c.is_integral] or [None])
        if cid:
            d4, _ = rational_to_integer(d, cid)
            assert homology_magnitude(d4) == mag

        host = rng.choice(integral or [None])
        if host:
            leaf = Component("leaf", Fraction(rng.randint(-9, 9) or 3, rng.randint(1, 4)))
            d5 = GraphDiagram(
                d.components + (leaf,), d.linking + ((host, "leaf", rng.choice([1, -1])),)
            )
            assert homology_magnitude(slam_dunk(d5, "leaf")) == homology_magnitude(d5)


def sylvester_oracle(m):
    n = len(m)
    minors = [det_bareiss([row[: k + 1] for row in m[: k + 1]]) for k in range(n)]
    if minors[-1] == 0:
        return Definiteness.DEGENERATE
    if all(x > 0 for x in minors):
        return Definiteness.POSITIVE_DEFINITE
    if all((x > 0) == (k % 2 == 1) for k, x in enumerate(minors)):
        return Definiteness.NEGATIVE_DEFINITE
    return Definiteness.INDEFINITE


def test_definiteness_frozen():
    assert definiteness([[2, 1], [1, 2]]) is Definiteness.POSITIVE_DEFINITE
    assert definiteness([[-2, 1], [1, -2]]) is Definiteness.NEGATIVE_DEFINITE
    assert definiteness([[0, 1], [1, 0]]) is Definiteness.INDEFINITE
    assert definiteness([[1, 0], [0, -1]]) is Definiteness.INDEFINITE
    assert definiteness([[1, 1], [1, 1]]) is Definiteness.DEGENERATE
    assert definiteness([[0, 0], [0, 0]]) is Definiteness.DEGENERATE
    assert definiteness([[5]]) is Definiteness.POSITIVE_DEFINITE
    with pytest.raises(ValueError):
        definiteness([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        definiteness([])


def test_definiteness_against_minor_oracle():
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(1, 4)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = rng.randint(-4, 4)
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = rng.randint(-3, 3)
        want = sylvester_oracle(m)
        got = definiteness(m)
        if want is Definiteness.INDEFINITE and got is not Definiteness.INDEFINITE:
            # a zero leading minor with nonzero det is indefinite; the
            # oracle and the elimination agree on that, so mismatches
            # here would be real bugs
            pytest.fail(f"{m}: oracle {want}, got {got}")
        assert got == want


def _random_form(rng, n, family):
    if family == 0:  # arbitrary symmetric entries
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = rng.randint(-4, 4)
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = rng.randint(-2, 2)
        return m
    # +-B^T B for B of rank <= k: definite when k = n, degenerate when k < n
    k = n if family == 1 else rng.randint(1, n)
    b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
    sign = rng.choice((1, -1))
    m = [[sign * sum(r[i] * r[j] for r in b) for j in range(n)] for i in range(n)]
    if family == 3:  # perturb one symmetric pair
        i, j = rng.randrange(n), rng.randrange(n)
        d = rng.choice((1, -1))
        m[i][j] += d
        if i != j:
            m[j][i] += d
    if family == 4:  # force a zero leading principal minor D_1 or D_2
        if n == 1 or rng.random() < 0.5:
            m[0][0] = 0
        else:
            m[1][1] = m[0][1] = m[1][0] = m[0][0] or 1
    return m


def test_definiteness_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2004)
    seen = set()
    zero_minor_nondegenerate = 0
    for trial in range(250):
        n = rng.randint(1, 8)
        m = _random_form(rng, n, trial % 5)
        sm = sympy.Matrix(m)
        det = int(sm.det())
        if det == 0:
            want = Definiteness.DEGENERATE
        elif sm.is_positive_definite:
            want = Definiteness.POSITIVE_DEFINITE
        elif sm.is_negative_definite:
            want = Definiteness.NEGATIVE_DEFINITE
        else:
            want = Definiteness.INDEFINITE
        assert definiteness(m) is want, m
        assert det_bareiss(m) == det, m
        seen.add(want)
        leading = [det_bareiss([row[: k + 1] for row in m[: k + 1]]) for k in range(n)]
        zero_minor_nondegenerate += det != 0 and 0 in leading
    assert seen == set(Definiteness)
    assert zero_minor_nondegenerate >= 10


def test_moser_classification():
    c = moser_seifert(3, 2, Fraction(5))
    assert c.multiplicities == (3, 2, 1) and c.is_lens and not c.is_degenerate
    c = moser_seifert(5, 2, Fraction(9))
    assert c.multiplicities == (5, 2, 1) and c.is_lens
    c = moser_seifert(3, 2, Fraction(6))
    assert c.multiplicities == (3, 2, 0) and c.is_degenerate and not c.is_lens
    c = moser_seifert(3, 2, Fraction(17, 3))
    assert c.multiplicities == (3, 2, 1) and c.is_lens
    c = moser_seifert(3, 2, Fraction(7, 2))
    assert c.multiplicities == (3, 2, 5) and not c.is_lens
    with pytest.raises(ValueError):
        moser_seifert(4, 2, Fraction(1))


def leg_lengths(tree: PlumbingTree):
    adj = {vid: [] for vid, _ in tree.vertices}
    for a, b in tree.edges:
        adj[a].append(b)
        adj[b].append(a)
    centers = [v for v, nbrs in adj.items() if len(nbrs) == 3]
    assert len(centers) == 1
    center = centers[0]
    legs = []
    for start in adj[center]:
        length, prev, cur = 1, center, start
        while True:
            nxt = [x for x in adj[cur] if x != prev]
            if not nxt:
                break
            assert len(nxt) == 1
            prev, cur = cur, nxt[0]
            length += 1
        legs.append(length)
    return sorted(legs)


def exceptional_tree_case(n, r, vertex_count, det):
    tree = plumbing_presentation(n, Fraction(r))
    m = tree.intersection_matrix()
    assert len(tree.vertices) == vertex_count
    assert det_bareiss(m) == det
    assert definiteness(m) is Definiteness.POSITIVE_DEFINITE
    return tree


def test_plumbing_exceptional_forms():
    # surgeries 3, 2, 1 on the right trefoil give the three exceptional
    # star-shaped forms with legs (2,2,1), (3,2,1), (4,2,1)
    tree = exceptional_tree_case(1, 3, 6, 3)
    assert leg_lengths(tree) == [1, 2, 2]
    assert sorted(w for _, w in tree.vertices) == [2, 2, 2, 2, 2, 2]
    tree = exceptional_tree_case(1, 2, 7, 2)
    assert leg_lengths(tree) == [1, 2, 3]
    tree = exceptional_tree_case(1, 1, 8, 1)
    assert leg_lengths(tree) == [1, 2, 4]
    tree = exceptional_tree_case(2, 7, 6, 7)
    assert leg_lengths(tree) == [1, 2, 2]
    assert sorted(w for _, w in tree.vertices) == [2, 2, 2, 2, 2, 3]


def test_plumbing_sequence_labels():
    states = plumbing_move_sequence(3, Fraction(23, 4))
    labels = [lbl for lbl, _ in states]
    assert labels == [
        "start",
        "band-blowups",
        "ring-slides",
        "clasp-blowups",
        "dunked",
        "arm-slide",
        "twists",
        "integral",
    ]
    by = dict(states)
    assert by["dunked"].component("c3").coeff == Fraction(-7, 3)
    assert by["band-blowups"].component("k").coeff == Fraction(23, 4) - 12
    twisted = by["twists"]
    assert twisted.component("e2").coeff == 2
    assert twisted.component("e1").coeff == 2
    assert twisted.component("c3").coeff == Fraction(7, 4)
    assert twisted.component("k").coeff == Fraction(33, 29)
    final = by["integral"]
    assert all(c.is_integral for c in final.components)
    assert homology_magnitude(final) == 23


def test_plumbing_definite_on_interval():
    for n in (1, 2):
        lo, hi = 2 * n - 1, 4 * n
        samples = [Fraction(lo), Fraction(2 * lo + 1, 2), Fraction(hi) - 1,
                   Fraction(4 * hi - 1, 4), Fraction(lo + hi, 2)]
        for r in samples:
            assert lo <= r < hi
            tree = plumbing_presentation(n, r)
            m = tree.intersection_matrix()
            assert definiteness(m) is Definiteness.POSITIVE_DEFINITE
            assert abs(det_bareiss(m)) == abs(r.numerator)
        with pytest.raises(ValueError):
            plumbing_presentation(n, Fraction(hi))
        with pytest.raises(ValueError):
            plumbing_presentation(n, Fraction(hi) + 2)
    # below the interval the pipeline still runs and keeps homology
    tree = plumbing_presentation(1, Fraction(1, 2))
    assert abs(det_bareiss(tree.intersection_matrix())) == 1
    tree = plumbing_presentation(1, Fraction(0))
    assert definiteness(tree.intersection_matrix()) is Definiteness.DEGENERATE
    tree = plumbing_presentation(1, Fraction(-3))
    assert abs(det_bareiss(tree.intersection_matrix())) == 3


def test_graph_diagram_round_trip():
    d = GraphDiagram(
        (
            Component("k", Fraction(7, 2), torus=(5, 2)),
            Component("u", Fraction(-3)),
        ),
        (("k", "u", 2),),
    )
    text = format_graph_diagram(d)
    assert parse_graph_diagram(text) == d
    assert parse_graph_diagram("# comment\n\n" + text) == d
    with pytest.raises(ValueError):
        parse_graph_diagram("a unknot\n")
    with pytest.raises(ValueError):
        parse_graph_diagram("a b 1\n")  # linking before components exist


def test_plumbing_tree_round_trip():
    t = plumbing_presentation(1, Fraction(3))
    text = format_plumbing_tree(t)
    assert parse_plumbing_tree(text) == t
    with pytest.raises(ValueError):
        parse_plumbing_tree("a 2\na b\n")
    with pytest.raises(ValueError):
        PlumbingTree((("a", 2),), (("a", "a"),))


def test_definiteness_of_negated_form():
    m = plumbing_presentation(1, Fraction(1)).intersection_matrix()
    neg = [[-x for x in row] for row in m]
    assert definiteness(neg) is Definiteness.NEGATIVE_DEFINITE
