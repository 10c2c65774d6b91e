import random
from collections import Counter
from fractions import Fraction

import pytest

from contactsurgery import kirby
from contactsurgery.cfrac import neg_cf_length
from contactsurgery.homology import Definiteness, definiteness, det_bareiss
from contactsurgery.kirby import (
    PLUMBING_N_BUDGET,
    PLUMBING_VERTEX_BUDGET,
    Component,
    GraphDiagram,
    InternalConsistencyError,
    MoveError,
    PlumbingTree,
    blow_down,
    blow_up,
    format_graph_diagram,
    format_plumbing_tree,
    handle_slide,
    moser_seifert,
    parse_graph_diagram,
    parse_plumbing_tree,
    plumbing_move_sequence,
    plumbing_presentation,
    rational_to_integer,
    rolfsen_twist,
    slam_dunk,
)

from oracles import (
    copying_plumbing_move_sequence,
    generalized_linking_matrix,
    homology_magnitude,
    intersection_matrix,
    union_find_components,
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
    m = intersection_matrix(tree)
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


def test_pipeline_against_copying_oracle():
    # below, at and inside [2n - 1, 4n): negative, integral and fractional
    for n in range(1, 9):
        lo, hi = 2 * n - 1, 4 * n
        slopes = [Fraction(-3), Fraction(-7, 3), Fraction(0), Fraction(1, 2),
                  Fraction(lo) - Fraction(1, 5), Fraction(lo), Fraction(3 * lo + 1, 3),
                  Fraction(hi - 1), Fraction(7 * hi - 1, 7)]
        for r in slopes:
            assert plumbing_move_sequence(n, r) == copying_plumbing_move_sequence(n, r)


def test_pipeline_builds_only_labeled_states(monkeypatch):
    built = []
    post_init = GraphDiagram.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(GraphDiagram, "__post_init__", counting)
    for n in (1, 5, 30):
        built.clear()
        states = plumbing_move_sequence(n, Fraction(4 * n - 1))
        assert len(built) == 8
        assert [d for _, d in states] == built


def test_failed_move_leaves_working_diagram_unchanged():
    d = GraphDiagram(
        (
            Component("k", Fraction(3), torus=(5, 2)),
            Component("x1", Fraction(-2)),
            Component("x2", Fraction(1, 2)),
            Component("x3", Fraction(0)),
            Component("x4", Fraction(3)),
        ),
        (("k", "x1", 1), ("x1", "x2", 2), ("x1", "x3", 1), ("x2", "x4", 1)),
    )
    # each move's first precondition, then one checked after others pass
    failing = [
        ("blow_up", {"x1": 1}, 2, None),
        ("blow_up", {"x1": 1, "x2": 2}, -1, "x3"),
        ("blow_up", {"x1": 1, "x2": 2}, -1, "bad id"),
        ("blow_down", "missing"),
        ("blow_down", "x1"),
        ("handle_slide", "x1", "x1", 1),
        ("handle_slide", "x1", "x2", 1),
        ("rolfsen_twist", "k", 1),
        ("rolfsen_twist", "x2", -2),
        ("slam_dunk", "k"),
        ("slam_dunk", "x4"),
        ("rational_to_integer", "missing", None),
        ("rational_to_integer", "x2", "bad id"),
    ]
    for name, *args in failing:
        w = kirby._Diagram(d)
        with pytest.raises(ValueError):
            getattr(w, name)(*args)
        assert w.build() == d, name


def test_plumbing_definite_on_interval():
    for n in (1, 2):
        lo, hi = 2 * n - 1, 4 * n
        samples = [Fraction(lo), Fraction(2 * lo + 1, 2), Fraction(hi) - 1,
                   Fraction(4 * hi - 1, 4), Fraction(lo + hi, 2)]
        for r in samples:
            assert lo <= r < hi
            tree = plumbing_presentation(n, r)
            m = intersection_matrix(tree)
            assert definiteness(m) is Definiteness.POSITIVE_DEFINITE
            assert abs(det_bareiss(m)) == abs(r.numerator)
        with pytest.raises(ValueError):
            plumbing_presentation(n, Fraction(hi))
        with pytest.raises(ValueError):
            plumbing_presentation(n, Fraction(hi) + 2)
    # below the interval the pipeline still runs and keeps homology
    tree = plumbing_presentation(1, Fraction(1, 2))
    assert abs(det_bareiss(intersection_matrix(tree))) == 1
    tree = plumbing_presentation(1, Fraction(0))
    assert definiteness(intersection_matrix(tree)) is Definiteness.DEGENERATE
    tree = plumbing_presentation(1, Fraction(-3))
    assert abs(det_bareiss(intersection_matrix(tree))) == 3


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
    m = intersection_matrix(plumbing_presentation(1, Fraction(1)))
    neg = [[-x for x in row] for row in m]
    assert definiteness(neg) is Definiteness.NEGATIVE_DEFINITE


def _random_forest(rng, n):
    """Weights in [-3, 3]; vertices listed in a shuffled order, so leaves
    and roots of the leaf-first pass fall anywhere in the list."""
    label = list(range(n))
    rng.shuffle(label)
    vertices = tuple((f"v{i}", rng.randint(-3, 3)) for i in range(n))
    edges = tuple(
        (f"v{label[i]}", f"v{label[rng.randrange(i)]}")
        for i in range(1, n)
        if rng.random() < 0.9  # sometimes a forest
    )
    return PlumbingTree(vertices, edges)


def test_tree_form_against_dense_elimination():
    rng = random.Random(1981)
    seen = set()
    hyperbolic = kernel = 0
    for trial in range(3000):
        tree = _random_forest(rng, rng.randint(1, 9))
        m = intersection_matrix(tree)
        assert tree.determinant == det_bareiss(m), tree
        assert tree.definiteness is definiteness(m), tree
        seen.add(tree.definiteness)
        found = tree._leaf_first()
        if found is None:  # a zero pivot with no parent left
            kernel += 1
            assert tree.definiteness is Definiteness.DEGENERATE
        else:
            hyperbolic += found[1] > 0  # a zero pivot at a leaf with a parent
    assert seen == set(Definiteness)
    assert hyperbolic >= 100 and kernel >= 100
    # a zero leaf beside its parent is a hyperbolic pair; a lone zero is in the radical
    pair = PlumbingTree((("a", 5), ("b", 0)), (("a", "b"),))
    assert (pair.determinant, pair.definiteness) == (-1, Definiteness.INDEFINITE)
    assert PlumbingTree((("a", 0), ("b", 0)), ()).definiteness is Definiteness.DEGENERATE


def _random_graph(rng, n):
    """A random tree on n vertices, less some edges (a forest) or plus
    some chords (cycles); vertices, edges and their ends in shuffled order."""
    ids = [f"v{i}" for i in range(n)]
    rng.shuffle(ids)
    edges = [(ids[i], ids[rng.randrange(i)]) for i in range(1, n)]
    shape = rng.choice(("tree", "forest", "cycles"))
    if shape == "forest":
        edges = [e for e in edges if rng.random() < 0.7]
    elif shape == "cycles":
        used = {frozenset(e) for e in edges}
        chords = [
            (a, b) for i, a in enumerate(ids) for b in ids[:i] if frozenset((a, b)) not in used
        ]
        edges += rng.sample(chords, min(len(chords), rng.randint(1, 3)))
    rng.shuffle(edges)
    edges = [e if rng.random() < 0.5 else e[::-1] for e in edges]
    return PlumbingTree(tuple((vid, rng.randint(-3, 3)) for vid in ids), tuple(edges))


def test_walk_against_union_find():
    rng = random.Random(2004)
    seen = Counter()
    for trial in range(2000):
        tree = _random_graph(rng, rng.randint(0, 9))
        components = union_find_components(tree.vertices, tree.edges)
        assert tree.is_tree() == (components == 1), tree
        if components is None:
            seen["cycle"] += 1
            with pytest.raises(ValueError, match="cycle"):
                tree.determinant
        elif components == 0:
            seen["empty"] += 1
            with pytest.raises(ValueError, match="nonempty"):
                tree.determinant
        else:
            seen["tree" if components == 1 else "forest"] += 1
            assert tree.determinant == det_bareiss(intersection_matrix(tree)), tree
        for vid, w in tree.vertices:
            assert tree.weight(vid) == w
        with pytest.raises(KeyError):
            tree.weight("absent")
    assert min(seen[k] for k in ("tree", "forest", "cycle", "empty")) >= 100, seen


def test_tree_form_on_plumbings():
    for n, r in ((1, Fraction(3)), (2, Fraction(7, 2)), (11, Fraction(-100, 37)), (3, Fraction(0))):
        tree = plumbing_presentation(n, r)
        m = intersection_matrix(tree)
        assert (tree.determinant, tree.definiteness) == (det_bareiss(m), definiteness(m))


def test_tree_form_needs_a_forest():
    square = PlumbingTree(
        tuple((v, 2) for v in "abcd"), (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"))
    )
    with pytest.raises(ValueError, match="cycle"):
        square.determinant
    with pytest.raises(ValueError):
        PlumbingTree((), ()).definiteness


def test_plumbing_budget():
    with pytest.raises(ValueError, match="budget"):
        plumbing_move_sequence(PLUMBING_N_BUDGET + 1, Fraction(2))


def test_plumbing_vertex_count_is_known_before_any_move():
    rng = random.Random(47)
    slopes = [(1, Fraction(2)), (2, Fraction(15, 2)), (3, Fraction(0)), (11, Fraction(-100, 37))]
    for _ in range(60):
        n, q = rng.randint(1, 6), rng.randint(1, 40)
        slopes.append((n, Fraction(rng.randint(-3 * q, 4 * n * q - 1), q)))
    for n, r in slopes:
        size = 4 + neg_cf_length((r - 4 * n - 2) / (r - 4 * n - 1))
        assert len(plumbing_presentation(n, r).vertices) == size, (n, r)


def test_plumbing_vertex_budget(monkeypatch):
    # at n = 1 the slope (2q + 1)/q gives a tree of q + 5 vertices
    q = PLUMBING_VERTEX_BUDGET - 5
    assert len(plumbing_presentation(1, Fraction(2 * q + 1, q)).vertices) == PLUMBING_VERTEX_BUDGET

    def no_moves(*args):
        raise AssertionError("a diagram was built over the budget")

    monkeypatch.setattr(kirby, "GraphDiagram", no_moves)
    with pytest.raises(ValueError, match="budget"):
        plumbing_presentation(1, Fraction(2 * q + 3, q + 1))


def test_negated_pairing_matches_the_dense_form():
    rng = random.Random(53)
    for _ in range(40):
        size = rng.randint(1, 9)
        vertices = tuple((f"v{i}", rng.randint(-4, 4)) for i in range(size))
        edges = tuple((f"v{rng.randrange(i)}", f"v{i}") for i in range(1, size))
        tree = PlumbingTree(vertices, edges)
        m = intersection_matrix(tree)
        x = [rng.randint(-3, 3) for _ in range(size)]
        y = [rng.randint(-3, 3) for _ in range(size)]
        dense = -sum(x[i] * m[i][j] * y[j] for i in range(size) for j in range(size))
        assert tree.negated_pairing(x, y) == dense == tree.negated_pairing(y, x)
    with pytest.raises(ValueError, match="length"):
        tree.negated_pairing(x + [0], y)
    with pytest.raises(ValueError, match="length"):
        tree.negated_pairing(x, y[:-1])


def test_plumbing_self_check_survives_optimize(monkeypatch):
    # the check is a raise, not an assert, so python -O keeps it
    states = plumbing_move_sequence(1, Fraction(3))
    monkeypatch.setattr(kirby, "plumbing_move_sequence", lambda n, r: states[:-1])
    with pytest.raises(InternalConsistencyError, match="twists"):
        plumbing_presentation(1, Fraction(3))
