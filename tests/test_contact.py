import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from contactsurgery import contact
from contactsurgery.cfrac import neg_cf_value
from contactsurgery.contact import (
    MEMBER_BUDGET,
    WITNESS_M_BUDGET,
    ContactComponent,
    ContactDiagram,
    Fillability,
    LegendrianKnot,
    Member,
    PlusMinusPresentation,
    Tightness,
    UnsupportedKnotError,
    c1_coefficient,
    custom_knot,
    fillability_verdict,
    max_tb_legendrian,
    negative_surgery_to_legendrian,
    parse_knot,
    split_positive_surgery,
    tightness_verdict,
    torus_knot,
    translate,
    translate_single,
    twist_knot,
    unknot,
    witness_nonisomorphic,
)
from contactsurgery.homology import det_bareiss, h1_from_linking

from oracles import dense_linking_matrix, smooth_coefficient, witness_diagram


def test_torus_knot_table():
    t = torus_knot(3, 2)
    assert (t.slice_genus, t.max_tb, t.lspace_integer_slope) == (1, 1, 5)
    t = torus_knot(5, 2)
    assert (t.slice_genus, t.max_tb, t.lspace_integer_slope) == (2, 3, 9)
    t = torus_knot(7, 2)
    assert (t.slice_genus, t.max_tb, t.lspace_integer_slope) == (3, 5, 13)
    t = torus_knot(4, 3)
    assert (t.slice_genus, t.max_tb) == (3, 5)
    assert t.tb_is_maximal
    for bad in [(2, 3), (4, 2), (3, 3), (2, 2)]:
        with pytest.raises(ValueError):
            torus_knot(*bad)


def test_two_strand_family_slope():
    # the known integral small-Floer slope is 4n+1 for the (2n+1, 2) knot
    for n in range(1, 8):
        k = torus_knot(2 * n + 1, 2)
        assert k.max_tb == 2 * n - 1
        assert k.lspace_integer_slope == 4 * n + 1


def test_other_knots():
    t = twist_knot(-3)
    assert (t.slice_genus, t.max_tb, t.lspace_integer_slope) == (1, 1, None)
    with pytest.raises(ValueError):
        twist_knot(-1)
    u = unknot()
    assert (u.slice_genus, u.max_tb) == (0, -1)
    with pytest.raises(ValueError):
        custom_knot("bad", 1, 2)  # violates the slice-Bennequin bound
    c = custom_knot("k1", 2, 0)
    assert not c.tb_is_maximal


def test_parse_knot_round_trip():
    for text in ["torus:3,2", "torus:7,2", "twist:-4", "unknot", "custom:k1,2,3"]:
        assert parse_knot(text).name == text
    with pytest.raises(ValueError):
        parse_knot("granny")
    # a well-formed id outside the table keeps its constructor's message
    with pytest.raises(ValueError, match=r"^need p > q >= 2$"):
        parse_knot("torus:2,3")


@pytest.mark.parametrize("text", [
    "torus:3", "torus:3,2,1", "torus:a,b", "twist:x", "twist:", "twist:-2,1",
    "custom:a,b,c", "custom:k1,2", "custom:k1,2,3,4,5", "unknot:1", "torus",
])
def test_parse_knot_rejects_malformed_ids(text):
    with pytest.raises(ValueError) as info:
        parse_knot(text)
    assert str(info.value) == f"bad knot id {text!r}"


def test_legendrian_validation():
    tre = torus_knot(3, 2)
    max_tb_legendrian(tre)
    LegendrianKnot(tre, tb=-1, rot=0, stab_pos=1, stab_neg=1)
    with pytest.raises(ValueError):
        LegendrianKnot(tre, tb=2, rot=0)
    with pytest.raises(ValueError):
        LegendrianKnot(tre, tb=1, rot=0, stab_pos=1)
    leg = LegendrianKnot(tre, tb=-2, rot=1, stab_pos=2, stab_neg=1)
    assert leg.base_tb == 1 and leg.base_rot == 0


def test_smooth_coefficient():
    assert smooth_coefficient(1, Fraction(1)) == 2
    assert smooth_coefficient(1, Fraction(2)) == 3
    with pytest.raises(ValueError):
        smooth_coefficient(3, Fraction(0))


@given(st.integers(-30, 30), st.fractions(max_denominator=40))
def test_smooth_coefficient_inverts(t, r):
    if r != t:
        assert smooth_coefficient(t, r - t) == r


def test_split_positive_surgery():
    assert split_positive_surgery(Fraction(2), 1) == (Fraction(1), Fraction(-2))
    assert split_positive_surgery(Fraction(3, 2)) == (Fraction(1), Fraction(-3))
    assert split_positive_surgery(Fraction(1), 2) == (Fraction(1, 2), Fraction(-1))
    with pytest.raises(ValueError):
        split_positive_surgery(Fraction(1, 2), 1)
    with pytest.raises(ValueError):
        split_positive_surgery(Fraction(-2))
    with pytest.raises(ValueError):
        split_positive_surgery(Fraction(3, 2), 0)


@given(st.fractions(min_value=Fraction(1, 20), max_value=30, max_denominator=20))
def test_split_recombines_reciprocally(r):
    one_over_k, leftover = split_positive_surgery(r)
    assert leftover < 0
    assert 1 / one_over_k + 1 / leftover == 1 / r


def test_negative_recipe():
    r = negative_surgery_to_legendrian(Fraction(-1))
    assert r.expansion.terms == (2,) and r.budgets == (0,)
    assert translate_single(unknot(), Fraction(-1)).count_structures() == 1
    r = negative_surgery_to_legendrian(Fraction(-2))
    assert r.expansion.terms == (3,) and r.budgets == (1,)
    assert translate_single(unknot(), Fraction(-2)).count_structures() == 2
    r = negative_surgery_to_legendrian(Fraction(-9, 5))
    assert r.expansion.terms == (3, 5)
    assert r.budgets == (1, 3)
    assert translate_single(unknot(), Fraction(-9, 5)).count_structures() == 8
    with pytest.raises(ValueError):
        negative_surgery_to_legendrian(Fraction(1, 2))


def negative_chain(terms):
    # the contact surgery whose chain is governed by 1 - r = [terms]
    return translate_single(unknot(), 1 - neg_cf_value(terms))


def test_count_structures():
    assert negative_chain((3,)).count_structures() == 2
    assert negative_chain((2, 2, 2)).count_structures() == 1
    assert negative_chain((4, 3)).count_structures() == 6


def test_enumerate_choices():
    assert list(negative_chain((3,)).choices()) == [((1, 0),), ((0, 1),)]
    assert list(negative_chain((2,)).choices()) == [((0, 0),)]
    assert len(list(negative_chain((3, 3)).choices())) == 4


def test_enumerate_matches_count_exhaustively():
    # all expansions with terms in [2,6], length up to 4
    for length in range(1, 5):
        for terms in itertools.product(range(2, 7), repeat=length):
            pres = negative_chain(terms)
            assert [m.budget for m in pres.members] == [a - 2 for a in terms]
            choices = list(pres.choices())
            assert len(choices) == pres.count_structures()
            assert len(set(choices)) == len(choices)
            for entry in choices:
                for (pos, neg), a in zip(entry, terms):
                    assert pos >= 0 and neg >= 0 and pos + neg == a - 2


def test_c1_coefficient():
    assert c1_coefficient(6, 5) == 5
    assert c1_coefficient(2, 0) == -1
    for alpha in range(1, 41):
        for i in range(alpha):
            assert c1_coefficient(alpha, i) + c1_coefficient(alpha, alpha - 1 - i) == 0
        if alpha % 2 == 1:
            assert c1_coefficient(alpha, (alpha - 1) // 2) == 0
    with pytest.raises(ValueError):
        c1_coefficient(3, 3)
    with pytest.raises(ValueError):
        c1_coefficient(0, 0)


def test_translate_trefoil_plus_two():
    pres = translate_single(torus_knot(3, 2), Fraction(2))
    assert [(m.sign, m.tb, m.budget) for m in pres.members] == [(1, 1, 0), (-1, 0, 1)]
    assert pres.linking_matrix() == [[2, 1], [1, -1]]
    assert pres.count_structures() == 2
    variants = [pres.realize(c) for c in pres.choices()]
    assert [v[1].rot for v in variants] == [1, -1]
    assert all(v[0].rot == 0 for v in variants)


def test_translate_pushoff_chain():
    # 1/2 surgery: two (+1) pushoffs, linking tb
    pres = translate_single(torus_knot(3, 2), Fraction(1, 2))
    assert [(m.sign, m.tb, m.budget) for m in pres.members] == [(1, 1, 0), (1, 1, 0)]
    assert pres.linking_matrix() == [[2, 1], [1, 2]]
    assert abs(det_bareiss(pres.linking_matrix())) == 3  # |num(1 + 1/2)|


def test_translate_negative_chain_tbs():
    pres = translate_single(unknot(), Fraction(-9, 5))
    assert [(m.sign, m.tb, m.budget) for m in pres.members] == [
        (-1, -2, 1),
        (-1, -5, 3),
    ]
    m = pres.linking_matrix()
    assert m == [[-3, -2], [-2, -6]]
    assert abs(det_bareiss(m)) == 14  # |num(-1 - 9/5)|


def test_translate_member_budget():
    k = MEMBER_BUDGET
    assert len(translate_single(torus_knot(3, 2), Fraction(1, k)).members) == k
    assert len(translate_single(unknot(), Fraction(-1, k)).members) == k
    # two components share one budget
    leg = max_tb_legendrian(unknot())
    half = ContactComponent(leg, Fraction(1, k // 2))
    with pytest.raises(ValueError, match="budget"):
        translate(ContactDiagram((half, ContactComponent(leg, Fraction(-1, k // 2 + 1)))))
    for r in (Fraction(1, k + 1), Fraction(-1, k + 1), Fraction(-2, 2 * k + 3)):
        with pytest.raises(ValueError, match="budget"):
            translate_single(unknot(), r)


def test_witness_diagram_homology():
    for alpha in range(1, 12):
        pres = translate(witness_diagram(alpha))
        h = pres.first_homology()
        assert h.orders == (2 * alpha + 3,)
        assert h.free_rank == 0


def test_witness_diagram_shape():
    d = witness_diagram(4)
    assert len(d.components) == 2
    assert d.linking_between(0, 1) == 1
    pres = translate(d)
    assert pres.linking_matrix() == [[2, 1], [1, -5]]


knot_strategy = st.builds(
    lambda tb: custom_knot("k", max(0, (tb + 1 + 1) // 2 + 1), tb),
    st.integers(-6, 6),
)
coeff_strategy = st.fractions(max_denominator=12).filter(lambda r: r != 0).map(
    lambda r: max(min(r, Fraction(12)), Fraction(-12))
)


@settings(max_examples=300, deadline=None)
@given(knot_strategy, coeff_strategy)
def test_translation_soundness(knot, r):
    # the (+-1)-presentation must present a manifold with the right |H1|
    pres = translate_single(knot, r)
    smooth = smooth_coefficient(knot.max_tb, r)
    assert abs(det_bareiss(pres.linking_matrix())) == abs(smooth.numerator)
    assert all(m.sign in (1, -1) for m in pres.members)


@settings(max_examples=120, deadline=None)
@given(knot_strategy, coeff_strategy)
def test_realize_consistency(knot, r):
    pres = translate_single(knot, r)
    choices = list(pres.choices())
    for choice in choices:
        link = pres.realize(choice)
        for leg, mem in zip(link, pres.members):
            assert leg.tb == mem.tb
            assert leg.rot == mem.base_rot + leg.stab_pos - leg.stab_neg
            assert leg.stab_pos + leg.stab_neg == mem.budget
    assert len(choices) == pres.count_structures()
    assert len(set(choices)) == len(choices)


def test_witness_report_m2():
    rep = witness_nonisomorphic(2)
    assert rep.primes == (3, 5)
    assert rep.alpha == 6
    assert tuple(e.i for e in rep.entries) == (5, 4)
    assert tuple(e.order for e in rep.entries) == (3, 5)
    assert rep.group_order == 15
    assert rep.surgery_slope == Fraction(15, 7)


def test_witness_report_windows():
    assert witness_nonisomorphic(1).primes == (7,)
    assert witness_nonisomorphic(3).primes == (11, 13, 17)
    assert witness_nonisomorphic(3).alpha == 1214
    for m in range(1, 7):
        rep = witness_nonisomorphic(m)
        assert rep.product % 4 == 3 and rep.product > 3
        assert rep.group_order == rep.product == 2 * rep.alpha + 3
        orders = [e.order for e in rep.entries]
        assert orders == list(rep.primes)
        assert len(set(orders)) == len(orders)
        for e in rep.entries:
            assert 0 <= e.i <= rep.alpha - 1
            assert e.c1 == rep.product // e.prime


def test_witness_budget():
    rep = witness_nonisomorphic(WITNESS_M_BUDGET)
    assert len(rep.entries) == WITNESS_M_BUDGET
    # the product stays printable: below the 4300-digit int-to-str limit
    assert len(str(rep.product)) < 4300
    with pytest.raises(ValueError, match="budget"):
        witness_nonisomorphic(WITNESS_M_BUDGET + 1)


def test_witness_bound_exhaustion():
    from contactsurgery.contact import SearchExhaustedError

    with pytest.raises(SearchExhaustedError):
        witness_nonisomorphic(2, search_bound=2)


def test_tightness_verdicts():
    tre = torus_knot(3, 2)
    assert tightness_verdict(tre, Fraction(2)).kind is Tightness.TIGHT_NONZERO_INVARIANT
    assert tightness_verdict(tre, Fraction(0)).kind is Tightness.STEIN_FILLABLE
    v = tightness_verdict(tre, Fraction(1))
    assert v.kind is Tightness.EXCLUDED and v.presentation is None
    v = tightness_verdict(tre, Fraction(-1, 2))
    assert v.kind is Tightness.STEIN_FILLABLE
    assert v.contact_slope == Fraction(-3, 2)
    assert v.structure_count == 2  # 1 - (-3/2) = 5/2 = [3,2]: budgets (1,0)
    assert tightness_verdict(twist_knot(-2), Fraction(0)).kind is Tightness.STEIN_FILLABLE
    with pytest.raises(UnsupportedKnotError):
        tightness_verdict(unknot(), Fraction(1))
    with pytest.raises(UnsupportedKnotError):
        tightness_verdict(custom_knot("k", 2, 0), Fraction(1))


def test_tightness_recipe_matches_slope():
    tre = torus_knot(5, 2)
    for r in [Fraction(7), Fraction(9, 2), Fraction(-3), Fraction(10, 3)]:
        v = tightness_verdict(tre, r)
        m = v.presentation.linking_matrix()
        assert abs(det_bareiss(m)) == abs(r.numerator)


def test_fillability_verdicts():
    v = fillability_verdict(1, Fraction(2))
    assert v.kind is Fillability.NO_FILLABLE and v.certificate_required
    assert v.interval == (Fraction(1), Fraction(4))
    v = fillability_verdict(2, Fraction(3))
    assert v.kind is Fillability.NO_FILLABLE
    v = fillability_verdict(1, Fraction(4))
    assert v.kind is Fillability.STEIN_FILLABLE
    assert v.recipe_coefficients == (Fraction(-2), None)
    v = fillability_verdict(1, Fraction(5))
    assert v.recipe_coefficients == (Fraction(-2), Fraction(-1))
    v = fillability_verdict(1, Fraction(9, 2))
    assert v.recipe_coefficients == (Fraction(-2), Fraction(-2))
    v = fillability_verdict(2, Fraction(17, 2))
    assert v.recipe_coefficients == (Fraction(-3, 2), Fraction(-2))
    v = fillability_verdict(1, Fraction(1, 2))
    assert v.kind is Fillability.STEIN_FILLABLE
    assert v.presentation is not None
    assert abs(det_bareiss(v.presentation.linking_matrix())) == 1
    with pytest.raises(ValueError):
        fillability_verdict(0, Fraction(1))


def test_diagram_validation():
    pushoff = ContactDiagram(
        (
            ContactComponent(max_tb_legendrian(torus_knot(3, 2)), Fraction(1)),
            ContactComponent(
                LegendrianKnot(torus_knot(3, 2), 1, 0), Fraction(-1), parent=0
            ),
        )
    )
    assert pushoff.linking_between(0, 1) == 1  # parent link carries tb
    u = ContactComponent(LegendrianKnot(unknot(), -1, 0), Fraction(-2))
    with pytest.raises(ValueError):
        ContactDiagram((u,), linking=((0, 0, 1),))
    with pytest.raises(ValueError):
        ContactDiagram((u, u), linking=((0, 1, 1), (0, 1, 2)))
    with pytest.raises(ValueError):
        ContactComponent(LegendrianKnot(unknot(), -1, 0), Fraction(0))


KNOTS = (unknot(), torus_knot(3, 2), torus_knot(5, 2), twist_knot(-2))


def _random_diagram(rng, sources, top, den):
    """Sources on random knots below max tb, coefficients p/q with
    0 < |p| <= top and q <= den, random linking between sources."""
    comps = []
    for _ in range(sources):
        knot = rng.choice(KNOTS)
        leg = LegendrianKnot(knot, knot.max_tb - rng.randint(0, 2), rng.randint(-1, 1))
        r = Fraction(rng.choice((-1, 1)) * rng.randint(1, top), rng.randint(1, den))
        comps.append(ContactComponent(leg, r))
    linking = tuple(
        (i, j, rng.randint(-3, 3))
        for i in range(sources) for j in range(i + 1, sources) if rng.random() < 0.7
    )
    return ContactDiagram(tuple(comps), linking)


def _assert_presents(a, h):
    """Every relation column of a vanishes on the meridian images."""
    mods = h.orders + (0,) * h.free_rank
    assert len(h.generator_map) == len(a)
    for j in range(len(a)):
        for t, d in enumerate(mods):
            total = sum(a[i][j] * h.generator_map[i][t] for i in range(len(a)))
            assert total % d == 0 if d else total == 0, (a, h)


def test_first_homology_against_dense_oracle():
    rng = random.Random(2004)
    cases = [translate(witness_diagram(alpha)) for alpha in range(1, 9)]
    for k in range(1, 21):
        for knot in KNOTS:
            for r in (Fraction(1, k), Fraction(-1, k), Fraction(7, k), Fraction(-k, 3)):
                cases.append(translate_single(knot, r))
    zero = ContactComponent(max_tb_legendrian(unknot()), Fraction(1))  # framing 0
    cases.append(translate(ContactDiagram((zero, zero))))  # Z^2
    while len(cases) < 600:
        pres = translate(_random_diagram(rng, rng.randint(1, 3), 6, 3))
        if len(pres.members) <= 6:
            cases.append(pres)
    while len(cases) < 660:
        pres = translate(_random_diagram(rng, 3, 12, 6))
        if len(pres.members) <= 18:
            cases.append(pres)
    sources = set()
    free = 0
    for pres in cases:
        a = pres.linking_matrix()
        h, want = pres.first_homology(), h1_from_linking(a)
        assert (h.orders, h.free_rank) == (want.orders, want.free_rank), a
        _assert_presents(a, h)
        sources.add(len({m.source for m in pres.members}))
        free += h.free_rank > 0
    assert sources == {1, 2, 3}
    assert free >= 20


def test_linking_matrix_against_dense_oracle():
    rng = random.Random(1915)
    # the nine-member three-source diagram on which the dense Smith form stalled
    stall = translate(ContactDiagram(
        (ContactComponent(LegendrianKnot(unknot(), -2, 0), Fraction(-8, 3)),
         ContactComponent(LegendrianKnot(twist_knot(-2), 1, 0), Fraction(-1, 2)),
         ContactComponent(LegendrianKnot(torus_knot(3, 2), 1, 0), Fraction(5))),
        ((0, 1, 3), (0, 2, 3), (1, 2, -3)),
    ))
    cases = [stall, translate(witness_diagram(3)), translate_single(torus_knot(3, 2), Fraction(1, 7))]
    cases += [translate(_random_diagram(rng, rng.randint(1, 3), 12, 6)) for _ in range(150)]
    interleaved = 0
    for pres in cases[:]:  # the same members, sources interleaved
        members = list(pres.members)
        rng.shuffle(members)
        cases.append(PlusMinusPresentation(pres.diagram, tuple(members)))
        changes = sum(1 for a, b in zip(members, members[1:]) if a.source != b.source)
        interleaved += changes >= len({m.source for m in members})
    assert interleaved >= 50
    for pres in cases:
        assert pres.linking_matrix() == dense_linking_matrix(pres)
    assert len({m.source for m in stall.members}) == 3 and len(stall.members) == 9


def test_first_homology_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(136)
    cases = [translate(_random_diagram(rng, 3, 12, 6)) for _ in range(60)]
    # the nine-member diagram on which the dense Smith form stalls
    cases.append(translate(ContactDiagram(
        (ContactComponent(LegendrianKnot(unknot(), -2, 0), Fraction(-8, 3)),
         ContactComponent(LegendrianKnot(twist_knot(-2), 1, 0), Fraction(-1, 2)),
         ContactComponent(LegendrianKnot(torus_knot(3, 2), 1, 0), Fraction(5))),
        ((0, 1, 3), (0, 2, 3), (1, 2, -3)),
    )))
    for pres in cases:
        a = pres.linking_matrix()
        diag = list(sympy_snf(sympy.Matrix(a), domain=sympy.ZZ).diagonal())
        h = pres.first_homology()
        assert h.orders == tuple(abs(int(d)) for d in diag if abs(d) > 1)
        assert h.free_rank == diag.count(0)
        _assert_presents(a, h)
    assert max(len(pres.members) for pres in cases) >= 15


def test_first_homology_needs_unit_signs():
    pres = PlusMinusPresentation(
        ContactDiagram((ContactComponent(max_tb_legendrian(unknot()), Fraction(1)),)),
        (Member(0, 2, -1, 0, 0),),
    )
    with pytest.raises(ValueError, match="sign"):
        pres.first_homology()


def test_witness_self_check_survives_optimize(monkeypatch):
    # the checks are raises, not asserts, so python -O keeps them
    monkeypatch.setattr(contact, "order_in_cyclic", lambda n, x: 1)
    with pytest.raises(RuntimeError, match="self-check"):
        witness_nonisomorphic(2)
