import itertools
import json
import math
from fractions import Fraction

import pytest

from contactsurgery.certificate import donaldson_certificate
from contactsurgery.contact import torus_knot, twist_knot, unknot
from contactsurgery.floer import (
    CHAIN_BUDGET,
    DerivationChain,
    DerivationStep,
    SlopeKnowledge,
    knowledge_for,
    lspace_propagate,
    verify_chain,
)

from floer_ledger import (
    DimLedger,
    InconsistentLedgerError,
    NotApplicableError,
    SurfaceData,
    Triangle,
    adjunction_surface,
    ledger_deduce,
    lens_dim,
    lspace_check,
    small_rank_descent,
    vanishing_predicate,
)
from oracles import bfs_lspace_propagate


def test_vanishing_predicate():
    assert not vanishing_predicate(SurfaceData(1, 0, 0))
    assert vanishing_predicate(SurfaceData(1, 1, 0))
    assert vanishing_predicate(SurfaceData(1, 0, 1))
    assert vanishing_predicate(SurfaceData(2, 3, 2))
    assert not vanishing_predicate(SurfaceData(3, 2, 1))  # 3 <= 4
    with pytest.raises(NotApplicableError):
        vanishing_predicate(SurfaceData(0, 2, 0))
    with pytest.raises(NotApplicableError):
        vanishing_predicate(SurfaceData(2, -1, 0))


def test_adjunction_surface():
    s = adjunction_surface(1, 1)
    assert (s.genus, s.self_intersection, s.c1_evaluation) == (1, 2, 0)
    s = adjunction_surface(3, 2)
    assert (s.genus, s.self_intersection) == (8, 21)
    for t in (1, 3, 5, 7, 9):
        for k in range(1, 11):
            s = adjunction_surface(t, k)
            assert s.self_intersection - (2 * s.genus - 1) == t * k
            assert vanishing_predicate(s)
    with pytest.raises(ValueError):
        adjunction_surface(2, 1)
    with pytest.raises(ValueError):
        adjunction_surface(3, 0)


def test_lens_dim():
    assert lens_dim(5, 4) == 5
    assert lens_dim(1, 1) == 1
    assert lens_dim(7, 2) == 7
    with pytest.raises(ValueError):
        lens_dim(6, 4)
    with pytest.raises(ValueError):
        lens_dim(0, 1)


def test_lspace_check():
    assert lspace_check(5, 5)
    assert not lspace_check(7, 5)
    with pytest.raises(ValueError):
        lspace_check(3, 5)
    with pytest.raises(ValueError):
        lspace_check(3, 0)


def test_triangle_validation():
    Triangle(("a", "b", "c"))
    t = Triangle(("a", "b", "c"), zero_map=("a", "c"))
    assert t.split_corner() == "b"
    assert Triangle(("a", "b", "c")).split_corner() is None
    with pytest.raises(ValueError):
        Triangle(("a", "a", "b"))
    with pytest.raises(ValueError):
        Triangle(("a", "b", "c"), zero_map=("a", "d"))
    with pytest.raises(ValueError):
        Triangle(("a", "b", "c"), zero_map=("b", "b"))


def test_ledger_basics():
    led = DimLedger((("a", 1), ("b", 4)))
    assert led.dim("a") == 1
    assert led.dim("missing") is None
    led2 = led.with_dim("c", 2)
    assert led2.dim("c") == 2 and led.dim("c") is None
    assert led.with_dim("a", 1) is led
    with pytest.raises(InconsistentLedgerError):
        led.with_dim("a", 2)
    with pytest.raises(ValueError):
        DimLedger((("a", 1), ("a", 2)))
    with pytest.raises(ValueError):
        DimLedger((("a", -1),))
    assert json.loads(led.to_json()) == {"a": 1, "b": 4}


def test_ledger_deduce_split_triangle():
    led = DimLedger((("s3", 1), ("big", 7)))
    tri = Triangle(("s3", "small", "big"), zero_map=("s3", "small"))
    out = ledger_deduce(led, [tri])
    assert out.dim("small") == 6
    # two known legs deduce the split corner instead
    led = DimLedger((("s3", 1), ("small", 6)))
    out = ledger_deduce(led, [tri])
    assert out.dim("big") == 7
    # chains of triangles propagate
    led = DimLedger((("s3", 1), ("top", 5)))
    tris = [
        Triangle(("s3", "mid", "top"), zero_map=("s3", "mid")),
        Triangle(("s3", "low", "mid"), zero_map=("s3", "low")),
    ]
    out = ledger_deduce(led, tris)
    assert out.dim("mid") == 4 and out.dim("low") == 3


def test_ledger_deduce_inconsistencies():
    # the rank inequality fails at the 7 corner: 7 > 1 + 5
    led = DimLedger((("a", 1), ("b", 5), ("c", 7)))
    with pytest.raises(InconsistentLedgerError):
        ledger_deduce(led, [Triangle(("a", "b", "c"))])
    # a split triangle with all corners known must balance exactly
    led = DimLedger((("a", 1), ("b", 5), ("c", 5)))
    with pytest.raises(InconsistentLedgerError):
        ledger_deduce(led, [Triangle(("a", "b", "c"), zero_map=("a", "b"))])
    # deduced dimensions cannot go negative
    led = DimLedger((("a", 5), ("c", 2)))
    with pytest.raises(InconsistentLedgerError):
        ledger_deduce(led, [Triangle(("a", "b", "c"), zero_map=("a", "b"))])


def test_small_rank_descent():
    for n in range(1, 6):
        led = small_rank_descent(n)
        assert led.dim("s3") == 1
        for m in range(2 * n - 1, 4 * n + 2):
            assert led.dim(f"surgery-{m}") == m
    with pytest.raises(ValueError):
        small_rank_descent(0)
    with pytest.raises(ValueError):
        small_rank_descent(6)


@pytest.mark.parametrize("n", range(1, 6))
def test_descent_ledger_checks_the_closed_form_chains(n):
    # the exact triangles give every integer m in [2n-1, 4n+1] dimension
    # m, and the closed-form chain from the tabulated seed reaches exactly
    # those slopes by rules verify_chain accepts
    ledger = small_rank_descent(n)
    kb = knowledge_for(torus_knot(2 * n + 1, 2))
    for m in range(2 * n - 1, 4 * n + 2):
        assert ledger.dim(f"surgery-{m}") == m
        chain = lspace_propagate(kb, Fraction(m))
        assert chain is not None and verify_chain(kb, chain), m
    assert lspace_propagate(kb, Fraction(2 * n - 2)) is None


def test_knowledge_validation():
    kb = knowledge_for(torus_knot(3, 2))
    assert kb.seeds == (5,) and kb.floor_slope == 1
    assert knowledge_for(torus_knot(7, 2)).seeds == (13,)
    with pytest.raises(ValueError):
        knowledge_for(unknot())  # slice genus 0
    with pytest.raises(ValueError):
        knowledge_for(twist_knot(-2))  # nothing tabulated
    with pytest.raises(ValueError):
        SlopeKnowledge(torus_knot(3, 2), ())
    with pytest.raises(ValueError):
        SlopeKnowledge(torus_knot(3, 2), (0,))


def test_propagate_seed_query():
    kb = knowledge_for(torus_knot(3, 2))
    chain = lspace_propagate(kb, Fraction(5))
    assert [s.kind for s in chain.steps] == ["seed"]
    assert verify_chain(kb, chain)


def test_propagate_three_halves():
    kb = knowledge_for(torus_knot(3, 2))
    chain = lspace_propagate(kb, Fraction(3, 2))
    kinds = [s.kind for s in chain.steps]
    assert kinds == [
        "seed",
        "step_down",
        "step_down",
        "step_down",
        "step_down",
        "represent",
        "step_up",
    ]
    assert (chain.steps[-1].numerator, chain.steps[-1].denominator) == (3, 2)
    assert chain.steps[5].slope_string() == "2/2"
    assert verify_chain(kb, chain)
    d = chain.as_dict()
    assert d["query"] == "3/2" and d["steps"][0]["slope"] == "5"


def test_propagate_upward():
    kb = knowledge_for(torus_knot(3, 2))
    chain = lspace_propagate(kb, Fraction(9))
    assert [s.kind for s in chain.steps] == ["seed"] + ["step_up"] * 4
    assert verify_chain(kb, chain)


def test_propagate_underivable():
    kb = knowledge_for(torus_knot(3, 2))
    assert lspace_propagate(kb, Fraction(1, 2)) is None
    assert lspace_propagate(kb, Fraction(2, 3)) is None
    assert lspace_propagate(kb, Fraction(-2)) is None
    kb5 = knowledge_for(torus_knot(5, 2))  # floor slope 3
    assert lspace_propagate(kb5, Fraction(2)) is None
    assert lspace_propagate(kb5, Fraction(3)) is not None


def chain_length(s, p, q):
    """Steps in the chain from seed s to p/q: seed, integer walk, 1/q walk."""
    m = p // q
    return 1 + abs(s - m) + (q > 1) * (1 + p - m * q)


def test_propagate_small_grid():
    # over the 10x10 grid of reduced slopes, exactly those with value at
    # least the floor slope are derivable
    kb = knowledge_for(torus_knot(3, 2))
    reduced = [
        (p, q)
        for q in range(1, 11)
        for p in range(1, 11)
        if math.gcd(p, q) == 1
    ]
    assert len(reduced) == 63
    for p, q in reduced:
        chain = lspace_propagate(kb, Fraction(p, q))
        assert chain == bfs_lspace_propagate(kb, Fraction(p, q)), (p, q)
        if Fraction(p, q) >= 1:
            assert chain is not None, (p, q)
            assert verify_chain(kb, chain)
            last = chain.steps[-1]
            assert Fraction(last.numerator, last.denominator) == Fraction(p, q)
            assert len(chain.steps) == chain_length(chain.steps[0].numerator, p, q)
        else:
            assert chain is None, (p, q)


def test_propagate_against_bfs():
    # genera 1-3; every seed tuple of length one or two over a window
    # around the floor 2g-1 (so seeds below it, duplicates and ties
    # s = m - d, m + d all occur) and every seventh triple; every p/q with
    # q <= 4 up to the floor + 6, and nonpositive queries
    cases = derivable = 0
    for knot in (torus_knot(3, 2), torus_knot(5, 2), torus_knot(7, 2)):
        floor = 2 * knot.slice_genus - 1
        window = range(max(1, floor - 2), floor + 6)
        tuples = [
            t
            for k in (1, 2, 3)
            for i, t in enumerate(itertools.product(window, repeat=k))
            if k < 3 or i % 7 == 0
        ]
        queries = [Fraction(p, q) for q in range(1, 5) for p in range(-q, (floor + 6) * q + 1)]
        queries = sorted(set(queries))
        for seeds in tuples:
            kb = SlopeKnowledge(knot, seeds)
            for query in queries:
                chain = lspace_propagate(kb, query)
                assert chain == bfs_lspace_propagate(kb, query), (seeds, query)
                cases += 1
                if chain is not None:
                    derivable += 1
                    assert verify_chain(kb, chain)
                    first = chain.steps[0].numerator
                    assert len(chain.steps) == chain_length(
                        first, query.numerator, query.denominator
                    )
    assert cases > 10_000 and 0 < derivable < cases


def test_chain_budget():
    kb = knowledge_for(torus_knot(3, 2))  # seed 5, floor 1
    chain = lspace_propagate(kb, Fraction(5 + CHAIN_BUDGET - 1))
    assert len(chain.steps) == CHAIN_BUDGET
    with pytest.raises(ValueError, match="budget"):
        lspace_propagate(kb, Fraction(5 + CHAIN_BUDGET))
    q = CHAIN_BUDGET - 1  # seed, represent 5q/q, then q - 1 steps of 1/q
    chain = lspace_propagate(kb, Fraction(6 * q - 1, q))
    assert len(chain.steps) == CHAIN_BUDGET
    with pytest.raises(ValueError, match="budget"):
        lspace_propagate(kb, Fraction(6 * CHAIN_BUDGET - 1, CHAIN_BUDGET))
    # a seed query is one step whatever its size
    big = SlopeKnowledge(torus_knot(3, 2), (10 * CHAIN_BUDGET,))
    assert len(lspace_propagate(big, Fraction(10 * CHAIN_BUDGET)).steps) == 1
    # the certificate derives its slope here too: r = 3 - 1/q lies in
    # [1, 4), and its chain from the seed 5 has q + 4 steps
    q = 2 * CHAIN_BUDGET + 1
    with pytest.raises(ValueError, match="budget"):
        donaldson_certificate(1, Fraction(3 * q - 1, q))


def test_verify_chain_rejects_tampering():
    kb = knowledge_for(torus_knot(3, 2))
    chain = lspace_propagate(kb, Fraction(3, 2))
    bad = DerivationChain(
        chain.knot_name,
        chain.query,
        chain.steps[:1] + chain.steps[2:],  # skip a descent step
    )
    with pytest.raises(ValueError):
        verify_chain(kb, bad)
    bad = DerivationChain(chain.knot_name, Fraction(5, 2), chain.steps)
    with pytest.raises(ValueError):
        verify_chain(kb, bad)
    with pytest.raises(ValueError):
        verify_chain(kb, DerivationChain("k", Fraction(1), ()))
    bad = DerivationChain(
        chain.knot_name,
        chain.query,
        (DerivationStep("seed", 4, 1),) + chain.steps[1:],
    )
    with pytest.raises(ValueError):
        verify_chain(kb, bad)
