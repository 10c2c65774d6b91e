from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from contactsurgery.cfrac import (
    NegCF,
    format_rational,
    neg_cf_expand,
    neg_cf_length,
    neg_cf_value,
    parse_rational,
)

from oracles import fraction_neg_cf_expand


# Hand-checked expansions.  7/5 = 2 - 1/(2 - 1/3) = 2 - 3/5.
FROZEN = [
    (Fraction(7, 5), (2, 2, 3)),
    (Fraction(2), (2,)),
    (Fraction(3), (3,)),
    (Fraction(3, 2), (2, 2)),
    (Fraction(4, 3), (2, 2, 2)),
    (Fraction(5, 2), (3, 2)),
    (Fraction(5, 3), (2, 3)),
    (Fraction(7, 4), (2, 4)),
    (Fraction(11, 4), (3, 4)),
    (Fraction(9, 7), (2, 2, 2, 3)),
]


@pytest.mark.parametrize("x,terms", FROZEN)
def test_frozen_expansions(x, terms):
    assert neg_cf_expand(x).terms == terms
    assert neg_cf_value(terms) == x


@pytest.mark.parametrize("k", range(1, 12))
def test_all_twos_chain(k):
    # [2, 2, ..., 2] with k terms evaluates to (k+1)/k.
    assert neg_cf_value([2] * k) == Fraction(k + 1, k)
    assert neg_cf_expand(Fraction(k + 1, k)).terms == tuple([2] * k)


@pytest.mark.parametrize("n", range(1, 10))
def test_two_n_plus_one_over_n_plus_one(n):
    # (2n+1)/(n+1) = 2 - 1/(n+1) expands as [2, n+1].
    assert neg_cf_expand(Fraction(2 * n + 1, n + 1)).terms == (2, n + 1)


@pytest.mark.parametrize("alpha", range(1, 8))
def test_budget_chain_for_alpha(alpha):
    # (2a+3)/(a+1) = [3, 2, 2, ..., 2] with alpha twos; length alpha + 1.
    got = neg_cf_expand(Fraction(2 * alpha + 3, alpha + 1))
    assert got.terms == tuple([3] + [2] * alpha)
    assert len(got) == alpha + 1


def test_rejects_small_values():
    for bad in (Fraction(1), Fraction(1, 2), Fraction(0), Fraction(-3, 2)):
        with pytest.raises(ValueError):
            neg_cf_expand(bad)


def test_rejects_bad_terms():
    with pytest.raises(ValueError):
        NegCF((2, 1, 3))
    with pytest.raises(ValueError):
        NegCF(())


rationals_gt_one = st.fractions(
    min_value=Fraction(101, 100), max_value=Fraction(60), max_denominator=200
)


@given(rationals_gt_one)
def test_round_trip(x):
    cf = neg_cf_expand(x)
    assert cf.value() == x
    assert all(a >= 2 for a in cf.terms)


@given(rationals_gt_one)
def test_length_bounded_by_numerator(x):
    # each step drops the denominator, so the numerator bounds the length
    assert len(neg_cf_expand(x)) <= x.numerator


def test_length_without_expanding():
    for q in range(1, 60):
        for p in range(q + 1, 4 * q + 30):
            x = Fraction(p, q)
            assert neg_cf_length(x) == len(neg_cf_expand(x)), x
    # 1 + 1/k is k twos; the length comes from Euclid, not k steps
    assert neg_cf_length(Fraction(10**12 + 1, 10**12)) == 10**12
    with pytest.raises(ValueError):
        neg_cf_length(Fraction(1))


# p/q > 1 with p - q and q up to 10^40, kept to expansions of at most
# 10,000 terms, since (q + 1)/q alone has q
big_rationals_gt_one = (
    st.tuples(st.integers(1, 10**40), st.integers(1, 10**40))
    .map(lambda t: Fraction(t[0] + t[1], t[1]))
    .filter(lambda x: neg_cf_length(x) <= 10_000)
)


@settings(derandomize=True)
@given(big_rationals_gt_one)
def test_integer_euclid_against_fraction_loop(x):
    assert neg_cf_expand(x).terms == fraction_neg_cf_expand(x)


@given(st.lists(st.integers(min_value=2, max_value=9), min_size=1, max_size=8))
def test_uniqueness(terms):
    # any all->=2 term list is the canonical expansion of its own value
    val = neg_cf_value(terms)
    assert val > 1
    assert neg_cf_expand(val).terms == tuple(terms)


def test_rational_text():
    assert parse_rational("7/5") == Fraction(7, 5)
    assert parse_rational("-9/5") == Fraction(-9, 5)
    assert parse_rational("4") == Fraction(4)
    assert parse_rational(" 3/2 ") == Fraction(3, 2)
    assert format_rational(Fraction(7, 5)) == "7/5"
    assert format_rational(Fraction(-4)) == "-4"
    assert format_rational(Fraction(6, 4)) == "3/2"
    for bad in ("3/-2", "1.5", "3 / 2", "", "a/b", "3/0"):
        with pytest.raises(ValueError):
            parse_rational(bad)


@given(st.fractions(max_denominator=1000))
def test_rational_round_trip(x):
    assert parse_rational(format_rational(x)) == x
