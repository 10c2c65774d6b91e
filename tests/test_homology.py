import random

import pytest
from hypothesis import given, settings, strategies as st

from contactsurgery.homology import (
    CyclicDecomposition,
    det_bareiss,
    format_matrix,
    h1_from_linking,
    h1_rational_surgery,
    order_in_cyclic,
    parse_matrix,
    smith_normal_form,
)
from oracles import determinantal_divisors, mat_mul


def test_det_frozen():
    assert det_bareiss([[2, 1], [1, -1]]) == -3
    assert det_bareiss([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) == 4
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([[3]]) == 3
    assert det_bareiss([]) == 1
    assert det_bareiss([[1, 2], [2, 4]]) == 0


# Smith forms checked against gcds of minors by hand.
SNF_FROZEN = [
    ([[2, 0], [0, 3]], [1, 6]),
    ([[6, 4], [4, 6]], [2, 10]),
    ([[0, 0], [0, 0]], [0, 0]),
    ([[2, 1], [1, -1]], [1, 3]),
    ([[2, 1], [1, -3]], [1, 7]),
    ([[2, 1, 1], [1, 2, 1], [1, 1, 2]], [1, 1, 4]),
    ([[4, 0], [0, 6]], [2, 12]),
]


@pytest.mark.parametrize("a,diag", SNF_FROZEN)
def test_snf_frozen(a, diag):
    assert smith_normal_form(a).diagonal == diag


def check_snf(a):
    rows, cols = len(a), len(a[0]) if a else 0
    snf = smith_normal_form(a)
    assert mat_mul(mat_mul(snf.u, a), snf.v) == snf.d
    assert abs(det_bareiss(snf.u)) == 1
    assert abs(det_bareiss(snf.v)) == 1
    diag = snf.diagonal
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert snf.d[i][j] == 0
    for i in range(len(diag) - 1):
        if diag[i] == 0:
            assert diag[i + 1] == 0
        else:
            assert diag[i + 1] % diag[i] == 0
    assert all(x >= 0 for x in diag)
    return snf


def test_snf_nonsquare():
    check_snf([[2, 4, 6]])
    check_snf([[2], [4], [6]])
    assert smith_normal_form([[2, 4, 6]]).diagonal == [2]
    assert smith_normal_form([[3, 5]]).diagonal == [1]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_snf_matches_determinantal_divisors(rows, cols, data):
    a = [
        [data.draw(st.integers(min_value=-9, max_value=9)) for _ in range(cols)]
        for _ in range(rows)
    ]
    snf = check_snf(a)
    divs = determinantal_divisors(a)
    acc = 1
    for i, di in enumerate(snf.diagonal):
        # products of the first i invariant factors are the gcds of minors
        acc *= di
        assert abs(acc) == divs[i]


def test_snf_random_bulk():
    rng = random.Random(20260817)
    for _ in range(300):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        check_snf(a)


def test_h1_frozen():
    assert h1_from_linking([[0]]) == CyclicDecomposition((), 1, ((1,),))
    assert h1_from_linking([[5]]).orders == (5,)
    assert h1_from_linking([[1]]) == CyclicDecomposition((), 0, ((),))
    h = h1_from_linking([[2, 1], [1, -1]])
    assert h.orders == (3,)
    assert h.free_rank == 0
    assert h.total_order == 3
    # both meridians generate Z/3 on their own here
    for coords in h.generator_map:
        assert order_in_cyclic(3, coords[0]) == 3


def test_h1_generator_consistency():
    # relations must hold on the reported generator images
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 5)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        h = h1_from_linking(a)
        sizes = list(h.orders) + [0] * h.free_rank
        for j in range(n):
            # column j of the relation matrix maps to zero in the quotient
            total = [0] * len(sizes)
            for i in range(n):
                for t in range(len(sizes)):
                    total[t] += a[i][j] * h.generator_map[i][t]
            for t, size in enumerate(sizes):
                assert total[t] % size == 0 if size else total[t] == 0


def test_h1_rational_surgery():
    assert h1_rational_surgery(7, 1).orders == (7,)
    assert h1_rational_surgery(-7, 3).orders == (7,)
    assert h1_rational_surgery(0, 1) == CyclicDecomposition((), 1, ((1,),))
    assert h1_rational_surgery(1, 5) == CyclicDecomposition((), 0, ((),))
    assert h1_rational_surgery(2431, 7).total_order == 2431
    with pytest.raises(ValueError):
        h1_rational_surgery(4, 2)
    with pytest.raises(ValueError):
        h1_rational_surgery(3, 0)


def test_order_in_cyclic():
    assert order_in_cyclic(7, 1) == 7
    assert order_in_cyclic(7, 0) == 1
    assert order_in_cyclic(12, 8) == 3
    assert order_in_cyclic(1, 0) == 1
    assert order_in_cyclic(2431, 221) == 11
    assert order_in_cyclic(2431, 187) == 13
    assert order_in_cyclic(2431, 143) == 17
    assert order_in_cyclic(5, -1) == 5
    with pytest.raises(ValueError):
        order_in_cyclic(0, 3)


def test_matrix_round_trip():
    a = [[1, -2, 3], [0, 5, -6]]
    assert parse_matrix(format_matrix(a)) == a
    assert format_matrix(a) == "2 3\n1 -2 3\n0 5 -6\n"
    with pytest.raises(ValueError):
        parse_matrix("2 2\n1 2 3")
    with pytest.raises(ValueError):
        parse_matrix("")


def test_matrix_comments_and_blank_lines():
    text = "# linking matrix of contact +2 on the trefoil\n\n2 2\n  # rows follow\n2 1\n\n1 -1\n"
    assert parse_matrix(text) == [[2, 1], [1, -1]]


def test_shape_errors_are_value_errors():
    # raised, not asserted, so they survive python -O
    with pytest.raises(ValueError):
        h1_from_linking([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])
    with pytest.raises(ValueError):
        det_bareiss([[1, 2], [3, 4], [5, 6]])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_matrix_round_trip_property(rows, cols, data):
    a = [
        [data.draw(st.integers(min_value=-999, max_value=999)) for _ in range(cols)]
        for _ in range(rows)
    ]
    assert parse_matrix(format_matrix(a)) == a
