import random

import pytest
from hypothesis import given, settings, strategies as st

from contactsurgery.homology import (
    CyclicDecomposition,
    bareiss,
    det_bareiss,
    format_matrix,
    h1_from_linking,
    h1_rational_surgery,
    order_in_cyclic,
    parse_matrix,
    smith_normal_form,
)
from oracles import check_snf, determinantal_divisors


def test_det_frozen():
    assert det_bareiss([[2, 1], [1, -1]]) == -3
    assert det_bareiss([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) == 4
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([[3]]) == 3
    assert det_bareiss([]) == 1
    assert det_bareiss([[1, 2], [2, 4]]) == 0


def _zero_pivot_matrix(rng, n, family, symmetric):
    """A random n x n matrix, most families forcing a zero pivot."""
    a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    if symmetric:
        a = [[a[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    k = rng.randrange(n)
    if family == 1:  # a zero first pivot
        a[0][0] = 0
    elif family == 2 and k > 0:  # a zero leading minor D_(k+1)
        for j in range(k + 1):
            a[k][j] = a[0][j]
            if symmetric:
                a[j][k] = a[0][j]
        if symmetric:
            a[k][k] = a[0][0]
    elif family == 3:  # a zero column, so det = 0
        for i in range(n):
            a[i][k] = 0
            if symmetric:
                a[k][i] = 0
    return a


def test_bareiss_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1968)
    exchanged = stopped = 0
    for trial in range(160):
        n = rng.randint(1, 8)
        symmetric = trial % 2 == 1
        a = _zero_pivot_matrix(rng, n, trial // 2 % 4, symmetric)
        sm = sympy.Matrix(a)
        det = int(sm.det())
        assert det_bareiss(a) == det, a
        r, sign, swap = bareiss(a)
        assert (sign == 0) == (det == 0)
        assert all(r[i][j] == 0 for i in range(n) for j in range(min(i, swap)))
        exchanged += sign != 0 and swap < n
        stopped += sign == 0
        if symmetric:
            minors = [int(sm[: k + 1, : k + 1].det()) for k in range(n)]
            assert [r[k][k] for k in range(swap)] == minors[:swap], a
            if swap < n:
                # the elimination left the minors only where one vanished
                assert minors[swap] == 0, a
    assert exchanged >= 20 and stopped >= 20


def test_snf_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(1917)
    for trial in range(120):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        if trial % 3 == 1:
            a[rng.randrange(rows)] = [0] * cols
        if trial % 3 == 2:
            j = rng.randrange(cols)
            for row in a:
                row[j] = 0
        want = sympy_snf(sympy.Matrix(a), domain=sympy.ZZ)
        diag = [abs(int(want[i, i])) for i in range(min(rows, cols))]
        assert smith_normal_form(a).diagonal == diag, a


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
        snf = check_snf(a)
        # the transforms stay small: an unreduced elimination reaches
        # entries of hundreds of thousands of bits on these inputs
        assert all(abs(x) < 2**128 for m in (snf.u, snf.v) for row in m for x in row)


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
