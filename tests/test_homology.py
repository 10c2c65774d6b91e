import random

import pytest
from hypothesis import given, settings, strategies as st

from contactsurgery import homology
from contactsurgery.homology import (
    H1_ROW_BUDGET,
    CyclicDecomposition,
    Definiteness,
    bareiss,
    definiteness,
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


def test_h1_row_budget(monkeypatch):
    def diagonal(n):
        return [[3 if i == j else 0 for j in range(n)] for i in range(n)]

    assert h1_from_linking(diagonal(H1_ROW_BUDGET)).orders == (3,) * H1_ROW_BUDGET

    def no_elimination(a):
        raise AssertionError("eliminated a matrix over the row budget")

    monkeypatch.setattr(homology, "smith_normal_form", no_elimination)
    with pytest.raises(ValueError) as info:
        h1_from_linking(diagonal(H1_ROW_BUDGET + 1))
    assert str(info.value) == (
        f"the linking matrix has {H1_ROW_BUDGET + 1} rows; the budget is {H1_ROW_BUDGET}"
    )


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
