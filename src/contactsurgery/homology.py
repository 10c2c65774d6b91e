"""Integer matrix arithmetic for first homology of surgered manifolds.

The first homology of a three-manifold given by integral surgery on a
link is the cokernel of the linking matrix.  We compute Smith normal
forms with full transform tracking so that we can express the meridian
generators in terms of the cyclic factors, take exact determinants with
the Bareiss fraction-free scheme, and answer order-of-element questions
in cyclic groups.

Matrices are plain lists of lists of ints throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

Matrix = list[list[int]]


def mat_copy(a: Matrix) -> Matrix:
    return [row[:] for row in a]


def mat_identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def symmetric_size(m: Matrix) -> int:
    """The size of a nonempty square symmetric matrix; ValueError otherwise."""
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise ValueError("need a nonempty square matrix")
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise ValueError("need a symmetric matrix")
    return n


def det_bareiss(a: Matrix) -> int:
    """Exact determinant by fraction-free Gaussian elimination."""
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    m = mat_copy(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss: every division here is exact
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class SmithForm:
    """D = U A V with U, V unimodular and D diagonal, d1 | d2 | ..., di >= 0."""

    d: Matrix
    u: Matrix
    v: Matrix

    @property
    def diagonal(self) -> list[int]:
        cols = len(self.d[0]) if self.d else 0
        return [self.d[i][i] for i in range(min(len(self.d), cols))]


def smith_normal_form(a: Matrix) -> SmithForm:
    """Smith normal form over the integers, tracking both transforms.

    Pivots by smallest nonzero absolute value (row-major tie break),
    clears the pivot row and column with Euclidean remainder swaps, and
    enforces the divisibility chain at each level by folding any
    offending row into the pivot row before moving on.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if any(len(row) != cols for row in a):
        raise ValueError("matrix rows differ in length")
    d = mat_copy(a)
    u = mat_identity(rows)
    v = mat_identity(cols)

    def swap_rows(i: int, j: int) -> None:
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for t in range(rows):
            d[t][i], d[t][j] = d[t][j], d[t][i]
        for t in range(cols):
            v[t][i], v[t][j] = v[t][j], v[t][i]

    k = 0
    while k < rows and k < cols:
        pivot = None
        for i in range(k, rows):
            for j in range(k, cols):
                x = d[i][j]
                if x != 0 and (pivot is None or abs(x) < abs(d[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != k:
            swap_rows(k, pivot[0])
        if pivot[1] != k:
            swap_cols(k, pivot[1])

        while True:
            progressed = True
            while progressed:
                progressed = False
                for i in range(k + 1, rows):
                    if d[i][k] == 0:
                        continue
                    q = d[i][k] // d[k][k]
                    for t in range(cols):
                        d[i][t] -= q * d[k][t]
                    for t in range(rows):
                        u[i][t] -= q * u[k][t]
                    if d[i][k] != 0:
                        # Euclidean remainder: promote it to be the pivot
                        swap_rows(i, k)
                        progressed = True
                for j in range(k + 1, cols):
                    if d[k][j] == 0:
                        continue
                    q = d[k][j] // d[k][k]
                    for t in range(rows):
                        d[t][j] -= q * d[t][k]
                    for t in range(cols):
                        v[t][j] -= q * v[t][k]
                    if d[k][j] != 0:
                        swap_cols(j, k)
                        progressed = True
            # pivot row and column are clear; make the pivot divide the block
            offender = None
            for i in range(k + 1, rows):
                if any(d[i][j] % d[k][k] for j in range(k + 1, cols)):
                    offender = i
                    break
            if offender is None:
                break
            for t in range(cols):
                d[k][t] += d[offender][t]
            for t in range(rows):
                u[k][t] += u[offender][t]
        k += 1

    for i in range(min(rows, cols)):
        if d[i][i] < 0:
            for t in range(rows):
                d[t][i] = -d[t][i]
            for t in range(cols):
                v[t][i] = -v[t][i]
    return SmithForm(d, u, v)


@dataclass(frozen=True)
class CyclicDecomposition:
    """H = Z/orders[0] x ... x Z/orders[-1] x Z^free_rank, orders all >= 2.

    generator_map[i] holds the coordinates of the i-th meridian class in
    that basis: torsion coordinates reduced mod their order, then free
    coordinates raw.
    """

    orders: tuple[int, ...]
    free_rank: int
    generator_map: tuple[tuple[int, ...], ...]

    @property
    def total_order(self) -> int:
        """Number of elements; 0 stands for infinite."""
        if self.free_rank:
            return 0
        out = 1
        for x in self.orders:
            out *= x
        return out


def h1_from_linking(a: Matrix) -> CyclicDecomposition:
    """Cokernel of a square integer matrix, with meridian images.

    If D = U A V then coker(A) = coker(D) via the basis change U on the
    target: the class of the i-th standard generator has coordinates
    given by column i of U, read against the diagonal of D.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("linking matrix must be square")
    snf = smith_normal_form(a)
    diag = snf.diagonal
    kept = [j for j in range(n) if diag[j] != 1]
    orders = tuple(diag[j] for j in kept if diag[j] != 0)
    free = sum(1 for j in kept if diag[j] == 0)
    gens = []
    for i in range(n):
        coords = []
        for j in kept:
            c = snf.u[j][i]
            coords.append(c % diag[j] if diag[j] else c)
        gens.append(tuple(coords))
    return CyclicDecomposition(orders, free, tuple(gens))


def h1_rational_surgery(p: int, q: int) -> CyclicDecomposition:
    """H1 of p/q surgery on a knot in the three-sphere.

    The longitude bounds in the complement, so the meridian generates
    with the single relation p = 0: the group is Z/|p|, or Z when p = 0.
    """
    if q == 0:
        raise ValueError("slope denominator is zero")
    if math.gcd(p, abs(q)) != 1:
        raise ValueError(f"slope {p}/{q} not reduced")
    if p == 0:
        return CyclicDecomposition((), 1, ((1,),))
    n = abs(p)
    if n == 1:
        return CyclicDecomposition((), 0, ((),))
    return CyclicDecomposition((n,), 0, ((1,),))


def order_in_cyclic(n: int, x: int) -> int:
    """Order of the class of x in Z/n, n >= 1."""
    if n < 1:
        raise ValueError("need a finite cyclic group")
    return n // math.gcd(n, x % n)


def format_matrix(a: Matrix) -> str:
    rows = len(a)
    cols = len(a[0]) if rows else 0
    lines = [f"{rows} {cols}"]
    for row in a:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> Matrix:
    """Read format_matrix output; blank lines and '#' comment lines are skipped."""
    toks: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            toks.extend(line.split())
    if len(toks) < 2:
        raise ValueError("matrix file needs a 'rows cols' header")
    rows, cols = int(toks[0]), int(toks[1])
    if rows < 0 or cols < 0:
        raise ValueError("negative dimensions")
    body = toks[2:]
    if len(body) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(body)}")
    it = iter(int(t) for t in body)
    return [[next(it) for _ in range(cols)] for _ in range(rows)]
