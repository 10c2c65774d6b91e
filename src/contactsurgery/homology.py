"""Integer matrix arithmetic for first homology of surgered manifolds.

The first homology of a three-manifold given by integral surgery on a
link is the cokernel of the linking matrix.  We compute Smith normal
forms with both transforms, so that we can express the meridian
generators in terms of the cyclic factors, and answer order-of-element
questions in cyclic groups.  The elimination takes the least entry left
as its pivot every round, which keeps the transforms' entries small.
One fraction-free elimination, bareiss, gives the exact determinant and
the leading minors behind definiteness (Sylvester's criterion), which
lattice's embedding search uses to check its input.

Both are dense, cubic in the matrix size, and serve general matrices.
The structured presentations never reach them at full size: a plumbing
tree's determinant and definiteness come from kirby's leaf-first pass,
and a pushoff chain's homology from contact's collapse to one row per
source, which hands h1_from_linking an s x s matrix for s sources.

Matrices are plain lists of lists of ints throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

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


def bareiss(a: Matrix) -> tuple[Matrix, int, int]:
    """Fraction-free elimination of a square matrix (Bareiss, Math. Comp.
    22, 1968), returning the reduced rows r, a sign and a step swap.

    Rows are exchanged only at a zero pivot; a zero pivot with zeros
    below it stops the elimination.  swap is the first step that did
    either (len(a) if none), so r[k][k] is the (k+1)-th leading
    principal minor of a for k < swap.  det(a) = sign * r[-1][-1], and
    sign is 0 exactly when det(a) = 0.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("elimination needs a square matrix")
    r = mat_copy(a)
    sign, swap, prev = 1, n, 1
    for k in range(n):
        if r[k][k] == 0:
            i = next((i for i in range(k + 1, n) if r[i][k]), None)
            if i is None:
                return r, 0, min(swap, k)
            r[k], r[i] = r[i], r[k]
            sign, swap = -sign, min(swap, k)
        top = r[k]
        pivot = top[k]
        for i in range(k + 1, n):
            row = r[i]
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - f * top[j]) // prev
            row[k] = 0
        prev = pivot
    return r, sign, swap


def det_bareiss(a: Matrix) -> int:
    """Exact determinant by fraction-free elimination."""
    if not a:
        return 1
    r, sign, _ = bareiss(a)
    return sign * r[-1][-1]


class Definiteness(Enum):
    POSITIVE_DEFINITE = "positive-definite"
    NEGATIVE_DEFINITE = "negative-definite"
    INDEFINITE = "indefinite"
    DEGENERATE = "degenerate"


def definiteness(m: Matrix) -> Definiteness:
    """Classify a symmetric integer matrix by its quadratic form.

    One fraction-free elimination (bareiss) decides it.  The
    form is degenerate when det = 0.  Otherwise a row exchange means some
    leading principal minor D_k vanishes, so the form is indefinite; with
    no exchange the pivots are D_1..D_n, and the form is positive
    definite iff every D_k > 0 and negative definite iff the signs
    alternate from D_1 < 0 (Sylvester).
    """
    n = symmetric_size(m)
    r, sign, swap = bareiss(m)
    if sign == 0:
        return Definiteness.DEGENERATE
    if swap < n:
        return Definiteness.INDEFINITE
    if all(r[k][k] > 0 for k in range(n)):
        return Definiteness.POSITIVE_DEFINITE
    if all((r[k][k] < 0) == (k % 2 == 0) for k in range(n)):
        return Definiteness.NEGATIVE_DEFINITE
    return Definiteness.INDEFINITE


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

    Each round swaps the least nonzero |entry| of the remaining block to
    (k, k), ties broken row-major, and reduces the rows below and the
    columns to the right by floor quotients.  A remainder left in row or
    column k is smaller than the pivot and becomes the next round's
    pivot.  Once both are clear, a block row with an entry the pivot does
    not divide is added to row k for another round; otherwise the pivot
    is made positive and the next level starts.  Re-picking the least
    entry every round keeps the entries of D, U and V small.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if any(len(row) != cols for row in a):
        raise ValueError("matrix rows differ in length")
    d = mat_copy(a)
    u = mat_identity(rows)
    v = mat_identity(cols)
    k = 0
    while k < min(rows, cols):
        least = min(((abs(x), i, j) for i in range(k, rows)
                     for j, x in enumerate(d[i]) if j >= k and x), default=None)
        if least is None:
            break
        _, pi, pj = least
        d[k], d[pi], u[k], u[pi] = d[pi], d[k], u[pi], u[k]
        for row in d + v:
            row[k], row[pj] = row[pj], row[k]
        top, pivot = d[k], d[k][k]
        for i in range(k + 1, rows):
            q = d[i][k] // pivot
            if q:
                d[i] = [x - q * y for x, y in zip(d[i], top)]
                u[i] = [x - q * y for x, y in zip(u[i], u[k])]
        for j in range(k + 1, cols):
            q = top[j] // pivot
            if q:
                for row in d[k:] + v:
                    row[j] -= q * row[k]
        if any(d[i][k] for i in range(k + 1, rows)) or any(top[k + 1:]):
            continue
        bad = next((i for i in range(k + 1, rows)
                    if any(x % pivot for x in d[i][k + 1:])), None)
        if bad is not None:
            d[k] = [x + y for x, y in zip(top, d[bad])]
            u[k] = [x + y for x, y in zip(u[k], u[bad])]
            continue
        if pivot < 0:
            top[k] = -pivot
            for row in v:
                row[k] = -row[k]
        k += 1
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


# The Smith form's transforms grow with the matrix: on seeded random
# symmetric matrices with entries in [-9, 9], h1_from_linking takes 0.04 s
# at 32 rows, 0.25 s at 48 and 1.3-1.4 s at 64, and 120 rows gave no answer
# in 60 s (2-vCPU x86 VM, Python 3.11.7).  Entry size is not bounded.
H1_ROW_BUDGET = 64


def h1_from_linking(a: Matrix) -> CyclicDecomposition:
    """Cokernel of a square integer matrix, with meridian images.

    If D = U A V then coker(A) = coker(D) via the basis change U on the
    target: the class of the i-th standard generator has coordinates
    given by column i of U, read against the diagonal of D.  A matrix of
    more than H1_ROW_BUDGET rows is refused before any elimination.
    """
    n = len(a)
    if n > H1_ROW_BUDGET:
        raise ValueError(f"the linking matrix has {n} rows; the budget is {H1_ROW_BUDGET}")
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
    lines = (raw.strip() for raw in text.splitlines())
    toks = [tok for line in lines if not line.startswith("#") for tok in line.split()]
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
