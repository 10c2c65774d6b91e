"""Brute-force integer matrix oracles shared by the test modules."""

import itertools
import math

from contactsurgery.homology import det_bareiss


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    assert all(len(r) == inner for r in a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def determinantal_divisors(a):
    """gcd of all k-by-k minors, for k = 1..min(rows, cols)."""
    rows, cols = len(a), len(a[0])
    out = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in itertools.combinations(range(rows), k):
            for csel in itertools.combinations(range(cols), k):
                g = math.gcd(g, det_bareiss([[a[i][j] for j in csel] for i in rsel]))
        out.append(g)
    return out
