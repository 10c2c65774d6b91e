"""Independent checks of the command outputs.

Nothing here imports ``contactsurgery``: every expectation is computed
from the query's own parameters and the mathematics the paper states
(homology orders of surgeries, the interval [2n-1, 4n), the rank-6 form
lambda(a1, n), the three slope-propagation rules, and so on), never by
comparing against what the code printed before.

``check(query, exit_code, stdout)`` raises ``CheckFailure`` on the first
mismatch.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

# knot id -> (slice genus, max tb, tabulated integral L-space slope or None)
KNOTS = {
    "torus:3,2": (1, 1, 5),
    "torus:5,2": (2, 3, 9),
    "twist:-2": (1, 1, None),
}


class CheckFailure(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# exact integer arithmetic


def det(m: list[list[int]]) -> int:
    """Determinant by fraction-free elimination with row pivoting."""
    a = [list(row) for row in m]
    n, sign, prev = len(a), 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * prev if n else 1


def leading_minors(m: list[list[int]]) -> list[int]:
    """Leading principal minors D_1, D_2, ...; stops after the first zero.

    Without pivoting, the k-th fraction-free pivot is exactly D_k.
    """
    a = [list(row) for row in m]
    n, prev, out = len(a), 1, []
    for k in range(n):
        out.append(a[k][k])
        if a[k][k] == 0:
            return out
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return out


def classify(m: list[list[int]]) -> str:
    """Sylvester's criterion, in the CLI's vocabulary."""
    if det(m) == 0:
        return "degenerate"
    minors = leading_minors(m)
    if len(minors) == len(m):
        if all(d > 0 for d in minors):
            return "positive-definite"
        if all((-1) ** (k + 1) * d > 0 for k, d in enumerate(minors)):
            return "negative-definite"
    return "indefinite"


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def lambda_form(a1: int, n: int) -> list[list[int]]:
    """The rank-6 obstruction form: a path of norms -(n+1), -2, -2, -2, -a1
    with a -2 vertex hung off the middle one."""
    diag = (-n - 1, -2, -2, -2, -a1, -2)
    g = [[0] * 6 for _ in range(6)]
    for i, d in enumerate(diag):
        g[i][i] = d
    for i, j in ((0, 1), (1, 2), (2, 3), (3, 4), (2, 5)):
        g[i][j] = g[j][i] = 1
    return g


def plumbing_matrix(vertices, edges) -> list[list[int]]:
    index = {vid: i for i, (vid, _) in enumerate(vertices)}
    m = [[0] * len(vertices) for _ in vertices]
    for i, (_, w) in enumerate(vertices):
        m[i][i] = w
    for a, b in edges:
        m[index[a]][index[b]] = m[index[b]][index[a]] = 1
    return m


def is_tree(vertices, edges) -> bool:
    ids = [vid for vid, _ in vertices]
    if len(edges) != len(ids) - 1 or len(set(ids)) != len(ids):
        return False
    parent = {vid: vid for vid in ids}

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in edges:
        if a not in parent or b not in parent:
            return False
        ra, rb = root(a), root(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


# ---------------------------------------------------------------------------
# pieces shared by several checks


def check_group(h: dict, order: int) -> None:
    """h is the JSON of a cyclic decomposition of a group of order |order|
    (order 0: the integers)."""
    orders = h["orders"]
    expect(all(o >= 2 for o in orders), f"orders {orders} contain a unit")
    expect(all(b % a == 0 for a, b in zip(orders, orders[1:])),
           f"orders {orders} are not a divisor chain")
    if order == 0:
        expect(h["free_rank"] == 1 and orders == [] and h["total_order"] == 0,
               f"want Z, got {h}")
    else:
        expect(h["free_rank"] == 0, f"want a finite group, got {h}")
        expect(math.prod(orders) == abs(order) and h["total_order"] == abs(order),
               f"want a group of order {abs(order)}, got {h}")


def replay_chain(steps: list[dict], seeds, floor: int, query: Fraction) -> None:
    """Replay a derivation against the three rules: step down by one from
    an integer above 2g-1; step up by 1/b from a slope at least 2g-1;
    rewrite an integer a as a*q/q."""
    expect(len(steps) >= 1, "empty chain")
    pairs = []
    for s in steps:
        num, _, den = s["slope"].partition("/")
        pairs.append((int(num), int(den) if den else 1))
    expect(steps[0]["kind"] == "seed" and pairs[0][1] == 1 and pairs[0][0] in seeds,
           f"chain opens with {steps[0]}, not a seed in {sorted(seeds)}")
    for step, (a, b), (na, nb) in zip(steps[1:], pairs, pairs[1:]):
        kind = step["kind"]
        if kind == "step_down":
            ok = b == 1 and nb == 1 and na == a - 1 and a > floor
        elif kind == "step_up":
            ok = nb == b and na == a + 1 and Fraction(a, b) >= floor
        elif kind == "represent":
            ok = b == 1 and nb >= 2 and na == a * nb
        else:
            ok = False
        expect(ok, f"illegal {kind} from {a}/{b} to {na}/{nb}")
    expect(Fraction(*pairs[-1]) == query, f"chain ends at {pairs[-1]}, not {query}")


# ---------------------------------------------------------------------------
# one checker per query kind


def check_certify(p: dict, out: dict) -> None:
    n, r = p["n"], Fraction(p["slope"])
    expect(out["verdict"] == "NoFillable", f"verdict {out['verdict']}")
    expect(out.get("certificate_verified") is True, "certificate not verified")
    cert = out["certificate"]
    expect(cert["n"] == n and Fraction(cert["slope"]) == r, "certificate for another query")
    vertices, edges = cert["plumbing"]["vertices"], cert["plumbing"]["edges"]
    expect(is_tree(vertices, edges), "plumbing graph is not a tree")
    m = plumbing_matrix(vertices, edges)
    expect(abs(det(m)) == abs(r.numerator),
           f"|det| {abs(det(m))} of the plumbing is not |num r| = {abs(r.numerator)}")
    minors = leading_minors(m)
    expect(len(minors) == len(m) and all(d > 0 for d in minors),
           "plumbing form is not positive definite")
    a1 = 1 + math.ceil(1 / (4 * n - r))
    expect(cert["a1"] == a1, f"a1 {cert['a1']}, want {a1}")
    lam, vs = lambda_form(a1, n), cert["sublattice_vectors"]
    expect(len(vs) == 6 and all(len(v) == len(m) for v in vs), "sublattice vector shape")
    for i in range(6):
        for j in range(6):
            ip = -sum(vs[i][s] * m[s][t] * vs[j][t]
                      for s in range(len(m)) for t in range(len(m)) if m[s][t])
            expect(ip == lam[i][j],
                   f"sublattice pairing ({i},{j}) is {ip}, lambda has {lam[i][j]}")
    bound = sum(-lam[i][i] for i in range(6))
    emb = cert["embedding"]
    expect(emb["exists"] is False and emb["bound"] >= bound,
           f"embedding claim {emb}, want none up to at least {bound}")
    # the (2n+1, 2) torus knot: genus n, and 4n+1 surgery is a lens space
    chain = cert["lspace_chain"]
    replay_chain(chain["steps"], {4 * n + 1}, 2 * n - 1, r)


def check_translate(p: dict, out: dict) -> None:
    r = Fraction(p["slope"])
    tb = KNOTS[p["knot"]][1]
    expect(out["knot"] == p["knot"] and Fraction(out["contact_slope"]) == r, "echo")
    expect(len(out["linking_matrix"]) == len(out["members"]), "linking matrix size")
    check_group(out["h1"], (tb + r).numerator)


def check_tight(p: dict, out: dict) -> None:
    r = Fraction(p["slope"])
    tb = KNOTS[p["knot"]][1]
    want = "SteinFillable" if r < tb else "TightNonzeroInvariant"
    expect(out["verdict"] == want, f"verdict {out['verdict']}, want {want}")
    expect(Fraction(out["contact_slope"]) == r - tb, "contact slope is not r - tb")
    pres = out["presentation"]
    check_group(pres["h1"], r.numerator)
    count = math.prod(mem["budget"] + 1 for mem in pres["members"])
    expect(out["structure_count"] == count == pres["structure_count"], "structure count")


def check_fillable(p: dict, out: dict) -> None:
    n, r = p["n"], Fraction(p["slope"])
    lo, hi = 2 * n - 1, 4 * n
    expect(out["verdict"] == "SteinFillable", f"verdict {out['verdict']}")
    expect([Fraction(x) for x in out["interval"]] == [lo, hi], "interval")
    expect(out["certificate_required"] is False, "certificate required outside")
    if r < lo:
        check_group(out["presentation"]["h1"], r.numerator)
    else:
        second = None if r == hi else -1 / (r - hi)
        got = [None if x is None else Fraction(x) for x in out["recipe_coefficients"]]
        expect(got == [-1 - Fraction(1, n), second], f"recipe {got}")


def check_plumbing(p: dict, out: dict) -> None:
    n, r = p["n"], Fraction(p["slope"])
    vertices, edges = out["vertices"], out["edges"]
    expect(is_tree(vertices, edges), "plumbing graph is not a tree")
    m = plumbing_matrix(vertices, edges)
    d = det(m)
    expect(out["determinant"] == d, f"determinant {out['determinant']}, want {d}")
    expect(abs(d) == abs(r.numerator), f"|det| {abs(d)} is not |num r|")
    kind = classify(m)
    expect(out["definiteness"] == kind, f"definiteness {out['definiteness']}, want {kind}")
    if 2 * n - 1 <= r < 4 * n:
        expect(kind == "positive-definite", "not positive definite inside the interval")


def check_lspace(p: dict, out: dict) -> None:
    genus = KNOTS[p["knot"]][0]
    floor, seed, query = 2 * genus - 1, p["seed"], Fraction(p["query"])
    want = not (query < floor and query != seed)
    expect(out["derivable"] is want, f"derivable {out['derivable']}, want {want}")
    expect(out["floor"] == floor, "floor is not 2g - 1")
    if want:
        replay_chain(out["steps"], {seed}, floor, query)


def check_homology(p: dict, out: dict) -> None:
    check_group(out, Fraction(p["slope"]).numerator)


def check_witness(p: dict, out: dict) -> None:
    primes = out["primes"]
    expect(len(primes) == p["m"], "prime count")
    expect(all(is_prime(q) and q % 2 for q in primes), f"{primes} are not odd primes")
    expect(all(b == next(c for c in range(a + 2, b + 1, 2) if is_prime(c))
               for a, b in zip(primes, primes[1:])), f"{primes} are not consecutive")
    product = math.prod(primes)
    expect(out["product"] == product == out["group_order"], "product")
    expect(product % 4 == 3 and product > 3, "product is not 3 mod 4")
    orders = [e["order"] for e in out["entries"]]
    expect(orders == primes and len(set(orders)) == len(orders),
           f"orders {orders}, want the distinct primes {primes}")
    for e in out["entries"]:
        expect(product // math.gcd(product, e["c1"]) == e["order"],
               f"c1 {e['c1']} has not order {e['order']} in Z/{product}")


def check_embed(p: dict, out: dict) -> None:
    g, m = p["gram"], p["m"]
    expect(out["m"] == m and out["gram"] == g, "echo")
    expect(out["found"] is p["found"], f"found {out['found']}, want {p['found']}")
    if not p["found"]:
        expect(out["vectors"] is None, "vectors for a form that does not embed")
        return
    vs = out["vectors"]
    expect(len(vs) == len(g) and all(len(v) == m for v in vs), "witness shape")
    for i in range(len(g)):
        for j in range(len(g)):
            ip = sum(a * b for a, b in zip(vs[i], vs[j]))
            expect(ip == -g[i][j], f"v{i}.v{j} = {ip}, want {-g[i][j]}")


CHECKERS = {
    "certify": check_certify,
    "translate": check_translate,
    "tight": check_tight,
    "fillable": check_fillable,
    "plumbing": check_plumbing,
    "lspace": check_lspace,
    "homology": check_homology,
    "witness": check_witness,
    "embed": check_embed,
}


def check(query, exit_code, stdout: str) -> None:
    expect(exit_code == 0, f"exit code {exit_code}")
    try:
        out = json.loads(stdout)
        CHECKERS[query.kind](query.params, out)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as err:
        raise CheckFailure(f"malformed output: {err!r}") from err
