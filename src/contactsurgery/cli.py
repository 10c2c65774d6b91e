"""Command line front end.

One subcommand per pipeline stage: translating rational contact surgeries
to (+1/-1) presentations, tightness and fillability verdicts, the
non-isomorphic witness family, the plumbing rewriting, diagonal lattice
embeddings, homology bookkeeping, and minimal-rank slope derivations.

Every subcommand accepts --json and then emits exactly one JSON object
with sorted keys and a schema_version field, so output is byte-stable
for consumers.  Domain failures exit 1 with a single diagnostic line on
stderr; usage problems exit 2 via argparse.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .certificate import donaldson_certificate
from .cfrac import format_rational, parse_rational
from .contact import (
    fillability_verdict,
    parse_knot,
    tightness_verdict,
    translate_single,
    witness_nonisomorphic,
)
from .floer import SlopeKnowledge, knowledge_for, lspace_propagate
from .homology import (
    CyclicDecomposition,
    h1_from_linking,
    h1_rational_surgery,
    parse_matrix,
)
from .kirby import format_plumbing_tree, plumbing_presentation
from .lattice import embed_bound, embed_in_diagonal, lambda_gram

SCHEMA_VERSION = 1

# The embedding search's work does not grow with the rank m, but a found
# witness prints m coordinates per vector: at m = 10,000 the A3 witness
# is 90 KB of JSON and the command takes 0.17 s, 0.13 s of it start-up;
# at m = 10^6 it is 9 MB and 0.63 s (2-vCPU x86 VM, Python 3.11).
EMBED_RANK_BUDGET = 10_000


def _emit(payload: dict) -> int:
    payload["schema_version"] = SCHEMA_VERSION
    print(json.dumps(payload, sort_keys=True))
    return 0


def _group_text(h: CyclicDecomposition) -> str:
    parts = [f"Z/{d}" for d in h.orders]
    if h.free_rank:
        parts.append("Z" if h.free_rank == 1 else f"Z^{h.free_rank}")
    return " x ".join(parts) if parts else "trivial"


def _group_dict(h: CyclicDecomposition) -> dict:
    return {
        "orders": list(h.orders),
        "free_rank": h.free_rank,
        "total_order": h.total_order,
    }


def _presentation_dict(pres) -> dict:
    return {
        "members": [
            {
                "source": m.source,
                "sign": m.sign,
                "tb": m.tb,
                "rot": m.base_rot,
                "budget": m.budget,
            }
            for m in pres.members
        ],
        "linking_matrix": pres.linking_matrix(),
        "structure_count": pres.count_structures(),
        "h1": _group_dict(pres.first_homology()),
    }


def _print_presentation(pres) -> None:
    for i, m in enumerate(pres.members):
        print(
            f"member {i}: sign {m.sign:+d} tb {m.tb} "
            f"rot {m.base_rot} budget {m.budget}"
        )
    print("linking matrix:")
    for row in pres.linking_matrix():
        print("  " + " ".join(str(x) for x in row))
    print(f"structures: {pres.count_structures()}")
    print(f"h1: {_group_text(pres.first_homology())}")


def cmd_translate(args) -> int:
    knot = parse_knot(args.knot)
    r = parse_rational(args.slope)
    pres = translate_single(knot, r)
    if args.json:
        return _emit(
            {
                "knot": knot.name,
                "contact_slope": format_rational(r),
                **_presentation_dict(pres),
            }
        )
    print(f"contact {format_rational(r)}-surgery on {knot.name}")
    _print_presentation(pres)
    return 0


def cmd_tight(args) -> int:
    knot = parse_knot(args.knot)
    r = parse_rational(args.slope)
    verdict = tightness_verdict(knot, r)
    if args.json:
        payload = {
            "verdict": verdict.kind.value,
            "knot": knot.name,
            "smooth_slope": format_rational(verdict.smooth_slope),
            "contact_slope": format_rational(verdict.contact_slope),
            "structure_count": verdict.structure_count,
        }
        if verdict.presentation is not None:
            payload["presentation"] = _presentation_dict(verdict.presentation)
        return _emit(payload)
    print(f"verdict: {verdict.kind.value}")
    print(
        f"smooth slope {format_rational(r)} on {knot.name} "
        f"(contact slope {format_rational(verdict.contact_slope)})"
    )
    if verdict.presentation is None:
        print("no claim at the critical slope")
    else:
        print(f"structures: {verdict.structure_count}")
    return 0


def _certificate_lines(cert) -> list[str]:
    steps = " -> ".join(s.slope_string() for s in cert.lspace_chain.steps)
    return [
        f"  lspace chain: {steps}",
        f"  plumbing: {len(cert.tree.vertices)} vertices, positive definite, "
        f"determinant {abs(cert.slope.numerator)}",
        f"  sublattice: rank-6 obstruction form located (a1 = {cert.a1})",
        f"  embedding: none up to rank {cert.embedding_bound}",
    ]


def cmd_fillable(args) -> int:
    r = parse_rational(args.slope)
    verdict = fillability_verdict(args.n, r)
    cert = None
    if args.certify and verdict.certificate_required:
        cert = donaldson_certificate(args.n, r)
    if args.json:
        payload = {
            "verdict": verdict.kind.value,
            "n": args.n,
            "slope": format_rational(r),
            "interval": [
                format_rational(verdict.interval[0]),
                format_rational(verdict.interval[1]),
            ],
            "certificate_required": verdict.certificate_required,
        }
        if verdict.presentation is not None:
            payload["presentation"] = _presentation_dict(verdict.presentation)
        if verdict.recipe_coefficients is not None:
            first, second = verdict.recipe_coefficients
            payload["recipe_coefficients"] = [
                format_rational(first),
                None if second is None else format_rational(second),
            ]
        if args.certify:
            payload["certificate"] = None if cert is None else cert.as_dict()
            if cert is not None:
                payload["certificate_verified"] = cert.verify()
        return _emit(payload)
    lo, hi = verdict.interval
    print(f"verdict: {verdict.kind.value}")
    print(f"interval: [{format_rational(lo)}, {format_rational(hi)})")
    if verdict.presentation is not None:
        print(f"Legendrian recipe with {verdict.presentation.count_structures()} structures")
    if verdict.recipe_coefficients is not None:
        first, second = verdict.recipe_coefficients
        if second is None:
            print(f"recipe: single curve with contact coefficient {format_rational(first)}")
        else:
            print(
                f"recipe: contact coefficients {format_rational(first)} "
                f"and {format_rational(second)}"
            )
    if args.certify:
        if cert is None:
            print("certificate: not required (fillable slope)")
        else:
            print(f"certificate: {'verified' if cert.verify() else 'INVALID'}")
            for line in _certificate_lines(cert):
                print(line)
    return 0


def cmd_witness(args) -> int:
    report = witness_nonisomorphic(args.m, search_bound=args.bound)
    if args.json:
        return _emit(report.as_dict())
    print(f"primes: {' '.join(str(p) for p in report.primes)}")
    print(f"product: {report.product}")
    print(f"alpha: {report.alpha}")
    print(f"group: Z/{report.group_order}")
    print(f"surgery slope: {format_rational(report.surgery_slope)}")
    for e in report.entries:
        print(f"structure i={e.i}: c1 {e.c1}, order {e.order} (prime {e.prime})")
    return 0


def cmd_plumbing(args) -> int:
    r = parse_rational(args.slope)
    tree = plumbing_presentation(args.n, r)
    det = tree.determinant
    kind = tree.definiteness.value
    if args.json:
        return _emit(
            {
                "n": args.n,
                "slope": format_rational(r),
                "vertices": [[vid, w] for vid, w in tree.vertices],
                "edges": [[a, b] for a, b in tree.edges],
                "determinant": det,
                "definiteness": kind,
            }
        )
    print(format_plumbing_tree(tree), end="")
    print(f"determinant: {det}")
    print(f"definiteness: {kind}")
    return 0


def _parse_gram(source: str) -> list[list[int]]:
    if source.startswith("lambda:"):
        try:
            a1, n = (int(tok) for tok in source[len("lambda:"):].split(","))
        except (TypeError, ValueError):
            raise ValueError(f"bad gram argument {source!r}, want lambda:a1,n or a file")
        return lambda_gram(a1, n)
    return parse_matrix(Path(source).read_text())


def cmd_lattice_embed(args) -> int:
    gram = _parse_gram(args.gram)
    m = args.bound if args.bound is not None else embed_bound(gram)
    if m > EMBED_RANK_BUDGET:
        raise ValueError(f"rank m = {m} is over the embedding budget of {EMBED_RANK_BUDGET}")
    witness = embed_in_diagonal(gram, m)
    if args.json:
        return _emit(
            {
                "gram": [list(row) for row in gram],
                "m": m,
                "found": witness is not None,
                "vectors": None
                if witness is None
                else [list(v) for v in witness.vectors],
            }
        )
    if witness is None:
        print(f"no embedding (bound m={m})")
    else:
        print(f"embedding into rank {m}:")
        for i, v in enumerate(witness.vectors):
            print(f"  v{i}: {' '.join(str(x) for x in v)}")
    return 0


def cmd_homology(args) -> int:
    if args.matrix is not None:
        h = h1_from_linking(parse_matrix(Path(args.matrix).read_text()))
    else:
        r = parse_rational(args.slope)
        h = h1_rational_surgery(r.numerator, r.denominator)
    if args.json:
        return _emit(_group_dict(h))
    print(f"h1: {_group_text(h)}")
    order = h.total_order
    print(f"order: {'infinite' if order == 0 else order}")
    return 0


def cmd_lspace(args) -> int:
    knot = parse_knot(args.knot)
    if args.seed is not None:
        kb = SlopeKnowledge(knot, (args.seed,))
    else:
        kb = knowledge_for(knot)
    query = parse_rational(args.query)
    chain = lspace_propagate(kb, query)
    if args.json:
        payload = {
            "knot": knot.name,
            "query": format_rational(query),
            "derivable": chain is not None,
            "floor": kb.floor_slope,
        }
        if chain is not None:
            payload["steps"] = chain.as_dict()["steps"]
        return _emit(payload)
    if chain is None:
        print(
            f"not derivable: {format_rational(query)} "
            f"(floor 2g-1 = {kb.floor_slope})"
        )
        return 0
    for step in chain.steps:
        print(f"{step.kind} {step.slope_string()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contactsurgery",
        description="exact contact surgery, plumbing, and lattice arithmetic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, fn, help_: str):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--json", action="store_true", help="emit one JSON object")
        sp.set_defaults(fn=fn)
        return sp

    sp = add("translate", cmd_translate, "rewrite a rational contact surgery into (+1/-1) members")
    sp.add_argument("--knot", required=True,
                    help="torus:p,q | twist:q | unknot | custom:name,genus,maxtb")
    sp.add_argument("--slope", required=True, help="contact surgery coefficient p/q")

    sp = add("tight", cmd_tight, "existence verdict for tight structures on a smooth surgery")
    sp.add_argument("--knot", required=True)
    sp.add_argument("--slope", required=True, help="smooth surgery slope p/q")

    sp = add("fillable", cmd_fillable, "fillability verdict for surgery on the (2n+1,2) torus knot")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--slope", required=True)
    sp.add_argument("--certify", action="store_true",
                    help="attach the four-part nonfillability certificate")

    sp = add("witness", cmd_witness, "manifold with m pairwise non-isomorphic tight structures")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--bound", type=int, default=10_000,
                    help="prime search bound (default 10000)")

    sp = add("plumbing", cmd_plumbing, "integral plumbing tree for r-surgery on the (2n+1,2) torus knot")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--slope", required=True)

    sp = add("lattice-embed", cmd_lattice_embed, "search for a negative diagonal embedding")
    sp.add_argument("--gram", required=True,
                    help="lambda:a1,n or a matrix file")
    sp.add_argument("--bound", type=int, default=None,
                    help="diagonal rank (default: sum of diagonal norms)")

    sp = add("homology", cmd_homology, "first homology from a linking matrix or a surgery slope")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix", help="matrix file: 'rows cols' header then entries")
    group.add_argument("--slope", help="p/q surgery on a knot in the three-sphere")

    sp = add("lspace", cmd_lspace, "derive a minimal-rank surgery slope from the tabulated seed")
    sp.add_argument("--knot", required=True)
    sp.add_argument("--query", required=True, help="slope to derive, p/q")
    sp.add_argument("--seed", type=int, default=None,
                    help="override the tabulated integral seed slope")

    return parser


def entry(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(entry())
