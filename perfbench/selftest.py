#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that the output checker rejects tampered outputs, that a forced
timeout is counted as undecided, that tracing reaches calls made through
``from .x import y`` names, and that a seed regenerates byte-identical
inputs.  Exits 1 on the first failing test.
"""

from __future__ import annotations

import copy
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

import run
from check import CheckFailure, check
from spans import Tracer
from workloads import WORKLOADS, Query, form_a, make_inputs


class SelfTestFailure(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise SelfTestFailure(message)


def output_of(cli, query: Query) -> dict:
    _, code, stdout = run.run_one(cli, query.argv, 30.0)
    check(query, code, stdout)  # the untampered output passes
    return json.loads(stdout)


def expect_rejected(query: Query, out: dict, what: str) -> None:
    try:
        check(query, 0, json.dumps(out))
    except CheckFailure:
        return
    raise SelfTestFailure(f"checker accepted {what}")


def test_tampered_outputs(cli, workdir: Path) -> None:
    cert = Query("certify", ("fillable", "--n", "1", "--slope=3", "--certify", "--json"),
                 {"n": 1, "slope": "3"})
    good = output_of(cli, cert)
    bad = copy.deepcopy(good)
    vec = bad["certificate"]["sublattice_vectors"][2]
    vec[0] = 1 - vec[0]
    expect_rejected(cert, bad, "a flipped sublattice entry")
    bad = copy.deepcopy(good)
    steps = bad["certificate"]["lspace_chain"]["steps"]
    steps[1] = {"kind": "step_up", "slope": steps[1]["slope"]}
    expect_rejected(cert, bad, "a certificate chain with an illegal step")

    tr = Query("translate", ("translate", "--knot", "torus:3,2", "--slope=-3/100", "--json"),
               {"knot": "torus:3,2", "slope": "-3/100"})
    bad = output_of(cli, tr)
    bad["h1"]["orders"] = [o + 2 for o in bad["h1"]["orders"]]
    bad["h1"]["total_order"] += 2
    expect_rejected(tr, bad, "a wrong H1 order")

    gram = form_a(4)
    path = workdir / "a4.txt"
    path.write_text("4 4\n" + "\n".join(" ".join(map(str, row)) for row in gram) + "\n")
    emb = Query("embed", ("lattice-embed", "--gram", str(path), "--bound", "5", "--json"),
                {"gram": gram, "m": 5, "found": True})
    bad = output_of(cli, emb)
    bad["vectors"][1][bad["vectors"][1].index(0)] = 1
    expect_rejected(emb, bad, "a changed embedding witness entry")
    bad = output_of(cli, emb)
    bad["found"], bad["vectors"] = False, None
    expect_rejected(emb, bad, "a verdict that contradicts the known answer")

    ls = Query("lspace", ("lspace", "--knot", "torus:5,2", "--query", "17/4", "--json"),
               {"knot": "torus:5,2", "seed": 9, "query": "17/4"})
    good = output_of(cli, ls)
    bad = copy.deepcopy(good)
    bad["steps"].insert(1, {"kind": "step_down", "slope": "7"})  # skips 8
    expect_rejected(ls, bad, "an lspace chain with an illegal step")
    bad = copy.deepcopy(good)
    bad["derivable"] = False
    expect_rejected(ls, bad, "a wrong derivability verdict")


def test_forced_timeout(cli, workdir: Path) -> None:
    inputs = make_inputs("certify", 1, workdir)  # opens with the n = 4 frontier query
    samples, failures = run.run_loop(cli, inputs, 0.05, count=4)
    statuses = [s for _, s in samples]
    expect(statuses[0] == "timeout" and not failures, f"statuses {statuses}")
    expect(samples[0][0] == 0.05, "a timed-out query must count at the limit")
    e2e = run.end_to_end(samples, 0.0)
    want = statuses.count("ok") / 4
    expect(e2e["decided_frac"] == want < 1, f"decided_frac {e2e['decided_frac']}")


def test_tracing_reaches_imported_names(cli, workdir: Path) -> None:
    import contactsurgery.lattice as lattice

    query = Query("certify", ("fillable", "--n", "1", "--slope=3", "--certify", "--json"),
                  {"n": 1, "slope": "3"})
    original = lattice.definiteness
    tracer = Tracer()
    tracer.install()
    try:
        expect(lattice.definiteness is not original, "lattice.definiteness not wrapped")
        output_of(cli, query)
    finally:
        tracer.restore()
    expect(lattice.definiteness is original, "restore left a wrapper behind")
    m = tracer.metrics()
    expect(m["lattice.short_vectors.calls"] >= 2, f"short_vectors calls {m}")
    expect(m["kirby.definiteness.calls"] >= 3, "definiteness calls from lattice missed")
    expect(m["lattice.embed.calls"] == 1 and m["lattice.embed.found"] == 0, "embed counts")
    expect(m["cli.calls"] == 3, f"cli calls {m['cli.calls']}")
    total = sum(m[f"{layer}.self_s"] for layer in ("cfrac", "homology", "contact",
                                                   "kirby", "floer", "lattice", "cli"))
    top = [s for s in tracer.spans if s[3] < 0]
    expect(len(top) == 1 and abs(total - (top[0][2] - top[0][1])) < 1e-6,
           "self times do not add up to the query's span")


def _dump(workload: str, seed: int, workdir: Path) -> bytes:
    inputs = make_inputs(workload, seed, workdir)
    lines = [json.dumps([q.kind, q.argv, q.params], sort_keys=True)
             for q in inputs.prefix + inputs.pool]
    files = [f"{p.name}\n{p.read_text()}" for p in sorted(workdir.iterdir())]
    return "\n".join(lines + files).replace(str(workdir), "<dir>").encode()


def test_same_seed_same_inputs(cli, workdir: Path) -> None:
    for workload in WORKLOADS:
        dumps = []
        for seed, sub in ((7, "a"), (7, "b"), (8, "c")):
            d = workdir / f"{workload}-{sub}"
            d.mkdir()
            dumps.append(_dump(workload, seed, d))
        expect(dumps[0] == dumps[1], f"{workload}: seed 7 gave different inputs")
        expect(dumps[0] != dumps[2], f"{workload}: seeds 7 and 8 gave the same inputs")


TESTS = (test_tampered_outputs, test_forced_timeout,
         test_tracing_reaches_imported_names, test_same_seed_same_inputs)


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        cli, _ = run.setup("survey", 0, workdir)
        signal.signal(signal.SIGALRM, run._alarm)
        for test in TESTS:
            sub = workdir / test.__name__
            sub.mkdir()
            try:
                test(cli, sub)
            except SelfTestFailure as err:
                print(f"FAIL {test.__name__}: {err}")
                return 1
            print(f"ok   {test.__name__}")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
