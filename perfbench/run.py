#!/usr/bin/env python3
"""The contactsurgery benchmark.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Runs one workload (certify, survey or embed) in this single process, as a
closed loop: one caller, and the next query starts when the previous one
has returned.  Each query calls ``contactsurgery.cli.entry(argv)``
in-process with stdout captured, under a per-query time limit, and its
output is checked by ``check.py``.  Inputs come from ``--seed``.

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics.  With ``--trace 1`` the run first sends queries
untraced for half of ``--seconds``, then sends the same queries again
with every library function wrapped in spans (``spans.py``), and
reports per-layer self times and counts, plus the tracing overhead.
The spans go to ``.perfbench/trace-<workload>-<seed>.jsonl``.

The library is imported from ``src/`` next to this directory; without
it the run fails before printing a result.  Exit status: 0 when every
output checked out, 1 when any did not or set-up failed, 2 on a usage
error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from check import CheckFailure, check
from spans import Tracer
from workloads import LIMITS, WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_PROBES = 9

END_TO_END = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "decided_frac": "frac",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "lattice.self_s": "s",
    "lattice.short_vectors.self_s": "s",
    "lattice.short_vectors.calls": "count",
    "lattice.short_vectors.vectors": "count",
    "lattice.embed.self_s": "s",
    "lattice.embed.calls": "count",
    "lattice.embed.found": "count",
    "lattice.sublattice.self_s": "s",
    "lattice.sublattice.calls": "count",
    "homology.self_s": "s",
    "homology.snf.self_s": "s",
    "homology.snf.calls": "count",
    "homology.snf.rows": "count",
    "homology.det.self_s": "s",
    "homology.det.calls": "count",
    "kirby.self_s": "s",
    "kirby.moves.self_s": "s",
    "kirby.moves.calls": "count",
    "kirby.definiteness.self_s": "s",
    "kirby.definiteness.calls": "count",
    "kirby.plumbing.vertices": "count",
    "contact.self_s": "s",
    "contact.translate.calls": "count",
    "contact.members": "count",
    "floer.self_s": "s",
    "floer.lspace.calls": "count",
    "floer.chain_steps": "count",
    "cfrac.self_s": "s",
    "cfrac.calls": "count",
    "cli.self_s": "s",
    "cli.calls": "count",
    "trace.queries": "count",
    "trace.query_s": "s",
    "trace.overhead_frac": "frac",
}


class QueryTimeout(Exception):
    """Raised from SIGALRM when a query runs past its limit.

    Deliberately not a ValueError, RuntimeError or OSError: cli.entry
    catches those and would turn the timeout into an ``error:`` line.
    """


def _alarm(signum, frame):
    raise QueryTimeout()


def require_sources() -> None:
    if not (SRC / "contactsurgery" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no contactsurgery sources in {SRC}")


def setup(workload: str, seed: int, workdir: Path):
    """Import the library from src/ and generate the run's inputs."""
    require_sources()
    sys.path.insert(0, str(SRC))
    from contactsurgery import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: imported contactsurgery from {cli.__file__}")
    return cli, make_inputs(workload, seed, workdir)


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time from process start to ready-for-the-first-query."""
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as child:
            ready = child.stdout.readline()
            times.append(perf_counter() - start)
            child.stdout.read()
        if ready.strip() != "ready" or child.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed ({child.returncode})")
    return statistics.median(times)


def run_one(cli, argv, limit: float):
    """One query: (seconds, exit code or None on timeout, stdout).

    cli.entry is looked up on every call so that a traced run reaches
    the wrapper installed in its place.
    """
    out = io.StringIO()
    code = None
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.entry(list(argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except QueryTimeout:
        return limit, None, ""
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code
    return perf_counter() - start, code, out.getvalue()


def run_loop(cli, inputs, limit: float, *, seconds=None, count=None, tracer=None):
    """Send queries until `seconds` have passed or `count` were sent.

    Returns a list of (seconds, status), status one of ok, timeout,
    failed, and the failure messages.  A timed-out query counts at the
    limit and stays in the list as undecided.
    """
    samples, failures = [], []
    deadline = None if seconds is None else perf_counter() + seconds
    i = 0
    while perf_counter() < deadline if count is None else i < count:
        query = inputs.query(i)
        if tracer is not None:
            tracer.query = i
        elapsed, code, stdout = run_one(cli, query.argv, limit)
        status = "timeout" if code is None else "ok"
        if code is not None:
            try:
                check(query, code, stdout)
            except CheckFailure as err:
                status = "failed"
                failures.append(f"query {i} ({' '.join(query.argv)}): {err}")
        samples.append((elapsed, status))
        # Free the query's reference cycles now, so that peak RSS is the
        # largest single query's footprint, not an accident of GC timing.
        gc.collect()
        i += 1
    return samples, failures


def end_to_end(samples, setup_s: float) -> dict[str, float]:
    times = [t for t, _ in samples]
    decided = sum(1 for _, s in samples if s == "ok")
    return {
        "setup_s": setup_s,
        "queries_per_s": decided / sum(times),
        "query_p50_ms": 1000 * statistics.median(times),
        "query_p90_ms": 1000 * statistics.quantiles(times, n=10)[8],
        "decided_frac": decided / len(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def report(metrics: dict, units: dict, samples, failures) -> int:
    attempted = len(samples)
    failed = sum(1 for _, s in samples if s == "failed")
    timeouts = sum(1 for _, s in samples if s == "timeout")
    for msg in failures[:10]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"samples: {attempted} queries, {attempted - failed - timeouts} decided, "
          f"{timeouts} timed out, {failed} failed")
    for name, unit in units.items():
        print(f"  {name:<32} {metrics[name]:>16.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    args = parser.parse_args(argv)

    require_sources()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.setup_only:
            setup(args.workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        setup_s = measure_setup(args.workload, args.seed)
        cli, inputs = setup(args.workload, args.seed, workdir)
        signal.signal(signal.SIGALRM, _alarm)
        gc.collect()
        gc.freeze()  # the per-query collections then skip set-up's objects
        limit = LIMITS[args.workload]
        if not args.trace:
            samples, failures = run_loop(cli, inputs, limit, seconds=args.seconds)
            return report(end_to_end(samples, setup_s), END_TO_END, samples, failures)

        plain, failures = run_loop(cli, inputs, limit, seconds=args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_failures = run_loop(cli, inputs, limit, count=len(plain),
                                               tracer=tracer)
        finally:
            tracer.restore()
        metrics = dict.fromkeys(PER_LAYER, 0)
        metrics.update(tracer.metrics())
        metrics["trace.queries"] = len(traced)
        metrics["trace.query_s"] = sum(t for t, _ in traced)
        metrics["trace.overhead_frac"] = metrics["trace.query_s"] / sum(t for t, _ in plain) - 1
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
        return report(metrics, PER_LAYER, plain + traced, failures + traced_failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
