"""Digest the CLI's output on every pool query of a benchmark workload.

    PYTHONPATH=src python tests/output_digest.py survey 601

Builds the workload's query pool with ``perfbench/workloads.py`` for the
given seed, runs each query through ``contactsurgery.cli.entry`` in this
process, and prints one line per query: its index, the sha256 of
(argv, exit code, stdout, stderr), and the argv.  The last line is the
sha256 over all of them.  Two checkouts that print the same total gave
byte-identical output on every query.  The embed workload's gram files
go to a temporary directory, whose path is replaced by ``<workdir>``
before hashing.  Nothing under ``perfbench/`` is changed.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from contactsurgery.cli import entry  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in WORKLOADS or not argv[1].isdigit():
        print(f"usage: output_digest.py {{{','.join(WORKLOADS)}}} SEED", file=sys.stderr)
        return 2
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as workdir:
        for i, query in enumerate(make_inputs(argv[0], int(argv[1]), Path(workdir)).pool):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = entry(list(query.argv))
            record = "\0".join(["\x1f".join(query.argv), str(code), out.getvalue(), err.getvalue()])
            digest = hashlib.sha256(record.replace(workdir, "<workdir>").encode()).hexdigest()
            total.update(digest.encode())
            print(i, digest, " ".join(query.argv).replace(workdir, "<workdir>"))
    print("total", total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
