"""Golden CLI output: exit code, stdout and stderr pinned byte for byte.

Each ``tests/golden/*.golden`` file holds one invocation, run from inside
``tests/golden`` (so matrix files there are named relatively):

    $ <argv, shell-quoted>
    exit <code>
    stderr <stderr as a JSON string>
    ----
    <stdout, verbatim to the end of the file>

A golden file records what the CLI printed when it was written and is
never rewritten.  To add a case, run

    PYTHONPATH=src python3 tests/test_golden.py NAME -- ARGV...

which refuses to overwrite an existing file.
"""

import contextlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

import pytest

from contactsurgery.cli import entry

GOLDEN = Path(__file__).parent / "golden"


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = entry(argv)
    return code, out.getvalue(), err.getvalue()


def render(argv: list[str], code: int, out: str, err: str) -> str:
    return f"$ {shlex.join(argv)}\nexit {code}\nstderr {json.dumps(err)}\n----\n{out}"


def parse(text: str) -> tuple[list[str], int, str, str]:
    cmd, code, err, sep, out = text.split("\n", 4)
    assert cmd.startswith("$ ") and code.startswith("exit ") and sep == "----"
    return shlex.split(cmd[2:]), int(code[5:]), out, json.loads(err[len("stderr "):])


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.golden")), ids=lambda p: p.stem)
def test_golden(path, monkeypatch):
    argv, code, out, err = parse(path.read_text())
    monkeypatch.chdir(GOLDEN)
    assert run_cli(argv) == (code, out, err)


def test_golden_cases_present():
    assert len(list(GOLDEN.glob("*.golden"))) >= 80


if __name__ == "__main__":
    name, sep, *argv = sys.argv[1:]
    assert sep == "--", "usage: test_golden.py NAME -- ARGV..."
    target = GOLDEN / f"{name}.golden"
    if target.exists():
        sys.exit(f"{target} exists; golden files are never rewritten")
    os.chdir(GOLDEN)
    target.write_text(render(argv, *run_cli(argv)))
