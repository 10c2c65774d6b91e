import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from contactsurgery.cli import EMBED_RANK_BUDGET, entry
from contactsurgery.contact import WITNESS_M_BUDGET
from contactsurgery.homology import format_matrix
from contactsurgery.kirby import PLUMBING_N_BUDGET, PLUMBING_VERTEX_BUDGET


def run(capsys, *argv):
    code = entry(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_translate_text(capsys):
    code, out, err = run(capsys, "translate", "--knot", "torus:3,2", "--slope", "2")
    assert code == 0 and err == ""
    assert "member 0: sign +1 tb 1 rot 0 budget 0" in out
    assert "member 1: sign -1 tb 0 rot 0 budget 1" in out
    assert "structures: 2" in out
    assert "h1: Z/3" in out


def test_translate_json_deterministic(capsys):
    code, out1, _ = run(capsys, "translate", "--knot", "torus:3,2", "--slope", "2", "--json")
    assert code == 0
    code, out2, _ = run(capsys, "translate", "--knot", "torus:3,2", "--slope", "2", "--json")
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema_version"] == 1
    assert payload["contact_slope"] == "2"
    assert len(payload["members"]) == 2
    assert payload["linking_matrix"] == [[2, 1], [1, -1]]
    assert payload["h1"]["total_order"] == 3


def test_tight_verdicts(capsys):
    code, out, _ = run(capsys, "tight", "--knot", "torus:3,2", "--slope", "2")
    assert code == 0
    assert "verdict: TightNonzeroInvariant" in out
    code, out, _ = run(capsys, "tight", "--knot", "torus:3,2", "--slope", "1")
    assert code == 0
    assert "verdict: Excluded" in out and "no claim" in out
    code, out, _ = run(capsys, "tight", "--knot", "torus:3,2", "--slope", "-1", "--json")
    payload = json.loads(out)
    assert payload["verdict"] == "SteinFillable"
    assert payload["contact_slope"] == "-2"


def test_fillable_certify_json(capsys):
    code, out, _ = run(capsys, "fillable", "--n", "1", "--slope", "2", "--certify", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "NoFillable"
    assert payload["interval"] == ["1", "4"]
    assert payload["certificate_required"] is True
    assert payload["certificate"]["a1"] == 2
    assert payload["certificate"]["embedding"] == {"bound": 12, "exists": False}
    assert payload["certificate_verified"] is True


def test_fillable_text_recipes(capsys):
    code, out, _ = run(capsys, "fillable", "--n", "1", "--slope", "1/2")
    assert code == 0
    assert "verdict: SteinFillable" in out and "Legendrian recipe" in out
    code, out, _ = run(capsys, "fillable", "--n", "1", "--slope", "4")
    assert "single curve with contact coefficient -2" in out
    code, out, _ = run(capsys, "fillable", "--n", "1", "--slope", "5")
    assert "contact coefficients -2 and -1" in out
    code, out, _ = run(capsys, "fillable", "--n", "1", "--slope", "2", "--certify")
    assert "certificate: verified" in out
    assert "embedding: none up to rank 12" in out
    code, out, _ = run(capsys, "fillable", "--n", "1", "--slope", "4", "--certify")
    assert "certificate: not required" in out


def test_witness_output(capsys):
    code, out, _ = run(capsys, "witness", "--m", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["primes"] == [3, 5]
    assert payload["group_order"] == 15
    assert [e["order"] for e in payload["entries"]] == [3, 5]
    code, out, _ = run(capsys, "witness", "--m", "2")
    assert "primes: 3 5" in out and "group: Z/15" in out


def test_plumbing_output(capsys):
    code, out, _ = run(capsys, "plumbing", "--n", "1", "--slope", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["determinant"] == 2
    assert payload["definiteness"] == "positive-definite"
    assert len(payload["vertices"]) == 7
    code, out, _ = run(capsys, "plumbing", "--n", "1", "--slope", "2")
    assert "k 2" in out.splitlines()
    assert "determinant: 2" in out


def test_plumbing_is_not_cubic_in_n(capsys):
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "plumbing", "--n", str(PLUMBING_N_BUDGET), "--slope", "2")
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    assert "determinant: 2" in out and "definiteness: positive-definite" in out


def test_plumbing_over_budget(capsys):
    code, out, err = run(capsys, "plumbing", "--n", str(PLUMBING_N_BUDGET + 1), "--slope", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "budget" in err


def test_lattice_embed_obstruction(capsys):
    code, out, _ = run(capsys, "lattice-embed", "--gram", "lambda:2,1")
    assert code == 0
    assert out.strip() == "no embedding (bound m=12)"


def test_lattice_embed_bound_does_not_scale_with_m(capsys):
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "lattice-embed", "--gram", "lambda:2,1", "--bound", "5000")
    assert time.perf_counter() - t0 < 2.0
    assert code == 0
    assert out.strip() == "no embedding (bound m=5000)"


A3 = str(Path(__file__).parent / "golden" / "a3.mat")


def test_lattice_embed_at_rank_budget(capsys):
    code, out, _ = run(capsys, "lattice-embed", "--gram", A3, "--bound", str(EMBED_RANK_BUDGET))
    assert code == 0
    assert out.startswith(f"embedding into rank {EMBED_RANK_BUDGET}:")


def test_lattice_embed_from_file(capsys, tmp_path):
    path = tmp_path / "gram.txt"
    path.write_text(format_matrix([[-2, 1], [1, -2]]))
    code, out, _ = run(capsys, "lattice-embed", "--gram", str(path), "--bound", "3")
    assert code == 0
    assert out.startswith("embedding into rank 3:")
    assert len(out.strip().splitlines()) == 3
    code, out, _ = run(capsys, "lattice-embed", "--gram", str(path), "--bound", "3", "--json")
    payload = json.loads(out)
    assert payload["found"] is True and len(payload["vectors"]) == 2


def test_homology_modes(capsys, tmp_path):
    code, out, _ = run(capsys, "homology", "--slope", "7/5")
    assert code == 0
    assert "h1: Z/7" in out and "order: 7" in out
    code, out, _ = run(capsys, "homology", "--slope", "0")
    assert "order: infinite" in out
    path = tmp_path / "m.txt"
    path.write_text(format_matrix([[2, 1], [1, -1]]))
    code, out, _ = run(capsys, "homology", "--matrix", str(path), "--json")
    payload = json.loads(out)
    assert payload["orders"] == [3] and payload["total_order"] == 3
    with pytest.raises(SystemExit) as exc:
        entry(["homology"])
    assert exc.value.code == 2


def test_lspace_chains(capsys):
    code, out, _ = run(capsys, "lspace", "--knot", "torus:3,2", "--query", "3/2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "seed 5" and lines[-1] == "step_up 3/2"
    assert len(lines) == 7
    code, out, _ = run(capsys, "lspace", "--knot", "torus:3,2", "--query", "1/2")
    assert code == 0
    assert "not derivable: 1/2 (floor 2g-1 = 1)" in out
    code, out, _ = run(capsys, "lspace", "--knot", "torus:3,2", "--query", "4", "--json")
    payload = json.loads(out)
    assert payload["derivable"] is True
    assert payload["steps"][0] == {"kind": "seed", "slope": "5"}


def test_lspace_seed_override(capsys):
    # twist knots carry no tabulated slope; a seed makes them usable
    code, _, err = run(capsys, "lspace", "--knot", "twist:-2", "--query", "2")
    assert code == 1 and err.startswith("error:")
    code, out, _ = run(capsys, "lspace", "--knot", "twist:-2", "--query", "2", "--seed", "3")
    assert code == 0
    assert out.strip().splitlines() == ["seed 3", "step_down 2"]


def test_domain_errors_exit_one(capsys):
    code, _, err = run(capsys, "translate", "--knot", "bogus", "--slope", "2")
    assert code == 1 and err.startswith("error:")
    code, _, err = run(capsys, "plumbing", "--n", "1", "--slope", "4")
    assert code == 1 and "4n" in err
    code, _, err = run(capsys, "witness", "--m", "0")
    assert code == 1
    code, _, err = run(capsys, "lattice-embed", "--gram", "lambda:9")
    assert code == 1
    code, _, err = run(capsys, "lattice-embed", "--gram", "/nonexistent/file")
    assert code == 1


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        entry(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        entry([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        entry(["witness"])  # --m is required
    assert exc.value.code == 2


NINE_BY_NINE = [
    [-5, -4, 3, 3, 3, 3, 3, 3, 3],
    [-4, -6, 3, 3, 3, 3, 3, 3, 3],
    [3, 3, 0, 1, -3, -3, -3, -3, -3],
    [3, 3, 1, 0, -3, -3, -3, -3, -3],
    [3, 3, -3, -3, 2, 1, 1, 1, 1],
    [3, 3, -3, -3, 1, -1, 0, 0, 0],
    [3, 3, -3, -3, 1, 0, -1, 0, 0],
    [3, 3, -3, -3, 1, 0, 0, -1, 0],
    [3, 3, -3, -3, 1, 0, 0, 0, -1],
]


# Each CLI subprocess gets its own 1 GB address-space cap, so that an
# input that would exhaust memory fails as a MemoryError, not the host.
ADDRESS_SPACE_CAP = 1 << 30


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def _cli_process(*argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=_cap_address_space,
    )


def test_nonsquare_matrix_under_optimize(tmp_path):
    # shape checks must not be asserts: python -O strips those
    path = tmp_path / "m.txt"
    path.write_text(format_matrix([[1, 2, 3], [4, 5, 6]]))
    proc = _cli_process("-O", "-m", "contactsurgery.cli", "homology", "--matrix", str(path))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_dense_matrix_homology_is_fast(tmp_path):
    # the 9 x 9 linking matrix of a three-source diagram, on which an
    # elimination that lets its transforms grow ran for minutes
    path = tmp_path / "nine.txt"
    path.write_text(format_matrix(NINE_BY_NINE))
    t0 = time.perf_counter()
    proc = _cli_process("-m", "contactsurgery.cli", "homology", "--matrix", str(path))
    assert time.perf_counter() - t0 < 5.0
    assert proc.returncode == 0
    assert proc.stdout == "h1: Z/507\norder: 507\n"


def assert_over_budget(*argv):
    """The CLI refuses argv within 5 s: exit 1, one error line, no traceback."""
    t0 = time.perf_counter()
    proc = _cli_process("-m", "contactsurgery.cli", *argv)
    assert time.perf_counter() - t0 < 5.0
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "budget" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("slope", [("--slope", "1/200000"), ("--slope=-1/200000",)])
def test_translate_over_member_budget(slope):
    # 200,000 members would mean a dense 200,000 x 200,000 linking matrix
    assert_over_budget("translate", "--knot", "torus:3,2", *slope)


@pytest.mark.parametrize("argv", [
    ("lspace", "--knot", "torus:3,2", "--query", "10000000"),
    ("lspace", "--knot", "torus:3,2", "--query", "10000000", "--json"),
    ("witness", "--m", str(WITNESS_M_BUDGET + 1)),
    ("witness", "--m", "1300", "--json"),
    ("lattice-embed", "--gram", A3, "--bound", str(EMBED_RANK_BUDGET + 1)),
    ("lattice-embed", "--gram", A3, "--bound", "100000000", "--json"),
    ("lattice-embed", "--gram", "lambda:10000,1"),
])
def test_over_output_budget(argv):
    # a 10^7-step chain, a witness product past the 4300-digit limit, or an
    # embedding padded to 10^8 coordinates; the default bound of the last
    # lattice-embed case is the sum of its diagonal norms, 10010
    assert_over_budget(*argv)


def test_long_leg_certificate_is_linear_in_the_tree():
    # 10,005 vertices: a dense V x V form here ended in a MemoryError
    t0 = time.perf_counter()
    proc = _cli_process("-m", "contactsurgery.cli", "fillable", "--n", "1",
                        "--slope", "20001/10000", "--certify", "--json")
    assert time.perf_counter() - t0 < 2.0
    assert proc.returncode == 0 and proc.stderr == ""
    payload = json.loads(proc.stdout)
    assert payload["certificate_verified"] is True
    cert = payload["certificate"]
    assert len(cert["plumbing"]["vertices"]) == 10_005
    assert [len(v) for v in cert["sublattice_vectors"]] == [10_005] * 6


def test_large_a1_certificate_needs_no_search():
    # a1 = 1001: the embedding search found no answer for lambda(1001, 500)
    # in minutes; the D4 lemma settles it for every a1 at constant cost
    t0 = time.perf_counter()
    proc = _cli_process("-m", "contactsurgery.cli", "fillable", "--n", "500",
                        "--slope", "1999999/1000", "--certify", "--json")
    assert time.perf_counter() - t0 < 2.0
    assert proc.returncode == 0 and proc.stderr == ""
    payload = json.loads(proc.stdout)
    assert payload["certificate_verified"] is True
    cert = payload["certificate"]
    assert cert["a1"] == 1001
    assert cert["embedding"] == {"bound": 1510, "exists": False}


@pytest.mark.parametrize("command", [("plumbing",), ("fillable", "--certify")])
def test_plumbing_over_vertex_budget(command):
    # at n = 1 the slope (2q + 1)/q gives a tree of q + 5 vertices
    q = PLUMBING_VERTEX_BUDGET - 4
    assert_over_budget(*command, "--n", "1", "--slope", f"{2 * q + 1}/{q}")
