"""The package's import graph, read from the sources with ast.

cfrac and homology are pure-arithmetic leaves, lattice sits on homology
only, and the certificate is assembly that only the CLI and the package
root pull in.  The CLI and the certificate run no elimination of their
own: they read a plumbing's determinant and definiteness off the tree.
Nor does the certificate search: it writes its copy of the obstruction
form down and pairs it on the tree, never through a dense intersection
matrix, and proves nonexistence by a lemma, not by the embedding search.
No module imports another's underscore names.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "contactsurgery"


def package_imports(path: Path) -> set[str]:
    """The contactsurgery modules imported anywhere in one source file."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.startswith("contactsurgery."):
                out.add(node.module.split(".")[1])
            elif node.level > 0 and node.module:
                out.add(node.module.split(".")[0])
            elif node.level > 0:  # from . import x
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("contactsurgery."):
                    out.add(alias.name.split(".")[1])
    return out


def import_graph() -> dict[str, set[str]]:
    return {path.stem: package_imports(path) for path in sorted(PACKAGE.glob("*.py"))}


def test_parser_sees_every_import_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "from .a import x\nfrom . import b\nimport contactsurgery.c\n"
        "from contactsurgery.d import y\nimport json\n"
        "def f():\n    from .e import z\n"
    )
    assert package_imports(path) == {"a", "b", "c", "d", "e"}


def test_arithmetic_leaves_import_nothing_from_the_package():
    graph = import_graph()
    assert graph["cfrac"] == set()
    assert graph["homology"] == set()


def test_lattice_sits_on_homology_only():
    assert import_graph()["lattice"] == {"homology"}


def test_only_cli_and_root_import_the_certificate():
    graph = import_graph()
    assert "certificate" in graph
    assert {name for name, deps in graph.items() if "certificate" in deps} == {"cli", "__init__"}


def imported_names(path: Path) -> set[str]:
    """Every name imported from contactsurgery modules in one source file."""
    return {
        alias.name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (
            node.module or "").startswith("contactsurgery"))
        for alias in node.names
    }


def test_cli_and_certificate_run_no_elimination():
    for name in ("cli", "certificate"):
        names = imported_names(PACKAGE / f"{name}.py")
        assert not names & {"det_bareiss", "definiteness", "bareiss"}, name


def test_certificate_runs_no_sublattice_search():
    # the obstruction form's copy is written down and its nonexistence in
    # a diagonal lattice is lattice.d4_lemma; no search may return
    names = imported_names(PACKAGE / "certificate.py")
    assert not names & {"contains_sublattice", "short_vectors", "_lex_vectors"}
    assert "embed_in_diagonal" not in (PACKAGE / "certificate.py").read_text()


def test_certificate_builds_no_dense_plumbing_form():
    # the six vectors are paired on the tree, in O(V + E) per pair, and the
    # dense form of a plumbing is a test oracle (tests/oracles.py)
    for path in sorted(PACKAGE.glob("*.py")):
        assert "intersection_matrix" not in path.read_text(), path.stem


def test_kirby_keeps_no_test_only_determinant():
    # the dense |H1| of a diagram is a test oracle (tests/oracles.py)
    assert "det_bareiss" not in imported_names(PACKAGE / "kirby.py")


def test_no_module_imports_private_names():
    for path in sorted(PACKAGE.glob("*.py")):
        private = {name for name in imported_names(path) if name.startswith("_")}
        assert not private, (path.stem, private)
