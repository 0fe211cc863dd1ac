"""Runtime code that only tests reach does not stay in the package.

Every top-level function and class of ``src/kordered``, and every method
of such a class, dunders aside, must be referenced by name from
``src/kordered`` outside its own definition, or from ``perfbench``, or be
kept on purpose in ``KEPT`` with its reason.  A reference is a name
loaded, or for a function or class also an attribute read (``module.f``);
a method counts only as an attribute read.  Import lines and strings do
not count.  Read with ``ast``, without importing anything.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kordered"
BENCH = ROOT / "perfbench"

# qualified name -> why it stays although no runtime code reaches it
KEPT = {
    "enumerate_hamiltonian_cycles":
        "reference lister; perfbench names it only as a string, and it is to move to the oracles",
    "solve_extremal": "the dispatching solver that the past-cap scycle route is to call",
    "classify_extremal": "the case classifier that the past-cap scycle route is to call",
    "posa_condition": "the extremal diagnostics and the acceptance tests use it",
    "bipartite_posa_condition": "the extremal diagnostics and the acceptance tests use it",
    "connect_pairs": "its within= keyword is kept for routing S-cycles with links",
    "Graph.from_edges": "Graph constructor, library API",
    "Graph.empty": "Graph constructor, library API",
    "Graph.complete": "Graph constructor, library API",
    "Graph.cycle": "Graph constructor, library API",
    "Graph.path": "Graph constructor, library API",
    "Graph.complete_bipartite": "Graph constructor, library API",
    "format_edge_list": "writer of the edge-list format the CLI reads, library API",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions():
    """(path, qualified name, is a method, node) for every checked definition."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, DEFS):
                continue
            yield path, node.name, False, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, DEFS) and not _is_dunder(sub.name):
                        yield path, f"{node.name}.{sub.name}", True, sub


def _references():
    """(path, name, is an attribute read, line) for every name loaded and
    every attribute read in the package and the benchmark."""
    for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                yield path, node.id, False, node.lineno
            elif isinstance(node, ast.Attribute):
                yield path, node.attr, True, node.lineno


def _unreferenced() -> list[str]:
    refs = list(_references())
    out = []
    for path, qualname, is_method, node in _definitions():
        name = qualname.rpartition(".")[2]
        if any(
            ref == name and (attr or not is_method)
            and not (ref_path == path and node.lineno <= line <= node.end_lineno)
            for ref_path, ref, attr, line in refs
        ):
            continue
        out.append(qualname)
    return out


def test_every_definition_is_reached_or_kept():
    unreached = [q for q in _unreferenced() if q not in KEPT]
    assert unreached == [], unreached


def test_every_kept_entry_names_a_definition():
    defined = {qualname for _, qualname, _, _ in _definitions()}
    assert sorted(set(KEPT) - defined) == []
