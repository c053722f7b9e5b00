"""Every top-level function and class in ``src/repro``, and every public
method, is used by the package, a job or the benchmark; and every name a
test module imports is used in that module."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Entry points that only tests call, and why each stays.
ENTRY_POINTS = {
    "build_overlap_layout": "paper Sec 6.2 data overlap, reported in EXPERIMENTS.md from tests",
    "two_tree_layout": "paper Sec 6.3 two-tree replication, reported in EXPERIMENTS.md from tests",
    "infer_schema": "the schema of a user's own frame; the tests' small tables use it",
    "assert_equivalent": "the DuckDB oracle the tests hold Spark results to",
}


def _definitions():
    """(name, file, node) of every top-level function and class under
    ``src/repro``, and of every public method of a top-level class."""
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name, path, node
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                        yield m.name, path, m


def _references() -> dict:
    """Name -> [(file, line)] of every ``ast.Name`` and ``ast.Attribute``
    in ``src/``, ``jobs/`` and ``perfbench/``."""
    refs: dict = {}
    for d in ("src", "jobs", "perfbench"):
        for path in sorted((ROOT / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    refs.setdefault(node.id, []).append((path, node.lineno))
                elif isinstance(node, ast.Attribute):
                    refs.setdefault(node.attr, []).append((path, node.lineno))
    return refs


def test_no_unused_names():
    refs = _references()
    unused = [
        f"{path.relative_to(ROOT)}:{node.lineno} {name}"
        for name, path, node in _definitions()
        if name not in ENTRY_POINTS
        and all(p == path and node.lineno <= line <= node.end_lineno
                for p, line in refs.get(name, []))
    ]
    assert not unused


def test_no_unused_test_imports():
    unused = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.relative_to(ROOT)}:{node.lineno} {a.asname or a.name}"
                           for a in node.names
                           if (a.asname or a.name).split(".")[0] not in used]
    assert not unused
