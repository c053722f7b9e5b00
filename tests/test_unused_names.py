"""Every top-level function, class and assignment in ``src/repro``, and
every public method, is used by the package, a job or the benchmark; every
parameter of a function in ``src/repro`` is read by its body; and every
name a test module imports is used in that module."""
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


def _module_assignments():
    """(name, file, statement) of every name a module-level assignment in
    ``src/repro`` binds."""
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name):
                        yield n.id, path, node


def test_no_unused_module_assignments():
    refs = _references()
    unused = [
        f"{path.relative_to(ROOT)}:{node.lineno} {name}"
        for name, path, node in _module_assignments()
        if all(p == path and node.lineno <= line <= node.end_lineno
               for p, line in refs.get(name, []))
    ]
    assert not unused


def test_no_unused_parameters():
    unused = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs + \
                [p for p in (a.vararg, a.kwarg) if p is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(fn, "name", "lambda")
            unused += [f"{path.relative_to(ROOT)}:{fn.lineno} {name}({p.arg})"
                       for p in params if p.arg not in read | {"self", "cls"}]
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
