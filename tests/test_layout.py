"""Every module-level name of `blockq` has a reader outside the tests.

A name defined at the top of a module in `src/blockq` must be read, by an
`ast.Name` or an `ast.Attribute`, somewhere in the code that runs the
commands, the reproduction grid or the benchmark: `src/blockq/*.py` other
than `__init__.py`, `scripts/*.py`, or `perfbench/*.py` other than its
tests.  A read inside the name's own definition does not count, and neither
do imports, re-exports or `__all__`.  A name that only the tests read
belongs in `tests/oracles.py`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "blockq"

# module-level names that need no reader
EXEMPT = {"__all__", "__version__"}
# name -> why it stays without a reader
ALLOWED = {
    "bracket_basis": "perfbench/tracer.py wraps it by name, as a string in TARGETS, "
                     "and fails to install without it (ROADMAP item 1)",
}


def _defined(stmt):
    """The names a top-level statement binds, imports excluded."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)}


def _read(stmt):
    """The identifiers a statement reads, as names or as attributes."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def _statements(path):
    return ast.parse(path.read_text(), filename=str(path)).body


def unread_names():
    """(module, name) of every module-level name of `blockq` with no reader."""
    readers = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    readers += sorted((ROOT / "scripts").glob("*.py"))
    readers += [p for p in sorted((ROOT / "perfbench").glob("*.py"))
                if not p.name.startswith("test_")]
    reads = [(path, k, _read(stmt)) for path in readers
             for k, stmt in enumerate(_statements(path))]
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for k, stmt in enumerate(_statements(path)):
            for name in sorted(_defined(stmt) - EXEMPT):
                if not any(name in names for p, j, names in reads if (p, j) != (path, k)):
                    unread.append((path.stem, name))
    return unread


def test_every_module_level_name_has_a_reader():
    unread = unread_names()
    assert [(m, n) for m, n in unread if n not in ALLOWED] == []
    # an allowlisted name that gains a reader leaves the list
    assert {n for _m, n in unread} >= set(ALLOWED)
