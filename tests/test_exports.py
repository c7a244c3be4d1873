"""Every export of the package is used, and so is every import of its modules."""

import ast
from pathlib import Path

import cmperiods

PACKAGE = Path(cmperiods.__file__).parent
ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"


def _read_names(tree):
    """Bare names a module reads; an attribute chain reads its root."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _imported(tree):
    """Names bound by the module's own import statements, __future__ aside."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out |= {a.asname or a.name for a in node.names}
    return out


def test_every_export_is_used_and_every_import_too():
    # an export that only __init__ and tests other than the acceptance
    # battery reach is code no shipped check runs; it is deleted, not kept
    modules = {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    used = set().union(*(_read_names(t) for m, t in modules.items() if m != "__init__"))
    used |= _imported(ast.parse(ACCEPTANCE.read_text()))
    assert sorted(set(cmperiods.__all__) - used) == []
    for name, tree in modules.items():
        reads = _read_names(tree)
        if name == "__init__":
            reads |= set(cmperiods.__all__)
        assert sorted(_imported(tree) - reads) == [], name
