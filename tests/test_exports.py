"""Every export of the package is used, every import of its modules, and every function."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import cmperiods
from cmperiods import cli

PACKAGE = Path(cmperiods.__file__).parent


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
    # an export that no module of the package reads is code no shipped
    # check runs: it leaves __all__, or it is deleted
    modules = {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    used = set().union(*(_read_names(t) for m, t in modules.items() if m != "__init__"))
    assert sorted(set(cmperiods.__all__) - used) == []
    for name, tree in modules.items():
        reads = _read_names(tree)
        if name == "__init__":
            reads |= set(cmperiods.__all__)
        assert sorted(_imported(tree) - reads) == [], name


# (function, reason) for each module-level function that no CLI request
# runs: the names perfbench/tracing.py wraps by module attribute, and the
# psi_M multiplicativity check with the helpers only it calls, which
# ROADMAP item 7 weighs as a hecke row
UNREACHED = {
    "numkernel.log_gamma": "traced by perfbench; the tests' log Gamma oracle",
    "numkernel.delta_lattice": "traced by perfbench; the tests' Delta oracle",
    "csperiods.period_integral": "traced by perfbench; one class of class_periods",
    "heckechar.psi_multiplicativity_check": "ROADMAP item 7: a hecke row or the tests",
    "quadforms.compose": "called only by psi_multiplicativity_check",
    "quadforms.reduce_form": "called only by compose",
    "quadforms.elements_of_norm": "called only by psi_multiplicativity_check",
}

# (request at 30 digits, exit code)
REACH_REQUESTS = [
    ("class --d 23", 0),  # a text report
    ("verify-cs --d 23 --json", 0),
    ("kronecker --d 23 --json", 0),
    ("kronecker --d 23 --class 1 --json", 0),
    ("periods --p 23 --json", 0),
    ("faltings --p 23 --json", 0),
    ("fermat --p 7 --rst 1,1,5 --json", 0),
    ("hecke --p 23 --form 2,1,3 --json", 0),
    ("recognize --value 0.75 --json", 0),
    ("recognize --value 0.5000000000001 --json", 1),
    ("recognize --value 1e-30 --json", 0),
    ("recognize --value 2.6457513110645905905016157536392604257102591830825 --sqrtp 7 --json", 0),
    ("suite --max-d 30 --threads 1 --json", 0),
]


def test_every_module_level_function_runs_in_some_request(capsys):
    # each memo is cleared first, so a function that runs only on a miss
    # runs here whatever earlier tests left in it
    functions = {}
    for path in PACKAGE.glob("*.py"):
        defs = [n.name for n in ast.parse(path.read_text()).body
                if isinstance(n, ast.FunctionDef)]
        module = importlib.import_module(f"cmperiods.{path.stem}") if defs else None
        for name in defs:
            fn = getattr(module, name)
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
            functions[inspect.unwrap(fn).__code__] = f"{path.stem}.{name}"
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [cli.main(["--prec", "30", *argv.split()]) for argv, _ in REACH_REQUESTS]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [code for _, code in REACH_REQUESTS]
    unreached = sorted(name for code, name in functions.items() if code not in ran)
    assert unreached == sorted(UNREACHED)
