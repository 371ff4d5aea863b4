"""Which functions of the package the command battery reaches.

The 22-command battery runs in-process, in a fresh interpreter, under
``sys.setprofile``, which sees the start of every Python frame.  A code
object is matched to its ``ast`` definition by file and first line (a
decorated function's code starts at its first decorator, so ``co_qualname``,
which needs Python 3.11, is not needed).  Every function the battery never
calls must be in :data:`ALLOWLIST` with its reason, and every entry of the
allowlist must still be unreached.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import hopfcyc

SRC = Path(hopfcyc.__file__).parent

BATTERY = [
    ["verify-hopf"],
    ["check-mpi"],
    ["check-matched-pair"],
    ["ch-sayd"],
    ["ah-sayd"],
    ["quotient-coideal"],
    ["reproduce-paper"],
    ["check-sayd"],
    ["cohomology"],
    ["check-cocyclic"],
    ["kaygun"],
    ["cup"],
    ["cohomology", "--upto", "4"],
    ["cohomology", "--upto", "5"],
    ["check-cocyclic", "--upto", "4"],
    ["kaygun", "--upto", "3"],
    ["kaygun", "--upto", "4"],
    ["cup", "--upto", "3"],
    ["cup", "--upto", "4"],
    ["verify-hopf", "--degree", "3"],
    ["verify-hopf", "--degree", "4"],
    ["verify-hopf", "--file", str(SRC / "data" / "h1cop.hopf")],
]

# Run in a fresh interpreter, with the profile set before the package is
# imported, so that no cache filled by an earlier test hides a call.
# Prints the (file, first line) of every code object that started a frame.
CENSUS = """
import contextlib, io, json, sys
seen = set()

def profile(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)

sys.setprofile(profile)
from hopfcyc import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.run(argv))
sys.setprofile(None)
print(json.dumps({"codes": codes, "reached": sorted({(c.co_filename, c.co_firstlineno) for c in seen})}))
"""

# Every reason names one of these kinds before its colon.  Code that only a
# test calls is none of them: it belongs next to that test, not in src.
KINDS = ("entry point", "dunder or protocol hook", "error path", "carrier validate", "pinned by TARGETS")
DUNDER = "dunder or protocol hook: no report calls it"
ERROR = "error path: no report takes it"
VALIDATE = "carrier validate: checks a carrier's own definition; tests build each carrier through it"
TRACED = "pinned by TARGETS: perfbench/tracer.TARGETS changes only with the benchmark"

# name -> why no command of the battery calls it
ALLOWLIST = {
    "cli.main": "entry point: the console script; the battery calls cli.run",
    "cocyclic.AlgebraCochainInstance.__init__": TRACED,
    "coefficients.HModuleAlgebra.validate": VALIDATE,
    "coefficients.HModuleCoalgebra.validate": VALIDATE,
    "coefficients.ModuleComodule.validate": VALIDATE,
    "coefficients._module_axioms": VALIDATE,
    "core.AlgElt.__hash__": DUNDER,
    "core.AlgElt.__repr__": DUNDER,
    "core.AlgElt.__rmul__": DUNDER,
    "core.Generator._make": (
        "dunder or protocol hook: the interning hook; it keeps _replace and copy on the one letter"
    ),
    "core.TensorElt.__hash__": DUNDER,
    "core.TensorElt.__mul__": DUNDER,
    "core.TensorElt.__repr__": DUNDER,
    "dsl.Parser.fail": ERROR,
    "errors.ParseError.__init__": ERROR,
    "linalg.Quotient.induced_matrix": TRACED,
    "linalg.Quotient.preserves_relations": TRACED,
    "linalg.Quotient.project": TRACED,
    "linalg.solve": TRACED,
    "rewrite.ConcreteRule.__str__": DUNDER,
    "rewrite.Presentation.__repr__": DUNDER,
    "rewrite.SchemaRule.__str__": DUNDER,
    "rewrite.SchemaRule.__str__.side": DUNDER,
}


def test_allowlist_reasons_are_of_a_named_kind():
    strays = {name: why for name, why in ALLOWLIST.items() if why.split(": ", 1)[0] not in KINDS}
    assert not strays, (
        f"allowlist reasons of no kind in {KINDS}: {strays}; code that only a test calls"
        " is not kept in src: move it next to that test"
    )


def definitions(path: Path) -> dict:
    """(file, first line) -> dotted name of each function of a module, at
    any depth; the first line of a decorated function is that of its first
    decorator, as on its code object."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = f"{prefix}.{child.name}"
                found[str(path), first] = name
                visit(child, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_definitions_key_on_the_first_decorator(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import functools\n\n\nclass K:\n    @property\n    @functools.cache\n"
        "    def p(self):\n        def inner():\n            pass\n        return inner\n",
        encoding="utf-8",
    )
    assert definitions(path) == {(str(path), 5): "m.K.p", (str(path), 8): "m.K.p.inner"}


def test_unreached_functions_are_allowlisted():
    paths = [str(SRC.parent)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    out = subprocess.run(
        [sys.executable, "-c", CENSUS, json.dumps(BATTERY)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    census = json.loads(out)
    assert census["codes"] == [0] * len(BATTERY)
    reached = {tuple(key) for key in census["reached"]}
    unreached = {
        name
        for path in sorted(SRC.glob("*.py"))
        for key, name in definitions(path).items()
        if key not in reached
    }
    assert sorted(unreached - set(ALLOWLIST)) == [], "unreached and not allowlisted"
    assert sorted(set(ALLOWLIST) - unreached) == [], "allowlisted but reached"
