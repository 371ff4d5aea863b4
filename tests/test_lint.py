"""Static checks on the package source, with the standard library's ast."""

import ast
import re
from pathlib import Path

import hopfcyc

SRC = Path(hopfcyc.__file__).parent
TESTS = Path(__file__).parent


def unused_imports(source: str) -> list:
    """Names bound by a top-level import that no expression of the module
    reads.  ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\nd()\n"
    assert unused_imports(source) == [(2, "os"), (3, "b")]


def test_no_unused_top_level_imports():
    # __init__.py is skipped: its imports are the package's re-exports
    found = {
        path.name: unused_imports(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


def definitions(source: str) -> list:
    """(line, name) of each top-level function and class of a module, and
    of each method of a top-level class that is not a dunder."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    found.append((item.lineno, item.name))
    return found


def unreached_definitions(sources: dict, defining) -> list:
    """(file, line, name) of each definition in the files ``defining`` whose
    name appears as a word on no line of ``sources`` (file -> text) other
    than the line that defines it."""
    lines_of = {}
    for fname, text in sources.items():
        for lineno, line in enumerate(text.splitlines(), 1):
            for word in set(re.findall(r"\w+", line)):
                lines_of.setdefault(word, set()).add((fname, lineno))
    return sorted(
        (fname, lineno, name)
        for fname in defining
        for lineno, name in definitions(sources[fname])
        if not lines_of.get(name, set()) - {(fname, lineno)}
    )


def test_unreached_definitions_are_found():
    sources = {
        "a.py": "def used():\n    pass\n\n\nclass K:\n    def orphan(self):\n        pass\n\n    def __eq__(self, o):\n        pass\n",
        "b.py": "from a import used\n\nK = 1\n",
    }
    assert unreached_definitions(sources, ["a.py"]) == [("a.py", 6, "orphan")]


def test_every_definition_in_src_is_reached():
    # a word scan, not a call graph: a name that only another definition
    # or a comment mentions still counts as reached
    src = {f"src/{p.name}": p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    tests = {f"tests/{p.name}": p.read_text(encoding="utf-8") for p in sorted(TESTS.glob("*.py"))}
    assert unreached_definitions({**src, **tests}, src) == []


def missing_definers(sources: dict) -> list:
    """(file, class) of each class in ``sources`` (file -> text), nested
    ones included, whose body defines ``__missing__``."""
    return sorted(
        (fname, node.name)
        for fname, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name == "__missing__"
            for item in node.body
        )
    )


def test_missing_definers_are_found():
    sources = {
        "a.py": "class Memo(dict):\n    def __missing__(self, k):\n        pass\n\n\ndef f():\n    class Local(dict):\n        def __missing__(self, k):\n            pass\n",
        "b.py": "class Table(Memo):\n    def build(self, k):\n        pass\n",
    }
    assert missing_definers(sources) == [("a.py", "Local"), ("a.py", "Memo")]


def test_memo_is_the_only_dict_with_missing():
    # one cache idiom: every per-key cache in src is a core.Memo, or a
    # subclass that leaves __missing__ to it
    src = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert missing_definers(src) == [("core.py", "Memo")]


def unread_methods(sources: dict, defining) -> list:
    """(file, line, "Class.method") of each method of a top-level class in
    the files ``defining``, dunders aside, that no file of ``sources``
    (file -> text) reads as an attribute or names as a whole string other
    than a docstring, the way a ``getattr`` key does."""
    read = set()
    for text in sources.values():
        tree = ast.parse(text)
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body
            and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in docstrings
            ):
                read.add(node.value)
    return sorted(
        (fname, item.lineno, f"{node.name}.{item.name}")
        for fname in defining
        for node in ast.parse(sources[fname]).body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (item.name.startswith("__") and item.name.endswith("__"))
        and item.name not in read
    )


def test_unread_methods_are_found():
    sources = {
        "a.py": (
            "class K:\n"
            "    def called(self):\n"
            "        return self.keyed\n"
            "\n"
            "    def keyed(self):\n"
            "        pass\n"
            "\n"
            "    def leg(self):\n"
            '        """leg: only a docstring names it"""\n'
            "\n"
            "    def __eq__(self, o):\n"
            "        pass\n"
        ),
        "b.py": 'from a import K\n\nK().called()\ngetattr(K(), "keyed")\nleg = 1  # leg\n',
    }
    assert unread_methods(sources, ["a.py"]) == [("a.py", 8, "K.leg")]


def test_every_method_in_src_is_read():
    # stricter than the word scan above: a method counts as reached only
    # through an attribute read or a string key, so a common word such as
    # "leg" in a comment or a docstring does not keep it alive
    src = {f"src/{p.name}": p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    tests = {f"tests/{p.name}": p.read_text(encoding="utf-8") for p in sorted(TESTS.glob("*.py"))}
    assert unread_methods({**src, **tests}, src) == []


def memo_fills_naming_self(sources: dict) -> list:
    """(file, class) of each class in ``sources`` (file -> text) whose body,
    nested functions included, holds a ``Memo(...)`` call with an argument
    that names ``self``: a fill that keeps the object in a reference cycle
    with its own memo, freed only by a gc pass.  A call in a nested class
    counts for every class around it.  A local alias of ``self`` is not
    caught: neither ``obj = self`` read in the fill, nor a local function
    or ``partial`` that reads ``self`` and is passed by its name."""
    found = set()
    for fname, text in sources.items():
        for cls in ast.walk(ast.parse(text)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for call in ast.walk(cls):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if getattr(func, "id", getattr(func, "attr", None)) != "Memo":
                    continue
                args = call.args + [kw.value for kw in call.keywords]
                if any(isinstance(n, ast.Name) and n.id == "self" for a in args for n in ast.walk(a)):
                    found.add((fname, cls.name))
    return sorted(found)


def test_memo_fills_naming_self_are_found():
    source = (
        "class Cycle:\n"
        "    def __init__(self):\n"
        "        self.m = Memo(lambda k: self.f(k))\n"
        "        self.n = core.Memo(self.g)\n"
        "\n"
        "\n"
        "class Closed:\n"
        "    def __init__(self, c):\n"
        "        self.m = Memo(lambda k: c.f(k))\n"
        "        obj = self\n"
        "        self.n = Memo(lambda k: obj.f(k))  # an alias: not caught\n"
        "\n"
        "\n"
        "def free(self):\n"
        "    return Memo(lambda k: self.f(k))  # not in a class\n"
    )
    assert memo_fills_naming_self({"a.py": source}) == [("a.py", "Cycle")]


# Classes whose Memo fills still name self, each with the reason it stays.
MEMO_FILLS_OVER_SELF = {
    "MatchedPairData": "the action and coaction on words recurse through methods that"
    " read the generator tables and each other's memo",
    "HopfPresentation": "S and S⁻¹ of a generator come from self._derive, which reads Δ,"
    " ε and the pending set of the same presentation",
    "Presentation": "every kept element holds its presentation, so the element memo is"
    " a cycle whatever its fill closes over; the normal-word fill reads the rule set",
}


def test_memo_fills_close_over_what_they_read():
    # a fill that closes over the fields it reads, not over self, lets a
    # dropped object go by reference counting; the classes above stay open
    src = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert sorted(cls for _, cls in memo_fills_naming_self(src)) == sorted(MEMO_FILLS_OVER_SELF)


def repeated_tuple_bases(sources: dict) -> list:
    """(file, owner) of each ``TensorBasis(...)`` call in ``sources`` (file
    -> text) whose argument repeats a tuple by multiplication, as the chain
    layout ``(space,) + (carrier,) * (n + 1)`` does; the owner is the
    top-level function or class around the call, ``<module>`` outside
    one.  A repeated list is not caught."""
    found = []
    for fname, text in sources.items():
        for node in ast.parse(text).body:
            owner = getattr(node, "name", "<module>")
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                if getattr(call.func, "id", getattr(call.func, "attr", None)) != "TensorBasis":
                    continue
                args = call.args + [kw.value for kw in call.keywords]
                if any(
                    isinstance(n, ast.BinOp)
                    and isinstance(n.op, ast.Mult)
                    and ast.Tuple in (type(n.left), type(n.right))
                    for a in args
                    for n in ast.walk(a)
                ):
                    found.append((fname, owner))
    return sorted(found)


def test_repeated_tuple_bases_are_found():
    source = (
        "def chain_bases(space, carrier):\n"
        "    return Memo(lambda n: TensorBasis((space,) + (carrier,) * (n + 1)))\n"
        "\n"
        "\n"
        "class Ops:\n"
        "    def quotient(self, n):\n"
        "        return cocyclic.TensorBasis((self.space,) + (self.alg,) * (n + 1))\n"
        "\n"
        "\n"
        "pair = TensorBasis((c, alg))\n"
        "legs = TensorBasis(prs=3 * (c,))\n"
        "listed = TensorBasis([c] * 3)  # a list: not caught\n"
    )
    assert repeated_tuple_bases({"a.py": source}) == [
        ("a.py", "<module>"),
        ("a.py", "Ops"),
        ("a.py", "chain_bases"),
    ]


def test_chain_basis_layout_is_written_once():
    # every ops object takes its degree-n basis from the one helper, so
    # that tables, quotients and bridges over one ops share each basis
    src = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert repeated_tuple_bases(src) == [("cocyclic.py", "chain_bases")]


def writes_signed_identity(node) -> bool:
    """Is ``node`` the call ``list(range(1, …))``, the identity written out
    as a signed map?"""
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "list"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Call)
        and getattr(node.args[0].func, "id", None) == "range"
        and len(node.args[0].args) == 2
        and isinstance(node.args[0].args[0], ast.Constant)
        and node.args[0].args[0].value == 1
    )


ENCODING_NAMES = {"is_signed", "signed"}


def encoding_readers(sources: dict) -> list:
    """(file, line) of each import of ``is_signed`` or of the encoder
    ``signed``, each read of either name, bare or as an attribute, and each
    ``list(range(1, …))``, a signed map written by hand, in ``sources``
    (file -> text)."""
    found = set()
    for fname, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                hit = any(alias.name.split(".")[-1] in ENCODING_NAMES for alias in node.names)
            else:
                hit = getattr(node, "id", getattr(node, "attr", None)) in ENCODING_NAMES or writes_signed_identity(node)
            if hit:
                found.add((fname, node.lineno))
    return sorted(found)


def test_encoding_readers_are_found():
    sources = {
        "a.py": "from .linalg import columns, is_signed\n\nif is_signed(m):\n    pass\n",
        "b.py": "from hopfcyc import linalg\n\nok = linalg.is_signed(m)\ncols = linalg.columns(m)\n",
        "c.py": "def f(a):\n    return columns(a)  # is_signed in a comment is no read\n",
        "d.py": "ident = list(range(1, n + 1))\nrows = list(range(n))\nodd = list(range(1, n, 2))\n",
        "e.py": "from .linalg import signed\n\nm = signed(cols)\nok = linalg.signed(cols) is None\nsigned_proj = 1\n",
    }
    assert encoding_readers(sources) == [
        ("a.py", 1), ("a.py", 3), ("b.py", 3), ("d.py", 1), ("e.py", 1), ("e.py", 3), ("e.py", 4)
    ]


def test_only_linalg_reads_the_encoding():
    # every sum, product and comparison of matrices takes either encoding,
    # so no other module branches on Signed against Columns, and the signed
    # identity comes from linalg.identity, not written out by hand
    src = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py")) if p.name != "linalg.py"}
    assert encoding_readers(src) == []
