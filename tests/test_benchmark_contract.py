"""The names the benchmark's tracer pins in the package must exist.

``perfbench/tracer.py`` wraps the functions listed in its ``TARGETS`` by
name.  A refactor that renames or drops one of them would only show up as a
crash of a traced benchmark run; this test makes it fail here instead, by
resolving every entry the way ``Tracer.__enter__`` does: a module attribute,
or ``Class.__dict__[method]`` for a ``Class.method`` entry.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


def resolves(name):
    mod_name, qual = name.split(".", 1)
    mod = importlib.import_module(f"{tracer.PACKAGE}.{mod_name}")
    if "." in qual:
        cls_name, meth = qual.split(".")
        cls = getattr(mod, cls_name, None)
        return cls is not None and meth in vars(cls)
    return callable(getattr(mod, qual, None))


def test_tracer_targets_resolve():
    names = tracer.traced_names()
    assert names
    assert [name for name in names if not resolves(name)] == []
