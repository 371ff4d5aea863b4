"""Span tracer that wraps ``hopfcyc`` functions from outside the package.

Nothing under ``src/`` knows about it: :class:`Tracer` replaces the traced
functions while it is active and puts the originals back on exit.  A module
function can be bound under several names (``kaygun.rref`` and
``linalg.rref`` are one object, bound at import by ``from .linalg import``),
so every ``hopfcyc.*`` module attribute holding the original is rebound.
Methods are patched on their class.

Spans are kept in memory as parallel arrays (name, parent, start, end) and
reduced to per-function metrics, or written out, when the run ends.
"""

from __future__ import annotations

import contextlib
import gzip
import sys
import time
from array import array

# Layer (module) -> functions traced in it.  The names are the module's
# public functions, or ``Class.method``.
TARGETS = {
    "core": ["AlgElt.__mul__", "TensorElt.leg_apply"],
    "rewrite": ["RuleSet.normalize_terms"],
    "hopf": [
        "HopfPresentation.coproduct",
        "HopfPresentation.antipode",
        "HopfPresentation.inv_antipode",
        "HopfPresentation.verify_hopf_axioms",
    ],
    "instances": ["check_matched_pair"],
    "coefficients": [
        "check_mpi",
        "check_sayd",
        "check_ch_sayd",
        "check_ah_sayd",
        "build_coideal_quotient_bicrossed",
    ],
    "dsl": ["parse", "build_hopf"],
    "linalg": [
        "rref",
        "solve",
        "nullspace",
        "rank",
        "mat_mul",
        "mat_vec",
        "Quotient.__init__",
        "Quotient.project",
        "Quotient.induced_matrix",
        "Quotient.preserves_relations",
    ],
    "cocyclic": [
        "op_matrix",
        "RelativeTensorSpace.__init__",
        "build_coalgebra_instance",
        "check_cocyclic",
        "cyclic_cohomology",
        "AlgebraCochainInstance.__init__",
    ],
    "kaygun": [
        "KaygunBridge.w_rows",
        "KaygunBridge.commutator_matrix",
        "check_w_in_ker_pi",
        "check_iso",
    ],
    "cup": ["check_cup_suite"],
}

# Functions whose call count is fixed by the op list; their ``.calls`` metric
# carries no information and is left out to keep the metric count small.
FIXED_CALLS = {
    "hopf.HopfPresentation.verify_hopf_axioms",
    "instances.check_matched_pair",
    "coefficients.check_mpi",
    "coefficients.check_sayd",
    "coefficients.check_ch_sayd",
    "coefficients.check_ah_sayd",
    "coefficients.build_coideal_quotient_bicrossed",
    "dsl.parse",
    "dsl.build_hopf",
    "cocyclic.build_coalgebra_instance",
    "cocyclic.check_cocyclic",
    "cocyclic.cyclic_cohomology",
    "cocyclic.AlgebraCochainInstance.__init__",
    "kaygun.check_w_in_ker_pi",
    "kaygun.check_iso",
    "cup.check_cup_suite",
}

PACKAGE = "hopfcyc"
RREF = "linalg.rref"
# Span around the tracer's own count of rref's input, so that its time is a
# child of the caller's span and leaves the caller's ``self_s``.
RREF_COUNT = "trace.rref_count"
NO_CALLS = {"calls": 0, "s": 0.0, "self_s": 0.0}


def traced_names():
    return [f"{mod}.{qual}" for mod, quals in TARGETS.items() for qual in quals]


def layer_metric_names(op_names):
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for fn in traced_names():
        if fn not in FIXED_CALLS:
            names.append(f"{fn}.calls")
        names += [f"{fn}.s", f"{fn}.self_s"]
    names += [f"{RREF}.cells", f"{RREF}.nnz"]
    names += [f"cli.{op}.s" for op in op_names]
    return names


def _matrix_size(m):
    """(rows×cols, nonzeros) of a list-of-rows matrix."""
    if not m:
        return 0, 0
    return len(m) * len(m[0]), sum(1 for row in m for x in row if x)


class Tracer:
    """Context manager that records a span for every call of the targets.

    ``.s`` of a function sums its outermost calls only (a recursive or
    re-entrant call inside another call of the same function adds nothing);
    ``self_s`` sums, over every call, its duration minus that of its direct
    child spans.  Child spans never overlap, because the program is
    single-threaded.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_of: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.outer = array("b")
        self.depth: list[int] = []
        self.stack: list[int] = []
        self.rref_cells = 0
        self.rref_nnz = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self.name_of.get(name)
        if nid is None:
            nid = self.name_of[name] = len(self.names)
            self.names.append(name)
            self.depth.append(0)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.outer.append(1 if self.depth[nid] == 0 else 0)
        self.span_end.append(0.0)
        self.depth[nid] += 1
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, nid: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()
        self.depth[nid] -= 1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of benchmark code, e.g. one op."""
        nid = self._name_id(name)
        idx = self._open(nid)
        try:
            yield
        finally:
            self._close(idx, nid)

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx, nid)

        if name != RREF:
            return wrapper
        timed = wrapper

        def wrapper(*args, **kwargs):
            # counted before rref's span opens, so rref's time leaves it out
            with self.span(RREF_COUNT):
                cells, nnz = _matrix_size(args[0] if args else kwargs["m"])
            self.rref_cells += cells
            self.rref_nnz += nnz
            return timed(*args, **kwargs)

        return wrapper

    # -- installing and removing the wrappers ----------------------------------

    def __enter__(self):
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        try:
            for mod_name, quals in TARGETS.items():
                mod = sys.modules[f"{PACKAGE}.{mod_name}"]
                for qual in quals:
                    name = f"{mod_name}.{qual}"
                    if "." in qual:
                        cls_name, meth = qual.split(".")
                        cls = getattr(mod, cls_name)
                        orig = cls.__dict__[meth]
                        self._set(cls, meth, self._wrap(name, orig))
                        continue
                    orig = getattr(mod, qual)
                    wrapper = self._wrap(name, orig)
                    for m in modules:
                        for attr, val in list(vars(m).items()):
                            if val is orig:
                                self._set(m, attr, wrapper)
        except BaseException:
            self._uninstall()
            raise
        return self

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _uninstall(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def __exit__(self, *exc):
        self._uninstall()

    # -- results -----------------------------------------------------------------

    def totals(self) -> dict:
        """name -> {"calls", "s", "self_s"} over all recorded spans."""
        n = len(self.span_name)
        child_time = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child_time[p] += self.span_end[i] - self.span_start[i]
        out = {name: dict(NO_CALLS) for name in self.names}
        for i in range(n):
            rec = out[self.names[self.span_name[i]]]
            dur = self.span_end[i] - self.span_start[i]
            rec["calls"] += 1
            if self.outer[i]:
                rec["s"] += dur
            rec["self_s"] += dur - child_time[i]
        return out

    def write_spans(self, path) -> None:
        """Write every span as ``id parent name start end`` (gzip text)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("# id parent name start_s end_s\n")
            t0 = self.span_start[0] if len(self.span_start) else 0.0
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i} {self.span_parent[i]} {self.names[self.span_name[i]]} "
                    f"{self.span_start[i] - t0:.9f} {self.span_end[i] - t0:.9f}\n"
                )
