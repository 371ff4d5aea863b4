"""The benchmark's workloads: the ops each one runs, their seeded inputs, and
a known-answer check for every op.

The program gets only the generated inputs, through ``hopfcyc.cli.run`` and
the public functions of ``hopfcyc.*``.  Each op builds its instances fresh,
as a CLI process does, so ops repeated in one process cost what separate CLI
runs would, minus interpreter start.  The checks use known answers rather
than report digests, so that deliberate report changes (new fields) do not
read as failures.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HOPF_FILE = SRC / "hopfcyc" / "data" / "h1cop.hopf"

WORKLOADS = ("symbolic", "cochain", "bridge")

# Letters of the seeded round-trip elements.  The bicrossed product F ▷◁ U
# leaves out X: a word holding X with d[2] or a second X costs from 4 s to
# 90 s to invert there (X X d[2]: 90 s), against 0.3 s for every other word
# of degree ≤ 3, so with X the cost of a pass would swing by seed.
H1COP_LETTERS = (("X", None), ("Y", None), ("d", 1), ("d", 2))
BICROSSED_LETTERS = (("Y", None), ("d", 1), ("d", 2))
ROUNDTRIP_ELEMENTS = 24


class SetupError(Exception):
    """The checkout does not hold the program the benchmark measures."""


def import_program():
    """Import ``hopfcyc`` from ``src/`` of this checkout, and nowhere else."""
    if not (SRC / "hopfcyc" / "__init__.py").is_file():
        raise SetupError(f"no hopfcyc package under {SRC}")
    sys.path.insert(0, str(SRC))
    # hopfcyc.cli imports every module of the package, so the tracer finds
    # all of them in sys.modules
    import hopfcyc.cli

    if Path(hopfcyc.__file__).resolve().parent != SRC / "hopfcyc":
        raise SetupError(f"hopfcyc imported from {hopfcyc.__file__}, not {SRC}")


@dataclass
class Op:
    """One user-visible operation: ``run`` is timed, ``check`` is not.

    ``check`` returns None when the result is right, else a short reason."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


# -- CLI commands ---------------------------------------------------------------


def cli_op(name: str, argv: list[str], extra: Callable[[dict], str | None] | None = None) -> Op:
    from hopfcyc import cli

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.run(argv)
        return rc, out.getvalue()

    def check(res):
        rc, text = res
        result = json.loads(text)["result"]
        if rc != 0:
            return f"exit code {rc}"
        if result.get("ok") is not True:
            return "result.ok is not true"
        return extra(result) if extra else None

    return Op(name, run, check)


def _check_roundtrip(result):
    return None if result.get("roundtrip") is True else "dsl parse∘print roundtrip failed"


def _check_cohomology(result):
    for key in ("point", "swap_trivial", "swap_graded"):
        rep = result.get(key, {})
        if rep.get("lambda_complex") != [1, 0, 1, 0] or rep.get("agree") is not True:
            return f"{key}: lambda_complex {rep.get('lambda_complex')}, agree {rep.get('agree')}"
    return None


def _check_kaygun(result):
    dims = result["cohomology"].get("dims")
    if dims != [1, 0, 1]:
        return f"cohomology dims {dims}"
    iso = result["iso"]
    if iso["cm_dims"] != iso["relative_dims"]:
        return f"cm_dims {iso['cm_dims']} != relative_dims {iso['relative_dims']}"
    return None


# -- rewrite-engine words -------------------------------------------------------


def words_op(n: int) -> Op:
    """Normalize the single word X^n d[1] in a fresh h1cop.

    By the rule X d[k] -> d[k] X + d[k+1], the normal form is
    Σ_j C(n,j) d[1+j] X^(n−j); that closed form is the oracle, so the check
    does not go through the rewrite engine."""
    from hopfcyc.core import Generator
    from hopfcyc.instances import build_h1cop

    x = Generator("X")
    word = (x,) * n + (Generator("d", 1),)
    expected = {(Generator("d", 1 + j),) + (x,) * (n - j): Fraction(comb(n, j)) for j in range(n + 1)}

    def run():
        return build_h1cop().from_word(word)

    def check(e):
        return None if e.terms == expected else f"X^{n} d[1] has {len(e.terms)} terms, not the binomial sum"

    return Op(f"words-{n}", run, check)


# -- seeded antipode round trips --------------------------------------------------


def roundtrip_inputs(seed: int, letters):
    """ROUNDTRIP_ELEMENTS seeded elements of degree ≤ 3 over ``letters``, as lists of
    (word as (name, index) letters, coefficient).  Every element has one term
    of each degree 1, 2, 3, so that sizes, and costs, do not depend on the
    seed; only letters and coefficients do."""
    rng = random.Random(seed)
    elements = []
    for _ in range(ROUNDTRIP_ELEMENTS):
        terms = []
        for degree in (1, 2, 3):
            word = tuple(rng.choice(letters) for _ in range(degree))
            coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
            terms.append((word, coeff))
        elements.append(terms)
    return elements


def roundtrip_op(name: str, build_hopf: Callable, elements) -> Op:
    """S(S⁻¹(e)) = e, S⁻¹(S(e)) = e and Δ(e) on each seeded element.  The
    coproduct is checked by the counit identities (ε⊗id)Δ = id = (id⊗ε)Δ."""
    from hopfcyc.core import Generator, tensor

    words = [
        [(tuple(Generator(g, k) for g, k in word), c) for word, c in terms] for terms in elements
    ]

    def run():
        h = build_hopf()
        out = []
        for terms in words:
            e = h.elt(dict(terms))
            out.append((e, h.antipode(h.inv_antipode(e)), h.inv_antipode(h.antipode(e)), h.coproduct(e)))
        return h, out

    def check(res):
        h, out = res
        for k, (e, s_sinv, sinv_s, delta) in enumerate(out):
            if s_sinv != e:
                return f"element {k}: S(S⁻¹(e)) != e"
            if sinv_s != e:
                return f"element {k}: S⁻¹(S(e)) != e"
            one_leg = tensor([e])
            if delta.leg_scalar(1, h.counit) != one_leg or delta.leg_scalar(2, h.counit) != one_leg:
                return f"element {k}: counit identity fails on Δ(e)"
        return None

    return Op(name, run, check)


# -- the Kaygun bridge on the regular S3 G-set ------------------------------------


def s3_mult():
    """Multiplication table of S3 on permutation labels (``e``, ``p102``, …)."""
    perms = list(itertools.permutations((0, 1, 2)))

    def label(p):
        return "e" if p == (0, 1, 2) else "p" + "".join(map(str, p))

    mult = {(label(a), label(b)): label(tuple(a[b[i]] for i in range(3))) for a in perms for b in perms}
    return [label(p) for p in perms], mult


def bridge_ops() -> list[Op]:
    """KaygunBridge.w_rows(1), then check_w_in_ker_pi(upto=1), on one bridge:
    S3 acting on itself by left translation, graded (non-SAYD) coefficients,
    top=1.  W¹ is nonzero and escapes the kernel of the projection, so the
    expected verdict of the second op is negative."""
    from hopfcyc.coefficients import group_set_module_coalgebra, mc_graded_group
    from hopfcyc.instances import GroupData, GroupSetData, build_group_algebra
    from hopfcyc.kaygun import KaygunBridge, check_w_in_ker_pi

    elements, mult = s3_mult()
    state = {}

    def w_rows():
        s3 = GroupData(elements, "e", mult)
        cmod = group_set_module_coalgebra(GroupSetData(s3, list(elements), dict(mult)))
        mc = mc_graded_group(cmod.hopf, build_group_algebra(s3, name="kS3_g"))
        state["bridge"] = KaygunBridge(mc, cmod, top=1)
        return state["bridge"].w_rows(1)

    def w_in_ker_pi():
        return check_w_in_ker_pi(state.pop("bridge"), upto=1)

    return [
        Op("w-rows", w_rows, lambda rows: None if rows else "W¹ is empty"),
        Op(
            "w-in-ker-pi",
            w_in_ker_pi,
            lambda rep: None if rep["ok"] is False else "W¹ reported inside ker Π (expected outside)",
        ),
    ]


# -- workloads --------------------------------------------------------------------


def build(workload: str, seed: int) -> list[Op]:
    """The ops of one pass over ``workload``, in order.  Only ``symbolic``
    uses the seed (for its round-trip elements)."""
    if workload == "symbolic":
        from hopfcyc.instances import build_bicrossed, build_h1cop

        return [
            cli_op("verify-hopf", ["verify-hopf"]),
            cli_op("verify-hopf-file", ["verify-hopf", "--file", str(HOPF_FILE)], _check_roundtrip),
            *(
                cli_op(cmd, [cmd])
                for cmd in (
                    "check-mpi",
                    "check-matched-pair",
                    "ch-sayd",
                    "ah-sayd",
                    "quotient-coideal",
                    "reproduce-paper",
                )
            ),
            words_op(60),
            words_op(80),
            roundtrip_op("roundtrip-h1cop", build_h1cop, roundtrip_inputs(seed, H1COP_LETTERS)),
            roundtrip_op(
                "roundtrip-bicrossed",
                lambda: build_bicrossed().hopf,
                roundtrip_inputs(seed, BICROSSED_LETTERS),
            ),
        ]
    if workload == "cochain":
        return [
            cli_op("cohomology", ["cohomology"], _check_cohomology),
            cli_op("check-cocyclic", ["check-cocyclic"]),
            cli_op("kaygun", ["kaygun"], _check_kaygun),
            cli_op("cup", ["cup"]),
            cli_op("check-sayd", ["check-sayd"]),
        ]
    if workload == "bridge":
        return bridge_ops()
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def op_names() -> list[str]:
    """Names of every op of every workload, for the per-op trace metrics."""
    return [op.name for w in WORKLOADS for op in build(w, 0)]
