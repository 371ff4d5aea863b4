"""Command-line interface.

Every command emits a deterministic JSON report on stdout (sorted keys,
canonical tensor serialization, no timing inside the payload); wall-clock
time goes to stderr.  The report's ``input_sha256`` names the run's inputs:
it is the sha256 of the JSON list ``[command, degree, upto, file_sha256]``,
with the flags as given (null when absent) and the sha256 of the
``--file`` bytes (null without a file).  A negative ``--degree`` or
``--upto`` is refused.  Error classes map to distinct exit codes; any other
exception ends the run as an :class:`~hopfcyc.errors.InternalError`, with a
one-line message and no traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import traceback
from fractions import Fraction
from functools import partial

from . import dsl
from .coefficients import (
    bicrossed_module_algebra_f,
    bicrossed_module_coalgebra_u,
    build_coideal_quotient_bicrossed,
    check_ah_sayd,
    check_ch_sayd,
    check_mpi,
    check_sayd,
    counterexample_algebra,
    counterexample_coalgebra,
    group_set_module_coalgebra,
    inv_antipode_via_twist,
    mc_conjugation_group,
    mc_graded_group,
    mc_regular,
    mc_trivial,
)
from .cocyclic import build_coalgebra_instance, check_cocyclic, cyclic_cohomology
from .core import Generator
from .cup import check_cup_suite
from .errors import HopfcycError, InternalError, PreconditionError
from .hopf import Character, GroupLike
from .instances import (
    GroupSetData,
    build_bicrossed,
    build_group_algebra,
    build_h1cop,
    build_matched_pair,
    check_matched_pair,
    cyclic_group,
    modular_character,
    swap_instance,
)
from .kaygun import KaygunBridge, check_iso, check_w_in_ker_pi, commutator_identities, kaygun_cohomology

VERSION = "0.1.0"


def jsonable(x):
    """Recursively coerce a report into JSON-serializable values with exact
    rationals rendered as strings."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, Generator):  # a tuple, but reported as "d[2]"
        return str(x)
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, (bool, int, float, str)) or x is None:
        return x
    return str(x)


def _point_instance():
    return GroupSetData(cyclic_group(1), ["p"], {("1", "p"): "p"})


def _swap_instances(top: int):
    """Builders of the trivial and the graded instance on the swap G-set, by
    name.  A caller that builds each inside the expression that uses it
    holds no instance while it builds the next one."""
    gs = swap_instance()
    c_mod = group_set_module_coalgebra(gs)
    h = c_mod.hopf
    yield "trivial", partial(build_coalgebra_instance, mc_trivial(h), c_mod, top)
    graded_space = build_group_algebra(gs.group, name="kG_coeff")
    yield "graded", partial(build_coalgebra_instance, mc_graded_group(h, graded_space), c_mod, top)


def _checked_cohomology(inst, upto: int) -> dict:
    """:func:`cyclic_cohomology` of an instance after :func:`check_cocyclic`;
    the instance is let go on return."""
    check_cocyclic(inst)
    return cyclic_cohomology(inst, upto)


# -- commands ------------------------------------------------------------------


def cmd_verify_hopf(args):
    degree = args.degree if args.degree is not None else 2
    if args.file:
        ast = dsl.parse(args.file_text)
        roundtrip = dsl.parse(dsl.print_file(ast)) == ast
        # each presentation is built when the loop below reaches it
        targets = ((hast.name, dsl.build_hopf(hast)) for hast in ast.hopfs)
    else:
        mp = build_matched_pair()
        targets = [
            ("h1cop", build_h1cop()),
            ("u", mp.u),
            ("f", mp.f),
            ("bicrossed", build_bicrossed(mp).hopf),
        ]
    report = {}
    for name, h in targets:
        # index bound 2 is part of what the inverse-antipode check
        # reports; it stays fixed so the reports stay byte-identical
        report[name] = {
            "axioms": h.verify_hopf_axioms(degree=degree),
            "inverse_antipode": h.verify_inv_antipode(degree=min(degree, 2)),
        }
    if args.file:
        report["roundtrip"] = roundtrip
    report["ok"] = all(
        v["axioms"]["ok"] and v["inverse_antipode"]["ok"]
        for v in report.values()
        if isinstance(v, dict)
    )
    return report


def cmd_check_matched_pair(args):
    degree = args.degree if args.degree is not None else 2
    return check_matched_pair(build_matched_pair(), degree=degree)


def cmd_check_sayd(args):
    gs = swap_instance()
    h = build_group_algebra(gs.group)
    graded_space = build_group_algebra(gs.group, name="kG_coeff")
    conj_space = build_group_algebra(gs.group, name="kG_conj")
    report = {
        "trivial": check_sayd(mc_trivial(h)),
        "graded": check_sayd(mc_graded_group(h, graded_space)),
        "conjugation": check_sayd(mc_conjugation_group(h, conj_space, gs.group)),
    }
    report["ok"] = all(v["ok"] for v in report.values() if isinstance(v, dict))
    return report


def cmd_ch_sayd(args):
    bc = build_bicrossed()
    report = {
        "check": check_ch_sayd(
            mc_regular(bc.hopf),
            bicrossed_module_coalgebra_u(bc),
            degree=1,
            index_bound=1,
            max_chain=1,
        ),
        "counterexample": counterexample_coalgebra(bc),
    }
    report["ok"] = (not report["check"]["ok"]) and report["counterexample"]["nonzero"]
    return report


def cmd_ah_sayd(args):
    bc = build_bicrossed()
    report = {
        "check": check_ah_sayd(
            mc_regular(bc.hopf), bicrossed_module_algebra_f(bc), degree=1, index_bound=1
        ),
        "counterexample": counterexample_algebra(bc),
    }
    report["ok"] = (not report["check"]["ok"]) and report["counterexample"]["nonzero"]
    return report


def cmd_check_mpi(args):
    bc = build_bicrossed()
    h = bc.hopf
    eps = Character(h, {nm: 0 for nm in h.generators})
    one = GroupLike(h, h.unit(), h.unit())
    report = {
        "coalgebra_quotient": check_mpi(h, eps, one, bicrossed_module_coalgebra_u(bc)),
        "algebra_carrier": check_mpi(
            h, modular_character(h), one, bicrossed_module_algebra_f(bc)
        ),
    }
    report["ok"] = all(v["ok"] for v in report.values())
    return report


def cmd_quotient_coideal(args):
    return build_coideal_quotient_bicrossed(build_bicrossed())


def cmd_check_cocyclic(args):
    upto = args.upto if args.upto is not None else 3
    report = {}
    for name, build in _swap_instances(upto + 1):
        report[name] = check_cocyclic(build(), upto=upto)
    report["ok"] = all(v["ok"] for v in report.values())
    return report


def cmd_cohomology(args):
    upto = args.upto if args.upto is not None else 3
    report = {}

    c_mod = group_set_module_coalgebra(_point_instance())
    point = partial(build_coalgebra_instance, mc_trivial(c_mod.hopf), c_mod, upto + 2)
    report["point"] = _checked_cohomology(point(), upto)
    for name, build in _swap_instances(upto + 2):
        report[f"swap_{name}"] = _checked_cohomology(build(), upto)

    report["ok"] = all(v["agree"] for v in report.values() if isinstance(v, dict))
    return report


def cmd_kaygun(args):
    upto = args.upto if args.upto is not None else 2
    gs = swap_instance()
    c_mod = group_set_module_coalgebra(gs)
    bridge = KaygunBridge(mc_trivial(c_mod.hopf), c_mod, top=upto + 2)
    report = {
        "commutators": commutator_identities(bridge, upto=upto),
        "w_in_ker_pi": check_w_in_ker_pi(bridge, upto=upto),
        "iso": check_iso(bridge),
        "cohomology": kaygun_cohomology(bridge, upto=upto),
    }
    report["ok"] = all(v["ok"] for v in report.values())
    return report


def cmd_cup(args):
    top = args.upto if args.upto is not None else 2
    return check_cup_suite(top=top, graded=True)


def cmd_reproduce_paper(args):
    h = build_h1cop()
    delta = modular_character(h)
    X, Y = h.gen("X"), h.gen("Y")

    antipodes = {}
    for name, e in [("X", X), ("Y", Y)] + [(f"d[{k}]", h.gen("d", k)) for k in (1, 2, 3, 4)]:
        antipodes[name] = {
            "S": str(h.antipode(e)),
            "S2": str(h.antipode(h.antipode(e))),
        }

    d1, d2 = h.gen("d", 1), h.gen("d", 2)
    table = [
        ("d[1]", d1, "-d[1]"),
        ("d[2]", d2, "-d[2]"),
        ("d[1] Y", d1 * Y, "d[1] + d[1] Y"),
        ("Y", Y, "-Y"),
        ("X", X, "-X + d[1] Y"),
        ("d[1] d[1] Y", d1 * d1 * Y, "-2 S^{-1}(d[1] d[1]) - d[1] d[1] Y"),
        ("d[1] X", d1 * X, "d[1] X - d[2] - d[1] d[1] Y"),
    ]
    s_inverse = []
    for name, e, expected in table:
        computed = h.inv_antipode(e)
        twist = inv_antipode_via_twist(h, delta, e)
        if "S^{-1}" in expected:
            expanded = h.inv_antipode(d1 * d1).scale(-2) - d1 * d1 * Y
            matches = computed == expanded
        else:
            matches = str(computed) == expected
        s_inverse.append(
            {
                "element": name,
                "computed": str(computed),
                "via_twist": str(twist),
                "twist_agrees": computed == twist,
                "expected": expected,
                "matches_expected": matches,
            }
        )

    bc = build_bicrossed()
    coideal = build_coideal_quotient_bicrossed(bc)

    return {
        "antipodes": antipodes,
        "s_inverse": s_inverse,
        "counterexample_coalgebra": counterexample_coalgebra(bc),
        "counterexample_algebra": counterexample_algebra(bc),
        "coideal": coideal,
        "ok": all(row["twist_agrees"] for row in s_inverse),
    }


# Commands that read ``--file``; every other command rejects it.
FILE_COMMANDS = {"verify-hopf"}

COMMANDS = {
    "verify-hopf": cmd_verify_hopf,
    "check-matched-pair": cmd_check_matched_pair,
    "check-sayd": cmd_check_sayd,
    "ch-sayd": cmd_ch_sayd,
    "ah-sayd": cmd_ah_sayd,
    "check-mpi": cmd_check_mpi,
    "quotient-coideal": cmd_quotient_coideal,
    "check-cocyclic": cmd_check_cocyclic,
    "cohomology": cmd_cohomology,
    "kaygun": cmd_kaygun,
    "cup": cmd_cup,
    "reproduce-paper": cmd_reproduce_paper,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hopfcyc", description=__doc__)
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("--file", help="presentation file to operate on")
    p.add_argument("--degree", type=int, help="verification degree bound")
    p.add_argument("--upto", type=int, help="top cochain degree")
    p.add_argument("--json", dest="json_out", help="also write the report to this path")
    return p


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    for flag in ("degree", "upto"):
        value = getattr(args, flag)
        if value is not None and value < 0:
            raise PreconditionError(f"--{flag} must be non-negative, got {value}")
    file_sha256 = None
    if args.file:
        if args.command not in FILE_COMMANDS:
            raise PreconditionError(f"{args.command} does not read --file")
        try:
            with open(args.file, "rb") as fh:
                data = fh.read()
        except OSError as e:
            raise PreconditionError(f"cannot read --file {args.file}: {e.strerror}") from None
        try:
            args.file_text = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise PreconditionError(f"--file {args.file} is not UTF-8 text: {e.reason}") from None
        file_sha256 = hashlib.sha256(data).hexdigest()
    inputs = json.dumps([args.command, args.degree, args.upto, file_sha256])
    digest = hashlib.sha256(inputs.encode()).hexdigest()
    result = COMMANDS[args.command](args)
    report = {
        "command": args.command,
        "version": VERSION,
        "input_sha256": digest,
        "result": jsonable(result),
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if args.json_out:
        try:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise PreconditionError(f"cannot write --json {args.json_out}: {e.strerror}") from None
    print(f"elapsed: {time.monotonic() - start:.3f}s", file=sys.stderr)
    if isinstance(result, dict) and result.get("ok") is False:
        raise PreconditionError(f"{args.command}: checks failed")
    return 0


def main() -> None:
    try:
        sys.exit(run())
    except HopfcycError as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(e.exit_code)
    except Exception as e:
        # a bug, not a verdict: one line naming the exception and where it
        # was raised, so the case can be found without a traceback
        where = traceback.extract_tb(e.__traceback__)[-1]
        detail = " ".join(str(e).split())
        err = InternalError(
            f"{type(e).__name__}: {detail} (at {os.path.basename(where.filename)}:{where.lineno})"
        )
        print(f"internal error: {err}", file=sys.stderr)
        sys.exit(err.exit_code)


if __name__ == "__main__":
    main()
