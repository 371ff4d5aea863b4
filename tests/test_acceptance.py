"""The acceptance gate: eleven criteria, every comparison exact.

Two entries of the reference antipode tables contradict the Hopf axioms;
those are marked as strict expected failures and the axiom-forced values
are asserted in their place.
"""

import json

import pytest

from hopfcyc import cli
from hopfcyc.cocyclic import (
    build_coalgebra_instance,
    check_cocyclic,
    cyclic_cohomology,
)
from hopfcyc.coefficients import (
    build_coideal_quotient_bicrossed,
    check_mpi,
    counterexample_algebra,
    counterexample_coalgebra,
    bicrossed_module_coalgebra_u,
    inv_antipode_via_twist,
    mc_graded_group,
    mc_trivial,
)
from hopfcyc.cup import check_cup_suite
from hopfcyc.hopf import Character, GroupLike
from hopfcyc.instances import (
    build_group_algebra,
    check_matched_pair,
    cyclic_group,
    modular_character,
)
from hopfcyc.kaygun import KaygunBridge, check_iso, check_w_in_ker_pi, kaygun_cohomology


# -- criterion 1: antipode and squared-antipode tables -------------------------


def test_criterion_1_antipode_tables(h1cop):
    h = h1cop
    x, y, d1 = h.gen("X"), h.gen("Y"), h.gen("d", 1)
    s2 = lambda e: h.antipode(h.antipode(e))
    assert h.antipode(x) == -x + y * d1
    assert h.antipode(y) == -y
    assert h.antipode(d1) == -d1
    assert s2(y) == y
    assert s2(x) == x - d1
    for k in (1, 2, 3, 4):
        assert s2(h.gen("d", k)) == h.gen("d", k)


@pytest.mark.xfail(
    strict=True, reason="S(d[k]) = -d[k] for k >= 2 contradicts the antipode axiom"
)
def test_criterion_1_higher_delta_claim(h1cop):
    for k in (2, 3, 4):
        dk = h1cop.gen("d", k)
        assert h1cop.antipode(dk) == -dk


def test_criterion_1_higher_delta_corrected(h1cop):
    # the axiom-forced values, rechecked against m(S (x) id)Delta = unit*counit
    h = h1cop
    d1, d2 = h.gen("d", 1), h.gen("d", 2)
    assert h.antipode(d2) == d1 * d1 - d2
    for k in (2, 3, 4):
        dk = h.gen("d", k)
        conv = h.zero()
        for (w1, w2), c in h.coproduct(dk).terms.items():
            conv = conv + (h.antipode(h.from_word(w1)) * h.from_word(w2)).scale(c)
        assert conv.is_zero


# -- criterion 2: the inverse-antipode table -----------------------------------


S_INV_TABLE = [
    # (element factors, reference right-hand side, reproducible)
    ("d1", "-d[1]", True),
    ("d2", "-d[2]", False),
    ("d1*Y", "d[1] + d[1] Y", True),
    ("Y", "-Y", True),
    ("X", "-X + d[1] Y", True),
    ("d1*d1*Y", None, True),  # self-referential display, checked below
    ("d1*X", "d[1] X - d[2] - d[1] d[1] Y", False),
]


def _element(h, key):
    d1, x, y = h.gen("d", 1), h.gen("X"), h.gen("Y")
    return {
        "d1": d1,
        "d2": h.gen("d", 2),
        "d1*Y": d1 * y,
        "Y": y,
        "X": x,
        "d1*d1*Y": d1 * d1 * y,
        "d1*X": d1 * x,
    }[key]


def test_criterion_2_reproducible_formulas(h1cop):
    h = h1cop
    for key, rhs, reproducible in S_INV_TABLE:
        if not reproducible or rhs is None:
            continue
        assert str(h.inv_antipode(_element(h, key))) == rhs
    # the self-referential display: S'(d1 d1 Y) = -2 S'(d1 d1) - d1 d1 Y
    d1, y = h.gen("d", 1), h.gen("Y")
    assert h.inv_antipode(d1 * d1 * y) == h.inv_antipode(d1 * d1).scale(-2) - d1 * d1 * y


def test_criterion_2_twist_cross_check(h1cop):
    # every table element satisfies S'(h) = delta(S(h3)) delta(h1) S(h2)
    delta = modular_character(h1cop)
    for key, _, _ in S_INV_TABLE:
        e = _element(h1cop, key)
        assert inv_antipode_via_twist(h1cop, delta, e) == h1cop.inv_antipode(e)


@pytest.mark.xfail(
    strict=True, reason="two displayed values contradict S composed with its inverse"
)
def test_criterion_2_defective_formulas(h1cop):
    h = h1cop
    for key, rhs, reproducible in S_INV_TABLE:
        if reproducible:
            continue
        assert str(h.inv_antipode(_element(h, key))) == rhs


def test_criterion_2_defective_formulas_corrected(h1cop):
    h = h1cop
    d1, d2, x, y = h.gen("d", 1), h.gen("d", 2), h.gen("X"), h.gen("Y")
    assert h.inv_antipode(d2) == d1 * d1 - d2
    assert h.inv_antipode(d1 * x) == d2 + d1 * x - d1 * d1 - d1 * d1 * y
    assert h.antipode(h.inv_antipode(d2)) == d2
    assert h.antipode(h.inv_antipode(d1 * x)) == d1 * x


# -- criteria 3 and 4: the compatibility counterexamples -----------------------


def test_criterion_3_coalgebra_counterexample(bicrossed):
    rep = counterexample_coalgebra(bicrossed)
    assert rep["lhs"] == "X⊗d[1] X + Y X⊗d[1] d[1]"
    assert rep["difference"] == "Y X⊗d[1] d[1]"
    assert rep["nonzero"]


def test_criterion_4_algebra_counterexample(bicrossed):
    rep = counterexample_algebra(bicrossed)
    assert rep["lhs"] == "d[1]⊗d[1] X - d[1]⊗d[1] d[1]"
    assert rep["difference"] == "-d[1]⊗d[1] d[1]"
    assert rep["nonzero"]


# -- criterion 5: Hopf axiom suite ---------------------------------------------


def test_criterion_5_axiom_suite(h1cop, matched_pair, bicrossed):
    assert h1cop.verify_hopf_axioms(degree=3)["ok"]
    assert matched_pair.f.verify_hopf_axioms(degree=3)["ok"]
    assert matched_pair.u.verify_hopf_axioms(degree=3)["ok"]
    assert bicrossed.hopf.verify_hopf_axioms(degree=3)["ok"]
    assert check_matched_pair(matched_pair, degree=2)["ok"]


# -- criterion 6: the coideal quotient -----------------------------------------


def test_criterion_6_coideal(bicrossed):
    h = bicrossed.hopf
    # phi(S^2(X^n) - X^n) = 0 for n <= 4
    x = h.gen("X")
    xn = h.unit()
    for n in range(1, 5):
        xn = xn * x
        assert bicrossed.project_u(h.antipode(h.antipode(xn)) - xn).is_zero
    report = build_coideal_quotient_bicrossed(bicrossed)
    assert report["ok"], report["checks"]
    # (counit, 1) is a modular pair in involution on the quotient
    eps = Character(h, {nm: 0 for nm in h.generators})
    one = GroupLike(h, h.unit(), h.unit())
    assert check_mpi(h, eps, one, bicrossed_module_coalgebra_u(bicrossed))["ok"]


# -- criterion 7: cocyclicity on the finite instance ---------------------------


def test_criterion_7_cocyclicity(swap_cmod):
    trivial = build_coalgebra_instance(mc_trivial(swap_cmod.hopf), swap_cmod, 4)
    assert check_cocyclic(trivial, upto=3)["ok"]
    graded_space = build_group_algebra(cyclic_group(2), name="kG_g")
    graded = build_coalgebra_instance(
        mc_graded_group(swap_cmod.hopf, graded_space), swap_cmod, 4
    )
    assert check_cocyclic(graded, upto=3)["ok"]


# -- criterion 8: cohomology oracle agreement ----------------------------------


def test_criterion_8_cohomology(point_cmod, swap_cmod):
    point = build_coalgebra_instance(mc_trivial(point_cmod.hopf), point_cmod, 5)
    assert check_cocyclic(point)["ok"]
    rep = cyclic_cohomology(point, 3)
    assert rep["lambda_complex"] == [1, 0, 1, 0]
    assert rep["agree"]

    swap = build_coalgebra_instance(mc_trivial(swap_cmod.hopf), swap_cmod, 5)
    assert check_cocyclic(swap)["ok"]
    rep = cyclic_cohomology(swap, 3)
    assert rep["agree"]
    assert rep["lambda_complex"] == [1, 0, 1, 0]


# -- criterion 9: the quotient-complex bridge ----------------------------------


def test_criterion_9_kaygun(swap_cmod):
    bridge = KaygunBridge(mc_trivial(swap_cmod.hopf), swap_cmod, top=4)
    assert check_w_in_ker_pi(bridge, upto=2)["ok"]
    iso = check_iso(bridge)
    assert iso["ok"], iso
    rep = kaygun_cohomology(bridge, upto=2)
    assert rep["ok"]
    # same dimensions as the relative route of criterion 8
    assert rep["dims"] == [1, 0, 1]


# -- criterion 10: the cup product ---------------------------------------------


def test_criterion_10_cup():
    report = check_cup_suite(top=2, graded=True)
    assert report["ok"], report
    cup_check = report["checks"][-1]
    for bidegree in ("0,0", "0,1", "1,0", "1,1"):
        assert cup_check["inputs"][bidegree] == "cyclic/cyclic"


# -- criterion 11: determinism -------------------------------------------------


def test_criterion_11_determinism(capsys):
    cli.run(["reproduce-paper"])
    first = capsys.readouterr().out
    cli.run(["reproduce-paper"])
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["result"]["ok"]
