"""Integer-first exact coefficients.

A coefficient of an element or tensor is an ``int`` when it is integral and
a ``Fraction`` with denominator other than 1 otherwise; never a float or a
bool.  The oracle is the all-``Fraction`` route this replaced: the tests
below force every coefficient to ``Fraction`` (the old ``_merge_term``, and
``Fraction`` at every entry point) and compare normal forms, axiom and
modular-pair reports and antipode round trips with the integer-first route.
"""

import argparse
import importlib.resources
import random
from fractions import Fraction

import pytest

from hopfcyc import cli, cocyclic, coefficients, core, cup, dsl, hopf, instances, kaygun, rewrite
from hopfcyc.core import AlgElt, Generator, exact, tensor
from hopfcyc.instances import build_bicrossed, build_group_algebra, build_h1cop, build_matched_pair

MODULES = (core, rewrite, hopf, instances, dsl, coefficients, cocyclic, kaygun, cup)


def fraction_merge_term(terms, w, c):
    """``_merge_term`` as it was before integer coefficients."""
    nc = terms.get(w, Fraction(0)) + c
    if nc == 0:
        terms.pop(w, None)
    else:
        terms[w] = nc


@pytest.fixture
def all_fraction(monkeypatch):
    """Every coefficient made while active is a ``Fraction``."""
    forced = {
        "exact": Fraction,
        "_merge_term": fraction_merge_term,
        "ONE": Fraction(1),
        "ZERO": Fraction(0),
    }
    for mod in MODULES:
        for name, value in forced.items():
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, value)


def canonical(c) -> bool:
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def builders(s3):
    """name -> (builder, letters of the seeded words)."""

    def dsl_h1cop():
        text = (importlib.resources.files("hopfcyc") / "data" / "h1cop.hopf").read_text(
            encoding="utf-8"
        )
        return dsl.build_hopf(dsl.parse(text).hopfs[0])

    def bicrossed():
        return build_bicrossed(build_matched_pair()).hopf

    def ks3():
        return build_group_algebra(s3, name="kS3")

    h1_letters = [Generator("X"), Generator("Y"), Generator("d", 1), Generator("d", 2)]
    # X with d[2] is slow to invert in F ▷◁ U, so its words leave X out
    bc_letters = [Generator("Y"), Generator("d", 1), Generator("d", 2)]
    return {
        "h1cop": (build_h1cop, h1_letters),
        "bicrossed": (bicrossed, bc_letters),
        "kS3": (ks3, [Generator(a) for a in s3.elements if a != s3.identity]),
        "dsl": (dsl_h1cop, h1_letters),
    }


def seeded_elements(h, letters, seed, count=8, degree=3):
    """Random combinations of (mostly non-normal) words with small
    rational coefficients, the same for both routes."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            w = tuple(rng.choice(letters) for _ in range(rng.randint(0, degree)))
            terms[w] = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
        out.append(AlgElt(h, terms))
    return out


def test_exact_is_int_when_integral():
    assert type(exact(Fraction(6, 3))) is int and exact(Fraction(6, 3)) == 2
    assert type(exact(True)) is int and exact(True) == 1
    assert exact(Fraction(1, 2)) == Fraction(1, 2)
    assert type(exact(0.5)) is Fraction
    assert type(exact(-7)) is int


@pytest.mark.parametrize("which", ["h1cop", "bicrossed", "kS3", "dsl"])
def test_coefficients_are_canonical(which, s3):
    build, letters = builders(s3)[which]
    h = build()
    elts = seeded_elements(h, letters, 7)
    made = list(elts)
    for a, b in zip(elts, elts[1:]):
        made += [a * b, a + b, a - b, a.scale(Fraction(1, 2)), a.scale(Fraction(1, 2)).scale(2)]
    made += [h.antipode(e) for e in elts[:4]]
    made += [h.coproduct(e) for e in elts[:4]]
    made += [tensor([a, b]).scale(Fraction(2, 3)).scale(3) for a, b in zip(elts, elts[1:])]
    for x in made:
        assert all(canonical(c) for c in x.terms.values()), x
    # halving then doubling ends on integers whenever the start was integral
    for e in elts:
        if all(type(c) is int for c in e.terms.values()):
            assert all(type(c) is int for c in e.scale(Fraction(1, 2)).scale(2).terms.values())


@pytest.mark.parametrize("which", ["h1cop", "bicrossed", "kS3"])
def test_normal_forms_match_all_fraction_route(which, s3, monkeypatch, all_fraction):
    build, letters = builders(s3)[which]
    old = seeded_elements(build(), letters, 11)
    old_products = [a * b for a, b in zip(old, old[1:])]
    assert all(type(c) is Fraction for x in old + old_products for c in x.terms.values())
    monkeypatch.undo()
    new = seeded_elements(build(), letters, 11)
    new_products = [a * b for a, b in zip(new, new[1:])]
    assert [x.terms for x in new] == [x.terms for x in old]
    assert [x.terms for x in new_products] == [x.terms for x in old_products]


def test_reports_match_all_fraction_route(monkeypatch, all_fraction):
    args = argparse.Namespace(degree=None, file=None)
    old = (cli.cmd_verify_hopf(args), cli.cmd_check_mpi(args))
    monkeypatch.undo()
    new = (cli.cmd_verify_hopf(args), cli.cmd_check_mpi(args))
    assert new == old
    assert new[0]["ok"] and new[1]["ok"]


@pytest.mark.parametrize("which", ["h1cop", "bicrossed"])
def test_antipode_round_trips_match_all_fraction_route(which, s3, monkeypatch, all_fraction):
    build, letters = builders(s3)[which]

    def round_trips():
        h = build()
        out = []
        for e in seeded_elements(h, letters, 5, count=6, degree=2):
            s_inv = h.antipode(h.inv_antipode(e))
            inv_s = h.inv_antipode(h.antipode(e))
            assert s_inv == e and inv_s == e
            out.append((h.inv_antipode(e).terms, h.antipode(e).terms))
        return out

    old = round_trips()
    monkeypatch.undo()
    assert round_trips() == old
