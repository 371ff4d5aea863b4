"""Hopf structure maps: axiom suites, antipode tables, characters."""

import random
from fractions import Fraction

import pytest

from hopfcyc.core import Generator, tensor
from hopfcyc.errors import UnsolvableError
from hopfcyc.instances import build_h1cop, modular_character, retag


def test_axioms_degree_three(h1cop):
    report = h1cop.verify_hopf_axioms(degree=3)
    assert report["ok"], report


def test_inverse_antipode(h1cop):
    report = h1cop.verify_inv_antipode(degree=2, index_bound=2)
    assert report["ok"], report


def test_coproduct_tables(h1cop):
    x, y, d1 = h1cop.gen("X"), h1cop.gen("Y"), h1cop.gen("d", 1)
    one = h1cop.unit()
    assert h1cop.coproduct(x) == tensor([x, one]) + tensor([one, x]) + tensor([y, d1])
    assert h1cop.coproduct(y) == tensor([y, one]) + tensor([one, y])
    assert h1cop.coproduct(d1) == tensor([d1, one]) + tensor([one, d1])
    # derived entry: Delta(d[2]) = [Delta(X), Delta(d[1])]
    dx, dd1 = h1cop.coproduct(x), h1cop.coproduct(d1)
    assert h1cop.coproduct(h1cop.gen("d", 2)) == dx.leg_mul(dd1) - dd1.leg_mul(dx)


def test_antipode_table(h1cop):
    x, y, d1 = h1cop.gen("X"), h1cop.gen("Y"), h1cop.gen("d", 1)
    assert h1cop.antipode(x) == -x + y * d1
    assert h1cop.antipode(y) == -y
    assert h1cop.antipode(d1) == -d1
    # S is an anti-homomorphism
    assert h1cop.antipode(x * y) == h1cop.antipode(y) * h1cop.antipode(x)


def test_antipode_of_higher_deltas(h1cop):
    # forced by S being an algebra antimorphism on [X, d[k]] = d[k+1]
    d1, d2 = h1cop.gen("d", 1), h1cop.gen("d", 2)
    assert h1cop.antipode(d2) == d1 * d1 - d2
    # the antipode axiom m(S (x) id)Delta = unit*counit holds on d[2]
    conv = h1cop.zero()
    for (w1, w2), c in h1cop.coproduct(d2).terms.items():
        conv = conv + (h1cop.antipode(h1cop.from_word(w1)) * h1cop.from_word(w2)).scale(c)
    assert conv.is_zero


def test_antipode_squared(h1cop):
    x, y, d1 = h1cop.gen("X"), h1cop.gen("Y"), h1cop.gen("d", 1)
    s2 = lambda e: h1cop.antipode(h1cop.antipode(e))
    assert s2(y) == y
    assert s2(x) == x - d1
    for k in (1, 2, 3, 4):
        dk = h1cop.gen("d", k)
        assert s2(dk) == dk


def test_inv_antipode_values(h1cop):
    x, y, d1 = h1cop.gen("X"), h1cop.gen("Y"), h1cop.gen("d", 1)
    assert h1cop.inv_antipode(x) == -x + d1 * y
    assert h1cop.inv_antipode(y) == -y
    assert h1cop.inv_antipode(d1) == -d1
    # left and right inverse of S
    rng = random.Random(77)
    letters = h1cop.letters(2)
    for _ in range(10):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
        e = h1cop.from_word(w)
        assert h1cop.inv_antipode(h1cop.antipode(e)) == e
        assert h1cop.antipode(h1cop.inv_antipode(e)) == e


def test_sweedler_legs(h1cop):
    x = h1cop.gen("X")
    three = h1cop.sweedler(x, 3)
    assert three.legs == 3
    # contracting the middle leg with the counit recovers the coproduct
    assert three.leg_scalar(2, h1cop.counit) == h1cop.coproduct(x)
    assert h1cop.sweedler(x, 1) == tensor([x])


def test_counit_is_algebra_map_random(h1cop):
    rng = random.Random(5150)
    letters = h1cop.letters(2)
    for _ in range(15):
        w1 = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        w2 = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        a, b = h1cop.from_word(w1), h1cop.from_word(w2)
        assert h1cop.counit(a * b) == h1cop.counit(a) * h1cop.counit(b)


def test_modular_character(h1cop):
    delta = modular_character(h1cop)
    assert delta.check(index_bound=3)
    assert delta(h1cop.gen("Y")) == 1
    assert delta(h1cop.gen("X")) == 0
    assert delta(h1cop.unit()) == 1


def test_unsolvable_inverse_antipode_raises():
    h = build_h1cop()
    h._ansatz_bound = 2
    with pytest.raises(UnsolvableError):
        h._solve_inv_antipode(Generator("d", 8))


# -- the inverse antipode of F ▷◁ U -------------------------------------------


@pytest.mark.parametrize("k", range(1, 9))
def test_bicrossed_inv_antipode_on_deltas(bicrossed, k):
    # F ▷◁ 1 is a Hopf subalgebra, so S⁻¹(d[k]) is F's value read in F ▷◁ U;
    # past k = 4 the ansatz's degree bound no longer reaches it (d[1]^5 in
    # S⁻¹(d[5]))
    h, g = bicrossed.hopf, Generator("d", k)
    value = h.gen_inv_antipode(g)
    assert h.antipode(value) == h.gen("d", k)
    assert value == retag(bicrossed.mp.f.gen_inv_antipode(g), h)
    if k <= 4:
        # the linear ansatz is the independent second route
        assert value == h._solve_inv_antipode(g)


def test_bicrossed_inv_antipode_on_u_letters(bicrossed):
    h = bicrossed.hopf
    x, y, d1 = h.gen("X"), h.gen("Y"), h.gen("d", 1)
    assert h.gen_inv_antipode(Generator("X")) == -x + d1 * y
    assert h.gen_inv_antipode(Generator("Y")) == -y


@pytest.mark.parametrize("xs, k", [(1, 2), (2, 2), (3, 1), (4, 1)])
def test_bicrossed_deep_roundtrip(bicrossed, xs, k):
    # X^xs d[k]: each X moved past the δ-family raises an index, so X^4 d[1]
    # holds d[5], beyond the ansatz's degree bound
    h = bicrossed.hopf
    e = h.from_word((Generator("X"),) * xs + (Generator("d", k),))
    assert h.antipode(h.inv_antipode(e)) == e
    assert h.inv_antipode(h.antipode(e)) == e
    delta = h.coproduct(e)
    assert delta.leg_scalar(1, h.counit) == tensor([e])
    assert delta.leg_scalar(2, h.counit) == tensor([e])
