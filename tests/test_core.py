"""Element arithmetic on presented algebras and tensor legs."""

import random
from fractions import Fraction

import pytest

from hopfcyc.core import Generator, tensor
from hopfcyc.errors import StructureError


def rand_elt(h, rng, letters, degree=2):
    out = h.zero()
    for _ in range(rng.randint(1, 4)):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, degree)))
        out = out + h.from_word(word).scale(Fraction(rng.randint(-3, 3)))
    return out


def test_algebra_ring_axioms_random(h1cop):
    rng = random.Random(20240817)
    letters = h1cop.letters(2)
    for _ in range(25):
        a, b, c = (rand_elt(h1cop, rng, letters) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a * h1cop.unit() == a
        assert h1cop.unit() * a == a
        assert a - a == h1cop.zero()
        assert (-a) + a == h1cop.zero()
        assert a.scale(2) == a + a


def test_scalar_multiplication(h1cop):
    x = h1cop.gen("X")
    assert Fraction(3, 2) * x == x.scale(Fraction(3, 2))
    assert (x.scale(0)).is_zero
    assert x.coeff((Generator("X"),)) == 1
    assert x.coeff(()) == 0


def test_str_rendering(h1cop):
    x, y, d1 = h1cop.gen("X"), h1cop.gen("Y"), h1cop.gen("d", 1)
    assert str(x) == "X"
    assert str(-x + d1 * y) == "-X + d[1] Y"
    # the straightening rule kicks in for products given in the wrong order
    assert str(y * d1) == "d[1] + d[1] Y"
    assert str(h1cop.unit()) == "1"
    assert str(h1cop.zero()) == "0"


def test_mixed_presentation_product_rejected(h1cop, matched_pair):
    with pytest.raises(StructureError):
        h1cop.gen("X") * matched_pair.u.gen("X")


def test_tensor_outer_and_permute(h1cop):
    x, y = h1cop.gen("X"), h1cop.gen("Y")
    t = tensor([x, y])
    assert t.permute([1, 0]) == tensor([y, x])
    assert t.outer(tensor([x])) == tensor([x, y, x])
    assert t.legs == 2


def test_tensor_leg_apply_and_scalar(h1cop):
    x, y = h1cop.gen("X"), h1cop.gen("Y")
    t = tensor([x, y])
    assert t.leg_apply(1, lambda e: e * e) == tensor([x * x, y])
    # contracting a leg with the counit drops it
    assert tensor([h1cop.unit(), y]).leg_scalar(1, h1cop.counit) == tensor([y])
    assert t.leg_scalar(1, h1cop.counit).is_zero


def test_zero_tensor_takes_the_legs_of_a_growing_leg_map(h1cop):
    x, y = h1cop.gen("X"), h1cop.gen("Y")
    grown = tensor([x, y]).leg_apply(1, h1cop.coproduct)
    assert grown.legs == 3
    pushed = tensor([x, y]).scale(0).leg_apply(1, h1cop.coproduct)
    assert pushed.legs == 3
    assert pushed == grown.scale(0)
    assert pushed + grown == grown


def test_tensor_leg_mul_is_componentwise(h1cop):
    x, y, d1 = h1cop.gen("X"), h1cop.gen("Y"), h1cop.gen("d", 1)
    a = tensor([x, y])
    b = tensor([d1, d1])
    assert a.leg_mul(b) == tensor([x * d1, y * d1])


def test_tensor_bilinearity_random(h1cop):
    rng = random.Random(911)
    letters = h1cop.letters(2)
    for _ in range(10):
        a, b = rand_elt(h1cop, rng, letters), rand_elt(h1cop, rng, letters)
        c = rand_elt(h1cop, rng, letters)
        assert tensor([a + b, c]) == tensor([a, c]) + tensor([b, c])
        assert tensor([a, b + c]) == tensor([a, b]) + tensor([a, c])
        assert tensor([a.scale(5), c]) == tensor([a, c]).scale(5)
