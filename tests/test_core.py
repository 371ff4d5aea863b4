"""Element arithmetic on presented algebras and tensor legs."""

import copy
import importlib.resources
import pickle
import random
from fractions import Fraction

import pytest
from cup_oracle import permute

from hopfcyc import cli, dsl
from hopfcyc.core import Generator, Memo, tensor, word_str
from hopfcyc.errors import StructureError
from hopfcyc.rewrite import IndexExpr, LetterPat, RuleSet, SchemaRule


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
    assert permute(t, [1, 0]) == tensor([y, x])
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


# -- interned letters ----------------------------------------------------------


def letters_in(words):
    return [g for w in words for g in w]


def test_letters_are_interned_wherever_made(h1cop):
    text = (importlib.resources.files("hopfcyc") / "data" / "h1cop.hopf").read_text(encoding="utf-8")
    built = dsl.build_hopf(dsl.parse(text).hopfs[0])
    made = [Generator("X"), Generator("d", 3), *built.letters(3)]
    made += letters_in(built.normal_words(3)) + letters_in(h1cop.normal_words(2))
    # the schema rule X d[k] -> d[k] X + d[k+1] makes the letter d[k+1]
    assert any(isinstance(r, SchemaRule) for r in built.ruleset.rules)
    x_d2 = built.normalize_terms({(Generator("X"), Generator("d", 2)): 1})
    assert (Generator("d", 3),) in x_d2
    made += letters_in(x_d2)
    for rule in built.ruleset.rules:
        for lhs, rhs in rule.sample_instances(3):
            made += list(lhs) + letters_in(rhs)
    d2 = Generator("d", 2)
    made += [Generator._make(["d", 2]), d2._replace(index=4), copy.copy(d2), copy.deepcopy(d2)]
    made += [pickle.loads(pickle.dumps(d2)), *copy.deepcopy((d2, Generator("Y")))]
    made += pickle.loads(pickle.dumps((Generator("X"), d2)))
    for g in made:
        assert type(g) is Generator
        assert g is Generator(g.name, g.index)
    assert Generator._make(["d", 2]) is d2
    assert d2._replace(index=4) is Generator("d", 4)


def test_a_word_built_letter_by_letter_finds_a_key_made_elsewhere(h1cop):
    x = Generator("X")
    terms = h1cop.normalize_terms({(x, x, x, Generator("d", 1)): 1})
    assert terms[(Generator("d", 4),)] == 1
    for w, c in terms.items():
        rebuilt = ()
        for name, index in w:
            rebuilt += (Generator(name, index),)
        assert rebuilt is not w
        assert rebuilt in terms and terms[rebuilt] == c
    assert pickle.loads(pickle.dumps(terms)) == terms
    assert copy.deepcopy(terms) == terms


def test_letters_render_and_order_as_tuples():
    x, d2, d3 = Generator("X"), Generator("d", 2), Generator("d", 3)
    assert (str(x), str(d2)) == ("X", "d[2]")
    assert repr(x) == "Generator(name='X', index=None)"
    assert repr(d2) == "Generator(name='d', index=2)"
    name, index = d2
    assert (name, index) == (d2.name, d2.index) == ("d", 2)
    assert tuple(d2) == ("d", 2) and len(d2) == 2 and d2[1] == 2
    assert d2 < d3 and x < d2
    assert sorted([d3, Generator("Y"), d2, x]) == [x, Generator("Y"), d2, d3]
    assert word_str((x, d2)) == "X d[2]"
    assert cli.jsonable({"w": [(x, d2)], "g": d3}) == {"w": [["X", "d[2]"]], "g": "d[3]"}


def test_memo_fills_once_per_key_and_keeps_none():
    calls = []
    memo = Memo(lambda k: calls.append(k) or (None if k == "miss" else k * 2))
    for _ in range(3):
        assert memo["a"] == "aa"
        assert memo["miss"] is None
    assert calls == ["a", "miss"]
    assert dict(memo) == {"a": "aa", "miss": None}


def test_schema_rule_binds_a_segment_once_even_without_a_match():
    k = IndexExpr(var="k")
    rule = SchemaRule([LetterPat("X"), LetterPat("d", k)], [(1, (LetterPat("d", k), LetterPat("X")))])
    bound = []
    bind = rule._bind
    rule._bind = lambda seg: bound.append(seg) or bind(seg)
    # the rule set's redex table asks the rule once per segment
    rs = RuleSet([rule], ("d", "Y", "X"))
    miss, hit = (Generator("Y"), Generator("d", 1)), (Generator("X"), Generator("d", 2))
    for _ in range(3):
        assert rs._find(miss) is None
        pos, L, terms = rs._find(hit)
        assert (pos, L, [(w, c) for w, _, c in terms]) == (0, 2, [((Generator("d", 2), Generator("X")), 1)])
    assert bound == [miss, hit]


def test_memo_keeps_nothing_from_a_fill_that_raises():
    attempts = []

    def fill(key):
        attempts.append(key)
        if len(attempts) < 3:
            raise ValueError(key)
        return key.upper()

    memo = Memo(fill)
    for _ in range(2):
        with pytest.raises(ValueError):
            memo["a"]
        assert "a" not in memo
    assert memo["a"] == "A" and memo["a"] == "A"
    assert attempts == ["a"] * 3


def test_memo_membership_and_get_never_fill():
    memo = Memo(lambda key: pytest.fail(f"filled {key}"))
    assert "a" not in memo
    assert memo.get("a") is None and memo.get("a", 0) == 0
    memo["a"] = None  # set by hand, as the builders set generator tables
    assert "a" in memo and memo["a"] is None
    assert dict(memo) == {"a": None}
