"""Hopf structure maps: axiom suites, antipode tables, characters."""

import importlib.resources
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcyc import cli, dsl
from hopfcyc.coefficients import inv_antipode_via_twist
from hopfcyc.core import Generator, tensor
from hopfcyc.errors import PreconditionError, UnsolvableError
from hopfcyc.instances import (
    build_bicrossed,
    build_group_algebra,
    build_h1cop,
    cyclic_group,
    modular_character,
    retag,
    retag_tensor,
)
from hopfcyc.linalg import solve


def test_axioms_degree_three(h1cop):
    report = h1cop.verify_hopf_axioms(degree=3)
    assert report["ok"], report


def test_inverse_antipode(h1cop):
    report = h1cop.verify_inv_antipode(degree=2)
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


def is_multiplicative(chi, index_bound=3) -> bool:
    """Multiplicativity across the rewrite rules: the character takes equal
    values on both sides of every sampled rule instance."""
    h = chi.hopf
    for rule in h.ruleset.rules:
        for lhs, rhs in rule.sample_instances(index_bound):
            if chi(h.from_word(lhs)) != chi(h.elt(rhs)):
                return False
    return True


def test_modular_character(h1cop):
    delta = modular_character(h1cop)
    assert is_multiplicative(delta, index_bound=3)
    assert delta(h1cop.gen("Y")) == 1
    assert delta(h1cop.gen("X")) == 0
    assert delta(h1cop.unit()) == 1


# -- the antipode against the formulas it replaced ----------------------------


@pytest.fixture(scope="module")
def hook_antipode(h1cop, bicrossed):
    """S on a generator of h1cop, U, F or F ▷◁ U by the formulas that the
    derivation from Δ replaced: the h1cop and U tables, the commutator
    recursion on the δ-family, F's reading of h1cop's values and the
    matched-pair formula S(1 ▷◁ u) = S_U(u⟨0⟩)·S_F(u⟨1⟩).  Shares no code
    with the derivation; memoized per (presentation, generator)."""
    mp = bicrossed.mp
    cache = {}

    def on_word(h, w):
        out = h.unit()
        for g in w:
            out = s(h, g) * out
        return out

    def s(h, g):
        if (h, g) in cache:
            return cache[h, g]
        if h.name == "u" or (h.name == "h1cop" and g.index is None):
            val = {"X": -h.gen("X"), "Y": -h.gen("Y")}[g.name]
            if h.name == "h1cop" and g.name == "X":
                val = val + h.gen("Y") * h.gen("d", 1)
        elif h.name == "h1cop":
            if g.index == 1:
                val = -h.gen("d", 1)
            else:
                # S reverses products, so [X, d[k]] = d[k+1] gives
                # S(d[k+1]) = S(d[k])S(X) - S(X)S(d[k])
                sx, sk = s(h, Generator("X")), s(h, Generator("d", g.index - 1))
                val = sk * sx - sx * sk
        elif h.name == "f":
            val = retag(s(h1cop, g), h)
        elif g.name == "d":
            val = retag(s(mp.f, g), h)
        else:
            val = h.zero()
            for (u0, u1), c in mp.coact_word((g,)).terms.items():
                val = val + (retag(on_word(mp.u, u0), h) * retag(on_word(mp.f, u1), h)).scale(c)
        cache[h, g] = val
        return val

    return s


@pytest.mark.parametrize("name", ["h1cop", "u", "f", "bicrossed"])
def test_derived_antipode_matches_removed_formulas(presentations, hook_antipode, name):
    # U: S(X) = -X, S(Y) = -Y; F: h1cop's S(d[k]) read in F; F ▷◁ U: F's
    # S(d[k]) and the matched-pair formula on X and Y
    h = presentations[name]
    letters = h.letters(7)
    assert max(g.index or 0 for g in letters) == (7 if name != "u" else 0)
    for g in letters:
        assert h.gen_antipode(g) == hook_antipode(h, g), g


@pytest.mark.parametrize("name", ["h1cop", "bicrossed"])
def test_antipode_commutator_recursion(presentations, name):
    # the recursion h1cop's hook used, also in F ▷◁ U, where the F letters
    # took F's values instead
    h = presentations[name]
    sx = h.gen_antipode(Generator("X"))
    for k in range(1, 8):
        sk = h.gen_antipode(Generator("d", k))
        assert h.gen_antipode(Generator("d", k + 1)) == sk * sx - sx * sk, k


# -- Δ and ε against the recursion they replaced --------------------------------


@pytest.fixture(scope="module")
def commutator_coproduct(h1cop):
    """Δ on a letter of h1cop, F or F ▷◁ U by the commutator recursion that
    the derivation from the ladder rule X d[k] -> d[k] X + d[k+1] replaced:
    the tables on X, Y and d[1], then Δ(d[k+1]) = Δ(X)Δ(d[k]) − Δ(d[k])Δ(X);
    F reads h1cop's values.  Shares no code with the derivation; memoized
    per (presentation, generator)."""
    cache = {}

    def cop(h, g):
        if (h, g) in cache:
            return cache[h, g]
        if "X" not in h.generators:
            val = retag_tensor(cop(h1cop, g), (h, h))
        elif (g.index or 1) == 1:
            e, one = h.gen(g.name, g.index), h.unit()
            val = tensor([e, one]) + tensor([one, e])
            if g.name == "X":
                val = val + tensor([h.gen("Y"), h.gen("d", 1)])
        else:
            dx, dk = cop(h, Generator("X")), cop(h, Generator("d", g.index - 1))
            val = dx.leg_mul(dk) - dk.leg_mul(dx)
        cache[h, g] = val
        return val

    return cop


@pytest.mark.parametrize(
    "name", ["h1cop", "f", "bicrossed", "h1cop.hopf", "h1cop.hopf without extend"]
)
def test_derived_coproduct_matches_commutator_recursion(presentations, commutator_coproduct, name):
    # ε(d[k+1]) = 0, as ε vanishes on every letter of the tables
    h = presentations[name]
    letters = h.letters(7)
    assert max(g.index or 0 for g in letters) == 7
    for g in letters:
        assert h.gen_coproduct(g) == commutator_coproduct(h, g), g
        assert h.gen_counit(g) == 0, g


def test_relations_witness_names_the_rule(capsys, tmp_path):
    # g g -> 1 with g primitive: Δ and ε do not respect the relation, and
    # the witness is its left side, not its normal form 1
    path = tmp_path / "primitive.hopf"
    path.write_text(
        GROUPLIKE.replace("g(x)g", "g(x)1 + 1(x)g").replace("counit g -> 1", "counit g -> 0"),
        encoding="utf-8",
    )
    with pytest.raises(PreconditionError):
        cli.run(["verify-hopf", "--file", str(path)])
    result = json.loads(capsys.readouterr().out)["result"]["grouplike"]
    checks = {c["name"]: c for c in result["axioms"]["checks"]}
    for name in ("coproduct respects relations", "counit respects relations"):
        assert checks[name] == {"name": name, "ok": False, "witnesses": ["g g"]}


# a group-like generator whose S(g) = g⁻¹ no coproduct fixes: without an
# antipode line, S cannot be derived
GROUPLIKE = """
hopf grouplike {
  generators g;
  rule g g -> 1;
  coproduct g -> g(x)g;
  counit g -> 1;
}
"""


def test_underivable_antipode_fails_the_checks(capsys, tmp_path):
    # a full report with every check, and the usual failed-checks exit code
    path = tmp_path / "grouplike.hopf"
    path.write_text(GROUPLIKE, encoding="utf-8")
    with pytest.raises(PreconditionError) as err:
        cli.run(["verify-hopf", "--file", str(path)])
    assert err.value.exit_code == 8
    result = json.loads(capsys.readouterr().out)["result"]["grouplike"]
    checks = {c["name"]: c for c in result["axioms"]["checks"]}
    assert [n for n, c in checks.items() if not c["ok"]] == [
        "antipode",
        "antipode respects relations",
    ]
    reason = "no antipode for g: deriving it needs S(g) again"
    assert checks["antipode"]["witnesses"] == [f"g: {reason}"]
    assert checks["antipode respects relations"]["witnesses"] == [f"g g: {reason}"]
    assert not result["inverse_antipode"]["ok"]
    assert result["inverse_antipode"]["witnesses"][0] == f"g: {reason}"
    # with the antipode line the same file is a Hopf algebra (k[Z/2])
    h = from_text(GROUPLIKE.replace("counit g -> 1;", "counit g -> 1;\n  antipode g -> g;"))
    assert h.verify_hopf_axioms()["ok"]
    assert h.verify_inv_antipode(degree=2)["ok"]


def test_underivable_antipode_raises():
    with pytest.raises(UnsolvableError, match="no antipode for g: deriving it needs S"):
        from_text(GROUPLIKE).gen_antipode(Generator("g"))
    # S(a) needs the term a⊗u of Δ(a) with u group-like
    text = NOPIVOT.replace("a(x)1 + a(x)a", "1(x)a + a(x)a").replace("antipode a -> -a;\n", "")
    with pytest.raises(UnsolvableError, match="Δ\\(a\\) has no term a⊗u with u group-like"):
        from_text(text).gen_antipode(Generator("a"))


# -- the inverse antipode against independent routes --------------------------

# Sweedler's 4-dimensional Hopf algebra: x is (g, 1)-primitive, so S⁻¹(x)
# comes from the term g⊗x of Δ(x) with g group-like
SWEEDLER = """
hopf sweedler {
  generators x < g;
  rule g g -> 1;
  rule x x -> 0;
  rule g x -> - x g;
  coproduct g -> g(x)g;
  coproduct x -> x(x)1 + g(x)x;
  counit g -> 1;
  counit x -> 0;
  antipode g -> g;
  antipode x -> x g;
}
"""

# malformed on purpose: S⁻¹(a) needs S⁻¹(b) and S⁻¹(b) needs S⁻¹(a)
CYCLE = """
hopf cycle {
  generators b < a;
  coproduct a -> a(x)1 + 1(x)a + 1(x)b;
  coproduct b -> b(x)1 + 1(x)b + 1(x)a;
  counit a -> 0;
  counit b -> 0;
  antipode a -> -a;
  antipode b -> -b;
}
"""

# malformed on purpose: the only term with right leg a has a left leg that
# is not group-like
NOPIVOT = """
hopf nopivot {
  generators a;
  coproduct a -> a(x)1 + a(x)a;
  counit a -> 0;
  antipode a -> -a;
}
"""


H1COP_FILE = (importlib.resources.files("hopfcyc") / "data" / "h1cop.hopf").read_text(encoding="utf-8")


def from_text(text):
    return dsl.build_hopf(dsl.parse(text).hopfs[0])


def ansatz_inv_antipode(h, g, index_bound=6):
    """S⁻¹(g) as the solution x of S(Σ x_w w) = g over the normal words w of
    degree 2, 3, then 4 (indices bounded by index_bound): a linear system
    that shares no code with the derivation from Δ."""
    idx = (g.index or 1) + 1
    for deg in range(2, 5):
        cands = h.normal_words(deg, min(idx + deg, index_bound))
        images = [h.antipode(h.from_word(w)) for w in cands]
        support = sorted({w for e in images for w in e.terms}, key=h.ruleset.order_key)
        pos = {w: i for i, w in enumerate(support)}
        if (g,) not in pos:
            continue
        cols = [{pos[w]: c for w, c in e.terms.items()} for e in images]
        x = solve(cols, {pos[(g,)]: 1})
        if x is not None:
            return h.elt({cands[j]: c for j, c in x.items()})
    raise UnsolvableError(f"no inverse-antipode value for {g} within the ansatz degree bound")


@pytest.fixture(scope="module")
def ansatz():
    """ansatz_inv_antipode, memoized per (presentation, generator): S⁻¹(d[4])
    costs about 2 s and two tests ask for it in F ▷◁ U."""
    cache = {}

    def oracle(h, g):
        if (h, g) not in cache:
            cache[h, g] = ansatz_inv_antipode(h, g)
        return cache[h, g]

    return oracle


@pytest.fixture(scope="module")
def presentations(h1cop, matched_pair, bicrossed, s3):
    return {
        "h1cop": h1cop,
        "u": matched_pair.u,
        "f": matched_pair.f,
        "bicrossed": bicrossed.hopf,
        "kZ3": build_group_algebra(cyclic_group(3)),
        "kS3": build_group_algebra(s3),
        "sweedler": from_text(SWEEDLER),
        "h1cop.hopf": from_text(H1COP_FILE),
        "h1cop.hopf without extend": from_text(H1COP_FILE.replace("  extend d by commutator X;\n", "")),
    }


@pytest.mark.parametrize("name", ["h1cop", "u", "f", "bicrossed", "kZ3", "kS3", "sweedler"])
def test_derived_inv_antipode_matches_ansatz(presentations, ansatz, name):
    h = presentations[name]
    for g in h.letters(4):
        assert h.gen_inv_antipode(g) == ansatz(h, g), g


def test_sweedler_inv_antipode(presentations):
    h = presentations["sweedler"]
    x, g = h.gen("x"), h.gen("g")
    assert h.gen_inv_antipode(Generator("x")) == -(x * g)
    assert h.gen_inv_antipode(Generator("g")) == g
    assert h.verify_inv_antipode(degree=2) == {"ok": True, "witnesses": []}


def test_sweedler_antipode_derived():
    # without its antipode line S(x) comes from the term x⊗u of Δ(x): u = 1
    # here, and u = g in the convention Δx = x⊗g + 1⊗x, where S(x) = -x·S(g)
    text = SWEEDLER.replace("  antipode x -> x g;\n", "")
    flipped = text.replace("x(x)1 + g(x)x", "x(x)g + 1(x)x")
    for src, sign in ((text, 1), (flipped, -1)):
        h = from_text(src)
        assert h.gen_antipode(Generator("x")) == (h.gen("x") * h.gen("g")).scale(sign)
        assert h.verify_hopf_axioms()["ok"]
        assert h.verify_inv_antipode(degree=2)["ok"]


@pytest.mark.parametrize("name", ["h1cop", "bicrossed"])
def test_inv_antipode_commutator_recursion(presentations, name):
    # S⁻¹ reverses products, so [X, d[k]] = d[k+1] gives the recursion the
    # per-family hooks used to compute
    h = presentations[name]
    sx = h.gen_inv_antipode(Generator("X"))
    for k in range(1, 8):
        sk = h.gen_inv_antipode(Generator("d", k))
        assert h.gen_inv_antipode(Generator("d", k + 1)) == sk * sx - sx * sk, k


def test_unsolvable_inverse_antipode_raises():
    # the ansatz stops at its degree bound ...
    h = build_h1cop()
    with pytest.raises(UnsolvableError):
        ansatz_inv_antipode(h, Generator("d", 8), index_bound=2)
    # ... and the derivation raises where Δ gives it nothing to solve with
    for text, g in ((CYCLE, "a"), (NOPIVOT, "a")):
        with pytest.raises(UnsolvableError, match=f"no inverse antipode for {g}"):
            from_text(text).gen_inv_antipode(Generator(g))


UNDERIVABLE = {
    "cycle": (CYCLE, "b: no inverse antipode for b: deriving it needs S⁻¹(b) again"),
    "nopivot": (
        NOPIVOT,
        "a: no inverse antipode for a: Δ(a) has no term u⊗a with u group-like",
    ),
}


@pytest.mark.parametrize("name", sorted(UNDERIVABLE))
def test_underivable_inverse_antipode_fails_the_check(capsys, tmp_path, name):
    # a full report with every check, and the usual failed-checks exit code
    text, witness = UNDERIVABLE[name]
    path = tmp_path / f"{name}.hopf"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(PreconditionError) as err:
        cli.run(["verify-hopf", "--file", str(path)])
    assert err.value.exit_code == 8
    result = json.loads(capsys.readouterr().out)["result"][name]
    failed = [c["name"] for c in result["axioms"]["checks"] if not c["ok"]]
    assert failed == ["coassociativity", "counit", "antipode"]
    assert not result["inverse_antipode"]["ok"]
    assert result["inverse_antipode"]["witnesses"][0] == witness


def test_wrong_antipode_fails_the_inverse_check():
    # S⁻¹ is derived from Δ alone, so a wrong S shows in S∘S⁻¹ and S⁻¹∘S
    h = from_text(SWEEDLER.replace("antipode x -> x g;", "antipode x -> - x g;"))
    assert not h.verify_hopf_axioms()["ok"]
    report = h.verify_inv_antipode(degree=2)
    assert report == {
        "ok": False,
        "witnesses": ["S⁻¹∘S: x: 1 nonzero", "S∘S⁻¹: x: 1 nonzero", "S⁻¹∘S: x g: 1 nonzero"],
    }


@pytest.mark.parametrize("name", ["h1cop", "bicrossed"])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_inv_antipode_inverts_antipode_property(presentations, name, data):
    h = presentations[name]
    w = tuple(data.draw(st.lists(st.sampled_from(h.letters(5)), max_size=3)))
    e = h.from_word(w)
    assert h.antipode(h.inv_antipode(e)) == e
    assert h.inv_antipode(h.antipode(e)) == e
    if name == "h1cop":
        # (δ, 1) is a modular pair in involution: the twisted formula is a
        # second route
        assert inv_antipode_via_twist(h, modular_character(h), e) == h.inv_antipode(e)


# -- the inverse antipode of F ▷◁ U -------------------------------------------


@pytest.mark.parametrize("k", range(1, 9))
def test_bicrossed_inv_antipode_on_deltas(bicrossed, ansatz, k):
    # F ▷◁ 1 is a Hopf subalgebra, so S⁻¹(d[k]) is F's value read in F ▷◁ U;
    # past k = 4 the ansatz's degree bound no longer reaches it (d[1]^5 in
    # S⁻¹(d[5]))
    h, g = bicrossed.hopf, Generator("d", k)
    value = h.gen_inv_antipode(g)
    assert h.antipode(value) == h.gen("d", k)
    assert value == retag(bicrossed.mp.f.gen_inv_antipode(g), h)
    if k <= 4:
        assert value == ansatz(h, g)


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


# -- Δ, S and S⁻¹ of a word against the letter-by-letter products -------------


def letter_by_letter(h, w):
    """Δ, S and S⁻¹ of a word by the loops that the word memos replaced:
    Δ multiplies letter values left to right, S and S⁻¹ right to left, and
    nothing is kept between words."""
    cop, s, s_inv = h.one_tensor(), h.unit(), h.unit()
    for g in w:
        cop = cop.leg_mul(h.gen_coproduct(g))
        s = h.gen_antipode(g) * s
        s_inv = h.gen_inv_antipode(g) * s_inv
    return cop, s, s_inv


def words(letters, max_size):
    return st.lists(st.sampled_from(letters), max_size=max_size).map(tuple)


X, Y, D1, D2 = Generator("X"), Generator("Y"), Generator("d", 1), Generator("d", 2)

# F ▷◁ U takes X only in short words: its S⁻¹ grows fast with each X
MEMO_CASES = {
    "h1cop": (build_h1cop, words([X, Y, D1, D2, Generator("d", 3)], 3)),
    "bicrossed": (
        lambda: build_bicrossed().hopf,
        st.one_of(words([Y, D1, D2], 3), words([X, Y, D1, D2], 2)),
    ),
    "sweedler": (lambda: from_text(SWEEDLER), words([Generator("x"), Generator("g")], 4)),
}


@pytest.mark.parametrize("name", sorted(MEMO_CASES))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_word_memos_match_letter_by_letter_products(presentations, name, data):
    # one shared instance, whose memos fill across examples and tests,
    # against the plain products on a fresh one; in Sweedler's algebra
    # S ≠ S⁻¹ and S² ≠ id, so a swapped or reversed product shows
    build, drawn = MEMO_CASES[name]
    h = presentations[name]
    w = data.draw(drawn)
    got = (h.coproduct_word(w), h.antipode_word(w), h.inv_antipode_word(w))
    assert got == letter_by_letter(build(), w), w
    for cache in (h._cop_word_cache, h._ant_word_cache, h._inv_word_cache):
        assert all(w[:k] in cache for k in range(1, len(w) + 1))
    e = h.from_word(w)
    assert h.inv_antipode(h.antipode(e)) == e


def test_sweedler_antipode_is_not_involutive(presentations):
    # the memo oracle above relies on S, S⁻¹ and S² telling words apart
    h = presentations["sweedler"]
    x = h.gen("x")
    assert h.antipode(x) != h.inv_antipode(x)
    assert h.antipode(h.antipode(x)) != x


def test_failed_derivation_is_not_cached():
    # S⁻¹(a) in CYCLE needs S⁻¹(b), which needs S⁻¹(a): every call derives
    # again and fails with the same reason, and only the empty word keeps a
    # value
    h = from_text(CYCLE)
    a = Generator("a")
    reasons = []
    for call in (h.gen_inv_antipode, h.gen_inv_antipode, lambda g: h.inv_antipode_word((g, g))):
        with pytest.raises(UnsolvableError) as err:
            call(a)
        reasons.append(str(err.value))
    assert reasons == [reasons[0]] * 3
    assert reasons[0] == "no inverse antipode for a: deriving it needs S⁻¹(a) again"
    assert set(h._inv_word_cache) <= {()}
