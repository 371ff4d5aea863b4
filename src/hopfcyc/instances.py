"""Built-in presentations and the bicrossed-product construction.

Ships the rank-one Hopf algebra on X, Y and the δ-family (with the
co-opposite coproduct), its factor algebras U (enveloping, on X and Y) and
F (commutative, on the δ-family), the matched-pair data connecting them,
and a generic bicrossed product F ▷◁ U.  Also provides small finite
instances: group algebras, set coalgebras and function algebras on a
finite G-set, used by the cyclic-cohomology and cup-product machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import AlgElt, EMPTY_WORD, Generator, Memo, ONE, TensorElt, Word, _merge_term, exact, tensor
from .errors import StructureError
from .hopf import Character, HopfPresentation
from .rewrite import (
    ConcreteRule,
    FunctionRule,
    IndexExpr,
    LetterPat,
    Presentation,
    SchemaRule,
)


def retag(e: AlgElt, target: Presentation) -> AlgElt:
    """Reinterpret an element's words letter-by-letter over another
    presentation (names and indices must exist there)."""
    for w in e.terms:
        for g in w:
            target.check_generator(g.name, g.index)
    return target.elt(dict(e.terms))


def retag_tensor(te: TensorElt, targets: Sequence[Presentation]) -> TensorElt:
    if len(targets) != te.legs:
        raise StructureError("retag_tensor needs one target per leg")
    return TensorElt(tuple(targets), dict(te.terms))


# -- the rank-one Hopf algebra ------------------------------------------------


def _h1cop_rules():
    k = IndexExpr.parse("k")
    k1 = IndexExpr.parse("k+1")
    i = IndexExpr.parse("i")
    X, Y = LetterPat("X"), LetterPat("Y")
    dk, dk1, di = LetterPat("d", k), LetterPat("d", k1), LetterPat("d", i)
    return [
        SchemaRule([X, dk], [(1, (dk, X)), (1, (dk1,))]),
        SchemaRule([Y, dk], [(1, (dk, Y)), ("k", (dk,))]),
        SchemaRule([X, Y], [(1, (Y, X)), (-1, (X,))]),
        SchemaRule([dk, di], [(1, (di, dk))], guard=("k", ">", "i")),
    ]


def build_h1cop() -> HopfPresentation:
    """The rank-one Hopf algebra with the co-opposite coproduct.

    Relations: [Y,X] = X, [Y,d[k]] = k d[k], [X,d[k]] = d[k+1], the d's
    commute.  X and Y are primitive up to the Y⊗d[1] correction on X.  The
    tables stop at d[1]: Δ and ε of d[k+1] are derived from the rule
    X d[k] -> d[k] X + d[k+1] on demand.
    """
    h = HopfPresentation(
        "h1cop",
        {"X": False, "Y": False, "d": True},
        ("d", "Y", "X"),
        _h1cop_rules(),
        counits={Generator("X"): 0, Generator("Y"): 0, Generator("d", 1): 0},
    )
    X, Y, d1 = h.gen("X"), h.gen("Y"), h.gen("d", 1)
    one = h.unit()
    h._cop[Generator("X")] = tensor([X, one]) + tensor([one, X]) + tensor([Y, d1])
    h._cop[Generator("Y")] = tensor([Y, one]) + tensor([one, Y])
    h._cop[Generator("d", 1)] = tensor([d1, one]) + tensor([one, d1])
    return h


def modular_character(h: HopfPresentation) -> Character:
    """The modular pair character: 1 on Y, 0 on X and the d-family."""
    return Character(h, {"Y": ONE, "X": 0, "d": lambda k: 0})


def build_u() -> HopfPresentation:
    """The enveloping factor U on X and Y with [Y,X] = X; both primitive."""
    X, Y = LetterPat("X"), LetterPat("Y")
    u = HopfPresentation(
        "u",
        {"X": False, "Y": False},
        ("Y", "X"),
        [SchemaRule([X, Y], [(1, (Y, X)), (-1, (X,))])],
        counits={Generator("X"): 0, Generator("Y"): 0},
    )
    x, y, one = u.gen("X"), u.gen("Y"), u.unit()
    u._cop[Generator("X")] = tensor([x, one]) + tensor([one, x])
    u._cop[Generator("Y")] = tensor([y, one]) + tensor([one, y])
    return u


def build_f() -> HopfPresentation:
    """The commutative factor F on the d-family.

    Its coproduct on d[k] is the internal one (computed in the full
    algebra, where pure-δ words stay pure-δ) reinterpreted over F; its
    antipode is derived from that coproduct.
    """
    internal = build_h1cop()
    k = IndexExpr.parse("k")
    i = IndexExpr.parse("i")
    dk, di = LetterPat("d", k), LetterPat("d", i)

    def cop_hook(fp, g):
        inner = internal.gen_coproduct(Generator("d", g.index))
        return retag_tensor(inner, (fp, fp))

    f = HopfPresentation(
        "f",
        {"d": True},
        ("d",),
        [SchemaRule([dk, di], [(1, (di, dk))], guard=("k", ">", "i"))],
        counits={},
        coproduct_hook=cop_hook,
        counit_hook=lambda fp, g: 0,
    )
    return f


# -- matched pair and bicrossed product ---------------------------------------


@dataclass
class MatchedPairData:
    """A left action of U on F and a right coaction of U over F, given on
    generators and extended by the module-algebra and comodule rules."""

    u: HopfPresentation
    f: HopfPresentation
    # (u generator name, f generator name) -> callable(f index or None) -> AlgElt in F
    gen_action: dict
    # u generator name -> TensorElt with legs (u, f)
    gen_coaction: dict

    def __post_init__(self):
        # (u word, f word) -> u ▹ f, and u word -> ∇(u)
        self._act = Memo(lambda k: self._act_on_words(*k))
        self._coact = Memo(self._coact_on_word)

    # action ------------------------------------------------------------------

    def act_letter(self, ug: Generator, fg: Generator) -> AlgElt:
        fn = self.gen_action.get((ug.name, fg.name))
        if fn is None:
            raise StructureError(f"no action of {ug} on {fg}")
        return fn(fg.index)

    def act_word(self, uw: Word, fw: Word) -> AlgElt:
        return self._act[uw, fw]

    def _act_on_words(self, uw: Word, fw: Word) -> AlgElt:
        if not uw:
            out = self.f.from_word(fw)
        elif not fw:
            out = self.f.unit().scale(self.u.counit_word(uw))
        elif len(uw) == 1:
            if len(fw) == 1:
                out = self.act_letter(uw[0], fw[0])
            else:
                # u ▹ (f g) = Σ (u⁽¹⁾ ▹ f)(u⁽²⁾ ▹ g)
                d = self.u.gen_coproduct(uw[0])
                out = self.f.zero()
                for (a, b), c in d.terms.items():
                    out = out + (self.act_word(a, fw[:1]) * self.act_word(b, fw[1:])).scale(c)
        else:
            # (u v) ▹ f = u ▹ (v ▹ f)
            out = self.act(self.u.from_word(uw[:1]), self.act_word(uw[1:], fw))
        return out

    def act(self, u: AlgElt, f: AlgElt) -> AlgElt:
        out = self.f.zero()
        for uw, cu in u.terms.items():
            for fw, cf in f.terms.items():
                out = out + self.act_word(uw, fw).scale(cu * cf)
        return out

    # coaction ----------------------------------------------------------------

    def coact_word(self, uw: Word) -> TensorElt:
        return self._coact[uw]

    def _coact_on_word(self, uw: Word) -> TensorElt:
        if not uw:
            out = tensor([self.u.unit(), self.f.unit()])
        elif len(uw) == 1:
            out = self.gen_coaction.get(uw[0].name)
            if out is None:
                raise StructureError(f"no coaction value for {uw[0]}")
        else:
            # ∇(u v) = u⁽¹⁾⟨0⟩ v⟨0⟩ ⊗ u⁽¹⁾⟨1⟩ (u⁽²⁾ ▹ v⟨1⟩), u a letter
            d = self.u.gen_coproduct(uw[0])
            nv = self.coact_word(uw[1:])
            out = tensor([self.u.zero(), self.f.zero()])
            for (a, b), c in d.terms.items():
                na = self.coact_word(a)
                for (a0, a1), ca in na.terms.items():
                    for (v0, v1), cv in nv.terms.items():
                        uleg = self.u.from_word(a0) * self.u.from_word(v0)
                        fleg = self.f.from_word(a1) * self.act_word(b, v1)
                        out = out + tensor([uleg, fleg]).scale(c * ca * cv)
        return out

    def coact(self, u: AlgElt) -> TensorElt:
        out = tensor([self.u.zero(), self.f.zero()])
        for uw, c in u.terms.items():
            out = out + self.coact_word(uw).scale(c)
        return out


def build_matched_pair() -> MatchedPairData:
    """The built-in matched pair: X ▹ d[k] = d[k+1], Y ▹ d[k] = k d[k];
    ∇(X) = X⊗1 + Y⊗d[1], ∇(Y) = Y⊗1."""
    u = build_u()
    f = build_f()
    gen_action = {
        ("X", "d"): lambda k: f.gen("d", k + 1),
        ("Y", "d"): lambda k: f.gen("d", k).scale(k),
    }
    x, y = u.gen("X"), u.gen("Y")
    gen_coaction = {
        "X": tensor([x, f.unit()]) + tensor([y, f.gen("d", 1)]),
        "Y": tensor([y, f.unit()]),
    }
    return MatchedPairData(u, f, gen_action, gen_coaction)


def check_matched_pair(mp: MatchedPairData, degree: int = 2) -> dict:
    """Verify the matched-pair compatibility conditions on all normal words
    of bounded degree, with family indices up to 3.  Returns a report with
    per-condition witnesses."""
    u, f = mp.u, mp.f
    uwords = u.normal_words(degree, 3)
    fwords = [w for w in f.normal_words(degree, 3) if w != EMPTY_WORD]
    checks = []

    def run(name, fails):
        checks.append({"name": name, "ok": not fails, "witnesses": fails[:3]})

    def add(acc, left, right, c):
        """acc += c·(left ⊗ right), in place."""
        for w1, c1 in left.terms.items():
            for w2, c2 in right.terms.items():
                _merge_term(acc, (w1, w2), c * c1 * c2)

    fails = []
    for uw in uwords:
        for fw in fwords:
            lhs = f.counit(mp.act_word(uw, fw))
            rhs = u.counit_word(uw) * f.counit_word(fw)
            if lhs != rhs:
                fails.append(f"u={u.from_word(uw)}, f={f.from_word(fw)}")
    run("counit compatibility", fails)

    fails = []
    for uw in uwords:
        du = u.sweedler(u.from_word(uw), 2)
        for fw in fwords:
            lhs = f.coproduct(mp.act_word(uw, fw))
            df = f.gen_coproduct(fw[0]) if len(fw) == 1 else f.coproduct(f.from_word(fw))
            rhs: dict = {}
            for (u1, u2), cu in du.terms.items():
                n1 = mp.coact_word(u1)
                for (u10, u11), cn in n1.terms.items():
                    for (f1, f2), cf in df.terms.items():
                        left = mp.act_word(u10, f1)
                        right = f.from_word(u11) * mp.act_word(u2, f2)
                        add(rhs, left, right, cu * cn * cf)
            if lhs.terms != rhs:
                fails.append(f"u={u.from_word(uw)}, f={f.from_word(fw)}")
    run("coproduct compatibility", fails)

    ok_unit = mp.coact_word(EMPTY_WORD) == tensor([u.unit(), f.unit()])
    run("coaction on the unit", [] if ok_unit else ["1"])

    fails = []
    for uw in uwords:
        for vw in uwords:
            if len(uw) + len(vw) > degree:
                continue
            lhs = mp.coact(u.from_word(uw) * u.from_word(vw))
            du = u.sweedler(u.from_word(uw), 2)
            nv = mp.coact_word(vw)
            rhs: dict = {}
            for (u1, u2), cu in du.terms.items():
                n1 = mp.coact_word(u1)
                for (u10, u11), cn in n1.terms.items():
                    for (v0, v1), cv in nv.terms.items():
                        uleg = u.from_word(u10) * u.from_word(v0)
                        fleg = f.from_word(u11) * mp.act_word(u2, v1)
                        add(rhs, uleg, fleg, cu * cn * cv)
            if lhs.terms != rhs:
                fails.append(f"u={u.from_word(uw)}, v={u.from_word(vw)}")
    run("coaction multiplicativity", fails)

    fails = []
    for uw in uwords:
        du = u.sweedler(u.from_word(uw), 2)
        for fw in fwords:
            lhs: dict = {}
            rhs: dict = {}
            for (u1, u2), cu in du.terms.items():
                n2 = mp.coact_word(u2)
                for (u20, u21), cn in n2.terms.items():
                    add(lhs, u.from_word(u20), mp.act_word(u1, fw) * f.from_word(u21), cu * cn)
                n1 = mp.coact_word(u1)
                for (u10, u11), cn in n1.terms.items():
                    add(rhs, u.from_word(u10), f.from_word(u11) * mp.act_word(u2, fw), cu * cn)
            if lhs != rhs:
                fails.append(f"u={u.from_word(uw)}, f={f.from_word(fw)}")
    run("action/coaction exchange", fails)

    return {"ok": all(c["ok"] for c in checks), "checks": checks}


class Bicrossed:
    """The bicrossed product F ▷◁ U with the embedding and projection of U."""

    def __init__(self, hopf: HopfPresentation, mp: MatchedPairData):
        self.hopf = hopf
        self.mp = mp

    def embed_u(self, u: AlgElt) -> AlgElt:
        return retag(u, self.hopf)

    def split_word(self, w: Word):
        """A normal word is an F block followed by a U block."""
        fgens = self.mp.f.generators
        cut = 0
        while cut < len(w) and w[cut].name in fgens:
            cut += 1
        for g in w[cut:]:
            if g.name in fgens:
                raise StructureError(f"word {w} is not an F block followed by a U block")
        return w[:cut], w[cut:]

    def project_u(self, e: AlgElt) -> AlgElt:
        """Apply ε ▷◁ id: kill every word with an F letter, reinterpret the
        rest in U.  (The F counit vanishes on all F generators.)  A normal
        word with no F letter is U-normal, since the U rules are the only
        ones that rewrite U letters alone."""
        out = {}
        for w, c in e.terms.items():
            fw, uw = self.split_word(w)
            if fw == EMPTY_WORD:
                out[uw] = c
        return AlgElt(self.mp.u, out, _normalized=True)


def build_bicrossed(mp: Optional[MatchedPairData] = None) -> Bicrossed:
    """Assemble F ▷◁ U: F and U rules plus the straightening rule
    u·f -> Σ (u⁽¹⁾ ▹ f)·u⁽²⁾, with Δ and ε induced from the matched-pair
    formulas (S and S⁻¹ are derived from Δ)."""
    mp = mp or build_matched_pair()
    u, f = mp.u, mp.f
    generators = {**f.generators, **u.generators}
    if len(generators) != len(f.generators) + len(u.generators):
        raise StructureError("factor alphabets overlap")
    precedence = tuple(f.ruleset.precedence) + tuple(u.ruleset.precedence)

    # pure in its segment, as a rule's match must be: the rule set's redex
    # table asks once per window
    def straighten(seg: Word):
        ug, fg = seg
        if ug.name not in u.generators or fg.name not in f.generators:
            return None
        acc: dict = {}
        for (a, b), c in u.gen_coproduct(ug).terms.items():
            for fw, cf in mp.act_word(a, (fg,)).terms.items():
                w = fw + b
                acc[w] = acc.get(w, 0) + c * cf
        return {w: exact(c) for w, c in acc.items() if c}

    samples = []
    for ug in u.letters(1):
        for fg in f.letters(3):
            samples.append((ug, fg))
    rules = list(f.ruleset.rules) + list(u.ruleset.rules) + [
        FunctionRule(2, straighten, samples=samples)
    ]

    def cop_hook(hp, g):
        if g.name in f.generators:
            return retag_tensor(f.gen_coproduct(g), (hp, hp))
        # Δ(1 ▷◁ u) = u⁽¹⁾⟨0⟩ ⊗ u⁽¹⁾⟨1⟩ u⁽²⁾
        d = u.gen_coproduct(g)
        out = tensor([hp.zero(), hp.zero()])
        for (a, b), c in d.terms.items():
            na = mp.coact_word(a)
            for (a0, a1), cn in na.terms.items():
                left = hp.from_word(a0)
                right = hp.from_word(a1) * hp.from_word(b)
                out = out + tensor([left, right]).scale(c * cn)
        return out

    def cou_hook(hp, g):
        return f.gen_counit(g) if g.name in f.generators else u.gen_counit(g)

    hopf = HopfPresentation(
        "bicrossed",
        generators,
        precedence,
        rules,
        counits={},
        coproduct_hook=cop_hook,
        counit_hook=cou_hook,
    )
    return Bicrossed(hopf, mp)


# -- finite group and G-set instances -----------------------------------------


@dataclass
class GroupData:
    """A finite group as labels with an explicit multiplication table."""

    elements: list
    identity: str
    mult: dict  # (a, b) -> label

    def __post_init__(self):
        for a in self.elements:
            for b in self.elements:
                if (a, b) not in self.mult:
                    raise StructureError(f"multiplication table misses ({a}, {b})")
                if self.mult[(a, b)] not in self.elements:
                    raise StructureError("multiplication table leaves the element set")
        for a in self.elements:
            if self.mult[(self.identity, a)] != a or self.mult[(a, self.identity)] != a:
                raise StructureError(f"{self.identity!r} is not an identity")
        for a in self.elements:
            if not any(self.mult[(a, b)] == self.identity for b in self.elements):
                raise StructureError(f"{a!r} has no inverse")

    def inverse(self, a: str) -> str:
        return next(b for b in self.elements if self.mult[(a, b)] == self.identity)


def cyclic_group(n: int) -> GroupData:
    elems = ["1"] + [f"g{i}" if n > 2 else "g" for i in range(1, n)]

    def lab(i):
        return elems[i % n]

    mult = {}
    for i in range(n):
        for j in range(n):
            mult[(lab(i), lab(j))] = lab(i + j)
    return GroupData(elems, "1", mult)


def build_group_algebra(g: GroupData, name: str = "kG") -> HopfPresentation:
    """The group algebra: identity is the empty word, every other element a
    letter, products collapsed by the multiplication table; group-like
    coproducts and the inverse map as antipode."""
    nonid = [a for a in g.elements if a != g.identity]
    gens = {a: False for a in nonid}
    rules = []
    for a in nonid:
        for b in nonid:
            p = g.mult[(a, b)]
            rhs = {EMPTY_WORD: ONE} if p == g.identity else {(Generator(p),): ONE}
            rules.append(ConcreteRule((Generator(a), Generator(b)), rhs))
    basis = [EMPTY_WORD] + [(Generator(a),) for a in nonid]
    h = HopfPresentation(
        name,
        gens,
        tuple(nonid),
        rules,
        counits={Generator(a): ONE for a in nonid},
        finite_basis=basis,
    )
    for a in nonid:
        e = h.gen(a)
        h._cop[Generator(a)] = tensor([e, e])
        inv = g.inverse(a)
        h._ant[Generator(a)] = h.unit() if inv == g.identity else h.gen(inv)
    return h


def build_set_coalgebra(points: Sequence[str]) -> HopfPresentation:
    """The coalgebra on a finite set: the points are group-like, there is no
    algebra unit (the empty word is excluded from the basis) and no antipode."""
    gens = {x: False for x in points}
    c = HopfPresentation(
        "CX",
        gens,
        tuple(points),
        [],
        counits={Generator(x): ONE for x in points},
        finite_basis=[(Generator(x),) for x in points],
    )
    for x in points:
        e = c.gen(x)
        c._cop[Generator(x)] = tensor([e, e])
    return c


def build_function_algebra(points: Sequence[str], name: str = "FunX") -> Presentation:
    """The commutative algebra of functions on a finite set, with the point
    idempotents e_x as basis; the unit is the sum of all idempotents."""
    gens = {f"e_{x}": False for x in points}
    rules = []
    for x in points:
        for y in points:
            gx, gy = Generator(f"e_{x}"), Generator(f"e_{y}")
            rhs = {(gx,): ONE} if x == y else {}
            rules.append(ConcreteRule((gx, gy), rhs))
    unit_terms = {(Generator(f"e_{x}"),): ONE for x in points}
    return Presentation(
        name,
        gens,
        tuple(sorted(gens)),
        rules,
        finite_basis=[(Generator(f"e_{x}"),) for x in points],
        unit_terms=unit_terms,
    )


@dataclass
class GroupSetData:
    """A finite group acting on a finite set, with validation."""

    group: GroupData
    points: list
    action: dict  # (group label, point) -> point

    def __post_init__(self):
        g = self.group
        for a in g.elements:
            for x in self.points:
                if self.action.get((a, x)) not in self.points:
                    raise StructureError(f"action table misses or leaves set at ({a}, {x})")
        for x in self.points:
            if self.action[(g.identity, x)] != x:
                raise StructureError("identity must act trivially")
        for a in g.elements:
            for b in g.elements:
                for x in self.points:
                    if self.action[(g.mult[(a, b)], x)] != self.action[
                        (a, self.action[(b, x)])
                    ]:
                        raise StructureError("action table is not associative")


def swap_instance() -> GroupSetData:
    """The order-two group swapping two points."""
    g = cyclic_group(2)
    points = ["a", "b"]
    action = {
        ("1", "a"): "a",
        ("1", "b"): "b",
        ("g", "a"): "b",
        ("g", "b"): "a",
    }
    return GroupSetData(g, points, action)
