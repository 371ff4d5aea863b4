"""Hopf algebra structure on top of a presentation.

A :class:`HopfPresentation` extends :class:`Presentation` with generator
tables for the coproduct and counit, extended multiplicatively to all of the
algebra.  The counit table is a constructor argument; the coproduct table
is written by the builder once the presentation exists, since its values
are tensors over it.  An indexed family needs table entries only at index
1: Δ and ε of fam[k+1] follow from the rule that raises its index, as in
``X d[k] -> d[k] X + d[k+1]``; F and F ▷◁ U take theirs from hooks, which
are their construction.  S and S⁻¹ are derived from Δ and ε on every
generator (:meth:`HopfPresentation.gen_antipode`) and extended
anti-multiplicatively; only a group-like generator, whose S is not fixed
by Δ alone, needs an antipode table entry.

The tables are filled before the first structure map is evaluated (the
builders in :mod:`hopfcyc.instances` and :func:`hopfcyc.dsl.build_hopf`
write the coproduct and antipode entries right after construction) and
never change afterwards; a generator without an entry gets its hook,
ladder or derived value on first use, kept in the same
:class:`~hopfcyc.core.Memo` as the entries.  That is
what lets Δ, S and S⁻¹ of a word be memoized per presentation, on every
prefix of the word (:meth:`HopfPresentation._by_prefix`): each is a fixed
product of letter values, and elements and tensors are immutable.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional, Sequence

from .core import (
    AlgElt,
    Coeff,
    EMPTY_WORD,
    Generator,
    Memo,
    ONE,
    TensorElt,
    Word,
    _merge_term,
    exact,
    tensor,
    word_str,
)
from .errors import StructureError, UnsolvableError
from .rewrite import Presentation, Rule


class HopfPresentation(Presentation):
    """A presented algebra with Hopf structure maps.

    Tables are keyed by :class:`Generator`: ``counits`` is given here, and
    coproduct entries are written to ``_cop`` after construction.  A
    generator without an entry gets Δ and ε from ``coproduct_hook(hopf,
    gen)`` and ``counit_hook`` (F and F ▷◁ U), or else from its family's
    ladder rule (:meth:`_ladder`); S and S⁻¹ from Δ and ε
    (:meth:`gen_antipode`, :meth:`gen_inv_antipode`).
    """

    def __init__(
        self,
        name: str,
        generators: dict,
        precedence: Sequence[str],
        rules: Sequence[Rule] = (),
        *,
        counits: dict,
        coproduct_hook: Optional[Callable] = None,
        counit_hook: Optional[Callable] = None,
        finite_basis=None,
    ):
        super().__init__(name, generators, precedence, rules, finite_basis=finite_basis)
        # generator -> Δ, ε, S and S⁻¹: a table entry, else made on first use
        cop = partial(coproduct_hook, self) if coproduct_hook else partial(self._ladder, "coproduct")
        cou = partial(counit_hook, self) if counit_hook else partial(self._ladder, "counit")
        self._cop = Memo(cop)
        self._cou = Memo(lambda g: exact(cou(g)))
        self._cou.update((g, exact(c)) for g, c in counits.items())
        self._ant = Memo(partial(self._derive, inverse=False))
        self._inv = Memo(partial(self._derive, inverse=True))
        self._pending: set = set()  # (map symbol, generator) being derived
        # plain dicts, not Memos: a value extends its longest cached prefix
        self._cop_word_cache: dict = {}  # word -> coproduct_word(word)
        self._ant_word_cache: dict = {}  # word -> antipode_word(word)
        self._inv_word_cache: dict = {}  # word -> inv_antipode_word(word)

    # -- generator tables -----------------------------------------------------

    def gen_coproduct(self, g: Generator) -> TensorElt:
        return self._cop[g]

    def gen_counit(self, g: Generator) -> Coeff:
        return self._cou[g]

    def _ladder(self, what: str, g: Generator):
        """Δ(g) or ε(g), ``what`` naming the method, read off g = c⁻¹·(lhs −
        rest) by the rule that raises its index, in words of lower index
        kept as written (:meth:`RuleSet.ladder`): Δ and ε are algebra maps
        and read an element word by word.  Raises :class:`UnsolvableError`
        when no rule raises the index of g."""
        found = self.ruleset.ladder(g)
        if found is None:
            raise UnsolvableError(f"no {what} for generator {g} in {self.name!r}")
        return getattr(self, what)(AlgElt(self, found[1], _normalized=True))

    def gen_antipode(self, g: Generator) -> AlgElt:
        """S on a generator: its table entry, or derived from Δ(g) and
        memoized (:meth:`_derive`)."""
        return self._ant[g]

    def gen_inv_antipode(self, g: Generator) -> AlgElt:
        """S⁻¹ on a generator: a DSL ``inverse`` entry, or derived from Δ(g)
        and memoized (:meth:`_derive`)."""
        return self._inv[g]

    def _derive(self, g: Generator, inverse: bool) -> AlgElt:
        """S(g), or S⁻¹(g) when ``inverse``, from the coproduct of g.

        S satisfies Σ c·S(a)·b = ε(g)·1 over the terms c·a⊗b of Δ(g), and
        S⁻¹ is the antipode of the co-opposite coalgebra, so it satisfies
        the same identity with the legs a⊗b read as b⊗a.  Take the term
        g⊗u (read that way) with coefficient 1 and u group-like (Δu = u⊗u,
        so u is invertible with inverse S(u) = S⁻¹(u)); then

            S(g) = (ε(g)·1 − Σ_{other terms} c·S(a)·b)·S(u)

        where S(a) recurses on the letters of a.  A group-like g is its own
        pivot, so S(g) = g⁻¹ needs a table entry.  Raises
        :class:`UnsolvableError` when Δ(g) has no such term or the
        recursion needs the value being derived.
        """
        symbol, what = ("S⁻¹", "inverse antipode") if inverse else ("S", "antipode")
        if (symbol, g) in self._pending:
            raise UnsolvableError(f"no {what} for {g}: deriving it needs {symbol}({g}) again")
        terms = [
            ((b, a) if inverse else (a, b), c) for (a, b), c in self.gen_coproduct(g).terms.items()
        ]
        for (a, u), c in terms:
            if a == (g,) and c == 1 and self.coproduct_word(u) == tensor([self.from_word(u)] * 2):
                break
        else:
            pivot = f"u⊗{g}" if inverse else f"{g}⊗u"
            raise UnsolvableError(
                f"no {what} for {g}: Δ({g}) has no term {pivot} with u group-like"
            )
        apply = self.inv_antipode if inverse else self.antipode
        self._pending.add((symbol, g))
        try:
            acc = self.unit().scale(self.gen_counit(g))
            for (a, b), c in terms:
                if (a, b) != ((g,), u):
                    acc = acc - (apply(self.from_word(a)) * self.from_word(b)).scale(c)
            return acc * self.antipode_word(u)
        finally:
            self._pending.discard((symbol, g))

    # -- structure maps on elements -------------------------------------------

    def one_tensor(self) -> TensorElt:
        return tensor([self.unit()] * 2)

    @staticmethod
    def _by_prefix(cache: dict, word: Word, empty: Callable, extend: Callable):
        """A map on words memoized on every prefix: its value on w[:k+1] is
        ``extend(value on w[:k], w[k])``, starting from ``empty()`` on the
        empty word, so a word costs one ``extend`` per letter past its
        longest known prefix.  A letter whose value cannot be derived raises
        before its prefix is stored, so a failure is never cached."""
        out = cache.get(word)
        if out is None:
            if EMPTY_WORD not in cache:
                cache[EMPTY_WORD] = empty()
            k = len(word)
            while word[:k] not in cache:
                k -= 1
            out = cache[word[:k]]
            for i in range(k, len(word)):
                out = cache[word[: i + 1]] = extend(out, word[i])
        return out

    def coproduct_word(self, word: Word) -> TensorElt:
        """Δ of a (possibly non-normal) word, as the product of letter
        coproducts, Δ(w) = Δ(w[:-1])·Δ(w[-1]); used both for extension and
        well-definedness checks.

        Memoized per word and prefix (:meth:`_by_prefix`): the generator
        tables are fixed before the first structure map runs and tensors
        are immutable, so every call with the same word may return one
        shared tensor."""
        return self._by_prefix(
            self._cop_word_cache,
            word,
            self.one_tensor,
            lambda out, g: out.leg_mul(self.gen_coproduct(g)),
        )

    @staticmethod
    def _linear(on_word: Callable, e: AlgElt) -> dict:
        """Terms of Σ c·on_word(w) over the terms c·w of e, summed into one
        dict: the linear extension of a word map."""
        out: dict = {}
        for w, c in e.terms.items():
            for v, x in on_word(w).terms.items():
                _merge_term(out, v, c * x)
        return out

    def coproduct(self, e: AlgElt) -> TensorElt:
        return TensorElt((self, self), self._linear(self.coproduct_word, e), _normalized=True)

    def counit_word(self, word: Word) -> Coeff:
        out = ONE
        for g in word:
            out *= self.gen_counit(g)
            if out == 0:
                return out
        return out

    def counit(self, e: AlgElt) -> Coeff:
        return exact(sum(c * self.counit_word(w) for w, c in e.terms.items()))

    def antipode_word(self, word: Word) -> AlgElt:
        """S of a (possibly non-normal) word, anti-multiplicatively,
        S(w) = S(w[-1])·S(w[:-1]).  Memoized per word and prefix like
        :meth:`coproduct_word`, and sound for the same reason: the letter
        values are fixed once derived and elements are immutable."""
        return self._by_prefix(
            self._ant_word_cache,
            word,
            self.unit,
            lambda out, g: self.gen_antipode(g) * out,
        )

    def inv_antipode_word(self, word: Word) -> AlgElt:
        """S⁻¹ of a word, S⁻¹(w) = S⁻¹(w[-1])·S⁻¹(w[:-1]); memoized like
        :meth:`antipode_word`."""
        return self._by_prefix(
            self._inv_word_cache,
            word,
            self.unit,
            lambda out, g: self.gen_inv_antipode(g) * out,
        )

    def antipode(self, e: AlgElt) -> AlgElt:
        return AlgElt(self, self._linear(self.antipode_word, e), _normalized=True)

    def inv_antipode(self, e: AlgElt) -> AlgElt:
        return AlgElt(self, self._linear(self.inv_antipode_word, e), _normalized=True)

    def sweedler(self, e: AlgElt, legs: int) -> TensorElt:
        """Iterated coproduct with the given number of legs (legs >= 1)."""
        if legs < 1:
            raise StructureError("sweedler needs at least one leg")
        out = tensor([e])
        for _ in range(legs - 1):
            out = out.leg_apply(1, self.coproduct)
        return out

    # -- axiom verification ---------------------------------------------------

    def verify_hopf_axioms(self, degree: int = 2, index_bound: int = 3) -> dict:
        """Check the Hopf axioms exactly on all normal words of bounded
        degree, and well-definedness of Δ, ε, S on rewrite-rule instances.
        Returns a report dict with per-check witnesses for any failure; a
        word or rule instance whose Δ, ε or S cannot be derived fails the
        checks that need it, with the reason."""
        checks = []
        words = [w for w in self.normal_words(degree, index_bound) if w != EMPTY_WORD]
        elts = [(e, e) for e in map(self.from_word, words)]
        # a witness names a rule instance by its left side: the normal form
        # would hide the letter, e.g. g g -> 1
        pairs = [
            (word_str(lhs), (lhs, self.elt(rhs)))
            for rule in self.ruleset.rules
            for lhs, rhs in rule.sample_instances(index_bound)
        ]

        def run(name, cases, holds):
            """Each case is a (witness, argument) pair; it fails when
            ``holds(argument)`` is false or needs a structure map that
            cannot be derived, which the witness then names."""
            fails = []
            for witness, arg in cases:
                try:
                    if not holds(arg):
                        fails.append(witness)
                except UnsolvableError as err:
                    fails.append(f"{witness}: {err}")
            checks.append(
                {"name": name, "ok": not fails, "witnesses": [str(w) for w in fails[:3]]}
            )

        def coassociative(w):
            d = self.coproduct_word(w)
            return d.leg_apply(1, self.coproduct) == d.leg_apply(2, self.coproduct)

        def counital(e):
            d = self.coproduct(e)
            return d.leg_scalar(1, self.counit) == tensor([e]) == d.leg_scalar(2, self.counit)

        def antipodal(e):
            left: dict = {}
            right: dict = {}
            for (w1, w2), c in self.coproduct(e).terms.items():
                a, b = self.from_word(w1), self.from_word(w2)
                for acc, prod in ((left, self.antipode(a) * b), (right, a * self.antipode(b))):
                    for w, x in prod.terms.items():
                        _merge_term(acc, w, c * x)
            return left == self.unit().scale(self.counit(e)).terms == right

        run("coassociativity", [(self.from_word(w), w) for w in words], coassociative)
        run("counit", elts, counital)
        run("antipode", elts, antipodal)
        for name, on_word, on_elt in (
            ("coproduct", self.coproduct_word, self.coproduct),
            ("counit", self.counit_word, self.counit),
            ("antipode", self.antipode_word, self.antipode),
        ):
            run(f"{name} respects relations", pairs, lambda p: on_word(p[0]) == on_elt(p[1]))

        return {"ok": all(c["ok"] for c in checks), "checks": checks}

    def verify_inv_antipode(self, degree: int = 2) -> dict:
        """Check S⁻¹∘S = S∘S⁻¹ = id on normal words of bounded degree, with
        family indices up to 2.

        A witness names the failing identity, the word and the nonzero
        count of the residual; a word whose S⁻¹ cannot be derived fails
        with the reason instead of aborting the check."""
        fails = []
        for w in self.normal_words(degree, 2):
            e = self.from_word(w)
            try:
                images = (
                    ("S⁻¹∘S", self.inv_antipode(self.antipode(e))),
                    ("S∘S⁻¹", self.antipode(self.inv_antipode(e))),
                )
            except UnsolvableError as err:
                fails.append(f"{e}: {err}")
                continue
            for name, image in images:
                residual = image - e
                if not residual.is_zero:
                    fails.append(f"{name}: {e}: {len(residual.terms)} nonzero")
        return {"ok": not fails, "witnesses": fails[:3]}


class Character:
    """An algebra map H -> scalars, given on generators.

    ``values`` maps a generator name to a scalar, or, for indexed families,
    to a callable index -> scalar.
    """

    def __init__(self, hopf: HopfPresentation, values: dict):
        self.hopf = hopf
        self.values = values

    def on_gen(self, g: Generator) -> Coeff:
        v = self.values[g.name]
        return exact(v(g.index) if callable(v) else v)

    def __call__(self, e: AlgElt) -> Coeff:
        total = 0
        for w, c in e.terms.items():
            prod = c
            for g in w:
                prod *= self.on_gen(g)
                if prod == 0:
                    break
            total += prod
        return exact(total)


class GroupLike:
    """A group-like element with its inverse; validated on construction."""

    def __init__(self, hopf: HopfPresentation, elt: AlgElt, inverse: AlgElt):
        self.hopf = hopf
        self.elt = elt
        self.inverse = inverse
        if hopf.coproduct(elt) != tensor([elt, elt]):
            raise StructureError("element is not group-like")
        if hopf.counit(elt) != 1:
            raise StructureError("group-like element must have counit 1")
        if elt * inverse != hopf.unit() or inverse * elt != hopf.unit():
            raise StructureError("inverse does not invert the group-like element")

    def conjugate(self, h: AlgElt) -> AlgElt:
        return self.elt * h * self.inverse

    def conjugate_inv(self, h: AlgElt) -> AlgElt:
        return self.inverse * h * self.elt
