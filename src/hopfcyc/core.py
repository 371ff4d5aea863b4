"""Exact scalars, noncommutative words, linear combinations and tensors.

Coefficients are exact rationals in one canonical form: an ``int`` when
the value is integral and a ``fractions.Fraction`` (denominator not 1)
otherwise; :func:`exact` makes that form and every coefficient is made by
it or by :func:`_merge_term`.  The presented algebras of this tool have
integer structure constants, so nearly all arithmetic stays on ``int``;
an ``int`` and a ``Fraction`` of equal value compare and hash alike, and
``coeff_str`` renders both the same.  Every identity checked by this tool
is exact, so there is no floating-point mode.  Words are plain tuples
of letters (:class:`Generator`); letters are interned and hash by
identity, since words key every hot dict of the engine (the rewrite
worklist and caches, the memos of the structure maps, the terms of every
element), and a word then hashes at one pointer hash per letter.  Values
computed once per key are kept in a :class:`Memo`.  Elements
(:class:`AlgElt`) and tensors (:class:`TensorElt`) are immutable after
construction and always stored in normal form with respect to the rewrite
rules of the presentation they are tagged with.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, Union

from .errors import StructureError

Coeff = int | Fraction

ZERO = 0
ONE = 1


# (name, index) -> its one Generator; a plain dict, not a Memo, since
# letters are interned in Generator.__new__, its one reader and writer
_LETTERS: dict = {}


# the fields; NamedTuple refuses a __new__ or _make in its own class body
class _Letter(NamedTuple):
    name: str
    index: int | None = None


class Generator(_Letter):
    """A named, optionally indexed letter (``X``, ``Y``, ``d[3]``).

    Interned: ``Generator(name, index)`` returns the one letter for that
    pair, and so do ``_make``, ``_replace``, ``copy``, ``deepcopy`` and
    unpickling.  A letter therefore hashes and compares by identity, in C:
    hashing a word of length L costs L pointer hashes, not L tuple hashes.
    Identity hashes change from run to run, so no report may follow the
    iteration order of a set of letters or words.  Underneath it is the
    tuple ``(name, index)``: fields, unpacking, ``<``, ``str`` and ``repr``
    are a tuple's.
    """

    __slots__ = ()

    def __new__(cls, name: str, index: int | None = None):
        key = (name, index)
        g = _LETTERS.get(key)
        if g is None:
            g = _LETTERS[key] = tuple.__new__(cls, key)
        return g

    @classmethod
    def _make(cls, iterable):  # the inherited one (and so _replace) skips __new__
        return cls(*iterable)

    __hash__ = object.__hash__
    __eq__ = object.__eq__
    __ne__ = object.__ne__

    def __str__(self):
        if self.index is None:
            return self.name
        return f"{self.name}[{self.index}]"


# A word is a finite tuple of generators; the empty tuple is the unit 1.
Word = tuple  # tuple[Generator, ...]

EMPTY_WORD: Word = ()


class Memo(dict):
    """A map evaluated once per key, the engine's per-key cache.

    ``memo[key]`` calls ``f(key)`` on the first lookup and keeps the result,
    None included; a call that raises keeps nothing, so the next lookup
    tries again.  ``in`` and ``.get`` read only what is kept and never call
    ``f``, and entries may be set by hand, as the builders set generator
    tables.  Sound for the maps it holds because presentations are
    immutable once built, their elements and tensors are immutable, and
    every value is fixed by its key: callers share a kept value and only
    read it.
    """

    __slots__ = ("f",)

    def __init__(self, f: Callable):
        super().__init__()
        self.f = f

    def __missing__(self, key):
        val = self[key] = self.f(key)
        return val


def gen_key(g: Generator):
    """Global total order on generators: name lexicographic, then index."""
    return (g.name, -1 if g.index is None else g.index)


def word_key(w: Word):
    """Deterministic word order: degree, then length-lexicographic on the
    global generator order.  Used for canonical serialization."""
    return (len(w), tuple(gen_key(g) for g in w))


def exact(c) -> Coeff:
    """``c`` as a coefficient: ``int`` when integral, else ``Fraction``."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _merge_term(terms: dict, w, c: Coeff):
    """terms[w] += c, dropping a zero sum; ``c`` is int or Fraction."""
    nc = terms.get(w, 0) + c
    if not nc:
        terms.pop(w, None)
    elif type(nc) is int or nc.denominator != 1:
        terms[w] = nc
    else:
        terms[w] = nc.numerator


def _scaled(terms: Mapping, c: Coeff) -> dict:
    """Every coefficient times the nonzero ``c``, each in canonical form."""
    return {k: exact(c * v) for k, v in terms.items()}


def coeff_str(c: Coeff) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def word_str(w: Word) -> str:
    if not w:
        return "1"
    return " ".join(str(g) for g in w)


def _signed_terms(items, render) -> str:
    """Render sorted (key, coeff) pairs as 'a + 2 b - c'."""
    parts = []
    for w, c in items:
        body = render(w)
        mag = abs(c)
        if mag == 1 and body != "1":
            piece = body
        elif body == "1":
            piece = coeff_str(mag)
        else:
            piece = f"{coeff_str(mag)} {body}"
        if not parts:
            parts.append(piece if c > 0 else f"-{piece}")
        else:
            parts.append(f"+ {piece}" if c > 0 else f"- {piece}")
    return " ".join(parts) if parts else "0"


class AlgElt:
    """An exact-rational linear combination of words over a presentation.

    Terms are stored normalized (no zero coefficients, every word in normal
    form), so structural equality coincides with equality in the presented
    algebra.
    """

    __slots__ = ("pres", "terms")

    def __init__(self, pres, terms: Mapping, *, _normalized=False):
        if _normalized:
            self.pres = pres
            self.terms = dict(terms)
            return
        clean = {}
        for w, c in terms.items():
            c = exact(c)
            if c:
                _merge_term(clean, w, c)
        self.pres = pres
        self.terms = pres.normalize_terms(clean)

    # -- construction helpers -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check_same(self, other: "AlgElt"):
        if self.pres.name != other.pres.name:
            raise StructureError(
                f"mismatched presentations: {self.pres.name!r} vs {other.pres.name!r}"
            )

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "AlgElt") -> "AlgElt":
        self._check_same(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            _merge_term(terms, w, c)
        return AlgElt(self.pres, terms, _normalized=True)

    def __sub__(self, other: "AlgElt") -> "AlgElt":
        return self + (-other)

    def __neg__(self) -> "AlgElt":
        return AlgElt(self.pres, {w: -c for w, c in self.terms.items()}, _normalized=True)

    def scale(self, c) -> "AlgElt":
        c = exact(c)
        if not c:
            return AlgElt(self.pres, {}, _normalized=True)
        return AlgElt(self.pres, _scaled(self.terms, c), _normalized=True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_same(other)
        raw = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                _merge_term(raw, w1 + w2, c1 * c2)
        return AlgElt(self.pres, self.pres.normalize_terms(raw), _normalized=True)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, AlgElt):
            return NotImplemented
        return self.pres.name == other.pres.name and self.terms == other.terms

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __hash__(self):
        return hash((self.pres.name, frozenset(self.terms.items())))

    # -- inspection -----------------------------------------------------------

    def coeff(self, w: Word) -> Coeff:
        return self.terms.get(w, ZERO)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: word_key(kv[0]))

    def __str__(self):
        return _signed_terms(self.sorted_terms(), word_str)

    def __repr__(self):
        return f"<{self.pres.name}: {self}>"


LegValue = Union[AlgElt, "TensorElt"]


def _as_legs(val: LegValue) -> tuple:
    """(presentations, terms) of a leg map's value, read as a tensor."""
    if isinstance(val, AlgElt):
        return (val.pres,), {(w,): c for w, c in val.terms.items()}
    return val.prs, val.terms


class TensorElt:
    """A linear combination of tensors of words with a fixed leg count.

    Each leg carries its own presentation tag, so mixed tensors such as
    ``m ⊗ c_0 ⊗ … ⊗ c_n`` are represented directly.
    """

    __slots__ = ("legs", "prs", "terms")

    def __init__(self, prs: Sequence, terms: Mapping, *, _normalized=False):
        prs = tuple(prs)
        if not prs:
            raise StructureError("a tensor needs at least one leg")
        self.prs = prs
        self.legs = len(prs)
        if _normalized:
            self.terms = dict(terms)
            return
        out = {}
        for wt, c in terms.items():
            c = exact(c)
            if not c:
                continue
            if len(wt) != self.legs:
                raise StructureError(f"term has {len(wt)} legs, expected {self.legs}")
            # normalize each leg; a leg may split into several words
            partial = {(): c}
            for leg, w in enumerate(wt):
                nf = prs[leg].normalize_terms({w: ONE})
                nxt = {}
                for pref, pc in partial.items():
                    for nw, nc in nf.items():
                        _merge_term(nxt, pref + (nw,), pc * nc)
                partial = nxt
            for full, fc in partial.items():
                _merge_term(out, full, fc)
        self.terms = out

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check_same(self, other: "TensorElt"):
        if self.legs != other.legs or tuple(p.name for p in self.prs) != tuple(
            p.name for p in other.prs
        ):
            raise StructureError("mismatched tensor leg structure")

    def __add__(self, other: "TensorElt") -> "TensorElt":
        self._check_same(other)
        terms = dict(self.terms)
        for wt, c in other.terms.items():
            _merge_term(terms, wt, c)
        return TensorElt(self.prs, terms, _normalized=True)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TensorElt(self.prs, {wt: -c for wt, c in self.terms.items()}, _normalized=True)

    def scale(self, c) -> "TensorElt":
        c = exact(c)
        if not c:
            return TensorElt(self.prs, {}, _normalized=True)
        return TensorElt(self.prs, _scaled(self.terms, c), _normalized=True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TensorElt):
            return NotImplemented
        return (
            tuple(p.name for p in self.prs) == tuple(p.name for p in other.prs)
            and self.terms == other.terms
        )

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __hash__(self):
        return hash((tuple(p.name for p in self.prs), frozenset(self.terms.items())))

    # -- structural operations ------------------------------------------------

    def leg_mul(self, other: "TensorElt") -> "TensorElt":
        """Leg-wise product: (a_1⊗…⊗a_n)·(b_1⊗…⊗b_n) = a_1b_1⊗…⊗a_nb_n."""
        self._check_same(other)
        out = {}
        for wt1, c1 in self.terms.items():
            for wt2, c2 in other.terms.items():
                partial = {(): c1 * c2}
                for leg in range(self.legs):
                    nf = self.prs[leg].ruleset.nf(wt1[leg] + wt2[leg])
                    nxt = {}
                    for pref, pc in partial.items():
                        for nw, nc in nf.items():
                            _merge_term(nxt, pref + (nw,), pc * nc)
                    partial = nxt
                for full, fc in partial.items():
                    _merge_term(out, full, fc)
        return TensorElt(self.prs, out, _normalized=True)

    def leg_apply(self, leg: int, f: Callable[[AlgElt], LegValue]) -> "TensorElt":
        """Apply a linear map to one leg (1-based), multilinearly.

        ``f`` may return an :class:`AlgElt` (leg count preserved) or a
        :class:`TensorElt` (the leg is replaced by the returned legs, e.g. a
        coproduct grows the tensor by one leg).
        """
        if not 1 <= leg <= self.legs:
            raise StructureError(f"leg {leg} out of range 1..{self.legs}")
        i = leg - 1
        out_terms: dict = {}
        mid_prs = None
        for wt, c in self.terms.items():
            mid_prs, mid_terms = _as_legs(f(AlgElt(self.prs[i], {wt[i]: ONE}, _normalized=True)))
            for mw, mc in mid_terms.items():
                _merge_term(out_terms, wt[:i] + mw + wt[i + 1 :], c * mc)
        if mid_prs is None:
            # zero tensor: f on the zero of the leg names the output legs
            mid_prs = _as_legs(f(AlgElt(self.prs[i], {}, _normalized=True)))[0]
        return TensorElt(self.prs[:i] + mid_prs + self.prs[i + 1 :], out_terms, _normalized=True)

    def leg_scalar(self, leg: int, f: Callable[[AlgElt], Coeff]) -> "TensorElt":
        """Apply a scalar-valued linear map to one leg (1-based) and drop it."""
        if not 1 <= leg <= self.legs:
            raise StructureError(f"leg {leg} out of range 1..{self.legs}")
        if self.legs == 1:
            raise StructureError("cannot drop the only leg of a tensor")
        i = leg - 1
        out = {}
        for wt, c in self.terms.items():
            s = f(AlgElt(self.prs[i], {wt[i]: ONE}, _normalized=True))
            if s:
                _merge_term(out, wt[:i] + wt[i + 1 :], c * s)
        return TensorElt(self.prs[:i] + self.prs[i + 1 :], out, _normalized=True)

    def outer(self, other: "TensorElt") -> "TensorElt":
        """Concatenate legs: (a⊗…)⊗(b⊗…)."""
        out = {}
        for wt1, c1 in self.terms.items():
            for wt2, c2 in other.terms.items():
                _merge_term(out, wt1 + wt2, c1 * c2)
        return TensorElt(self.prs + other.prs, out, _normalized=True)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: tuple(word_key(w) for w in kv[0]))

    def __str__(self):
        return _signed_terms(
            self.sorted_terms(), lambda wt: "⊗".join(word_str(w) for w in wt)
        )

    def __repr__(self):
        names = ",".join(p.name for p in self.prs)
        return f"<tensor[{names}]: {self}>"


def tensor(factors: Iterable[AlgElt]) -> TensorElt:
    """Multilinear tensor of a non-empty sequence of elements."""
    factors = list(factors)
    if not factors:
        raise StructureError("tensor of an empty sequence")
    prs = tuple(e.pres for e in factors)
    partial = {(): ONE}
    for e in factors:
        nxt = {}
        for pref, pc in partial.items():
            for w, c in e.terms.items():
                _merge_term(nxt, pref + (w,), pc * c)
        partial = nxt
    return TensorElt(prs, partial, _normalized=True)
