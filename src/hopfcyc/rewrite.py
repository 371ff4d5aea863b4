"""Presentations and the rewrite engine.

A :class:`Presentation` owns an alphabet (with optional indexed families
like ``d[k]``), a generator precedence, and a :class:`RuleSet`.  Rules
rewrite a word into a linear combination of strictly smaller words under the
degree-then-lexicographic termination order.  Index-parametric rule schemas
(``X d[k] -> d[k] X + d[k+1]``) instantiate lazily, so the infinite
δ-alphabet needs no a-priori bound.

Normalization is the linear map fixed by one redex choice per word: the
leftmost position holding a redex, and there the first matching rule in list
order.  A word without a redex is its own normal form; any other word
normalizes to the normal form of its one-step rewrite.  ``normalize_terms``
evaluates that map with a worklist instead of recursion: pending words sit
in a heap and are popped largest first in the termination order, so every
word that can still feed a coefficient into a pending word has already been
rewritten, and each distinct word is rewritten once, with its merged
coefficient.  Every word keeps its one redex choice whenever it is popped,
and the map is applied linearly, so the result does not depend on the pop
order (which only decides how often a word is visited): it is the map a
recursive, per-word evaluation computes, also for rule sets that are not
confluent.

Each rule set keeps two tables, both filled on first use.  A letter's code
is ``CODE_WIDTH`` bytes, the complement of its ``order_key`` component, so
a larger letter has a smaller code.  Names outside the precedence, which
``order_key`` ties, are told apart after the index in the order the rule
set first meets them: the codes are injective and only refine the
termination order, so every rewrite result still sorts below its parent.
A letter past ``MAX_INDEX`` raises :class:`StructureError`.  A word's key,
the concatenation of its letter codes, orders the heap and keys the pending
words, so a merge into a pending word hashes one bytes key and builds no
tuple.  The redex table maps a window of the longest left side's length to
the first rule in list order that matches at its start (None if none
does), so each rule is asked about a segment once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from typing import Callable, Iterable, Optional, Sequence

from .core import AlgElt, EMPTY_WORD, Generator, Memo, ONE, Word, _merge_term, _scaled, exact
from .errors import PreconditionError, RewriteLimitError, StructureError, TerminationOrderError

DEFAULT_STEP_LIMIT = 10**6

# a letter code holds three fields of two bytes: the name's precedence rank
# (names outside the precedence share the rank after it), the index (None
# below 0), then the order among names outside the precedence
CODE_WIDTH = 6
MAX_INDEX = 0xFFFE
MAX_NAMES = 0x10000  # in the precedence, and again outside it


def step_limit() -> int:
    """Rewrite guard; overridable via HOPFCYC_STEP_LIMIT, which must then
    be a positive integer."""
    raw = os.environ.get("HOPFCYC_STEP_LIMIT")
    if not raw:
        return DEFAULT_STEP_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        limit = 0
    if limit < 1:
        raise PreconditionError(f"HOPFCYC_STEP_LIMIT must be a positive integer, not {raw!r}")
    return limit


# -- rule patterns ------------------------------------------------------------


@dataclass(frozen=True)
class IndexExpr:
    """Index of a letter in a rule: a literal, or a variable plus offset."""

    var: Optional[str] = None
    offset: int = 0
    literal: Optional[int] = None

    @staticmethod
    def parse(text: str) -> "IndexExpr":
        text = text.strip()
        if text.lstrip("-").isdigit():
            return IndexExpr(literal=int(text))
        if "+" in text:
            v, off = text.split("+", 1)
            return IndexExpr(var=v.strip(), offset=int(off))
        return IndexExpr(var=text)

    def value(self, binding: dict) -> int:
        if self.literal is not None:
            return self.literal
        return binding[self.var] + self.offset

    def __str__(self):
        if self.literal is not None:
            return str(self.literal)
        return self.var if self.offset == 0 else f"{self.var}+{self.offset}"


@dataclass(frozen=True)
class LetterPat:
    name: str
    index: Optional[IndexExpr] = None

    def __str__(self):
        return self.name if self.index is None else f"{self.name}[{self.index}]"


class Rule:
    """Interface: ``lhs_len`` and ``match(segment) -> replacement or None``.

    ``match`` must be a pure function of its segment: a rule set keeps the
    answer in its redex table, and callers share the replacement dict and
    only read it."""

    lhs_len: int

    def match(self, segment: Word) -> Optional[dict]:
        raise NotImplementedError

    def sample_instances(self, index_bound: int) -> Iterable[tuple[Word, dict]]:
        """(lhs word, rhs terms) pairs for order/overlap diagnostics."""
        raise NotImplementedError


class ConcreteRule(Rule):
    def __init__(self, lhs: Word, rhs: dict):
        if len(lhs) < 2:
            raise StructureError("rule left-hand sides must have length >= 2")
        self.lhs = lhs
        self.lhs_len = len(lhs)
        self.rhs = {w: exact(c) for w, c in rhs.items() if c != 0}

    def match(self, segment: Word):
        return self.rhs if segment == self.lhs else None

    def sample_instances(self, index_bound: int):
        yield self.lhs, self.rhs

    def __str__(self):
        from .core import word_str, _signed_terms, word_key

        rhs = _signed_terms(
            sorted(self.rhs.items(), key=lambda kv: word_key(kv[0])), word_str
        )
        return f"{word_str(self.lhs)} -> {rhs}"


class SchemaRule(Rule):
    """Index-parametric rule; lhs variables are plain (no offsets), rhs may
    shift indices and use an index variable as a coefficient."""

    def __init__(
        self,
        lhs: Sequence[LetterPat],
        rhs: Sequence[tuple],  # (coeff: Fraction | var name, tuple[LetterPat])
        guard: Optional[tuple] = None,  # (var, '>' or '<', var)
    ):
        if len(lhs) < 2:
            raise StructureError("rule left-hand sides must have length >= 2")
        for pat in lhs:
            if pat.index is not None and pat.index.literal is None and pat.index.offset:
                raise StructureError("lhs index variables must be plain (no offsets)")
        self.lhs = tuple(lhs)
        self.lhs_len = len(lhs)
        self.rhs = tuple((c, tuple(ws)) for c, ws in rhs)
        self.guard = guard

    def _bind(self, segment: Word) -> Optional[dict]:
        binding: dict = {}
        for pat, g in zip(self.lhs, segment):
            if pat.name != g.name:
                return None
            if pat.index is None:
                if g.index is not None:
                    return None
            else:
                if g.index is None:
                    return None
                if pat.index.literal is not None:
                    if g.index != pat.index.literal:
                        return None
                else:
                    v = pat.index.var
                    if v in binding:
                        if binding[v] != g.index:
                            return None
                    else:
                        binding[v] = g.index
        if self.guard is not None:
            a, op, b = self.guard
            va, vb = binding[a], binding[b]
            if op == ">" and not va > vb:
                return None
            if op == "<" and not va < vb:
                return None
        return binding

    def _instantiate(self, binding: dict) -> dict:
        out: dict = {}
        for c, pats in self.rhs:
            coeff = binding[c] if isinstance(c, str) else exact(c)
            word = tuple(
                Generator(p.name, p.index.value(binding) if p.index is not None else None)
                for p in pats
            )
            _merge_term(out, word, coeff)
        return out

    def match(self, segment: Word):
        binding = self._bind(segment)
        return None if binding is None else self._instantiate(binding)

    def _vars(self):
        vs = []
        for pat in self.lhs:
            if pat.index is not None and pat.index.var and pat.index.var not in vs:
                vs.append(pat.index.var)
        return vs

    def sample_instances(self, index_bound: int):
        vs = self._vars()

        def rec(i, binding):
            if i == len(vs):
                word = tuple(
                    Generator(p.name, p.index.value(binding) if p.index is not None else None)
                    for p in self.lhs
                )
                if self._bind(word) is not None:
                    yield word, self._instantiate(binding)
                return
            for val in range(1, index_bound + 1):
                yield from rec(i + 1, {**binding, vs[i]: val})

        yield from rec(0, {})

    def ladder(self, g: Generator) -> Optional[tuple]:
        """``(lhs, terms)`` when this rule raises g's family to g = fam[k+1]:
        its right side holds the one-letter word fam[k+1] with a constant
        c ≠ 0, and every other letter of the family has index ≤ k.  ``terms``
        is g = c⁻¹·(lhs − rest) at k = index − 1, in the rule's words as
        written.  Binds k directly; None if the rule is no such ladder."""
        for c, pats in self.rhs:
            p = pats[0].index if len(pats) == 1 and pats[0].name == g.name else None
            ok = not isinstance(c, str) and p is not None and p.offset == 1 and g.index > 1
            if not ok or self._vars() != [p.var] or self.guard:  # a guard on k alone never holds
                continue
            binding = {p.var: g.index - 1}
            lhs = tuple(Generator(q.name, q.index and q.index.value(binding)) for q in self.lhs)
            terms = {lhs: ONE}
            for w, cw in self._instantiate(binding).items():
                _merge_term(terms, w, -cw)
            c = -terms.pop((g,), 0)
            if c and all(a.index < g.index for w in terms for a in w if a.name == g.name):
                return lhs, _scaled(terms, Fraction(1) / c)
        return None

    def __str__(self):
        def side(pats):
            return " ".join(str(p) for p in pats)

        parts = []
        for c, pats in self.rhs:
            cs = c if isinstance(c, str) else ("" if c == 1 else str(c))
            body = side(pats) if pats else "1"
            parts.append(f"{cs} {body}".strip() if cs else body)
        g = f" when {self.guard[0]} {self.guard[1]} {self.guard[2]}" if self.guard else ""
        return f"{side(self.lhs)} -> " + " + ".join(parts) + g


class FunctionRule(Rule):
    """Rule computed on demand (used for bicrossed-product straightening)."""

    def __init__(self, lhs_len: int, fn: Callable[[Word], Optional[dict]], samples=()):
        self.lhs_len = lhs_len
        self.fn = fn
        self.samples = tuple(samples)

    def match(self, segment: Word):
        return self.fn(segment)

    def sample_instances(self, index_bound: int):
        for seg in self.samples:
            rhs = self.fn(seg)
            if rhs is not None:
                yield seg, rhs


# -- rule sets ----------------------------------------------------------------


class RuleSet:
    def __init__(self, rules: Sequence[Rule], precedence: Sequence[str]):
        self.rules = list(rules)
        self.precedence = tuple(precedence)
        self._rank = {name: i for i, name in enumerate(self.precedence)}
        # both fills close over locals, not self, so no reference cycle
        rules = tuple(self.rules)
        self._span = max((r.lhs_len for r in rules), default=1)
        rank = dict(self._rank)  # grows by names outside the precedence
        ranked = len(rank)
        top = (1 << 8 * CODE_WIDTH) - 1

        def letter_code(g: Generator) -> bytes:
            n = rank.setdefault(g.name, len(rank))
            r = min(n, ranked)
            outside, i = n - r, g.index
            if r >= MAX_NAMES or outside >= MAX_NAMES or i is not None and not 0 <= i <= MAX_INDEX:
                raise StructureError(
                    f"letter {g} is outside the rewrite code range (index 0 to {MAX_INDEX};"
                    f" under {MAX_NAMES} names in, and outside, the precedence)"
                )
            value = (r << 32) + ((0 if i is None else i + 1) << 16) + outside
            return (top - value).to_bytes(CODE_WIDTH, "big")

        def first_redex(window: Word) -> Optional[tuple]:
            for rule in rules:
                L = rule.lhs_len
                if L <= len(window):
                    repl = rule.match(window[:L])
                    if repl is not None:
                        return L, tuple((r, b"".join(map(code, r)), c) for r, c in repl.items())
            return None

        self._codes = Memo(letter_code)
        code = self._codes.__getitem__
        # window word[pos : pos + span] -> (lhs_len, ((word, key, coeff), ...))
        self._redex = Memo(first_redex)
        # a plain dict, not a Memo: filled only for the whole input words of
        # normalize_terms, and read mid-worklist without filling
        self._nf_cache: dict = {}
        self._steps = 0
        self._depth = 0
        self._limit = None  # read from the environment on the first rewrite

    def ladder(self, g: Generator) -> Optional[tuple]:
        """The first schema rule's :meth:`SchemaRule.ladder` for g, or None."""
        rules = (r.ladder(g) for r in self.rules if isinstance(r, SchemaRule))
        return next(filter(None, rules), None)

    # termination order: degree, then lexicographic on (precedence, index)
    def order_key(self, w: Word):
        return (len(w), tuple((self._rank.get(g.name, len(self._rank)), g.index or 0) for g in w))

    def rule_respects_order(self, lhs: Word, rhs: dict) -> bool:
        lk = self.order_key(lhs)
        return all(self.order_key(w) < lk for w in rhs)

    def check_rule(self, rule: Rule, index_bound: int = 4):
        """Raise TerminationOrderError on the first violating instance."""
        for lhs, rhs in rule.sample_instances(index_bound):
            if not self.rule_respects_order(lhs, rhs):
                bad = next(w for w in rhs if self.order_key(w) >= self.order_key(lhs))
                from .core import word_str

                raise TerminationOrderError(
                    f"rule {word_str(lhs)} -> ... produces {word_str(bad)},"
                    " not smaller in the termination order"
                )

    def check_all(self, index_bound: int = 4):
        for rule in self.rules:
            self.check_rule(rule, index_bound)

    # -- normalization --------------------------------------------------------

    def _find(self, word: Word, start: int = 0):
        """The leftmost redex at or after ``start``, as ``(pos, lhs_len,
        terms)`` with the first matching rule in list order, or None;
        ``terms`` lists the replacement as ``(word, key, coeff)``."""
        redex, span = self._redex, self._span
        for pos in range(start, len(word)):
            hit = redex[word[pos : pos + span]]
            if hit is not None:
                return pos, hit[0], hit[1]
        return None

    def _nf_word(self, word: Word) -> dict:
        """Normal form of one word by the largest-first worklist.

        A word's key is the concatenation of its letter codes; the heap
        holds ``(-len, key, word)``, so it pops the largest word first and
        never compares words, as keys are unique.  ``pending`` maps a key to
        ``[coeff, resume]``: positions before ``resume`` hold no redex, and
        the leftmost redex after it is one redex-table lookup per position,
        as in :meth:`_find`.  A rewrite at ``pos`` leaves the prefix before
        it unchanged, so a redex of the result starts at
        ``pos - (span - 1)`` or later.  A result's
        key is spliced from its parent's and the replacement's, and its word
        is built only when the key is new."""
        cache = self._nf_cache
        width = CODE_WIDTH
        span = self._span
        back = span - 1
        redex = self._redex.__getitem__
        key = b"".join(map(self._codes.__getitem__, word))
        pending = {key: [ONE, 0]}
        heap = [(-len(word), key, word)]
        out: dict = {}
        while heap:
            _, key, w = heappop(heap)
            c, start = pending.pop(key)
            if c == 0:
                continue
            hit = cache.get(w)
            if hit is not None:
                for nw, nc in hit.items():
                    _merge_term(out, nw, c * nc)
                continue
            for pos in range(start, len(w)):
                found = redex(w[pos : pos + span])
                if found is not None:
                    break
            else:
                _merge_term(out, w, c)
                continue
            L, terms = found
            self._steps += 1
            if self._steps > self._limit:
                raise RewriteLimitError(
                    f"rewrite step guard ({self._limit}) exceeded; the rule set is"
                    " suspected non-terminating (or raise HOPFCYC_STEP_LIMIT)"
                )
            khead, ktail = key[: width * pos], key[width * (pos + L) :]
            resume = pos - back if pos > back else 0
            for r, rkey, rc in terms:
                ckey = khead + rkey + ktail
                entry = pending.get(ckey)
                if entry is None:
                    pending[ckey] = [c * rc, resume]
                    child = w[:pos] + r + w[pos + L :]
                    heappush(heap, (-len(child), ckey, child))
                else:
                    entry[0] += c * rc
                    if resume < entry[1]:
                        entry[1] = resume
        return out

    def nf(self, word: Word) -> dict:
        """Normal form of one word: the cached dict itself on a hit, which
        the caller must not change, else ``normalize_terms({word: 1})``,
        under its step guard."""
        hit = self._nf_cache.get(word)
        return hit if hit is not None else self.normalize_terms({word: ONE})

    def normalize_terms(self, terms: dict) -> dict:
        """Normal form of a linear combination.  The step guard counts every
        rewrite of the outermost call, nested calls on this rule set
        included.  Its limit is read from the environment once per outermost
        call, and only if some word is missing from the cache."""
        if self._depth == 0:
            self._steps = 0
            self._limit = None
        self._depth += 1
        try:
            out: dict = {}
            for w, c in terms.items():
                if c == 0:
                    continue
                nf = self._nf_cache.get(w)
                if nf is None:
                    if self._limit is None:
                        self._limit = step_limit()
                    nf = self._nf_cache[w] = self._nf_word(w)
                for nw, nc in nf.items():
                    _merge_term(out, nw, c * nc)
            return out
        finally:
            self._depth -= 1


@dataclass
class Diagnostics:
    order_violations: list = field(default_factory=list)
    nonconfluent_overlaps: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.order_violations and not self.nonconfluent_overlaps


def validate_ruleset(rs: RuleSet, index_bound: int = 3, max_degree: int = 4) -> Diagnostics:
    """Diagnostics only: termination-order violations and non-confluent
    overlaps among rule instances (critical pairs), up to the given degree."""
    diag = Diagnostics()
    instances = []
    for rule in rs.rules:
        for lhs, rhs in rule.sample_instances(index_bound):
            if not rs.rule_respects_order(lhs, rhs):
                diag.order_violations.append((lhs, rhs))
            instances.append((lhs, rhs))
    seen = set()
    for lhs1, rhs1 in instances:
        for lhs2, rhs2 in instances:
            # proper overlap: a suffix of lhs1 equals a prefix of lhs2
            for k in range(1, min(len(lhs1), len(lhs2))):
                if lhs1[-k:] != lhs2[:k]:
                    continue
                word = lhs1 + lhs2[k:]
                if len(word) > max_degree or word in seen:
                    continue
                seen.add(word)
                # resolve via rule 1 at position 0 vs rule 2 at len(lhs1)-k
                a: dict = {}
                for w, c in rhs1.items():
                    _merge_term(a, w + lhs2[k:], c)
                b: dict = {}
                p = len(lhs1) - k
                for w, c in rhs2.items():
                    _merge_term(b, word[:p] + w, c)
                na = rs.normalize_terms(a)
                nb = rs.normalize_terms(b)
                if na != nb:
                    diag.nonconfluent_overlaps.append((word, na, nb))
    return diag


# -- presentations ------------------------------------------------------------


class Presentation:
    """An alphabet with a rule set; the carrier every AlgElt is tagged with.

    ``generators`` maps a name to True if it is an indexed family (``d[k]``)
    and False for a plain letter.  ``finite_basis``, when given, lists the
    words spanning the space (used by finite instances; it may exclude the
    empty word for non-unital carriers such as set coalgebras).
    ``unit_terms`` overrides the algebra unit when it is not the empty word
    (e.g. the function algebra on a finite set).
    """

    def __init__(
        self,
        name: str,
        generators: dict,
        precedence: Sequence[str],
        rules: Sequence[Rule] = (),
        finite_basis: Optional[Sequence[Word]] = None,
        unit_terms: Optional[dict] = None,
    ):
        self.name = name
        self.generators = dict(generators)
        for nm in precedence:
            if nm not in self.generators:
                raise StructureError(f"precedence mentions unknown generator {nm!r}")
        self.ruleset = RuleSet(rules, precedence)
        self.ruleset.check_all()
        self.finite_basis = list(finite_basis) if finite_basis is not None else None
        self.unit_terms = unit_terms
        self._elts = Memo(lambda w: AlgElt(self, {w: ONE}))
        self._normal = Memo(self._normal_words)

    # -- element constructors -------------------------------------------------

    def normalize_terms(self, terms: dict) -> dict:
        return self.ruleset.normalize_terms(terms)

    def zero(self) -> AlgElt:
        return AlgElt(self, {}, _normalized=True)

    def unit(self) -> AlgElt:
        if self.unit_terms is not None:
            return AlgElt(self, self.unit_terms)
        return AlgElt(self, {EMPTY_WORD: ONE}, _normalized=True)

    def gen(self, name: str, index: Optional[int] = None) -> AlgElt:
        self.check_generator(name, index)
        return AlgElt(self, {(Generator(name, index),): ONE})

    def check_generator(self, name: str, index: Optional[int]):
        if name not in self.generators:
            raise StructureError(f"unknown generator {name!r} in presentation {self.name!r}")
        indexed = self.generators[name]
        if indexed and (index is None or index < 1):
            raise StructureError(f"generator {name!r} requires a positive index")
        if not indexed and index is not None:
            raise StructureError(f"generator {name!r} takes no index")

    def elt(self, terms: dict) -> AlgElt:
        return AlgElt(self, terms)

    def from_word(self, word: Word) -> AlgElt:
        """The element a word spells, normalized.  Memoized per word: the
        rules are fixed once the presentation is built and elements are
        immutable, so every call with the same word may return one shared
        element."""
        return self._elts[word]

    # -- bases ----------------------------------------------------------------

    def letters(self, index_bound: int = 3):
        out = []
        for name in sorted(self.generators):
            if self.generators[name]:
                out.extend(Generator(name, k) for k in range(1, index_bound + 1))
            else:
                out.append(Generator(name))
        return out

    def normal_words(self, max_degree: int, index_bound: int = 3):
        """All normal words of degree <= max_degree (indices capped for
        indexed families).  Finite presentations return their basis."""
        if self.finite_basis is not None:
            return list(self.finite_basis)
        return list(self._normal[max_degree, index_bound])

    def _normal_words(self, key: tuple) -> list:
        max_degree, index_bound = key
        letters = self.letters(index_bound)
        words = [EMPTY_WORD]
        frontier = [EMPTY_WORD]
        for _ in range(max_degree):
            frontier = [w + (g,) for w in frontier for g in letters]
            words.extend(frontier)
        normal = [w for w in words if self.ruleset._find(w) is None]
        normal.sort(key=self.ruleset.order_key)
        return normal

    def basis_words(self):
        if self.finite_basis is None:
            raise StructureError(f"presentation {self.name!r} has no finite basis")
        return list(self.finite_basis)

    def basis_elts(self):
        return [self.from_word(w) for w in self.basis_words()]

    def __repr__(self):
        return f"<presentation {self.name}>"
