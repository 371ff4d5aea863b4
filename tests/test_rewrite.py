"""Rewriting: normal forms, termination order, confluence diagnostics."""

import gc
import random
import re
import sys
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcyc.core import Generator, _merge_term
from hopfcyc.errors import RewriteLimitError, StructureError, TerminationOrderError
from hopfcyc.instances import build_function_algebra, build_group_algebra, build_h1cop
from hopfcyc.rewrite import (
    CODE_WIDTH,
    MAX_INDEX,
    MAX_NAMES,
    ConcreteRule,
    FunctionRule,
    IndexExpr,
    LetterPat,
    Presentation,
    RuleSet,
    SchemaRule,
)

X, Y = Generator("X"), Generator("Y")


def d(k):
    return Generator("d", k)


def test_single_step_normal_forms(h1cop):
    # hand-computed one-step reductions of each defining relation
    assert h1cop.from_word((X, d(1))) == h1cop.elt({(d(1), X): 1, (d(2),): 1})
    assert h1cop.from_word((Y, d(3))) == h1cop.elt({(d(3), Y): 1, (d(3),): 3})
    assert h1cop.from_word((X, Y)) == h1cop.elt({(Y, X): 1, (X,): -1})
    assert h1cop.from_word((d(2), d(1))) == h1cop.elt({(d(1), d(2)): 1})
    # guarded rule does not fire on an already sorted pair
    assert h1cop.from_word((d(1), d(2))) == h1cop.elt({(d(1), d(2)): 1})


def test_two_step_normal_form(h1cop):
    # X X d[1]: reduce innermost first by hand:
    # X (d[1] X + d[2]) = (d[1] X + d[2]) X + d[2] X + d[3]
    expected = h1cop.elt({(d(1), X, X): 1, (d(2), X): 2, (d(3),): 1})
    assert h1cop.from_word((X, X, d(1))) == expected


def test_normal_words_are_irreducible(h1cop):
    for w in h1cop.normal_words(3, 2):
        assert h1cop.from_word(w) == h1cop.elt({w: 1})


def test_normalization_idempotent_random(h1cop):
    rng = random.Random(424242)
    letters = h1cop.letters(3)
    for _ in range(30):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 5)))
        nf = h1cop.from_word(w)
        renf = h1cop.zero()
        for word, c in nf.terms.items():
            renf = renf + h1cop.from_word(word).scale(c)
        assert renf == nf


def test_termination_order_violation_rejected():
    rs = RuleSet([ConcreteRule((X, Y), {(Y, X, X): 1})], ("Y", "X"))
    with pytest.raises(TerminationOrderError):
        rs.check_all(index_bound=2)


def test_precedence_naming_a_generator_twice_is_refused():
    # ranked by its last position, X would sit above Y and the rule would
    # pass, although the declared X < Y makes it increasing
    rule = ConcreteRule((X, Y), {(Y, X): 1})
    with pytest.raises(StructureError, match="precedence names generator 'X' twice"):
        Presentation("t", {"X": False, "Y": False}, ("X", "Y", "X"), [rule])
    with pytest.raises(StructureError, match="'X' twice"):
        RuleSet([rule], ("X", "Y", "X"))


def test_schema_rule_str_round():
    rule = SchemaRule(
        [LetterPat("X"), LetterPat("d", IndexExpr.parse("k"))],
        [(1, (LetterPat("d", IndexExpr.parse("k")), LetterPat("X"))),
         (1, (LetterPat("d", IndexExpr.parse("k+1")),))],
    )
    assert str(rule) == "X d[k] -> d[k] X + d[k+1]"


def test_step_limit_guard(monkeypatch):
    monkeypatch.setenv("HOPFCYC_STEP_LIMIT", "3")
    from hopfcyc.instances import build_h1cop

    h = build_h1cop()
    with pytest.raises(RewriteLimitError):
        h.from_word((X, X, X, d(1), d(1)))


def test_index_expr_parse_and_value():
    e = IndexExpr.parse("k+2")
    assert e.value({"k": 3}) == 5
    assert IndexExpr.parse("7").value({}) == 7
    assert str(IndexExpr.parse("k+1")) == "k+1"


def test_finite_basis_presentation(swap_cmod):
    h = swap_cmod.hopf  # group algebra of Z/2
    assert sorted(map(str, h.basis_elts())) == ["1", "g"]
    g = h.gen("g")
    assert g * g == h.unit()


# -- the confluence oracle ----------------------------------------------------


@dataclass
class Diagnostics:
    order_violations: list = field(default_factory=list)
    nonconfluent_overlaps: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.order_violations and not self.nonconfluent_overlaps


def validate_ruleset(rs: RuleSet, index_bound: int = 3, max_degree: int = 4) -> Diagnostics:
    """Termination-order violations and non-confluent overlaps among rule
    instances (critical pairs), up to the given degree."""
    diag = Diagnostics()
    instances = []
    for rule in rs.rules:
        for lhs, rhs in rule.sample_instances(index_bound):
            if any(rs.order_key(w) >= rs.order_key(lhs) for w in rhs):
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


def test_validate_ruleset_confluence(h1cop):
    diag = validate_ruleset(h1cop.ruleset, index_bound=3, max_degree=3)
    assert diag.ok, diag


# -- the recursive engine as oracle -------------------------------------------


def recursive_nf(rs: RuleSet, word, cache=None) -> dict:
    """Reference normal form, the recursive definition evaluated directly:
    rewrite the leftmost redex (first rule in list order there), recurse on
    every resulting word, cache per word.  Its depth grows with the rewrite
    path, so it serves short words only."""
    cache = {} if cache is None else cache
    if word in cache:
        return cache[word]
    hit = None
    for pos in range(len(word)):
        for rule in rs.rules:
            L = rule.lhs_len
            if pos + L <= len(word):
                repl = rule.match(word[pos : pos + L])
                if repl is not None:
                    hit = pos, L, repl
                    break
        if hit is not None:
            break
    if hit is None:
        result = {word: Fraction(1)}
    else:
        pos, L, repl = hit
        result = {}
        for w, c in repl.items():
            for nw, nc in recursive_nf(rs, word[:pos] + w + word[pos + L :], cache).items():
                total = result.get(nw, 0) + c * nc
                if total:
                    result[nw] = total
                else:
                    result.pop(nw, None)
    cache[word] = result
    return result


def test_worklist_matches_recursive_oracle(h1cop, matched_pair, bicrossed, s3):
    presentations = {  # name -> (presentation, longest word drawn)
        "h1cop": (h1cop, 6),
        "U": (matched_pair.u, 6),
        "F": (matched_pair.f, 6),
        "bicrossed": (bicrossed.hopf, 4),
        "kS3": (build_group_algebra(s3, name="kS3"), 6),
        "FunX": (build_function_algebra(["p", "q", "r"]), 6),
    }
    rng = random.Random(20240611)
    for name, (pres, max_len) in presentations.items():
        letters = pres.letters(3)
        oracle_cache: dict = {}
        for _ in range(40):
            w = tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len)))
            got = pres.normalize_terms({w: 1})
            assert got == recursive_nf(pres.ruleset, w, oracle_cache), (name, w)


def test_worklist_matches_oracle_without_confluence():
    # overlapping rules, one lhs twice, a length-3 lhs and a rule without a
    # fixed first letter: the normal form depends on the redex choice
    a, b, c = Generator("a"), Generator("b"), Generator("c")

    def c_any(seg):  # listed before ``c b -> b a``, which it shadows
        return {(a,): Fraction(2), (b,): Fraction(-1)} if seg[0] == c else None

    rules = [
        ConcreteRule((b, a), {(a, b): 1}),
        ConcreteRule((b, a), {(c,): 1}),
        ConcreteRule((a, b), {(c,): 3, (a,): 1}),
        ConcreteRule((c, a, b), {(b, c): -1, (): 1}),
        FunctionRule(2, c_any),
        ConcreteRule((c, b), {(b, a): 1}),
    ]
    rs = RuleSet(rules, ("a", "b", "c"))
    assert not validate_ruleset(rs).ok
    rng = random.Random(77)
    oracle_cache: dict = {}
    for _ in range(200):
        w = tuple(rng.choice((a, b, c)) for _ in range(rng.randint(0, 9)))
        assert rs.normalize_terms({w: 1}) == recursive_nf(rs, w, oracle_cache), w


# -- random rule sets that are not confluent ------------------------------------

PREC = ("a", "b", "d")
# u and v lie outside the precedence: their order_key components tie
LETTERS = [Generator(n) for n in "abuv"] + [Generator("u", 1)]
LETTERS += [d(k) for k in (1, 2, MAX_INDEX - 1, MAX_INDEX)]
ORDER = RuleSet([], PREC).order_key


def below(w, lhs) -> bool:
    """w is shorter than lhs, or smaller at the first letter where they
    differ: smaller in every refinement of the termination order."""
    if len(w) != len(lhs):
        return len(w) < len(lhs)
    x, y = next(((x, y) for x, y in zip(w, lhs) if x is not y), (None, None))
    return x is not None and ORDER((x,)) < ORDER((y,))


def letter_words(lo, hi):
    return st.lists(st.sampled_from(LETTERS), min_size=lo, max_size=hi).map(tuple)


@st.composite
def random_rule_sets(draw):
    """(positive, rules): concrete rules with left sides of length 2 and 3,
    and a rule with no first letter at a random place in the list."""
    positive = draw(st.booleans())
    coeffs = st.sampled_from((1, 2, 3) if positive else (-2, -1, 1, 2, 3))
    rules = []
    for lhs in draw(st.lists(letter_words(2, 3), min_size=1, max_size=4)):
        words = draw(st.lists(letter_words(0, 3), max_size=3))
        rules.append(ConcreteRule(lhs, {w: draw(coeffs) for w in words if below(w, lhs)}))
    k = draw(coeffs)

    def swap(seg):  # any pair whose first letter is the larger one
        x, y = seg
        return {(y, x): k, (y,): 1} if ORDER((y,)) < ORDER((x,)) else None

    rules.insert(draw(st.integers(0, len(rules))), FunctionRule(2, swap))
    return positive, rules


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(random_rule_sets(), st.lists(letter_words(0, 5), min_size=1, max_size=3))
def test_worklist_matches_oracle_on_random_rule_sets(case, words):
    positive, rules = case
    for w in words:
        rs = RuleSet(rules, PREC)
        oracle: dict = {}
        assert rs.normalize_terms({w: 1}) == recursive_nf(rs, w, oracle), w
        # one rewrite per distinct word; with positive coefficients no
        # pending coefficient cancels, so every word the oracle rewrites is
        # rewritten
        rewritten = sum(1 for v, nf in oracle.items() if nf != {v: 1})
        assert rs._steps == rewritten if positive else rs._steps <= rewritten


# -- letter codes --------------------------------------------------------------

code_letters = st.builds(
    Generator,
    st.sampled_from(["a", "b", "d", "u", "v"]),
    st.one_of(st.none(), st.integers(0, MAX_INDEX)),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(code_letters, min_size=2, max_size=12))
def test_letter_codes_reverse_the_order_and_are_injective(letters):
    codes = RuleSet([], PREC)._codes
    for x in letters:
        assert len(codes[x]) == CODE_WIDTH
        for y in letters:
            # a larger letter has a smaller code; ties are split, never merged
            if ORDER((x,)) < ORDER((y,)):
                assert codes[x] > codes[y]
            assert (codes[x] == codes[y]) == (x is y)


def test_names_outside_the_precedence_rank_after_it_as_first_met():
    u, v, a = Generator("u"), Generator("v"), Generator("a")
    codes = RuleSet([], PREC)._codes
    first, second = codes[v], codes[u]
    assert second < first < codes[d(MAX_INDEX)] < codes[a]
    codes = RuleSet([], PREC)._codes
    first, second = codes[u], codes[v]
    assert second < first


@pytest.mark.parametrize("letter", [d(MAX_INDEX + 1), d(10**30), d(-1)])
def test_letter_past_the_code_range_is_a_structure_error(letter):
    rs = RuleSet([], PREC)
    with pytest.raises(StructureError, match=rf"letter {re.escape(str(letter))} is outside"):
        rs.normalize_terms({(A, letter): 1})


def test_name_past_the_code_range_is_a_structure_error():
    rs = RuleSet([], [f"n{i}" for i in range(MAX_NAMES)])
    with pytest.raises(StructureError, match="letter a is outside"):
        rs.normalize_terms({(A,): 1})


def test_x_power_d1_takes_one_step_per_rewritten_word():
    # the words X^a d[1+j] X^b with a + j + b = n and a >= 1 hold a redex,
    # and each is rewritten once: n(n+1)/2 steps, the same count as the
    # per-position rule scan the redex table replaced
    n = 80
    h = build_h1cop()
    h.normalize_terms({(X,) * n + (d(1),): 1})
    assert h.ruleset._steps == n * (n + 1) // 2 == 3240


def test_rule_sets_and_schema_rules_are_freed_without_gc():
    dk, dk1 = LetterPat("d", IndexExpr.parse("k")), LetterPat("d", IndexExpr.parse("k+1"))
    rule = SchemaRule([LetterPat("X"), dk], [(1, (dk, LetterPat("X"))), (1, (dk1,))])
    rs = RuleSet([rule], ("d", "X"))
    assert rs.normalize_terms({(X, X, d(1)): 1}) == {(d(1), X, X): 1, (d(2), X): 2, (d(3),): 1}
    assert rule.match((X, d(4))) == {(d(4), X): 1, (d(5),): 1}
    refs = [weakref.ref(rule), weakref.ref(rs)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        del rule, rs
        assert [r() for r in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


@st.composite
def h1cop_words(draw):
    letters = [X, Y] + [d(k) for k in (1, 2, 3)]
    return tuple(draw(st.lists(st.sampled_from(letters), max_size=7)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(h1cop_words())
def test_normal_form_idempotent_property(h1cop, w):
    nf = h1cop.normalize_terms({w: 1})
    assert nf == recursive_nf(h1cop.ruleset, w)
    for word in nf:
        assert h1cop.ruleset._find(word) is None
        assert h1cop.normalize_terms({word: 1}) == {word: 1}


def test_x_power_d1_closed_form():
    n = 120
    got = build_h1cop().from_word((X,) * n + (d(1),))
    expected = {(d(1 + j),) + (X,) * (n - j): comb(n, j) for j in range(n + 1)}
    assert got.terms == expected


# -- robustness ---------------------------------------------------------------

A, B = Generator("a"), Generator("b")


def test_long_word_needs_no_recursion():
    # one rewrite per letter: 2000 frames deep if evaluated recursively
    pres = Presentation("ab", {"a": False, "b": False}, ("a", "b"),
                        [ConcreteRule((B, A), {(A, B): 1})])
    n = 2000
    assert n > sys.getrecursionlimit()
    assert pres.normalize_terms({(B,) + (A,) * n: 1}) == {(A,) * n + (B,): 1}


def test_cyclic_rules_hit_the_step_guard(monkeypatch):
    monkeypatch.setenv("HOPFCYC_STEP_LIMIT", "1000")
    rs = RuleSet([ConcreteRule((B, A), {(A, B): 1}), ConcreteRule((A, B), {(B, A): 1})], ("a", "b"))
    with pytest.raises(RewriteLimitError):
        rs.normalize_terms({(B, A): 1})


def test_step_count_spans_the_whole_call(monkeypatch):
    sort = ConcreteRule((B, A), {(A, B): 1})
    # b a a takes two rewrites; three such words take six
    terms = {(B, A, A): 1, (A, B, A, A): 1, (A, A, B, A, A): 1}
    monkeypatch.setenv("HOPFCYC_STEP_LIMIT", "6")
    assert len(RuleSet([sort], ("a", "b")).normalize_terms(terms)) == 3
    monkeypatch.setenv("HOPFCYC_STEP_LIMIT", "5")
    with pytest.raises(RewriteLimitError):
        RuleSet([sort], ("a", "b")).normalize_terms(terms)

    # a normalization nested in a rule on the same rule set
    # adds to the outer call's count instead of restarting it: 1 step for
    # b a, then 2 nested and 1 outer for c a
    C = Generator("c")
    rs = None

    def nested(seg):
        if seg != (C, A):
            return None
        rs.normalize_terms({(B, A, A): 1})
        return {(A, C): Fraction(1)}

    monkeypatch.setenv("HOPFCYC_STEP_LIMIT", "3")
    rs = RuleSet([sort, FunctionRule(2, nested)], ("a", "b", "c"))
    with pytest.raises(RewriteLimitError):
        rs.normalize_terms({(B, A): 1, (C, A): 1})
    monkeypatch.setenv("HOPFCYC_STEP_LIMIT", "4")
    rs = RuleSet([sort, FunctionRule(2, nested)], ("a", "b", "c"))
    assert rs.normalize_terms({(B, A): 1, (C, A): 1}) == {(A, B): 1, (A, C): 1}


@pytest.mark.parametrize(
    "w", [(X, d(1)), (X, X, d(1)), (d(2), X, Y), (Y, d(3), X, d(1)), (d(1), d(2)), ()]
)
def test_nf_matches_normalize_terms(w):
    # a miss normalizes and stores the word; a hit returns the stored dict
    rs = build_h1cop().ruleset
    expected = build_h1cop().normalize_terms({w: 1})
    assert rs.nf(w) == expected
    assert rs.nf(w) is rs._nf_cache[w]
    assert rs.nf(w) == expected


def test_nf_miss_keeps_the_step_guard(monkeypatch):
    monkeypatch.setenv("HOPFCYC_STEP_LIMIT", "3")
    with pytest.raises(RewriteLimitError):
        build_h1cop().ruleset.nf((X, X, X, d(1), d(1)))


def test_normal_words_use_redex_test(h1cop):
    h = build_h1cop()
    cached = dict(h.ruleset._nf_cache)
    words = h.normal_words(3, 2)
    assert h.ruleset._nf_cache == cached  # no normalization ran
    assert words == h1cop.normal_words(3, 2)
    assert all(h.normalize_terms({w: 1}) == {w: 1} for w in words)


def test_step_limit_is_read_only_for_uncached_words(monkeypatch):
    from hopfcyc import rewrite

    reads = []
    real = rewrite.step_limit

    def counting():
        reads.append(1)
        return real()

    monkeypatch.setattr(rewrite, "step_limit", counting)
    rs = RuleSet([ConcreteRule((B, A), {(A, B): 1})], ("a", "b"))
    assert rs.normalize_terms({(B, A): 1, (B, A, A): 1}) == {(A, B): 1, (A, A, B): 1}
    assert len(reads) == 1  # once per outermost call with a miss
    for _ in range(3):
        rs.normalize_terms({(B, A): 2, (B, A, A): 1})
    assert len(reads) == 1  # every word cached: the environment is not read
    rs.normalize_terms({(B, B, A): 1})
    assert len(reads) == 2
