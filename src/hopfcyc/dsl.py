"""Text format for Hopf presentations.

A presentation file declares generator families with their precedence,
rewrite rules (concrete or index-parametric), the structure-map tables on
generators, and optional commutator checks for indexed families:

    hopf h1cop {
      generators d[] < Y < X;
      rule X d[k] -> d[k] X + d[k+1];
      coproduct X -> X(x)1 + 1(x)X + Y(x)d[1];
      counit X -> 0;
      antipode X -> -X + Y d[1];
      inverse X -> -X + d[1] Y;
      extend d by commutator X;
    }

``antipode`` and ``inverse`` lines are optional table entries: a generator
without one gets S and S⁻¹ derived from its coproduct (see
:meth:`~hopfcyc.hopf.HopfPresentation.gen_antipode`).  Only a group-like
generator (``coproduct g -> g(x)g;``) needs its ``antipode`` line, since
S(g) = g⁻¹ is not fixed by Δ alone.  An indexed family needs ``coproduct``
and ``counit`` lines only for index 1: Δ and ε of fam[k+1] follow from the
rule that raises its index (here ``X d[k] -> d[k] X + d[k+1]``).  An
``extend fam by commutator A`` line is an optional check that fam[1] has a
``coproduct`` line and that this rule commutes fam[k] with A.

Parsing produces a small AST that prints back to canonical text
(parse of print is the identity on the AST) and builds into a
HopfPresentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .core import Generator, Word, tensor, word_str
from .errors import ParseError, SemanticError, TerminationOrderError
from .hopf import HopfPresentation
from .rewrite import ConcreteRule, IndexExpr, LetterPat, RuleSet, SchemaRule

KEYWORDS = {
    "hopf",
    "generators",
    "rule",
    "coproduct",
    "counit",
    "antipode",
    "inverse",
    "extend",
    "by",
    "commutator",
    "when",
}

SYMBOLS = ("->", "(x)", "{", "}", ";", "[", "]", "<", ">", "+", "-", "/", ",")


@dataclass(frozen=True)
class Token:
    kind: str  # ident, int, symbol, eof
    text: str
    line: int
    col: int


def tokenize(text: str) -> List[Token]:
    toks = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        matched = None
        for sym in SYMBOLS:
            if text.startswith(sym, i):
                matched = sym
                break
        if matched:
            toks.append(Token("symbol", matched, line, col))
            i += len(matched)
            col += len(matched)
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line=line, column=col)
    toks.append(Token("eof", "", line, col))
    return toks


# -- abstract syntax ----------------------------------------------------------


@dataclass(frozen=True)
class RuleAST:
    lhs: Tuple[LetterPat, ...]
    rhs: Tuple[tuple, ...]  # (coeff: Fraction | var name, Tuple[LetterPat, ...])
    guard: Optional[tuple] = None


@dataclass(frozen=True)
class HopfAST:
    name: str
    families: Tuple[tuple, ...]  # (name, indexed) in precedence order
    rules: Tuple[RuleAST, ...]
    coproducts: Tuple[tuple, ...]  # (Generator, Tuple[(coeff, Word, Word)])
    counits: Tuple[tuple, ...]  # (Generator, Fraction)
    antipodes: Tuple[tuple, ...]  # (Generator, Tuple[(coeff, Word)])
    inverses: Tuple[tuple, ...]
    extends: Tuple[tuple, ...]  # (family name, anchor Generator)


@dataclass(frozen=True)
class FileAST:
    hopfs: Tuple[HopfAST, ...]


class Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(msg, line=t.line, column=t.col)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            self.fail(f"expected {want!r}, found {t.text or 'end of input'!r}")
        return self.next()

    def at_symbol(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "symbol" and t.text == text

    # -- grammar --------------------------------------------------------------

    def parse_file(self) -> FileAST:
        hopfs = []
        while self.peek().kind != "eof":
            t = self.peek()
            if t.kind == "ident" and t.text == "hopf":
                hopfs.append(self.parse_hopf())
            else:
                self.fail("expected a 'hopf' section")
        return FileAST(tuple(hopfs))

    def parse_hopf(self) -> HopfAST:
        self.expect("ident", "hopf")
        name = self.expect("ident").text
        self.expect("symbol", "{")
        families: List[tuple] = []
        rules: List[RuleAST] = []
        cops, cous, ants, invs, exts = [], [], [], [], []
        family_names = set()
        while not self.at_symbol("}"):
            t = self.peek()
            if t.kind != "ident":
                self.fail("expected a statement keyword")
            if t.text == "generators":
                if families:
                    self.fail("duplicate generators statement")
                families = self.parse_generators()
                family_names = {nm for nm, _ in families}
            elif t.text == "rule":
                rules.append(self.parse_rule(family_names))
            elif t.text == "coproduct":
                cops.append(self.parse_coproduct(family_names))
            elif t.text == "counit":
                cous.append(self.parse_counit(family_names))
            elif t.text in ("antipode", "inverse"):
                (ants if t.text == "antipode" else invs).append(
                    self.parse_antipode(family_names)
                )
            elif t.text == "extend":
                exts.append(self.parse_extend(family_names))
            else:
                self.fail(f"unknown statement {t.text!r}")
        self.expect("symbol", "}")
        if not families:
            self.fail(f"hopf {name!r} declares no generators")
        return HopfAST(
            name,
            tuple(families),
            tuple(rules),
            tuple(cops),
            tuple(cous),
            tuple(ants),
            tuple(invs),
            tuple(exts),
        )

    def parse_generators(self) -> List[tuple]:
        self.expect("ident", "generators")
        families = [self.parse_family()]
        while self.at_symbol("<"):
            self.next()
            families.append(self.parse_family())
        self.expect("symbol", ";")
        return families

    def parse_family(self) -> tuple:
        name = self.expect("ident").text
        if name in KEYWORDS:
            self.fail(f"{name!r} is a keyword")
        indexed = False
        if self.at_symbol("["):
            self.next()
            self.expect("symbol", "]")
            indexed = True
        return (name, indexed)

    def parse_letter(self, family_names) -> LetterPat:
        t = self.expect("ident")
        if t.text not in family_names:
            raise ParseError(f"unknown generator {t.text!r}", line=t.line, column=t.col)
        index = None
        if self.at_symbol("["):
            self.next()
            index = self.parse_index()
            self.expect("symbol", "]")
        return LetterPat(t.text, index)

    def parse_index(self) -> IndexExpr:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return IndexExpr(literal=int(t.text))
        var = self.expect("ident").text
        if self.at_symbol("+"):
            self.next()
            off = int(self.expect("int").text)
            return IndexExpr(var=var, offset=off)
        return IndexExpr(var=var)

    def parse_coeff_and_word(self, family_names) -> tuple:
        """One summand: an optional coefficient followed by letters, or a
        bare coefficient (scalar term), or a bare '1' (empty word)."""
        coeff: object = Fraction(1)
        consumed = False
        t = self.peek()
        if t.kind == "int":
            follower = self.toks[self.pos + 1]
            if (
                t.text == "1"
                and not self._starts_letter(family_names, ahead=1)
                and not (follower.kind == "symbol" and follower.text == "/")
            ):
                # bare 1 is the empty word
                self.next()
                return (Fraction(1), ())
            self.next()
            num = int(t.text)
            if self.at_symbol("/"):
                self.next()
                den = int(self.expect("int").text)
                coeff = Fraction(num, den)
            else:
                coeff = Fraction(num)
            consumed = True
        elif t.kind == "ident" and t.text not in family_names and t.text not in KEYWORDS:
            # an index variable used as coefficient (schema rules)
            self.next()
            coeff = t.text
            consumed = True
        pats = []
        while self.peek().kind == "ident" and self.peek().text in family_names:
            pats.append(self.parse_letter(family_names))
        if not pats and not consumed:
            self.fail("expected a term")
        return (coeff, tuple(pats))

    def _starts_letter(self, family_names, ahead: int = 0) -> bool:
        t = self.toks[self.pos + ahead]
        return t.kind == "ident" and t.text in family_names

    def parse_poly(self, family_names) -> Tuple[tuple, ...]:
        terms = []
        negate = False
        if self.at_symbol("-"):
            self.next()
            negate = True
        while True:
            coeff, pats = self.parse_coeff_and_word(family_names)
            if negate:
                coeff = "-" + coeff if isinstance(coeff, str) else -coeff
            terms.append((coeff, pats))
            if self.at_symbol("+"):
                self.next()
                negate = False
            elif self.at_symbol("-"):
                self.next()
                negate = True
            else:
                break
        return tuple(terms)

    def parse_rule(self, family_names) -> RuleAST:
        self.expect("ident", "rule")
        lhs = []
        while not self.at_symbol("->"):
            lhs.append(self.parse_letter(family_names))
        self.expect("symbol", "->")
        rhs = self.parse_poly(family_names)
        guard = None
        if self.peek().kind == "ident" and self.peek().text == "when":
            self.next()
            a = self.expect("ident").text
            op_tok = self.peek()
            if self.at_symbol(">") or self.at_symbol("<"):
                self.next()
            else:
                self.fail("expected '>' or '<' in guard")
            b = self.expect("ident").text
            guard = (a, op_tok.text, b)
        self.expect("symbol", ";")
        return RuleAST(tuple(lhs), rhs, guard)

    def parse_gen_key(self, family_names) -> Generator:
        pat = self.parse_letter(family_names)
        if pat.index is not None and pat.index.literal is None:
            self.fail("structure maps are given on concrete generators")
        return Generator(pat.name, pat.index.literal if pat.index else None)

    def parse_coproduct(self, family_names) -> tuple:
        self.expect("ident", "coproduct")
        g = self.parse_gen_key(family_names)
        self.expect("symbol", "->")
        terms = []
        negate = False
        if self.at_symbol("-"):
            self.next()
            negate = True
        while True:
            coeff, left = self.parse_coeff_and_word(family_names)
            if isinstance(coeff, str):
                self.fail("coproduct coefficients must be rational")
            self.expect("symbol", "(x)")
            _, right = self.parse_coeff_and_word(family_names)
            if negate:
                coeff = -coeff
            terms.append((coeff, _pats_to_word(left), _pats_to_word(right)))
            if self.at_symbol("+"):
                self.next()
                negate = False
            elif self.at_symbol("-"):
                self.next()
                negate = True
            else:
                break
        self.expect("symbol", ";")
        return (g, tuple(terms))

    def parse_counit(self, family_names) -> tuple:
        self.expect("ident", "counit")
        g = self.parse_gen_key(family_names)
        self.expect("symbol", "->")
        neg = False
        if self.at_symbol("-"):
            self.next()
            neg = True
        num = int(self.expect("int").text)
        den = 1
        if self.at_symbol("/"):
            self.next()
            den = int(self.expect("int").text)
        self.expect("symbol", ";")
        val = Fraction(num, den)
        return (g, -val if neg else val)

    def parse_antipode(self, family_names) -> tuple:
        self.next()  # antipode or inverse
        g = self.parse_gen_key(family_names)
        self.expect("symbol", "->")
        terms = self.parse_poly(family_names)
        self.expect("symbol", ";")
        out = []
        for coeff, pats in terms:
            if isinstance(coeff, str):
                self.fail("antipode coefficients must be rational")
            out.append((coeff, _pats_to_word(pats)))
        return (g, tuple(out))

    def parse_extend(self, family_names) -> tuple:
        self.expect("ident", "extend")
        fam = self.expect("ident").text
        if fam not in family_names:
            self.fail(f"unknown family {fam!r}")
        self.expect("ident", "by")
        self.expect("ident", "commutator")
        anchor = self.parse_gen_key(family_names)
        self.expect("symbol", ";")
        return (fam, anchor)


def _pats_to_word(pats) -> Word:
    out = []
    for p in pats:
        if p.index is not None and p.index.literal is None:
            raise SemanticError("structure-map words must have concrete indices")
        out.append(Generator(p.name, p.index.literal if p.index else None))
    return tuple(out)


def parse(text: str) -> FileAST:
    return Parser(text).parse_file()


# -- printing -----------------------------------------------------------------


def _coeff_parts(c) -> tuple:
    """(negative, magnitude text); the text is empty for a magnitude of 1."""
    if isinstance(c, str):
        return c.startswith("-"), c.lstrip("-")
    return c < 0, "" if abs(c) == 1 else str(abs(c))


def _pat_text(pats) -> str:
    if not pats:
        return "1"
    return " ".join(str(p) for p in pats)


def _poly_text(terms, word_fmt) -> str:
    out = []
    for i, term in enumerate(terms):
        neg, mag = _coeff_parts(term[0])
        body = word_fmt(term)
        if mag and body == "1":
            body = ""  # a scalar term is its coefficient alone: "- 2", not "- 2 1"
        text = " ".join(p for p in (mag, body) if p)
        if i == 0:
            out.append(f"-{text}" if neg else text)
        else:
            out.append(f" - {text}" if neg else f" + {text}")
    return "".join(out)


def print_hopf(ast: HopfAST) -> str:
    lines = [f"hopf {ast.name} {{"]
    fams = " < ".join(f"{nm}[]" if ix else nm for nm, ix in ast.families)
    lines.append(f"  generators {fams};")
    for r in ast.rules:
        rhs = _poly_text(r.rhs, lambda t: _pat_text(t[1]))
        guard = f" when {r.guard[0]} {r.guard[1]} {r.guard[2]}" if r.guard else ""
        lines.append(f"  rule {_pat_text(r.lhs)} -> {rhs}{guard};")
    for g, terms in ast.coproducts:
        body = _poly_text(
            terms, lambda t: f"{word_str(t[1])}(x){word_str(t[2])}"
        )
        lines.append(f"  coproduct {word_str((g,))} -> {body};")
    for g, val in ast.counits:
        lines.append(f"  counit {word_str((g,))} -> {val};")
    for keyword, table in (("antipode", ast.antipodes), ("inverse", ast.inverses)):
        for g, terms in table:
            body = _poly_text(terms, lambda t: word_str(t[1]))
            lines.append(f"  {keyword} {word_str((g,))} -> {body};")
    for fam, anchor in ast.extends:
        lines.append(f"  extend {fam} by commutator {word_str((anchor,))};")
    lines.append("}")
    return "\n".join(lines)


def print_file(ast: FileAST) -> str:
    return "\n\n".join(print_hopf(h) for h in ast.hopfs) + "\n"


# -- building -----------------------------------------------------------------


def _rule_vars(rule: RuleAST) -> tuple:
    """(variables the left side binds, variables used elsewhere: in a right
    side index, as a coefficient or in the guard)."""
    bound = {p.index.var for p in rule.lhs if p.index is not None}
    used = {p.index.var for _, pats in rule.rhs for p in pats if p.index is not None}
    used |= {c.lstrip("-") for c, _ in rule.rhs if isinstance(c, str)}
    return bound - {None}, (used | set(rule.guard[::2] if rule.guard else ())) - {None}


def build_hopf(ast: HopfAST) -> HopfPresentation:
    generators = {nm: ix for nm, ix in ast.families}
    precedence = tuple(nm for nm, _ in ast.families)
    order = RuleSet([], precedence)
    rules = []
    for r in ast.rules:
        bound, used = _rule_vars(r)
        if not bound | used:
            lhs_word = _pats_to_word(r.lhs)
            for _, pats in r.rhs:
                w = _pats_to_word(pats)
                if order.order_key(w) >= order.order_key(lhs_word):
                    raise TerminationOrderError(
                        f"rule {_pat_text(r.lhs)} -> ... does not decrease the "
                        f"termination order at {word_str(w)!r}"
                    )
            rhs = {}
            for c, pats in r.rhs:
                w = _pats_to_word(pats)
                rhs[w] = rhs.get(w, 0) + c
            rules.append(ConcreteRule(_pats_to_word(r.lhs), rhs))
        else:
            if used - bound:
                raise SemanticError(
                    f"rule {_pat_text(r.lhs)} -> ...: variable"
                    f" {min(used - bound)!r} is not bound by its left side"
                )
            rhs = []
            for c, pats in r.rhs:
                if isinstance(c, str) and c.startswith("-"):
                    raise SemanticError(
                        "negated variable coefficients are not supported in rules"
                    )
                rhs.append((c, tuple(pats)))
            rules.append(SchemaRule(list(r.lhs), rhs, guard=r.guard))

    h = HopfPresentation(
        ast.name,
        generators,
        precedence,
        rules,
        counits={g: v for g, v in ast.counits},
    )
    for g, terms in ast.coproducts:
        val = h.one_tensor().scale(0)
        for c, left, right in terms:
            val = val + tensor([h.from_word(left), h.from_word(right)]).scale(c)
        h._cop[g] = val
    for table, entries in ((h._ant, ast.antipodes), (h._inv, ast.inverses)):
        table.update((g, h.elt({w: c for c, w in terms})) for g, terms in entries)
    for fam, anchor in ast.extends:
        if not generators[fam]:
            raise SemanticError(f"extend {fam}: {fam!r} is not an indexed family")
        if Generator(fam, 1) not in h._cop:
            raise SemanticError(f"extend {fam}: no coproduct line for {fam}[1] to start from")
        found = h.ruleset.ladder(Generator(fam, 2))
        if found is None or [a for a in found[0] if a != Generator(fam, 1)] != [anchor]:
            raise SemanticError(
                f"extend {fam}: no rule raises the index of {fam} by a commutator with {anchor}"
            )
    return h

