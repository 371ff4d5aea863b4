"""The presentation-file format: parsing, printing, building, diagnostics."""

import importlib.resources
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from hopfcyc import cli, dsl
from hopfcyc.core import Generator
from hopfcyc.errors import ParseError, PreconditionError, SemanticError, TerminationOrderError
from hopfcyc.instances import build_h1cop


GOLDEN = Path(__file__).parent / "golden"


def hopf_equivalent(a, b, degree: int = 2, index_bound: int = 3) -> bool:
    """Structural agreement of two Hopf presentations: same alphabet and
    precedence, identical normal forms on all products of letters up to the
    given degree, and identical structure maps on the letters."""
    if a.generators != b.generators:
        return False
    if a.ruleset.precedence != b.ruleset.precedence:
        return False
    letters = a.letters(index_bound)
    words = [()]
    frontier = [()]
    for _ in range(degree):
        frontier = [w + (g,) for w in frontier for g in letters]
        words.extend(frontier)
    for w in words:
        if a.normalize_terms({w: 1}) != b.normalize_terms({w: 1}):
            return False
    for g in letters:
        if a.gen_coproduct(g).terms != b.gen_coproduct(g).terms:
            return False
        if a.gen_counit(g) != b.gen_counit(g):
            return False
        if a.gen_antipode(g).terms != b.gen_antipode(g).terms:
            return False
        if a.gen_inv_antipode(g).terms != b.gen_inv_antipode(g).terms:
            return False
    return True


def shipped_text() -> str:
    return (
        importlib.resources.files("hopfcyc") / "data" / "h1cop.hopf"
    ).read_text(encoding="utf-8")


def test_shipped_file_round_trips():
    text = shipped_text()
    ast = dsl.parse(text)
    assert dsl.parse(dsl.print_file(ast)) == ast
    # the shipped file is already in canonical form
    assert dsl.print_file(ast) == text


def test_shipped_file_builds_h1cop():
    ast = dsl.parse(shipped_text())
    built = dsl.build_hopf(ast.hopfs[0])
    assert hopf_equivalent(built, build_h1cop())
    # the ladder rule reproduces derived entries
    ref = build_h1cop()
    for k in (2, 3):
        g = Generator("d", k)
        assert built.gen_antipode(g) == ref.gen_antipode(g)
        assert built.gen_coproduct(g).terms == ref.gen_coproduct(g).terms


def assert_optional(capsys, tmp_path, dropped):
    """The shipped file without its lines starting with ``dropped`` builds
    a presentation equivalent to h1cop, and ``verify-hopf`` reports on it
    as on the shipped file, apart from the input hash."""
    text = "".join(
        line for line in shipped_text().splitlines(keepends=True)
        if not line.lstrip().startswith(dropped)
    )
    ast = dsl.parse(text)
    assert hopf_equivalent(dsl.build_hopf(ast.hopfs[0]), build_h1cop())
    path = tmp_path / "h1cop.hopf"
    path.write_text(text, encoding="utf-8")
    assert cli.run(["verify-hopf", "--file", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    golden = json.loads((GOLDEN / "verify-hopf-h1cop.json").read_text(encoding="utf-8"))
    report.pop("input_sha256")
    golden.pop("input_sha256")
    assert report == golden
    return ast.hopfs[0]


def test_inverse_lines_are_optional(capsys, tmp_path):
    # with an extend line but no inverse lines, S⁻¹ of every generator is
    # derived from its coproduct
    assert not assert_optional(capsys, tmp_path, ("inverse",)).inverses


def test_extend_lines_are_optional(capsys, tmp_path):
    # Δ and ε of d[k+1] come from the rule X d[k] -> d[k] X + d[k+1]
    assert not assert_optional(capsys, tmp_path, ("extend",)).extends


@pytest.mark.parametrize("dropped", [("antipode",), ("antipode", "inverse")])
def test_antipode_lines_are_optional(capsys, tmp_path, dropped):
    # no generator of h1cop is group-like, so S is derived from Δ as S⁻¹ is
    assert not assert_optional(capsys, tmp_path, dropped).antipodes


def test_built_presentation_passes_axioms():
    ast = dsl.parse(shipped_text())
    h = dsl.build_hopf(ast.hopfs[0])
    assert h.verify_hopf_axioms(degree=2, index_bound=2)["ok"]


def test_empty_file_is_empty_graph():
    assert dsl.parse("") == dsl.FileAST(())
    assert dsl.parse("# only a comment\n") == dsl.FileAST(())


def test_degree_increasing_rule_rejected():
    text = "hopf t { generators X; rule X -> X X; }"
    with pytest.raises(TerminationOrderError):
        [dsl.build_hopf(h) for h in dsl.parse(text).hopfs]


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as exc:
        dsl.parse("hopf t {\n  generators X\n}")
    assert exc.value.line == 3
    assert exc.value.column is not None


def test_unknown_generator_rejected():
    with pytest.raises(ParseError):
        dsl.parse("hopf t { generators X; rule X Z -> X; }")


def test_nonconcrete_structure_map_rejected():
    with pytest.raises(SemanticError):
        dsl.parse("hopf t { generators d[] < X; antipode X -> d[k]; }")


def test_unknown_statement_rejected():
    with pytest.raises(ParseError):
        dsl.parse("hopf t { generators X; frobnicate X; }")


def test_guarded_rule_round_trip():
    text = (
        "hopf t {\n"
        "  generators d[] < Y;\n"
        "  rule d[k] d[i] -> d[i] d[k] when k > i;\n"
        "  rule Y d[k] -> d[k] Y + k d[k];\n"
        "  coproduct Y -> Y(x)1 + 1(x)Y;\n"
        "  counit Y -> 0;\n"
        "  antipode Y -> -Y;\n"
        "}\n"
    )
    ast = dsl.parse(text)
    assert dsl.print_file(ast) == text
    rule = ast.hopfs[0].rules[0]
    assert rule.guard == ("k", ">", "i")


def test_fractional_coefficients():
    text = (
        "hopf t {\n"
        "  generators X;\n"
        "  coproduct X -> X(x)1 + 1(x)X;\n"
        "  counit X -> 1/2;\n"
        "  antipode X -> -1/3 X;\n"
        "}\n"
    )
    ast = dsl.parse(text)
    assert dsl.print_file(ast) == text
    from fractions import Fraction

    assert ast.hopfs[0].counits[0][1] == Fraction(1, 2)


def test_tokenizer_rejects_garbage():
    with pytest.raises(ParseError):
        dsl.parse("hopf t { generators X; @ }")


def test_negated_coefficients_parse_and_round_trip():
    text = """hopf t {
      generators d[] < Y < X;
      rule X d[k] -> d[k] X - k d[k+1];
      rule X Y -> Y X - 1;
      antipode Y -> -Y - 2;
    }"""
    ast = dsl.parse(text)
    (hast,) = ast.hopfs
    schema, concrete = hast.rules
    assert schema.rhs[1][0] == "-k"
    # a negated bare 1 is the empty word with coefficient -1
    assert concrete.rhs[1] == (Fraction(-1), ())
    (_, antipode), = hast.antipodes
    assert antipode[1] == (Fraction(-2), ())
    coeffs = [c for r in hast.rules for c, _ in r.rhs] + [c for c, _ in antipode]
    assert all(isinstance(c, (str, Fraction)) for c in coeffs)
    assert dsl.parse(dsl.print_file(ast)) == ast
    # a scalar term prints as its coefficient alone
    assert "antipode Y -> -Y - 2;" in dsl.print_file(ast)


EXTEND_MISUSE = {
    # the family has no coproduct line to start the commutator recursion
    "unanchored": (
        "d[] < X",
        "coproduct X -> X(x)1 + 1(x)X; counit X -> 0; antipode X -> -X;",
        "extend d by commutator X;",
        "extend d: no coproduct line for d[1] to start from",
    ),
    # the recursion would reach d[1] from below, where nothing starts it
    "late": (
        "d[] < X",
        "coproduct X -> X(x)1 + 1(x)X; counit X -> 0; antipode X -> -X;"
        " coproduct d[2] -> d[2](x)1 + 1(x)d[2];",
        "extend d by commutator X;",
        "extend d: no coproduct line for d[1] to start from",
    ),
    # Y has no indices to recurse on
    "unindexed": (
        "Y < X",
        "coproduct X -> X(x)1 + 1(x)X; counit X -> 0; counit Y -> 0;"
        " antipode X -> -X; antipode Y -> -Y;",
        "extend Y by commutator X;",
        "extend Y: 'Y' is not an indexed family",
    ),
    # no relation raises the index of d, so no commutator is forced
    "unladdered": (
        "d[] < X",
        "coproduct X -> X(x)1 + 1(x)X; coproduct d[1] -> d[1](x)1 + 1(x)d[1];"
        " counit X -> 0; counit d[1] -> 0;",
        "extend d by commutator X;",
        "extend d: no rule raises the index of d by a commutator with X",
    ),
    # the rule that raises the index of d commutes it with X, not with d[1]
    "misanchored": (
        "d[] < X",
        "rule X d[k] -> d[k] X + d[k+1];"
        " coproduct X -> X(x)1 + 1(x)X; coproduct d[1] -> d[1](x)1 + 1(x)d[1];"
        " counit X -> 0; counit d[1] -> 0;",
        "extend d by commutator d[1];",
        "extend d: no rule raises the index of d by a commutator with d[1]",
    ),
}


@pytest.mark.parametrize("name", sorted(EXTEND_MISUSE))
def test_extend_misuse_is_a_semantic_error(capsys, tmp_path, name):
    gens, cops, extend, message = EXTEND_MISUSE[name]
    path = tmp_path / f"{name}.hopf"
    path.write_text(f"hopf {name} {{ generators {gens}; {cops} {extend} }}\n", encoding="utf-8")
    with pytest.raises(SemanticError, match=re.escape(message)) as err:
        cli.run(["verify-hopf", "--file", str(path)])
    assert err.value.exit_code == 4
    assert capsys.readouterr().out == ""


def test_family_without_ladder_rule_fails_with_witnesses(capsys, tmp_path):
    # d[1] has table entries but no rule raises its index, so Δ and ε of
    # d[2] cannot be derived: the checks that need them fail and name d[2],
    # and the report still prints
    path = tmp_path / "t.hopf"
    path.write_text(
        "hopf t { generators d[] < X; coproduct X -> X(x)1 + 1(x)X;"
        " coproduct d[1] -> d[1](x)1 + 1(x)d[1]; counit X -> 0; counit d[1] -> 0; }\n",
        encoding="utf-8",
    )
    with pytest.raises(PreconditionError, match="verify-hopf: checks failed") as err:
        cli.run(["verify-hopf", "--file", str(path)])
    assert err.value.exit_code == 8
    report = json.loads(capsys.readouterr().out)
    checks = {c["name"]: c for c in report["result"]["t"]["axioms"]["checks"]}
    missing = "d[2]: no coproduct for generator d[2] in 't'"
    for name in ("coassociativity", "counit", "antipode"):
        assert not checks[name]["ok"]
        assert missing in checks[name]["witnesses"]


# a rule variable that its left side does not bind, as index, guard or
# coefficient
UNBOUND = {
    "index": "rule X d[k] -> d[j] X;",
    "guard": "rule X d[k] -> d[k] X when k > j;",
    "coefficient": "rule X d[k] -> j d[k] X;",
}


@pytest.mark.parametrize("name", sorted(UNBOUND))
def test_unbound_rule_variable_is_a_semantic_error(capsys, tmp_path, name):
    path = tmp_path / f"{name}.hopf"
    path.write_text(f"hopf t {{ generators d[] < X; {UNBOUND[name]} }}\n", encoding="utf-8")
    message = "rule X d[k] -> ...: variable 'j' is not bound by its left side"
    with pytest.raises(SemanticError, match=re.escape(message)) as err:
        cli.run(["verify-hopf", "--file", str(path)])
    assert err.value.exit_code == 4
    assert capsys.readouterr().out == ""
