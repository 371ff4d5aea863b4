"""Shared instance builders, cached per session."""

import itertools

import pytest

from hopfcyc.cocyclic import OperatorTable
from hopfcyc.coefficients import HModuleAlgebra, HModuleCoalgebra, group_set_module_coalgebra
from hopfcyc.dsl import build_hopf, parse
from hopfcyc.instances import (
    GroupData,
    GroupSetData,
    build_bicrossed,
    build_h1cop,
    build_matched_pair,
    cyclic_group,
    swap_instance,
)


@pytest.fixture
def table_builds(monkeypatch):
    """The key of every ambient matrix an :class:`OperatorTable` builds
    while the test runs, in build order: the table's fill is spied on, so
    local and twisted operators count alike."""
    built = []
    fill = OperatorTable.__missing__

    def spy(table, key):
        built.append(key)
        return fill(table, key)

    monkeypatch.setattr(OperatorTable, "__missing__", spy)
    return built


@pytest.fixture(scope="session")
def h1cop():
    return build_h1cop()


@pytest.fixture(scope="session")
def matched_pair():
    return build_matched_pair()


@pytest.fixture(scope="session")
def bicrossed(matched_pair):
    return build_bicrossed(matched_pair)


@pytest.fixture(scope="session")
def swap_cmod():
    return group_set_module_coalgebra(swap_instance())


@pytest.fixture(scope="session")
def point_cmod():
    gs = GroupSetData(cyclic_group(1), ["p"], {("1", "p"): "p"})
    return group_set_module_coalgebra(gs)


def s3_group() -> GroupData:
    perms = list(itertools.permutations((0, 1, 2)))

    def label(p):
        return "e" if p == (0, 1, 2) else "p" + "".join(map(str, p))

    mult = {
        (label(a), label(b)): label(tuple(a[b[i]] for i in range(3)))
        for a in perms
        for b in perms
    }
    return GroupData([label(p) for p in perms], "e", mult)


@pytest.fixture(scope="session")
def s3():
    return s3_group()


# Sweedler's 4-dimensional Hopf algebra: not cocommutative (Δx = x⊗1 + g⊗x
# has two terms), and S ≠ S⁻¹ on x
H4_TEXT = """
hopf h4 {
  generators g < x;
  rule g g -> 1;
  rule x x -> 0;
  rule x g -> - g x;
  coproduct g -> g(x)g;
  coproduct x -> x(x)1 + g(x)x;
  counit g -> 1;
  counit x -> 0;
  antipode g -> g;
}
"""


@pytest.fixture(scope="session")
def h4():
    """H4 with its finite basis 1, g, x, g x."""
    h = build_hopf(parse(H4_TEXT).hopfs[0])
    h.finite_basis = h.normal_words(2, 2)
    return h


@pytest.fixture(scope="session")
def h4_left(h4):
    """H4 acting on itself by left multiplication, as a module coalgebra."""
    return HModuleCoalgebra(h4, h4, lambda a, x: a * x)


@pytest.fixture(scope="session")
def h4_adjoint(h4):
    """H4 acting on itself by the adjoint action h ▹ a = h⁽¹⁾ a S(h⁽²⁾), as
    a module algebra."""

    def adjoint(a, b):
        out = h4.zero()
        for (w1, w2), c in h4.coproduct(a).terms.items():
            out = out + (h4.from_word(w1) * b * h4.antipode(h4.from_word(w2))).scale(c)
        return out

    return HModuleAlgebra(h4, h4, adjoint)
