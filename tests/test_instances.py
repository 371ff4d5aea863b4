"""The shipped algebra zoo: U, F, the matched pair, the bicrossed product,
group algebras, set coalgebras and function algebras."""

import pytest

from hopfcyc.core import tensor
from hopfcyc.errors import StructureError
from hopfcyc.instances import (
    GroupData,
    GroupSetData,
    build_function_algebra,
    build_group_algebra,
    build_set_coalgebra,
    check_matched_pair,
    cyclic_group,
    swap_instance,
)


def test_u_and_f_are_hopf(matched_pair):
    assert matched_pair.u.verify_hopf_axioms(degree=3)["ok"]
    assert matched_pair.f.verify_hopf_axioms(degree=3)["ok"]


def test_u_commutator_relation(matched_pair):
    u = matched_pair.u
    x, y = u.gen("X"), u.gen("Y")
    assert x * y == y * x - x


def test_matched_pair_conditions(matched_pair):
    report = check_matched_pair(matched_pair, degree=2)
    assert report["ok"], report


def test_bicrossed_is_hopf(bicrossed):
    assert bicrossed.hopf.verify_hopf_axioms(degree=2)["ok"]


def test_bicrossed_embeddings_and_projections(bicrossed):
    h, u = bicrossed.hopf, bicrossed.mp.u
    x = u.gen("X")
    e = h.gen("d", 1) * h.gen("X")
    assert bicrossed.project_u(bicrossed.embed_u(x)) == x
    # counit on the F block kills the mixed element
    assert bicrossed.project_u(e).is_zero


def test_bicrossed_straightening(bicrossed):
    h = bicrossed.hopf
    # the U letter X moves past the F letter d[1] via the action
    prod = h.gen("X") * h.gen("d", 1)
    for w in prod.terms:
        fblock, ublock = bicrossed.split_word(w)
        assert all(g.name == "d" for g in fblock)
        assert all(g.name in ("X", "Y") for g in ublock)


def test_group_algebra_z2():
    h = build_group_algebra(cyclic_group(2))
    assert h.verify_hopf_axioms(degree=2)["ok"]
    g = h.gen("g")
    assert g * g == h.unit()
    assert h.coproduct(g) == tensor([g, g])
    assert h.antipode(g) == g
    assert h.counit(g) == 1


def test_set_coalgebra():
    c = build_set_coalgebra(["a", "b"])
    pa = c.gen("a")
    assert c.coproduct(pa) == tensor([pa, pa])
    assert c.counit(pa) == 1
    assert len(c.basis_words()) == 2


def test_function_algebra():
    a = build_function_algebra(["a", "b"])
    ea, eb = a.gen("e_a"), a.gen("e_b")
    assert ea * ea == ea
    assert (ea * eb).is_zero
    assert ea + eb == a.unit()


def test_group_data_validation():
    with pytest.raises(StructureError):
        GroupData(["1", "g"], "1", {("1", "1"): "1", ("1", "g"): "g", ("g", "1"): "g", ("g", "g"): "g"})


def test_group_set_validation():
    g = cyclic_group(2)
    with pytest.raises(StructureError):
        GroupSetData(g, ["a", "b"], {("1", "a"): "a", ("1", "b"): "b", ("g", "a"): "a", ("g", "b"): "a"})


def test_swap_instance_shape():
    gs = swap_instance()
    assert gs.points == ["a", "b"]
    assert gs.action[("g", "a")] == "b"
