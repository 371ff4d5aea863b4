"""Cocyclic structure on finite instances and the two cohomology routes."""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcyc.cocyclic import (
    AlgebraCochainInstance,
    build_coalgebra_instance,
    check_cocyclic,
    cyclic_cohomology,
)
from hopfcyc.coefficients import (
    check_sayd,
    group_set_module_coalgebra,
    mc_conjugation_group,
    mc_graded_group,
    mc_trivial,
)
from hopfcyc.cup import build_group_cup_instance
from hopfcyc.errors import PreconditionError
from hopfcyc.instances import GroupSetData, build_group_algebra, cyclic_group
from hopfcyc.kaygun import KaygunBridge, kaygun_cocyclic_instance
from hopfcyc.linalg import identity, mat_mul, mat_sub


@pytest.fixture(scope="module")
def swap_trivial(swap_cmod):
    inst = build_coalgebra_instance(mc_trivial(swap_cmod.hopf), swap_cmod, 5)
    assert check_cocyclic(inst)["ok"]
    return inst


@pytest.fixture(scope="module")
def swap_graded(swap_cmod):
    mc = mc_graded_group(
        swap_cmod.hopf, build_group_algebra(cyclic_group(2), name="kG_g")
    )
    inst = build_coalgebra_instance(mc, swap_cmod, 5)
    assert check_cocyclic(inst)["ok"]
    return inst


@pytest.fixture(scope="module")
def point(point_cmod):
    inst = build_coalgebra_instance(mc_trivial(point_cmod.hopf), point_cmod, 5)
    assert check_cocyclic(inst)["ok"]
    return inst


def test_point_dims(point):
    # one point, trivial group: every relative cochain space is a line
    assert point.dims[:4] == [1, 1, 1, 1]


def test_swap_dims(swap_trivial):
    # dim C^n = 2^(n+1) / |Z/2|
    assert swap_trivial.dims[:4] == [1, 2, 4, 8]


def test_no_welldefinedness_failures(swap_trivial, swap_graded, point):
    for inst in (swap_trivial, swap_graded, point):
        assert inst.welldef_failures == []


def test_cyclicity_matrix(swap_trivial):
    for n in range(4):
        power = identity(swap_trivial.dims[n])
        for _ in range(n + 1):
            power = mat_mul(swap_trivial.tau[n], power)
        assert power == identity(swap_trivial.dims[n])


def test_simplicial_interchange(swap_trivial):
    inst = swap_trivial
    # codegeneracies are sections of the neighbouring cofaces
    for n in range(3):
        for j in range(n + 1):
            for i in (j, j + 1):
                assert mat_mul(inst.codeg[(n, j)], inst.coface[(n + 1, i)]) == identity(
                    inst.dims[n]
                )


def test_last_coface_is_tau_after_first(swap_graded):
    inst = swap_graded
    for n in range(1, 4):
        assert inst.coface[(n, n)] == mat_mul(inst.tau[n], inst.coface[(n, 0)])


def test_point_cohomology(point):
    report = cyclic_cohomology(point, 3)
    assert report["lambda_complex"] == [1, 0, 1, 0]
    assert report["bicomplex"] == [1, 0, 1, 0]
    assert report["agree"]


def test_swap_cohomology_routes_agree(swap_trivial, swap_graded):
    for inst in (swap_trivial, swap_graded):
        report = cyclic_cohomology(inst, 3)
        assert report["agree"], report
        assert report["lambda_complex"] == [1, 0, 1, 0]


def test_unverified_instance_refused(swap_cmod):
    inst = build_coalgebra_instance(mc_trivial(swap_cmod.hopf), swap_cmod, 3)
    with pytest.raises(PreconditionError):
        cyclic_cohomology(inst, 1)


def test_algebra_side_instance():
    ci = build_group_cup_instance(graded=False)
    ai = AlgebraCochainInstance(ci.mc, ci.a_mod, 5)
    assert ai.welldef_failures == []
    inst = ai.cocyclic_instance()
    assert check_cocyclic(inst)["ok"]
    report = cyclic_cohomology(inst, 3)
    assert report["agree"]
    assert report["lambda_complex"] == [1, 0, 1, 0]


# -- d∘d = 0 on every built instance ------------------------------------------------


def _is_zero(m):
    return all(x == 0 for row in m for x in row)


def assert_differentials_square_to_zero(inst):
    for n in range(inst.top - 1):
        assert _is_zero(mat_mul(inst.b(n + 1), inst.b(n))), f"b∘b at degree {n}"
        assert _is_zero(mat_mul(inst.b_prime(n + 1), inst.b_prime(n))), f"b'∘b' at degree {n}"


def test_cohomology_instances_square_to_zero(point, swap_trivial, swap_graded):
    # the instances of the cohomology command, at its default depth
    for inst in (point, swap_trivial, swap_graded):
        assert_differentials_square_to_zero(inst)


def test_kaygun_instance_squares_to_zero(swap_cmod):
    # the ℂ𝕄 instance of the kaygun command, at its default depth
    bridge = KaygunBridge(mc_trivial(swap_cmod.hopf), swap_cmod, top=4)
    assert_differentials_square_to_zero(kaygun_cocyclic_instance(bridge))


@pytest.mark.parametrize("graded", [False, True])
def test_cup_instances_square_to_zero(graded):
    # the algebra-side cochains of the cup command (top + 1 = 3)
    ci = build_group_cup_instance(graded=graded)
    assert_differentials_square_to_zero(AlgebraCochainInstance(ci.mc, ci.a_mod, 3).cocyclic_instance())


# -- d∘d = 0 on random finite G-sets ------------------------------------------------


def subgroups(g):
    """Every subgroup of a small group, by closure of subsets holding 1."""
    others = [a for a in g.elements if a != g.identity]
    subsets = (
        {g.identity, *extra} for r in range(len(others) + 1) for extra in itertools.combinations(others, r)
    )
    return [tuple(sorted(h)) for h in subsets if all(g.mult[(a, b)] in h for a in h for b in h)]


def coset_space_union(g, subs):
    """The disjoint union of the left coset spaces G/H, H in ``subs``."""
    points, action = [], {}
    for i, h in enumerate(subs):
        cosets = list(dict.fromkeys(frozenset(g.mult[(a, x)] for x in h) for a in g.elements))
        label = {c: f"o{i}c{j}" for j, c in enumerate(cosets)}
        points.extend(label.values())
        for a in g.elements:
            for c in cosets:
                action[(a, label[c])] = label[frozenset(g.mult[(a, x)] for x in c)]
    return GroupSetData(g, points, action)


# an example's cost follows the ambient degree-2 cochain space, dim M · |X|³:
# 512 is about half a second, twice that several seconds
MAX_AMBIENT = 512


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_random_gsets_square_to_zero(s3, data):
    g = data.draw(st.sampled_from([cyclic_group(2), cyclic_group(3), s3]), label="group")
    graded = data.draw(st.booleans(), label="graded")
    subs = subgroups(g)

    def fits(hs):
        points = sum(len(g.elements) // len(h) for h in hs)
        return (len(g.elements) if graded else 1) * points**3 <= MAX_AMBIENT

    orbits = [data.draw(st.sampled_from([h for h in subs if fits([h])]), label="H1")]
    second = [h for h in subs if fits(orbits + [h])]
    if second and data.draw(st.booleans(), label="two orbits"):
        orbits.append(data.draw(st.sampled_from(second), label="H2"))
    cmod = group_set_module_coalgebra(coset_space_union(g, orbits))
    if not graded:
        mc = mc_trivial(cmod.hopf)
    elif g is s3:
        # the graded carrier with the trivial action is anti-Yetter–Drinfeld
        # only over an abelian group; S3 needs the conjugation action
        mc = mc_conjugation_group(cmod.hopf, build_group_algebra(g, name="kG_c"), g)
    else:
        mc = mc_graded_group(cmod.hopf, build_group_algebra(g, name="kG_g"))
    inst = build_coalgebra_instance(mc, cmod, 2)
    assert inst.welldef_failures == []
    assert_differentials_square_to_zero(inst)


def test_graded_trivial_action_over_s3_does_not_descend(s3):
    # why the property above gives S3 the conjugation action: with the
    # trivial one the last coface leaves ⊗_H, and b∘b is no longer zero
    cmod = group_set_module_coalgebra(coset_space_union(s3, [["e", "p021"]]))
    mc = mc_graded_group(cmod.hopf, build_group_algebra(s3, name="kG_g"))
    assert not check_sayd(mc)["ayd"]["ok"]
    inst = build_coalgebra_instance(mc, cmod, 2)
    assert "coface(1,1)" in inst.welldef_failures
    assert not _is_zero(mat_mul(inst.b(1), inst.b(0)))


# -- witnesses ----------------------------------------------------------------------


def test_failure_witness_counts_the_residual(swap_cmod):
    inst = build_coalgebra_instance(mc_trivial(swap_cmod.hopf), swap_cmod, 3)
    assert check_cocyclic(inst) == {"ok": True, "witnesses": []}
    tau = [list(row) for row in inst.tau[1]]
    tau[0][0] += 1
    inst.tau[1] = tau
    residual = mat_sub(mat_mul(tau, tau), identity(inst.dims[1]))
    nonzero = sum(1 for row in residual for x in row if x)
    assert nonzero > 0
    report = check_cocyclic(inst)
    assert not report["ok"]
    assert f"tau^(n+1) at n=1: {nonzero} nonzero" in report["witnesses"]
    assert all(re.search(r": [1-9]\d* nonzero$", w) for w in report["witnesses"])
