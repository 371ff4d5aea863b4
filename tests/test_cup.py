"""Convolution algebra, the pairing Ψ, and the cup product."""

from fractions import Fraction
from itertools import product as iproduct

import pytest

from hopfcyc.cocyclic import CoalgebraOps, TensorBasis
from hopfcyc.core import tensor
from hopfcyc.cup import (
    CupData,
    build_group_cup_instance,
    check_compatible_action,
    check_cup_suite,
    chi,
    convolution_basis,
    convolve,
    psi,
    unit_convolution,
)


@pytest.fixture(scope="module")
def trivial_ci():
    return build_group_cup_instance(graded=False)


@pytest.fixture(scope="module")
def graded_data():
    return CupData(build_group_cup_instance(graded=True), 2)


def test_compatible_action(trivial_ci):
    assert check_compatible_action(trivial_ci)["ok"]


def test_convolution_algebra_exhaustive(trivial_ci):
    basis = convolution_basis(trivial_ci)
    assert len(basis) == 2
    unit = unit_convolution(trivial_ci)
    for f in basis:
        assert convolve(f, unit) == f
        assert convolve(unit, f) == f
        for g in basis:
            for k in basis:
                assert convolve(convolve(f, g), k) == convolve(f, convolve(g, k))


def test_chi_is_unital_algebra_map(trivial_ci):
    alg = trivial_ci.a_mod.alg
    assert chi(trivial_ci, alg.unit()) == unit_convolution(trivial_ci)
    for x in alg.basis_elts():
        for y in alg.basis_elts():
            assert chi(trivial_ci, x * y) == convolve(chi(trivial_ci, x), chi(trivial_ci, y))


def test_psi_degree_zero(trivial_ci):
    # Ψ(φ ⊗ m⊗x)(f) = φ(m ⊗ f(x)), checked against direct evaluation
    ci = trivial_ci
    c = ci.c_mod.coalg
    abasis = TensorBasis((ci.mc.space, ci.a_mod.alg))
    for f in convolution_basis(ci):
        for cw in c.basis_words():
            chain = tensor([ci.mc.space.unit(), c.from_word(cw)])
            for j in range(abasis.dim):
                phi = lambda te, j=j: abasis.coords(te.terms).get(j, 0)
                direct = phi(tensor([ci.mc.space.unit(), f(c.from_word(cw))]))
                assert psi(ci, phi, chain, [f]) == direct


@pytest.mark.parametrize("n,perm,rot", [
    (1, [0, 2, 1], lambda fs: [fs[1], fs[0]]),
    (2, [0, 2, 3, 1], lambda fs: [fs[2], fs[0], fs[1]]),
])
def test_psi_commutes_with_cyclic_operators(trivial_ci, n, perm, rot):
    # Ψ(φ, τx, f₀…f_n) = Ψ(φ∘leg-rotation, x, f_n f₀…f_{n-1}), exhaustively
    ci = trivial_ci
    ops = CoalgebraOps(ci.mc, ci.c_mod)
    convs = convolution_basis(ci)
    cbasis = TensorBasis((ci.mc.space,) + (ci.c_mod.coalg,) * (n + 1))
    abasis = TensorBasis((ci.mc.space,) + (ci.a_mod.alg,) * (n + 1))
    for j in range(abasis.dim):
        phi = lambda te, j=j: abasis.coords(te.terms).get(j, 0)
        phi_rot = lambda te, j=j: abasis.coords(te.permute(perm).terms).get(j, 0)
        for ic in range(cbasis.dim):
            x = cbasis.elt(ic)
            for fs in iproduct(convs, repeat=n + 1):
                assert psi(ci, phi, ops.tau(n, x), list(fs)) == psi(
                    ci, phi_rot, x, rot(list(fs))
                )


def test_cocycle_space_dimensions(graded_data):
    for p in range(3):
        assert len(graded_data.a_side_cocycles(p)) == 1
        assert len(graded_data.c_side_cocycles(p)) == 1


def test_cup_frozen_vectors(graded_data):
    frozen = {
        (0, 0): [1, 1],
        (0, 1): [0, 0, 0, 0],
        (1, 0): [0, 0, 0, 0],
        (1, 1): [-1, 1, 1, -1, -1, 1, 1, -1],
        (0, 2): [1, 0, 0, 0, 0, 0, 0, 1],
        (2, 0): [1, 0, 0, 0, 0, 0, 0, 1],
    }
    for (p, q), expect in frozen.items():
        phi = graded_data.a_side_cocycles(p)[0]
        z = graded_data.c_side_cocycles(q)[0]
        res = graded_data.cup(phi, p, z, q)
        norm = _sign_normalize(res)
        assert norm in (
            [Fraction(v) for v in expect],
            [-Fraction(v) for v in expect],
        ), ((p, q), [str(v) for v in res])


def _sign_normalize(vec):
    lead = next((v for v in vec if v), None)
    if lead is None or lead > 0:
        return list(vec)
    return [-v for v in vec]


def test_cup_output_closed_and_cyclic(graded_data):
    phi = graded_data.a_side_cocycles(1)[0]
    z = graded_data.c_side_cocycles(1)[0]
    res = graded_data.cup(phi, 1, z, 1)
    assert not any(graded_data.ordinary_b_dual(2, res))
    # at bidegree (0,1) the output is strictly rotation invariant
    phi0 = graded_data.a_side_cocycles(0)[0]
    z1 = graded_data.c_side_cocycles(1)[0]
    res01 = graded_data.cup(phi0, 0, z1, 1)
    assert graded_data.ordinary_t_dual(1, res01) == list(res01)


def test_cup_with_zero_is_zero(graded_data):
    zero_phi = {}  # the zero functional, as a sparse vector
    z = graded_data.c_side_cocycles(1)[0]
    assert not any(graded_data.cup(zero_phi, 1, z, 1))


def test_full_suite(graded_data):
    report = check_cup_suite(top=2, graded=True)
    assert report["ok"], report
    cup_check = report["checks"][-1]
    assert cup_check["name"] == "cup closed"
    assert set(cup_check["inputs"].values()) == {"cyclic/cyclic"}
