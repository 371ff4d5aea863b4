"""Convolution algebra, the pairing Ψ, and the cup product."""

import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

import dense_oracle
import hopfcyc.cup as cup_module
from cup_oracle import (
    images,
    permute,
    symbolic_basis,
    symbolic_chi,
    symbolic_convolve,
    symbolic_cup,
    symbolic_is_h_linear,
    symbolic_psi,
    symbolic_unit,
)
from hopfcyc.cocyclic import AlgebraChainOps, CoalgebraOps, FiniteComplex, OperatorTable, TensorBasis
from hopfcyc.core import tensor
from hopfcyc.cup import (
    CupData,
    build_group_cup_instance,
    chain_boundary,
    check_compatible_action,
    check_cup_suite,
    chi,
    convolution_basis,
    convolve,
    h_linear,
    ordinary_chains,
    ordinary_coboundary,
    unit_convolution,
)
from hopfcyc.errors import StructureError
from hopfcyc.instances import cyclic_group
from hopfcyc.linalg import F0, F1, columns, combine, is_signed, transpose


@pytest.fixture(scope="module")
def trivial_ci():
    return build_group_cup_instance(graded=False)


@pytest.fixture(scope="module")
def graded_data():
    return CupData(build_group_cup_instance(graded=True), 2)


@pytest.fixture(scope="module", params=[2, 3], ids=["Z2", "Z3"])
def ordinary(request):
    """A cyclic-group instance and its ordinary chains."""
    ci = build_group_cup_instance(cyclic_group(request.param), graded=False)
    return ci, ordinary_chains(ci)


def hochschild_coboundary(alg, n: int, row):
    """The Hochschild coboundary on ordinary cochains of A, written out on
    basis words: (bf)(a₀…aₙ₊₁) = Σᵢ (-1)ⁱ f(…, aᵢaᵢ₊₁, …) + (-1)ⁿ⁺¹
    f(aₙ₊₁a₀, a₁, …, aₙ).  The oracle for the faces of the ordinary table."""
    src = TensorBasis((alg,) * (n + 1))
    tgt = TensorBasis((alg,) * (n + 2))
    out = [F0] * tgt.dim
    for j, awt in enumerate(tgt.tuples):
        total = Fraction(0)
        sign = F1
        for i in range(n + 1):
            merged = alg.from_word(awt[i]) * alg.from_word(awt[i + 1])
            rest = list(awt[:i]) + [None] + list(awt[i + 2 :])
            for mw, mk in merged.terms.items():
                wt = tuple(mw if r is None else r for r in rest)
                total += sign * mk * row[src.index[wt]]
            sign = -sign
        wrap = alg.from_word(awt[n + 1]) * alg.from_word(awt[0])
        for mw, mk in wrap.terms.items():
            wt = (mw,) + awt[1 : n + 1]
            total += sign * mk * row[src.index[wt]]
        out[j] = total
    return out


def precompose(f, mat):
    """f∘mat for a dense cochain f and a matrix held by its columns."""
    return [sum(f[r] * x for r, x in col.items()) for col in mat]


def test_compatible_action(trivial_ci):
    assert check_compatible_action(trivial_ci)["ok"]


def a_coords(ci, x) -> dict:
    """The coordinates of an element of A on its basis."""
    return TensorBasis((ci.a_mod.alg,)).coords({(w,): k for w, k in x.terms.items()})


def test_convolution_algebra_exhaustive(trivial_ci):
    ci = trivial_ci
    basis = convolution_basis(ci)
    assert len(basis) == 2
    unit = unit_convolution(ci)
    for f in basis:
        assert convolve(ci, f, unit) == f
        assert convolve(ci, unit, f) == f
        for g in basis:
            for k in basis:
                assert convolve(ci, convolve(ci, f, g), k) == convolve(ci, f, convolve(ci, g, k))


def test_chi_is_unital_algebra_map(trivial_ci):
    ci = trivial_ci
    alg = ci.a_mod.alg
    assert chi(ci, a_coords(ci, alg.unit())) == unit_convolution(ci)
    for x in alg.basis_elts():
        for y in alg.basis_elts():
            assert chi(ci, a_coords(ci, x * y)) == convolve(
                ci, chi(ci, a_coords(ci, x)), chi(ci, a_coords(ci, y))
            )


GROUPS = [(2, False), (2, True), (3, False), (3, True), (6, False), (6, True)]


@pytest.fixture(
    scope="module", params=GROUPS, ids=["Z2", "Z2-graded", "Z3", "Z3-graded", "S3", "S3-graded"]
)
def group_ci(request, s3):
    # order 6 is S3, the others cyclic groups
    order, graded = request.param
    group = s3 if order == 6 else cyclic_group(order)
    return build_group_cup_instance(group, graded=graded)


def test_convolution_matrices_match_symbolic_route(group_ci):
    # the basis, the unit, every product of two basis maps and χ of every
    # basis word, each equal to its image list by element arithmetic
    ci = group_ci
    basis = convolution_basis(ci)
    oracle = symbolic_basis(ci)
    assert basis and [images(ci, f) for f in basis] == oracle
    assert images(ci, unit_convolution(ci)) == symbolic_unit(ci)
    assert symbolic_is_h_linear(ci, symbolic_unit(ci))
    for f, sf in zip(basis, oracle):
        assert symbolic_is_h_linear(ci, sf)
        for g, sg in zip(basis, oracle):
            assert images(ci, convolve(ci, f, g)) == symbolic_convolve(ci, sf, sg)
    for x in ci.a_mod.alg.basis_elts():
        assert images(ci, chi(ci, a_coords(ci, x))) == symbolic_chi(ci, x)


@pytest.mark.parametrize("order,top", [(2, 2), (2, 4), (3, 2), (6, 1)], ids=["Z2-2", "Z2-4", "Z3-2", "S3-1"])
@pytest.mark.parametrize("graded", [False, True], ids=["trivial", "graded"])
def test_cup_matches_symbolic_route(s3, order, top, graded):
    # every pair of Hochschild cocycles at every bidegree with p + q <= top
    group = s3 if order == 6 else cyclic_group(order)
    data = CupData(build_group_cup_instance(group, graded=graded), top)
    pairs = 0
    for p in range(top + 1):
        for q in range(top + 1 - p):
            for phi in data.a_side_cocycles(p, cyclic=False):
                for z in data.c_side_cocycles(q, cyclic=False):
                    assert data.cup(phi, p, z, q) == symbolic_cup(data, phi, p, z, q)
                    pairs += 1
    assert pairs


def test_h_linearity_guards(s3):
    ci = build_group_cup_instance(s3)
    d_c, _ = ci.dims
    # every c to the idempotent e_e: h▹e_e = e_(h⁻¹) differs from it
    idempotent = a_coords(ci, ci.a_mod.alg.gen("e_e"))
    with pytest.raises(StructureError, match="map is not H-linear"):
        h_linear(ci, [dict(idempotent) for _ in range(d_c)])
    with pytest.raises(StructureError, match="one image per C basis element required"):
        h_linear(ci, unit_convolution(ci)[:-1])


def test_psi_degree_zero(trivial_ci):
    # Ψ(φ ⊗ m⊗x)(f) = φ(m ⊗ f(x)), checked against direct evaluation
    ci = trivial_ci
    c = ci.c_mod.coalg
    abasis = TensorBasis((ci.mc.space, ci.a_mod.alg))
    for f in convolution_basis(ci):
        f = images(ci, f)
        for pos, cw in enumerate(c.basis_words()):
            chain = tensor([ci.mc.space.unit(), c.from_word(cw)]).terms
            for j in range(abasis.dim):
                phi = lambda te, j=j: abasis.coords(te.terms).get(j, 0)
                direct = phi(tensor([ci.mc.space.unit(), f[pos]]))
                assert symbolic_psi(ci, phi, chain, [f]) == direct


@pytest.mark.parametrize("n,perm,rot", [
    (1, [0, 2, 1], lambda fs: [fs[1], fs[0]]),
    (2, [0, 2, 3, 1], lambda fs: [fs[2], fs[0], fs[1]]),
])
def test_psi_commutes_with_cyclic_operators(trivial_ci, n, perm, rot):
    # Ψ(φ, τx, f₀…f_n) = Ψ(φ∘leg-rotation, x, f_n f₀…f_{n-1}), exhaustively
    # τ read off the columns of the operator table, rotation and all
    ci = trivial_ci
    ops = CoalgebraOps(ci.mc, ci.c_mod)
    cbasis, tau = ops.basis[n], columns(OperatorTable(ops)["tau", n])
    convs = [images(ci, f) for f in convolution_basis(ci)]
    abasis = TensorBasis((ci.mc.space,) + (ci.a_mod.alg,) * (n + 1))
    for j in range(abasis.dim):
        phi = lambda te, j=j: abasis.coords(te.terms).get(j, 0)
        phi_rot = lambda te, j=j: abasis.coords(permute(te, perm).terms).get(j, 0)
        for x, col in zip(cbasis.tuples, tau):
            image = {cbasis.tuples[r]: v for r, v in col.items()}
            for fs in iproduct(convs, repeat=n + 1):
                assert symbolic_psi(ci, phi, image, list(fs)) == symbolic_psi(
                    ci, phi_rot, {x: 1}, rot(list(fs))
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
    assert not any(ordinary_coboundary(graded_data.ordinary_b[2], res))
    # at these bidegrees the output is strictly λ-invariant: f∘T = (-1)ⁿ f
    # for T the rotation of the ordinary chains
    for p, q in [(0, 1), (0, 2), (2, 0)]:
        phi = graded_data.a_side_cocycles(p)[0]
        z = graded_data.c_side_cocycles(q)[0]
        res = graded_data.cup(phi, p, z, q)
        n = p + q
        assert precompose(res, columns(graded_data.ordinary["t", n])) == [(-1) ** n * x for x in res]


@pytest.mark.parametrize("n", range(4))
def test_ordinary_b_matches_oracle(ordinary, n):
    ci, chains = ordinary
    rng = random.Random(n)
    dim = chains.bases[n].dim
    b = chain_boundary(chains, n)
    for _ in range(3):
        row = [Fraction(rng.randint(-5, 5)) for _ in range(dim)]
        assert ordinary_coboundary(b, row) == hochschild_coboundary(ci.a_mod.alg, n, row)


@pytest.mark.parametrize("n", [2, 3])
def test_ordinary_t_rotates_forward(ordinary, n):
    # T(a₀⊗…⊗aₙ) = aₙ⊗a₀⊗…⊗aₙ₋₁; the first leg is the trivial coefficient
    _, chains = ordinary
    basis = chains.bases[n]
    for j, wt in enumerate(basis.tuples):
        rotated = (wt[0], wt[-1]) + wt[1:-1]
        assert columns(chains["t", n])[j] == {basis.index[rotated]: 1}


def test_cup_reads_only_tables(table_builds):
    # building CupData induces its operators from the tables' factorizations
    # and builds no ambient matrix; the cocycles and the cup then build the
    # ambient faces and T they read and the two zeroth cofaces that lift z,
    # each once, and no (co)degeneracy
    data = CupData(build_group_cup_instance(graded=True), 2)
    assert table_builds == []
    for p in range(3):
        for q in range(3 - p):
            data.cup(data.a_side_cocycles(p)[0], p, data.c_side_cocycles(q)[0], q)
    assert sorted(table_builds) == sorted(
        [("face", n, i) for n in range(1, 4) for i in range(n + 1)]
        + [("t", n) for n in range(3)]
        + [("coface", 1, 0), ("coface", 2, 0)]
    )


def test_cup_operators_are_signed_maps():
    # on the default cup instance every operator CupData induces, 12 per
    # side, is a signed map, the A-side faces that have empty columns too,
    # and each agrees with the elimination route
    data = CupData(build_group_cup_instance(graded=True), 2)
    reads, with_empty = 0, []
    for inst in (data.a_inst, data.c_side):
        up, _, cyclic = FiniteComplex.NAMES[inst.chains]
        keys = [(cyclic, n) for n in range(3)] + [(up, n, i) for n in range(1, 4) for i in range(n + 1)]
        for key in keys:
            op, (s, t) = inst.table[key], OperatorTable.degrees(key)
            memo, k = (inst.tau, key[1]) if key[0] == cyclic else (inst.coface, key[1:])
            m, off = dense_oracle.eliminating_induced(inst.quots[s], op, inst.quots[t])
            if inst.chains:
                m = transpose(m, inst.dims[t])
            assert is_signed(op) and is_signed(memo[k]) and columns(memo[k]) == m and not off, key
            if 0 in op:
                with_empty.append(key)
            reads += 1
    assert reads == 24
    assert [key[0] for key in with_empty] == ["face"] * 9


def test_cup_builds_no_degeneracy(table_builds):
    # neither side's (co)degeneracies are read by the cup, so none is
    # induced, and inducing the rest builds no ambient matrix
    for top in (1, 3):
        data = CupData(build_group_cup_instance(graded=True), top)
        assert data.a_inst.welldef_failures == data.c_side.welldef_failures == []
        for inst in (data.a_inst, data.c_side):
            assert inst.coface and inst.tau and not inst.codeg
    assert table_builds == []


def test_s3_graded_cup_names_non_descending_operators(monkeypatch, s3):
    # the cup checks only the operators it reads: faces (cofaces on C_H)
    # through top + 1 and T (τ) through top; the report names all of them
    # in one witness
    built = []

    class Recorded(CupData):
        def __post_init__(self):
            super().__post_init__()
            built.append(self)

    monkeypatch.setattr(cup_module, "CupData", Recorded)
    report = check_cup_suite(s3, top=1, graded=True)
    (data,) = built
    a_side = ["face(1,1)", "face(2,2)", "t(1)"]
    c_side = ["coface(1,1)", "coface(2,2)", "tau(1)"]
    assert data.a_inst.welldef_failures == a_side
    assert data.c_side.welldef_failures == c_side
    check = report["checks"][-1]
    assert not report["ok"] and not check["ok"]
    # the cap of five no longer hides the bidegree that has no cocycles
    assert check["witnesses"] == [
        "not well-defined: " + ", ".join(a_side + c_side),
        "no cocycles at bidegree (1,0)",
    ]


def test_convolution_failure_names_basis_indices(monkeypatch):
    real = cup_module.convolve

    def skewed(ci, f, g):  # f∗g + f: neither unital nor associative
        return combine([(1, real(ci, f, g)), (1, f)], len(f))

    monkeypatch.setattr(cup_module, "convolve", skewed)
    report = check_cup_suite(top=0)
    check = next(c for c in report["checks"] if c["name"] == "convolution algebra")
    assert not check["ok"]
    # (f∗g)∗h − f∗(g∗h) = f∗h here, and basis maps 0 and 1 convolve to 0
    assert check["witnesses"] == [
        "unit: basis 0",
        "associativity: basis (0,0,0)",
        "associativity: basis (0,1,0)",
    ]


@pytest.mark.parametrize("order,top,calls", [(2, 2, 28), (6, 0, 516)], ids=["Z2", "S3"])
def test_associativity_reads_one_product_table(monkeypatch, s3, order, top, calls):
    # each f∗g of two basis maps is built once and read by both sides of
    # (f∗g)∗h = f∗(g∗h): b² + 2b³ convolutions, not 4b³, besides 2b for the
    # unit and dim(A)² for χ (b = 2 on Z2, 6 on S3)
    real, seen = cup_module.convolve, []

    def counting(ci, f, g):
        seen.append(None)
        return real(ci, f, g)

    monkeypatch.setattr(cup_module, "convolve", counting)
    check_cup_suite(s3 if order == 6 else cyclic_group(order), top=top, graded=True)
    assert len(seen) == calls


def test_cup_suite_builds_one_ops_object_per_carrier_pair(monkeypatch):
    # CupData's two complexes reuse the ops objects of the CupInstance; the
    # one other AlgebraChainOps is that of the ordinary chains, over
    # trivial coefficients
    built = []
    for cls in (CoalgebraOps, AlgebraChainOps):

        def recording(self, real=cls.__post_init__):
            built.append(type(self).__name__)
            real(self)

        monkeypatch.setattr(cls, "__post_init__", recording)
    check_cup_suite(top=2)
    assert sorted(built) == ["AlgebraChainOps", "AlgebraChainOps", "CoalgebraOps"]


def test_cup_suite_solves_each_degree_once(monkeypatch):
    # each side's cocycles of each degree are solved once, with one more
    # solve for the Hochschild fallback, not once per bidegree that reads them
    seen = []
    for side in ("a_side_cocycles", "c_side_cocycles"):

        def recording(self, n, cyclic=True, real=getattr(CupData, side), side=side):
            seen.append((side, n, cyclic))
            return real(self, n, cyclic)

        monkeypatch.setattr(CupData, side, recording)
    report = check_cup_suite(top=4)
    assert len(seen) == len(set(seen))
    assert {(side, n) for side, n, _ in seen} == set(iproduct(("a_side_cocycles", "c_side_cocycles"), range(5)))
    for pq, kinds in report["checks"][-1]["inputs"].items():
        p, q = map(int, pq.split(","))
        for side, n, kind in zip(("a_side_cocycles", "c_side_cocycles"), (p, q), kinds.split("/")):
            assert ((side, n, False) in seen) == (kind == "hochschild")


def test_unclosed_cup_names_the_cocycle_pair(monkeypatch):
    def spike(self, phi_row, p, z_amb, q):  # the indicator of basis tensor 0
        return [F1] + [F0] * (self.ordinary.bases[p + q].dim - 1)

    monkeypatch.setattr(CupData, "cup", spike)
    report = check_cup_suite(top=1)
    check = report["checks"][-1]
    # A is commutative, so every 0-cochain is closed; the 1-cochain is not
    alg = build_group_cup_instance().a_mod.alg
    residual = hochschild_coboundary(alg, 1, [F1] + [F0] * 3)
    nonzero = sum(1 for x in residual if x)
    assert nonzero
    assert not check["ok"]
    assert check["witnesses"] == [
        f"cup not closed at (0,1): phi 0, z 0: {nonzero} nonzero",
        f"cup not closed at (1,0): phi 0, z 0: {nonzero} nonzero",
    ]


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
