"""Cocyclic structure on finite instances and the two cohomology routes."""

import gc
import io
import itertools
import re
import tracemalloc
import weakref
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcyc import cli, linalg
from hopfcyc import cocyclic as cocyclic_module, cup as cup_module
from hopfcyc.cocyclic import (
    AlgebraChainOps,
    AlgebraCochainInstance,
    CoalgebraOps,
    FiniteComplex,
    OperatorTable,
    RelativeTensorSpace,
    build_coalgebra_instance,
    check_cocyclic,
    cyclic_cohomology,
    relative_complex,
    tot_cohomology,
)
from hopfcyc.coefficients import (
    ModuleComodule,
    bicrossed_module_algebra_f,
    bicrossed_module_coalgebra_u,
    check_ch_sayd,
    check_sayd,
    group_set_module_coalgebra,
    mc_conjugation_group,
    mc_graded_group,
    mc_regular,
    mc_trivial,
    scalar_space,
)
from hopfcyc.core import Memo, tensor
from hopfcyc.cup import build_group_cup_instance
from hopfcyc.errors import PreconditionError, StructureError
from hopfcyc.hopf import Character
from hopfcyc.instances import GroupSetData, build_group_algebra, cyclic_group
from hopfcyc.kaygun import KaygunBridge, kaygun_cocyclic_instance

import dense_oracle
from dense_oracle import as_dense, dense_instance, identity, is_zero_matrix, mat_mul, mat_sub


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


def test_operator_legs_are_freed_without_gc(swap_cmod):
    """The memo fills of CoalgebraOps and AlgebraChainOps close over what
    they read, not over the object, so neither sits in a reference cycle:
    once the table of a checked instance is let go, its CoalgebraOps dies
    by reference counting, and so does a dropped AlgebraChainOps."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        # built as build_coalgebra_instance builds it, keeping a weakref
        ops = CoalgebraOps(mc_trivial(swap_cmod.hopf), swap_cmod)
        spaces = [RelativeTensorSpace(ops, n) for n in range(3)]
        inst = FiniteComplex(OperatorTable(ops), [sp.quot for sp in spaces])
        ref = weakref.ref(ops)
        del ops, spaces
        assert ref() is not None  # the table still holds it
        assert check_cocyclic(inst)["ok"]
        assert ref() is None

        ci = build_group_cup_instance(graded=True)
        chain_ops = AlgebraChainOps(ci.mc, ci.a_mod)
        basis = RelativeTensorSpace(chain_ops, 1).basis
        chain_ops.face(basis.tuples[0])
        assert chain_ops.s_cols and chain_ops.inv_act and chain_ops.mul
        ref = weakref.ref(chain_ops)
        del chain_ops
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_complexes_are_freed_without_gc(swap_cmod):
    """FiniteComplex's memos close over its quotients, its failure log and
    a table slot, not over the complex, so a dropped complex dies by
    reference counting, whether it still holds its table or has been
    checked and let go of it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        for checked in (False, True):
            inst = build_coalgebra_instance(mc_trivial(swap_cmod.hopf), swap_cmod, 3)
            inst.tau[2], inst.coface[2, 1]
            if checked:
                assert check_cocyclic(inst)["ok"] and inst.table is None
            ref = weakref.ref(inst)
            del inst
            assert ref() is None, checked
    finally:
        if enabled:
            gc.enable()


def test_graded_swap_instance_at_top_8_peaks_under_4_mib():
    # the ambient operators of a group-algebra instance are signed maps, one
    # int per column, so building and checking the graded swap instance
    # at top 8 peaks near 1.9 MiB (6.7 MiB with one dict per column)
    (_, _), (name, build) = cli._swap_instances(8)
    assert name == "graded"
    tracemalloc.start()
    try:
        assert check_cocyclic(build())["ok"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


@pytest.mark.parametrize("command", ["cohomology", "check-cocyclic"])
def test_commands_let_go_of_each_instance_before_the_next(monkeypatch, command):
    # with gc off, every instance built before must be dead when the next
    # one is built, and the last one when the command returns
    refs = []
    real = cli.build_coalgebra_instance

    def recording(*args):
        assert [r() for r in refs] == [None] * len(refs)
        inst = real(*args)
        refs.append(weakref.ref(inst))
        return inst

    monkeypatch.setattr(cli, "build_coalgebra_instance", recording)
    enabled = gc.isenabled()
    gc.disable()
    try:
        with redirect_stdout(io.StringIO()):
            assert cli.run([command, "--upto", "2"]) == 0
        assert len(refs) == (3 if command == "cohomology" else 2)
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        if enabled:
            gc.enable()


def test_zero_dimensional_coefficients_give_an_empty_complex(swap_cmod):
    mc = mc_trivial(swap_cmod.hopf)
    mc.space.finite_basis = []
    inst = build_coalgebra_instance(mc, swap_cmod, 3)
    assert check_cocyclic(inst) == {"ok": True, "witnesses": []}
    assert inst.dims == [0, 0, 0, 0] and inst.coface[2, 0] == inst.codeg[1, 1] == []


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
    inst = dense_instance(swap_trivial)
    for n in range(4):
        power = identity(inst.dims[n])
        for _ in range(n + 1):
            power = mat_mul(inst.tau[n], power)
        assert power == identity(inst.dims[n])


def test_simplicial_interchange(swap_trivial):
    inst = dense_instance(swap_trivial)
    # codegeneracies are sections of the neighbouring cofaces
    for n in range(3):
        for j in range(n + 1):
            for i in (j, j + 1):
                assert mat_mul(inst.codeg[(n, j)], inst.coface[(n + 1, i)]) == identity(
                    inst.dims[n]
                )


def test_last_coface_is_tau_after_first(swap_graded):
    inst = dense_instance(swap_graded)
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


def test_relative_quotient_refuses_infinite_carriers(bicrossed):
    # either side's chain basis guards its carriers before any basis word
    # of the bicrossed product is listed
    mc = mc_regular(bicrossed.hopf)
    for ops in (
        CoalgebraOps(mc, bicrossed_module_coalgebra_u(bicrossed)),
        AlgebraChainOps(mc, bicrossed_module_algebra_f(bicrossed)),
    ):
        with pytest.raises(PreconditionError, match="chain basis needs finite carriers"):
            RelativeTensorSpace(ops, 0)


def test_algebra_side_instance():
    ci = build_group_cup_instance(graded=False)
    inst = AlgebraCochainInstance(ci.mc, ci.a_mod, 5)
    assert check_cocyclic(inst)["ok"]
    assert inst.welldef_failures == []
    report = cyclic_cohomology(inst, 3)
    assert report["agree"]
    assert report["lambda_complex"] == [1, 0, 1, 0]


# -- d∘d = 0 on every built instance ------------------------------------------------


def assert_differentials_square_to_zero(inst):
    inst = dense_instance(inst)
    for n in range(inst.top - 1):
        assert is_zero_matrix(mat_mul(inst.b(n + 1), inst.b(n))), f"b∘b at degree {n}"
        assert is_zero_matrix(mat_mul(inst.b_prime(n + 1), inst.b_prime(n))), f"b'∘b' at degree {n}"


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
    assert_differentials_square_to_zero(AlgebraCochainInstance(ci.mc, ci.a_mod, 3))


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


def draw_gset_instance(s3, data):
    """A coalgebra instance through degree 2 on a drawn G-set (one or two
    orbits of Z2, Z3 or S3) with trivial or graded coefficients."""
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
    return build_coalgebra_instance(mc, cmod, 2)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_random_gsets_square_to_zero(s3, data):
    inst = draw_gset_instance(s3, data)
    assert_differentials_square_to_zero(inst)
    assert inst.welldef_failures == []


def assert_routes_agree(inst) -> list:
    """Reads every operator of a fresh ``inst`` through its top, induced
    from the table's factorization with no ambient matrix built, and checks
    it against ``dense_oracle.eliminating_induced``, the elimination route
    of :meth:`~hopfcyc.linalg.Quotient.induced`, on Columns, applied to the
    ambient matrix ``table[key]``: the same matrix (transposed over a chain
    table), the same descent count, and the same operators that do not
    descend, in the same order.  Returns the table keys of those that came
    as signed maps."""
    table, quots, top = inst.table, inst.quots, inst.top
    up, down, cyclic = FiniteComplex.NAMES[inst.chains]
    reads = [(inst.coface, (n, i), (up, n, i)) for n in range(1, top + 1) for i in range(n + 1)]
    reads += [(inst.codeg, (n, i), (down, n, i)) for n in range(top) for i in range(n + 1)]
    reads += [(inst.tau, n, (cyclic, n)) for n in range(top + 1)]
    for memo, k, _ in reads:
        memo[k]
    assert len(table) == 0  # every read so far went through table.after
    failures, signed = [], []
    for memo, k, key in reads:
        s, t = OperatorTable.degrees(key)
        m, off = dense_oracle.eliminating_induced(quots[s], table[key], quots[t])
        assert quots[s].induced(key, quots[t], table.after)[1] == off, key
        if inst.chains:
            m = linalg.transpose(m, inst.dims[t])
        assert linalg.columns(memo[k]) == m, key
        if linalg.is_signed(memo[k]):
            signed.append(key)
        if off:
            failures.append(f"{key[0]}({','.join(map(str, key[1:]))})")
    assert inst.welldef_failures == failures
    return signed


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_random_gsets_take_the_signed_route(s3, data):
    # every operator of a group-algebra instance is a signed partial map
    inst = draw_gset_instance(s3, data)
    assert len(assert_routes_agree(inst)) == 5 + 3 + 3  # cofaces, codegeneracies, τ


def test_regular_s3_graded_witness_through_both_routes(s3):
    # S3 acting on itself, graded coefficients: not relative SAYD, so the
    # last cofaces and τ leave ⊗_H, by both routes
    cmod = group_set_module_coalgebra(coset_space_union(s3, [["e"]]))
    mc = mc_graded_group(cmod.hopf, build_group_algebra(s3, name="kG_g"))
    inst = build_coalgebra_instance(mc, cmod, 2)
    assert len(assert_routes_agree(inst)) == 11
    report = check_cocyclic(inst)
    assert report["witnesses"][0] == "not well-defined: coface(1,1), coface(2,2), tau(1), tau(2)"
    assert not report["ok"]


def test_algebra_side_transposes_through_both_routes():
    # a transpose is a signed map only where no two columns share a row
    for graded in (False, True):
        ci = build_group_cup_instance(graded=graded)
        assert assert_routes_agree(AlgebraCochainInstance(ci.mc, ci.a_mod, 3))


def test_graded_trivial_action_over_s3_does_not_descend(s3):
    # why the property above gives S3 the conjugation action: with the
    # trivial one the last coface leaves ⊗_H, and b∘b is no longer zero
    cmod = group_set_module_coalgebra(coset_space_union(s3, [["e", "p021"]]))
    mc = mc_graded_group(cmod.hopf, build_group_algebra(s3, name="kG_g"))
    assert not check_sayd(mc)["ayd"]["ok"]
    inst = build_coalgebra_instance(mc, cmod, 2)
    dense = dense_instance(inst)
    assert "coface(1,1)" in inst.welldef_failures
    assert not is_zero_matrix(mat_mul(dense.b(1), dense.b(0)))


@pytest.fixture(scope="module")
def s3_mod_a3(s3):
    """S3 acting on S3/A3 with graded coefficients, through degree 4."""
    cmod = group_set_module_coalgebra(coset_space_union(s3, [["e", "p120", "p201"]]))
    mc = mc_graded_group(cmod.hopf, build_group_algebra(s3, name="kG_g"))
    return mc, cmod, build_coalgebra_instance(mc, cmod, 4)


def test_graded_coefficients_over_s3_mod_a3_are_relative_sayd(s3_mod_a3):
    # the paper's middle category: graded coefficients are not SAYD over
    # kS3, but they are relative SAYD for the coalgebra S3/A3, and that is
    # what makes the relative module cocyclic (compare the instance above,
    # which is not relative SAYD and does not descend)
    mc, cmod, inst = s3_mod_a3
    assert not check_sayd(mc)["ok"]
    assert check_ch_sayd(mc, cmod)["ok"]
    assert check_cocyclic(inst, upto=4) == {"ok": True, "witnesses": []}
    assert cyclic_cohomology(inst, 3) == {
        "lambda_complex": [3, 0, 3, 0],
        "bicomplex": [3, 0, 3, 0],
        "agree": True,
    }


@pytest.fixture
def s3_graded_coset(s3):
    """The instance above: its last cofaces and τ do not descend."""
    cmod = group_set_module_coalgebra(coset_space_union(s3, [["e", "p021"]]))
    return mc_graded_group(cmod.hopf, build_group_algebra(s3, name="kG_g")), cmod


def test_descent_is_checked_through_top_whatever_upto(s3_graded_coset):
    inst = build_coalgebra_instance(*s3_graded_coset, 3)
    # upto=1 reads nothing above degree 1 for its identities, yet the
    # report names the last coface into degree 3; every operator that does
    # not descend is in one witness, so the identity witnesses still show
    report = check_cocyclic(inst, upto=1)
    assert report["witnesses"] == [
        "not well-defined: coface(1,1), coface(2,2), coface(3,3), tau(1), tau(2), tau(3)",
        "tau^(n+1) at n=1: 4 nonzero",
        "tau-coface (1,1): 4 nonzero",
    ]
    assert not report["ok"] and not inst.verified


def test_failure_order_does_not_depend_on_read_order(s3_graded_coset):
    first, second = (build_coalgebra_instance(*s3_graded_coset, 2) for _ in range(2))
    first.tau[1], first.coface[1, 1]
    second.coface[1, 1], second.tau[1]
    assert first.welldef_failures == second.welldef_failures == ["coface(1,1)", "tau(1)"]
    # all of them, read degree by degree or τ first: cofaces, then τ
    dense_instance(first)
    second.induce_all()
    expected = ["coface(1,1)", "coface(2,2)", "tau(1)", "tau(2)"]
    assert first.welldef_failures == second.welldef_failures == expected


def test_operators_are_built_on_first_read(table_builds, swap_cmod):
    built = table_builds
    inst = build_coalgebra_instance(mc_trivial(swap_cmod.hopf), swap_cmod, 3)
    table = inst.table
    tau = inst.tau[2]
    assert inst.tau[2] is tau
    # check_cocyclic induces all 9 cofaces, 6 codegeneracies and 4 τ from
    # the table's factorization, builds no ambient matrix, then lets go of
    # the table
    assert check_cocyclic(inst)["ok"]
    assert built == [] and inst.table is None
    # a caller that reads the table gets each ambient matrix built once
    op = table["tau", 2]
    assert table["tau", 2] is op and built == [("tau", 2)]


def flip_leg_entry(leg, j):
    """A copy of the leg matrix ``leg`` with the sign of column j flipped."""
    return [{r: -x for r, x in col.items()} if c == j else col for c, col in enumerate(leg)]


def test_flipped_base_legs_fail_their_identities(swap_cmod):
    # τ_n and the last coface ∂_n are the base legs τ₀ and ∂₁, each
    # evaluated per basis tuple, placed by a rotation of legs: a flipped
    # entry of τ₀ breaks τ's order or a τ–coface identity, and one of ∂₁
    # the factorization ∂_n = τ_n ∘ ∂₀, at every degree the leg reaches
    mc = mc_trivial(swap_cmod.hopf)
    witnesses = {}
    for leg in ("tau_leg", "coface_leg"):
        ops = CoalgebraOps(mc, swap_cmod)
        setattr(ops, leg, flip_leg_entry(getattr(ops, leg), 1))
        report = check_cocyclic(relative_complex(ops, 3))
        assert not report["ok"]
        witnesses[leg] = report["witnesses"]
    assert any(re.match(r"tau\^\(n\+1\)|tau-coface", w) for w in witnesses["tau_leg"])
    assert any(w.startswith("last coface = tau.coface0") for w in witnesses["coface_leg"])


def test_op_matrix_reads_only_leg_sized_bases(monkeypatch):
    # the base legs are the only operators evaluated per basis tuple, so no
    # command hands op_matrix a basis of more than three legs
    seen = []
    real = cocyclic_module.op_matrix

    def spy(op, src, tgt):
        seen.append((len(src.prs), len(tgt.prs)))
        return real(op, src, tgt)

    monkeypatch.setattr(cocyclic_module, "op_matrix", spy)
    monkeypatch.setattr(cup_module, "op_matrix", spy)
    for args in (["cohomology", "--upto", "4"], ["kaygun"], ["cup"]):
        with redirect_stdout(io.StringIO()):
            assert cli.run(args) == 0
    assert seen and max(map(max, seen)) == 3


# -- Connes' B and the (b, B) mixed complex ------------------------------------------


def mixed_residues(inst):
    """The nonzero entries of bB + Bb on Cⁿ for n < top, and of B∘B from
    Cⁿ⁺² for n < top − 1, with B from C^(q+1) by ``inst.connes_b(q)``."""
    top, mul = inst.top, linalg.compose
    b = [inst.b(q) for q in range(top)]
    big_b = [inst.connes_b(q) for q in range(top)]
    anti = []
    for n in range(top):
        b_big_b = mul(b[n - 1], big_b[n - 1]) if n else [{}] * inst.dims[0]
        anti.append(linalg.combine([(1, b_big_b), (1, mul(big_b[n], b[n]))], inst.dims[n]))
    square = [mul(big_b[n], big_b[n + 1]) for n in range(top - 1)]
    return [sum(map(len, m)) for m in anti], [sum(map(len, m)) for m in square]


@pytest.fixture(scope="module")
def deep_instances(point_cmod, swap_cmod):
    """The three instances of the cohomology command, through degree 7."""
    graded = mc_graded_group(swap_cmod.hopf, build_group_algebra(cyclic_group(2), name="kG_g"))
    out = {
        "point": build_coalgebra_instance(mc_trivial(point_cmod.hopf), point_cmod, 7),
        "swap_trivial": build_coalgebra_instance(mc_trivial(swap_cmod.hopf), swap_cmod, 7),
        "swap_graded": build_coalgebra_instance(graded, swap_cmod, 7),
    }
    for inst in out.values():
        assert check_cocyclic(inst)["ok"]
    return out


@pytest.mark.parametrize("name", ["point", "swap_trivial", "swap_graded"])
def test_connes_b_gives_a_mixed_complex(deep_instances, name):
    # bB + Bb = 0 on C⁰ … C⁶, and B∘B = 0 from C² … C⁷ to C⁰ … C⁵
    assert mixed_residues(deep_instances[name]) == ([0] * 7, [0] * 6)


def test_connes_b_gives_a_mixed_complex_on_s3_mod_a3(s3_mod_a3):
    _, _, inst = s3_mod_a3
    assert check_cocyclic(inst)["ok"]
    assert mixed_residues(inst) == ([0] * 4, [0] * 3)


@pytest.mark.parametrize("name", ["swap_trivial", "swap_graded"])
def test_wrong_extra_codegeneracy_breaks_the_mixed_identity(monkeypatch, deep_instances, name):
    # σ₀ τ in place of σ_q τ: B∘B stays zero, since (1 − λ) N = 0 whatever
    # sits between, but bB + Bb fails from C² on
    inst = deep_instances[name]
    codeg = inst.codeg
    monkeypatch.setattr(inst, "codeg", Memo(lambda k: codeg[k[0], 0]))
    anti, square = mixed_residues(inst)
    assert [n for n, k in enumerate(anti) if k] == [2, 3, 4, 5, 6]
    assert square == [0] * 6


def test_route_two_refuses_a_total_complex_with_d_squared_nonzero(swap_cmod):
    inst = build_coalgebra_instance(mc_trivial(swap_cmod.hopf), swap_cmod, 4)
    assert check_cocyclic(inst)["ok"]
    codeg = inst.codeg
    inst.codeg = Memo(lambda k: codeg[k[0], 0])
    with pytest.raises(StructureError, match=r"fails d\*d = 0 at degree 2$"):
        cyclic_cohomology(inst, 3)


def test_tot_cohomology_of_zero_maps_counts_tot():
    # b = B = 0: every cochain of Totⁿ = Cⁿ ⊕ Cⁿ⁻² ⊕ … is a cocycle and
    # none is a coboundary
    dims = [1, 2, 3, 4, 5]
    b = [[{}] * d for d in dims[:4]]
    big_b = [[{}] * d for d in dims[1:4]]
    assert tot_cohomology(dims, b, big_b, 3) == [1, 2, 3 + 1, 4 + 2]


def test_tot_cohomology_of_the_ground_field(point_cmod):
    # the mixed complex of k, one basis vector per degree: b_q sums q + 2
    # identities with alternating signs, so b_q = 1 for odd q and 0 for
    # even q; λ_q = (−1)^q, so 1 − λ_(q+1) is 2 for even q and 0 for odd
    # q, N_q is q + 1 for even q, and B_q = 2(q + 1) for even q, else 0.
    # Tot⁰ = C⁰, Tot¹ = C¹, Tot² = C² ⊕ C⁰, Tot³ = C³ ⊕ C¹; d⁰ = 0,
    # d¹ = (b₁, B₀) = (1, 2) has rank 1, d² = 0, and d³ has rows C⁴, C², C⁰
    # and columns C³, C¹: [[1, 0], [6, 1], [0, 2]], of rank 2.  So HCⁿ is
    # 1 − 0, 1 − 1 − 0, 2 − 0 − 1, 2 − 2 − 0: k in even degrees.
    dims = [1] * 5
    b = [[{}], [{0: 1}], [{}], [{0: 1}]]
    big_b = [[{0: 2}], [{}], [{0: 6}]]
    assert tot_cohomology(dims, b, big_b, 3) == [1, 0, 1, 0]
    # and it is the mixed complex of the one-point instance
    inst = build_coalgebra_instance(mc_trivial(point_cmod.hopf), point_cmod, 4)
    assert check_cocyclic(inst)["ok"] and inst.dims == dims
    assert [inst.b(q) for q in range(4)] == b and [inst.connes_b(q) for q in range(3)] == big_b


def test_tot_cohomology_refuses_b_squared_nonzero():
    # B = 1 from every C^(q+1) to C^q: bB + Bb = 0 with b = 0, but B∘B
    # sends C² through C¹ to C⁰, so d³ ∘ d² ≠ 0 on the C² block of Tot²
    dims = [1] * 5
    b = [[{}]] * 4
    big_b = [[{0: 1}]] * 3
    with pytest.raises(StructureError, match=r"^bicomplex total differential fails d\*d = 0 at degree 2$"):
        tot_cohomology(dims, b, big_b, 3)


def h4_scalar_coefficients(h4, name):
    """A one-dimensional carrier over H4: (δ, 1) acts by the character
    δ(g) = −1, δ(x) = 0 and coacts by m ↦ 1 ⊗ m; (ε, g) acts by the counit
    and coacts by m ↦ g ⊗ m."""
    chi, grouplike = {
        "delta_1": (Character(h4, {"g": -1, "x": 0}), h4.unit()),
        "eps_g": (Character(h4, {"g": 1, "x": 0}), h4.gen("g")),
    }[name]
    return ModuleComodule(
        name, h4, scalar_space(name), lambda m, h: m.scale(chi(h)), lambda m: tensor([grouplike, m])
    )


@pytest.mark.parametrize("name,dims", [("delta_1", [1, 0, 2, 0]), ("eps_g", [0, 1, 0, 2])])
def test_h4_cohomology_through_both_routes(h4, h4_left, name, dims):
    # H4 is not cocommutative, so these are the first coefficients here
    # whose cyclic cohomology is not read off monomial operators
    mc = h4_scalar_coefficients(h4, name)
    assert mc.validate()["ok"]
    inst = build_coalgebra_instance(mc, h4_left, 4)
    assert check_cocyclic(inst) == {"ok": True, "witnesses": []}
    assert cyclic_cohomology(inst, 3) == {"lambda_complex": dims, "bicomplex": dims, "agree": True}
    assert mixed_residues(inst) == ([0] * 4, [0] * 3)
    assert_checks_match_dense_oracle(build_coalgebra_instance(mc, h4_left, 3), hc_upto=2)


@pytest.mark.parametrize("name", ["delta_1", "eps_g"])
def test_h4_operators_take_the_columns_route(h4, h4_left, name):
    # relation rows of three entries and more from degree 2 on, so those
    # quotients have no signed projection; below, Δx = x ⊗ 1 + g ⊗ x keeps
    # every coface on Columns.  The signed maps are τ₀, τ₁ and the
    # codegeneracies into degrees 0 and 1: ε is 0 on x and gx, so those
    # have empty columns, and a signed target projection makes them signed
    # whatever the source projection is
    inst = build_coalgebra_instance(h4_scalar_coefficients(h4, name), h4_left, 3)
    assert [q.signed_proj is not None for q in inst.quots] == [True, True, False, False]
    assert assert_routes_agree(inst) == [
        ("codegeneracy", 0, 0),
        ("codegeneracy", 1, 0),
        ("codegeneracy", 1, 1),
        ("tau", 0),
        ("tau", 1),
    ]


def test_h4_adjoint_chains_through_both_routes(h4, h4_adjoint):
    # the A side of H4: the last faces and T induced from Columns legs
    # through a rotation of the source legs, none of them a signed map; the
    # regular coefficients under the adjoint action are not cocyclic, so
    # both routes must also count the same nonzero descent residuals
    inst = relative_complex(AlgebraChainOps(mc_regular(h4), h4_adjoint), 3)
    assert assert_routes_agree(inst) == []
    assert inst.welldef_failures == ["face(2,2)", "face(3,3)", "t(1)", "t(2)", "t(3)"]


@pytest.mark.parametrize("name", ["delta_1", "eps_g"])
def test_h4_columns_operators_on_signed_projections(h4, h4_left, name):
    # the cofaces into degree 1 are Columns between quotients whose
    # projections are signed maps: Q = P′ ∘ op and M ∘ P mix the encodings
    inst = build_coalgebra_instance(h4_scalar_coefficients(h4, name), h4_left, 1)
    src, tgt = inst.quots
    assert src.signed_proj is not None and tgt.signed_proj is not None
    for i in range(2):
        op = inst.table["coface", 1, i]
        assert not linalg.is_signed(op)
        m, off = src.induced(op, tgt)
        assert not linalg.is_signed(m)
        assert (m, off) == dense_oracle.eliminating_induced(src, op, tgt)
        assert inst.coface[1, i] == m


# -- witnesses ----------------------------------------------------------------------


def perturbed_tau(cols):
    """τ with 1 added to its (0, 0) entry: no longer of finite order."""
    cols = [dict(col) for col in linalg.columns(cols)]
    x = cols[0].get(0, 0) + 1
    if x:
        cols[0][0] = x
    else:
        del cols[0][0]
    return cols


def test_failure_witness_counts_the_residual(swap_cmod):
    inst = build_coalgebra_instance(mc_trivial(swap_cmod.hopf), swap_cmod, 3)
    assert check_cocyclic(inst) == {"ok": True, "witnesses": []}
    inst.tau[1] = perturbed_tau(inst.tau[1])
    tau = as_dense(inst.tau[1], inst.dims[1])
    residual = mat_sub(mat_mul(tau, tau), identity(inst.dims[1]))
    nonzero = sum(1 for row in residual for x in row if x)
    assert nonzero > 0
    report = check_cocyclic(inst)
    assert not report["ok"]
    assert f"tau^(n+1) at n=1: {nonzero} nonzero" in report["witnesses"]
    assert all(re.search(r": [1-9]\d* nonzero$", w) for w in report["witnesses"])


# -- the sparse checks against the dense oracle ---------------------------------------


def assert_checks_match_dense_oracle(inst, upto=None, hc_upto=None):
    dense = dense_instance(inst)
    assert check_cocyclic(inst, upto) == dense_oracle.check_cocyclic(dense, upto)
    assert inst.verified == dense.verified
    if hc_upto is not None:
        assert cyclic_cohomology(inst, hc_upto) == dense_oracle.cyclic_cohomology(dense, hc_upto)


def test_cohomology_instances_match_dense_oracle(point, swap_trivial, swap_graded):
    # the instances of the cohomology command (top 5, checked in full,
    # cohomology through degree 3) and of check-cocyclic (upto 3)
    for inst in (point, swap_trivial, swap_graded):
        assert_checks_match_dense_oracle(inst, upto=3)
        assert_checks_match_dense_oracle(inst, hc_upto=3)


def test_kaygun_and_algebra_instances_match_dense_oracle(swap_cmod):
    bridge = KaygunBridge(mc_trivial(swap_cmod.hopf), swap_cmod, top=4)
    assert_checks_match_dense_oracle(kaygun_cocyclic_instance(bridge), hc_upto=2)
    for graded in (False, True):
        ci = build_group_cup_instance(graded=graded)
        inst = AlgebraCochainInstance(ci.mc, ci.a_mod, 4)
        assert_checks_match_dense_oracle(inst, hc_upto=2)


def test_failing_instances_match_dense_oracle(swap_cmod, s3):
    # an operator that does not descend, and a perturbed τ
    cmod = group_set_module_coalgebra(coset_space_union(s3, [["e", "p021"]]))
    mc = mc_graded_group(cmod.hopf, build_group_algebra(s3, name="kG_g"))
    inst = build_coalgebra_instance(mc, cmod, 2)
    assert_checks_match_dense_oracle(inst)
    assert not inst.verified
    inst = build_coalgebra_instance(mc_trivial(swap_cmod.hopf), swap_cmod, 3)
    inst.tau[1] = perturbed_tau(inst.tau[1])
    assert_checks_match_dense_oracle(inst)
    assert not inst.verified
