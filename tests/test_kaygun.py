"""The bridge between the relative cocyclic module and the quotient complex
of the ambient one."""

import gc
import io
import re
import weakref
from fractions import Fraction
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcyc import cli, linalg
from hopfcyc import kaygun as kaygun_module
from hopfcyc.coefficients import (
    group_set_module_coalgebra,
    mc_conjugation_group,
    mc_graded_group,
    mc_regular,
    mc_trivial,
)
from hopfcyc.errors import UnsolvableError
from hopfcyc.core import word_str
from hopfcyc.instances import GroupSetData, build_group_algebra, cyclic_group
from hopfcyc.cocyclic import mismatch
from hopfcyc.kaygun import (
    KaygunBridge,
    bracket,
    check_iso,
    check_w_in_ker_pi,
    commutator_identities,
    kaygun_cocyclic_instance,
    kaygun_cohomology,
)
from hopfcyc.linalg import Quotient, columns, combine, compose, is_signed

from dense_oracle import as_dense, identity, mat_sub
from dense_oracle import mat_mul as dense_mul


@pytest.fixture(scope="module")
def swap_bridge(swap_cmod):
    return KaygunBridge(mc_trivial(swap_cmod.hopf), swap_cmod, top=4)


def test_commutator_identities(swap_bridge):
    assert commutator_identities(swap_bridge, upto=2)["ok"]


def flip_one_entry(m):
    """``m`` with the sign of its first nonzero entry flipped, in its own
    encoding; ``m`` itself is not modified."""
    if is_signed(m):
        j = next(j for j, e in enumerate(m) if e)
        return m[:j] + [-m[j]] + m[j + 1 :]
    m = [dict(col) for col in m]
    col = next(col for col in m if col)
    r = next(iter(col))
    col[r] = -col[r]
    return m


def test_codegeneracy_family_catches_a_flipped_tau_entry(swap_cmod, swap_bridge):
    # one sign of τ in degree 2, set in a fresh bridge before any read:
    # [L_g, τⁱ] in degree 2 changes, and σ_j no longer shifts it
    assert commutator_identities(swap_bridge, upto=3)["ok"]
    bridge = KaygunBridge(mc_trivial(swap_cmod.hopf), swap_cmod, top=4)
    bridge.table["tau", 2] = flip_one_entry(swap_bridge.table["tau", 2])
    report = commutator_identities(bridge, upto=3)
    assert not report["ok"]
    assert report["witnesses"][0].startswith("codegeneracy commutator shift (n=2, g=g, i=1, j=1): ")
    assert all(w.startswith("codegeneracy commutator shift") for w in report["witnesses"])


def test_coface_family_catches_a_flipped_l_entry(swap_cmod, swap_bridge):
    # one sign of L_g in degree 2: the cofaces into and out of degree 2 no
    # longer commute with L
    (gw,) = [w for w in swap_bridge.group_words if w]
    bridge = KaygunBridge(mc_trivial(swap_cmod.hopf), swap_cmod, top=4)
    bridge._l[2, gw] = flip_one_entry(swap_bridge.l_matrix(2, gw))
    report = commutator_identities(bridge, upto=3)
    assert not report["ok"]
    assert report["witnesses"][0].startswith("coface commutes with L (n=1, g=g, m=0): ")


def signed_matrices(n):
    """An n×n signed map."""
    return st.lists(st.integers(-n, n), min_size=n, max_size=n)


def column_matrices(n):
    """An n×n matrix as Columns of int and Fraction entries."""
    nonzero = st.integers(-3, 3).filter(bool)
    entry = st.one_of(nonzero, st.builds(Fraction, nonzero, st.integers(2, 4)))
    column = st.dictionaries(st.integers(0, n - 1), entry, max_size=n)
    return st.lists(column, min_size=n, max_size=n)


def square_matrices(n):
    """An n×n matrix, as a signed map or as Columns of int and Fraction
    entries."""
    return st.one_of(signed_matrices(n), column_matrices(n))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(st.just(n), square_matrices(n), square_matrices(n), st.integers(0, 3))
    )
)
def test_tau_commutator_expansion_holds_for_any_matrices(data):
    # τ[L, τⁱ] = [τ, L]τⁱ + [L, τⁱ⁺¹] for any τ and L: both sides are
    # τLτⁱ − τⁱ⁺¹L, so the expansion cannot fail and commutator_identities
    # does not check it
    n, tau, lg, i = data
    powers = [list(range(1, n + 1))]
    for _ in range(i + 1):
        powers.append(compose(tau, powers[-1]))
    taui, taui1 = powers[i], powers[i + 1]
    lhs = compose(tau, bracket(lg, taui))
    rhs = combine([(1, compose(bracket(tau, lg), taui)), (1, bracket(lg, taui1))], n)
    assert mismatch(lhs, rhs, "tau commutator expansion") == []
    t, l_dense, ti, ti1 = (as_dense(m, n) for m in (tau, lg, taui, taui1))
    assert as_dense(lhs, n) == mat_sub(dense_mul(dense_mul(t, l_dense), ti), dense_mul(ti1, l_dense))


@pytest.mark.parametrize("matrices", [signed_matrices, column_matrices])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_tau_power_commutator_telescopes(matrices, data):
    # [L, τⁱ] = Σⱼ τʲ[L, τ]τ^(i−1−j), j = 0…i−1, for any τ and L: so the
    # columns of [L_g, τ] and those of every [L_g, τⁱ] have one τ-saturation
    n = data.draw(st.integers(1, 4))
    tau, lg = data.draw(matrices(n)), data.draw(matrices(n))
    i = data.draw(st.integers(1, 4))
    powers = [list(range(1, n + 1))]
    for _ in range(i):
        powers.append(compose(tau, powers[-1]))
    one = bracket(lg, tau)
    terms = [(1, compose(compose(powers[j], one), powers[i - 1 - j])) for j in range(i)]
    lhs = bracket(lg, powers[i])
    assert mismatch(lhs, combine(terms, n), "telescoping") == []
    l_dense, ti = as_dense(lg, n), as_dense(powers[i], n)
    assert as_dense(lhs, n) == mat_sub(dense_mul(l_dense, ti), dense_mul(ti, l_dense))


def all_powers_w(bridge, n):
    """Wⁿ by its first route: the columns of [L_g, τⁱ] for every
    nonempty group word g and every i = 1…n+1, saturated under τ."""
    rows = [
        row
        for gw in bridge.group_words
        if gw
        for i in range(1, n + 2)
        for row in bridge.commutator_matrix(n, gw, i)
    ]
    return kaygun_module.saturate(rows, columns(bridge.table["tau", n]), n)


def regular_s3_mc(s3, cmod, coefficients):
    if coefficients == "graded":
        return mc_graded_group(cmod.hopf, build_group_algebra(s3, name="kS3_g"))
    return mc_conjugation_group(cmod.hopf, build_group_algebra(s3, name="kS3_c"), s3)


@pytest.mark.parametrize("name", ["swap_trivial", "swap_graded", "s3_graded", "s3_conjugation", "h4_left"])
def test_w_from_one_tau_matches_all_powers(name, swap_cmod, s3, h4, h4_left):
    if name.startswith("swap"):
        graded = build_group_algebra(cyclic_group(2), name="kG_g")
        mc = mc_trivial(swap_cmod.hopf) if name == "swap_trivial" else mc_graded_group(swap_cmod.hopf, graded)
        bridge = KaygunBridge(mc, swap_cmod, top=2)
    elif name.startswith("s3"):
        cmod = s3_regular_cmod(s3)
        bridge = KaygunBridge(regular_s3_mc(s3, cmod, name[3:]), cmod, top=2)
    else:
        bridge = KaygunBridge(mc_regular(h4), h4_left, top=2)
    for n in range(3):
        assert bridge.w_rows(n) == all_powers_w(bridge, n)
    if name in ("s3_graded", "h4_left"):
        assert bridge.w_rows(2)


def test_w_needs_its_tau_saturation(s3):
    # the columns of [L_g, τ] alone span less than W¹ on regular S3
    cmod = s3_regular_cmod(s3)
    bridge = KaygunBridge(regular_s3_mc(s3, cmod, "graded"), cmod, top=1)
    rows = [row for gw in bridge.group_words if gw for row in bridge.commutator_matrix(1, gw, 1)]
    unsaturated = (linalg.orbit_rref(rows) or linalg.rref(rows))[0]
    assert len(unsaturated) < len(bridge.w_rows(1))


def test_w_saturation_guard_names_the_degree(monkeypatch, s3):
    # W from [L_g, τ] takes n + 1 τ-rounds at degree n on regular S3 with
    # graded coefficients, so the guard allows SATURATION_BOUND + n
    cmod = s3_regular_cmod(s3)
    mc = regular_s3_mc(s3, cmod, "graded")
    monkeypatch.setattr(kaygun_module, "SATURATION_BOUND", 0)
    for n in (0, 1):
        with pytest.raises(UnsolvableError, match=f"^W saturation did not stabilize at degree {n}$"):
            KaygunBridge(mc, cmod, top=1).w_rows(n)
    monkeypatch.setattr(kaygun_module, "SATURATION_BOUND", 1)
    bridge = KaygunBridge(mc, cmod, top=1)
    assert bridge.w_rows(1) == all_powers_w(bridge, 1)


def test_w_vanishes_on_sayd_instance(swap_bridge):
    # commutators with the group translations die in the quotient already
    for n in range(3):
        assert swap_bridge.w_rows(n) == []
    assert check_w_in_ker_pi(swap_bridge, upto=2)["ok"]


def test_iso(swap_bridge):
    report = check_iso(swap_bridge)
    assert report["ok"], report
    assert report["cm_dims"][:4] == [1, 2, 4, 8]
    assert report["cm_dims"] == report["relative_dims"]


def test_cohomology_matches_relative_route(swap_bridge):
    report = kaygun_cohomology(swap_bridge, upto=2)
    assert report["ok"]
    assert report["dims"] == [1, 0, 1]
    assert report["hc"]["agree"]


def test_quotients_built_once_per_degree(swap_cmod, monkeypatch):
    import hopfcyc.kaygun as kaygun

    built = {"relative": [], "cm": 0}
    relative, quotient = kaygun.RelativeTensorSpace, kaygun.Quotient

    def counting_relative(ops, n):
        built["relative"].append(n)
        return relative(ops, n)

    def counting_quotient(rows, dim):
        built["cm"] += 1
        return quotient(rows, dim)

    monkeypatch.setattr(kaygun, "RelativeTensorSpace", counting_relative)
    monkeypatch.setattr(kaygun, "Quotient", counting_quotient)
    bridge = KaygunBridge(mc_trivial(swap_cmod.hopf), swap_cmod, top=3)
    assert check_w_in_ker_pi(bridge, upto=2)["ok"]
    assert check_iso(bridge)["ok"]
    assert kaygun_cohomology(bridge, upto=2)["ok"]
    assert sorted(built["relative"]) == [0, 1, 2, 3]
    assert built["cm"] == 4
    assert bridge.relative_space(1) is bridge.relative_space(1)
    assert bridge.cm_quotient(1) is bridge.cm_quotient(1)
    # and over the one basis per degree that the bridge's table reads
    assert all(bridge.relative_space(n).basis is bridge.table.bases[n] for n in range(4))


def test_bridge_is_freed_without_gc(swap_cmod):
    """The bridge's memo fills close over its ops, bases, table and each
    other, not over the bridge, so with gc off a bridge dropped after
    w_rows and check_iso dies by reference counting."""
    mc = mc_graded_group(swap_cmod.hopf, build_group_algebra(cyclic_group(2), name="kG_g"))
    enabled = gc.isenabled()
    gc.disable()
    try:
        bridge = KaygunBridge(mc, swap_cmod, top=2)
        bridge.w_rows(1)
        assert check_iso(bridge)["ok"]
        ref = weakref.ref(bridge)
        del bridge
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_graded_coefficients(swap_cmod):
    mc = mc_graded_group(
        swap_cmod.hopf, build_group_algebra(cyclic_group(2), name="kG_g")
    )
    bridge = KaygunBridge(mc, swap_cmod, top=4)
    assert check_w_in_ker_pi(bridge, upto=2)["ok"]
    report = check_iso(bridge)
    assert report["ok"]
    assert report["cm_dims"][:4] == [2, 4, 8, 16]


def s3_regular_cmod(s3):
    gs = GroupSetData(
        s3,
        list(s3.elements),
        {(a, x): s3.mult[(a, x)] for a in s3.elements for x in s3.elements},
    )
    return group_set_module_coalgebra(gs)


def test_s3_conjugation_positive(s3):
    cmod = s3_regular_cmod(s3)
    mc = mc_conjugation_group(cmod.hopf, build_group_algebra(s3, name="kS3_c"), s3)
    bridge = KaygunBridge(mc, cmod, top=1)
    assert check_w_in_ker_pi(bridge, upto=1)["ok"]
    assert check_iso(bridge)["ok"]


def test_s3_graded_negative(s3):
    # non-SAYD coefficients: the commutator space is nonzero and escapes
    # the kernel of the projection, so the bridge degrades honestly
    cmod = s3_regular_cmod(s3)
    mc = mc_graded_group(cmod.hopf, build_group_algebra(s3, name="kS3_g"))
    bridge = KaygunBridge(mc, cmod, top=1)
    assert bridge.w_rows(1)
    assert bridge.w_rows(1) is bridge.w_rows(1)  # built once per degree
    assert not check_w_in_ker_pi(bridge, upto=1)["ok"]


def test_s3_graded_w_witnesses_count_the_projection(s3):
    # each W generator outside ker Π is named with the nonzero count of its
    # image in C¹_H, here reduced by the relation rows pivot by pivot
    cmod = s3_regular_cmod(s3)
    mc = mc_graded_group(cmod.hopf, build_group_algebra(s3, name="kS3_g"))
    bridge = KaygunBridge(mc, cmod, top=1)
    report = check_w_in_ker_pi(bridge, upto=1)
    expected = []
    for n in (0, 1):
        quot = bridge.relative_space(n).quot
        for k, row in enumerate(bridge.w_rows(n)):
            v = dict(row)
            for pc, rel in zip(quot.pivots, quot.rows):
                x = v.get(pc, 0)
                for c, y in rel.items():
                    v[c] = v.get(c, 0) - x * y
            nonzero = sum(map(bool, v.values()))
            if nonzero:
                expected.append(f"W generator {k} at degree {n}: {nonzero} nonzero")
    assert not report["ok"]
    assert report["witnesses"] == expected[:5]
    assert report["witnesses"][0] == "W generator 2 at degree 1: 2 nonzero"


def test_s3_graded_bridge_entries_stay_int(s3):
    # identity and commutator entries are int, so τ powers, commutators and
    # the W rows stay in int arithmetic on an integral instance
    cmod = s3_regular_cmod(s3)
    mc = mc_graded_group(cmod.hopf, build_group_algebra(s3, name="kS3_g"))
    bridge = KaygunBridge(mc, cmod, top=1)
    mats = [bridge.tau_power(n, i) for n in (0, 1) for i in range(n + 3)]
    mats += [
        bridge.commutator_matrix(n, gw, i)
        for n in (0, 1)
        for gw in bridge.group_words
        for i in range(1, n + 3)
    ]
    rows = bridge.w_rows(1)
    assert rows
    entries = [x for m in mats + [rows] for col in columns(m) for x in col.values()]
    assert entries
    assert {type(x) for x in entries} == {int}


def test_s3_graded_iso_names_non_descending_operators(s3):
    # τ and the last coface do not descend to the relative quotient C¹_H;
    # check_iso says so instead of comparing ill-defined matrices
    cmod = s3_regular_cmod(s3)
    mc = mc_graded_group(cmod.hopf, build_group_algebra(s3, name="kS3_g"))
    report = check_iso(KaygunBridge(mc, cmod, top=1))
    assert not report["ok"]
    assert "not well-defined on C_H: coface(1,1), tau(1)" in report["witnesses"]
    assert not any(w.startswith("not well-defined on CM") for w in report["witnesses"])


def test_each_operator_matrix_is_built_once(monkeypatch, table_builds, swap_cmod):
    # table matrices are built by the fill of the bridge's OperatorTable,
    # L_g by one sweedler_sum per degree and g
    calls = {"L": 0}
    real = kaygun_module.sweedler_sum

    def counting(*args):
        calls["L"] += 1
        return real(*args)

    monkeypatch.setattr(kaygun_module, "sweedler_sum", counting)
    # a bridge builds nothing until it is asked
    KaygunBridge(mc_trivial(swap_cmod.hopf), swap_cmod, top=4)
    assert table_builds == [] and calls == {"L": 0}
    with redirect_stdout(io.StringIO()):
        assert cli.run(["kaygun"]) == 0
    # top 4: ℂ𝕄 and C_H induce their operators from the table's
    # factorization and build none; the commutator identities (upto 2)
    # read 6 cofaces and 2 codegeneracies and W reads τ in degrees 0..4,
    # each built once; L_g of the one non-unit group element in degrees 0..4
    assert sorted(table_builds) == sorted(
        [("coface", n, m) for n in range(1, 4) for m in range(n)]
        + [("codegeneracy", 1, 0), ("codegeneracy", 1, 1)]
        + [("tau", n) for n in range(5)]
    )
    assert calls == {"L": 5}


def test_commutator_witness_names_the_element_and_the_residual(monkeypatch, swap_cmod):
    # L_g doubled in degree 1 only: the cofaces out of degree 0 and into
    # degree 2 no longer commute with L
    real = KaygunBridge.l_matrix

    def doubled(self, n, gw):
        m = real(self, n, gw)
        return [{r: 2 * x for r, x in col.items()} for col in columns(m)] if n == 1 else m

    monkeypatch.setattr(KaygunBridge, "l_matrix", doubled)
    bridge = KaygunBridge(mc_trivial(swap_cmod.hopf), swap_cmod, top=3)
    report = commutator_identities(bridge, upto=2)
    (gw,) = [w for w in bridge.group_words if w]
    coface = bridge.table["coface", 1, 0]
    residual = mat_sub(
        dense_mul(as_dense(coface, 4), as_dense(bridge.l_matrix(0, gw), 2)),
        dense_mul(as_dense(bridge.l_matrix(1, gw), 4), as_dense(coface, 4)),
    )
    nonzero = sum(1 for row in residual for x in row if x)
    assert not report["ok"]
    assert report["witnesses"][0] == f"coface commutes with L (n=0, g={word_str(gw)}, m=0): {nonzero} nonzero"
    assert all(re.fullmatch(r".*\(n=\d, g=g, m=\d\): [1-9]\d* nonzero", w) for w in report["witnesses"])


def test_iso_witnesses_count_the_residual(monkeypatch, swap_cmod):
    # ℂ𝕄¹ squeezed by one more relation, x₂ = 0: its reduced relations
    # x₁ and x₂ both survive in C¹_H (relations x₀ = x₃, x₁ = x₂), so Π
    # does not descend, by 2 entries, and Π∘Π′ misses the identity of C¹_H
    real = KaygunBridge.cm_quotient

    def squeezed(self, n):
        q = real(self, n)
        return Quotient(q.rows + [{q.free[0]: 1}], q.ambient_dim) if n == 1 else q

    monkeypatch.setattr(KaygunBridge, "cm_quotient", squeezed)
    bridge = KaygunBridge(mc_trivial(swap_cmod.hopf), swap_cmod, top=2)
    report = check_iso(bridge)
    cm, rel = kaygun_cocyclic_instance(bridge).quots[1], bridge.relative_space(1).quot
    p, q = cm.induced_matrix(linalg.identity(4), rel), rel.induced_matrix(linalg.identity(4), cm)
    p, q = as_dense(p, rel.dim), as_dense(q, cm.dim)
    assert dense_mul(q, p) == identity(cm.dim)
    nonzero = sum(1 for row in mat_sub(dense_mul(p, q), identity(rel.dim)) for x in row if x)
    assert nonzero
    assert not report["ok"]
    assert report["witnesses"][:2] == [
        "Pi not well-defined at degree 1: 2 nonzero",
        f"Pi and Pi' not mutually inverse at degree 1: {nonzero} nonzero",
    ]
