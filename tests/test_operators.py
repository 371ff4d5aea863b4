"""Chain operators from leg maps against the symbolic route they replaced.

``symbolic_op_matrix`` is the dense per-column evaluation: each basis
tensor is rebuilt through ``from_word``/``tensor`` and pushed through the
operator by symbolic ``TensorElt`` arithmetic.  The ``symbolic_*``
operators below evaluate the same formulas that way, element by element,
with no memoized leg map.  Both routes are exact, so every matrix must agree
entry for entry.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcyc.cocyclic import (
    AlgebraChainOps,
    CoalgebraOps,
    FiniteComplex,
    OperatorTable,
    RelativeTensorSpace,
    TensorBasis,
    kron,
    op_matrix,
)
from hopfcyc.coefficients import (
    HModuleAlgebra,
    group_set_module_coalgebra,
    mc_conjugation_group,
    mc_graded_group,
    mc_regular,
    mc_trivial,
    scalar_space,
)
from hopfcyc.core import EMPTY_WORD, AlgElt, Generator, TensorElt, tensor
from hopfcyc.cup import build_group_cup_instance
from hopfcyc.errors import StructureError
from hopfcyc.instances import (
    GroupSetData,
    build_bicrossed,
    build_group_algebra,
    build_h1cop,
    cyclic_group,
    swap_instance,
)
from hopfcyc.kaygun import KaygunBridge
from hopfcyc.linalg import Quotient, identity_columns, orbit_rref
from hopfcyc.rewrite import ConcreteRule, Presentation

from dense_oracle import as_dense, dense, identity, kronecker, mat_mul, mat_sub, sparse


# -- the symbolic route ----------------------------------------------------------


def symbolic_elt(basis, i):
    wt = basis.tuples[i]
    return tensor([p.from_word(w) for p, w in zip(basis.prs, wt)])


def symbolic_op_matrix(op, src, tgt):
    """Dense matrix (tgt.dim x src.dim), one ``op(elt(j))`` per column."""
    cols = [vec(tgt, op(symbolic_elt(src, j))) for j in range(src.dim)]
    return [[cols[j][i] for j in range(src.dim)] for i in range(tgt.dim)]


def vec(basis, te):
    """The dense coordinates of a tensor in a finite basis."""
    return dense(basis.coords(te.terms), basis.dim)


def _sum(terms, prs):
    out = TensorElt(prs, {}, _normalized=True)
    for t in terms:
        out = out + t
    return out


def symbolic_coface(mc, c_mod, n, i, x):
    c = c_mod.coalg
    if i < n:
        return x.leg_apply(i + 2, c.coproduct)
    h = mc.hopf
    terms = []
    for wt, cf in x.terms.items():
        cm = mc.coact(mc.space.from_word(wt[0]))
        dc = c.coproduct(c.from_word(wt[1]))
        mids = [c.from_word(w) for w in wt[2:]]
        for (w, m0), cc in cm.terms.items():
            for (c1, c2), cd in dc.terms.items():
                factors = (
                    [mc.space.from_word(m0), c.from_word(c2)]
                    + mids
                    + [c_mod.act(h.from_word(w), c.from_word(c1))]
                )
                terms.append(tensor(factors).scale(cf * cc * cd))
    return _sum(terms, (mc.space,) + (c,) * (n + 1))


def symbolic_codegeneracy(mc, c_mod, n, i, x):
    return x.leg_scalar(i + 3, c_mod.coalg.counit)


def symbolic_tau(mc, c_mod, n, x):
    h = mc.hopf
    c = c_mod.coalg
    terms = []
    for wt, cf in x.terms.items():
        cm = mc.coact(mc.space.from_word(wt[0]))
        mids = [c.from_word(w) for w in wt[2:]]
        for (w, m0), cc in cm.terms.items():
            factors = (
                [mc.space.from_word(m0)]
                + mids
                + [c_mod.act(h.from_word(w), c.from_word(wt[1]))]
            )
            terms.append(tensor(factors).scale(cf * cc))
    return _sum(terms, x.prs)


def symbolic_face(mc, a_mod, n, i, x):
    alg = a_mod.alg
    h = mc.hopf
    terms = []
    for wt, cf in x.terms.items():
        if i < n:
            factors = [mc.space.from_word(wt[0])]
            factors += [alg.from_word(w) for w in wt[1 : i + 1]]
            factors.append(alg.from_word(wt[i + 1]) * alg.from_word(wt[i + 2]))
            factors += [alg.from_word(w) for w in wt[i + 3 :]]
            terms.append(tensor(factors).scale(cf))
            continue
        cm = mc.coact(mc.space.from_word(wt[0]))
        an, a0 = alg.from_word(wt[-1]), alg.from_word(wt[1])
        mids = [alg.from_word(w) for w in wt[2:-1]]
        for (w, m0), cc in cm.terms.items():
            twisted = a_mod.act(h.inv_antipode(h.from_word(w)), an)
            terms.append(tensor([mc.space.from_word(m0), twisted * a0] + mids).scale(cf * cc))
    return _sum(terms, (mc.space,) + (alg,) * n)


def symbolic_degeneracy(mc, a_mod, n, i, x):
    alg = a_mod.alg
    terms = []
    for wt, cf in x.terms.items():
        factors = [mc.space.from_word(wt[0])]
        factors += [alg.from_word(w) for w in wt[1 : i + 2]]
        factors.append(alg.unit())
        factors += [alg.from_word(w) for w in wt[i + 2 :]]
        terms.append(tensor(factors).scale(cf))
    return _sum(terms, (mc.space,) + (alg,) * (n + 2))


def symbolic_t(mc, a_mod, n, x):
    alg = a_mod.alg
    h = mc.hopf
    terms = []
    for wt, cf in x.terms.items():
        cm = mc.coact(mc.space.from_word(wt[0]))
        an = alg.from_word(wt[-1])
        rest = [alg.from_word(w) for w in wt[1:-1]]
        for (w, m0), cc in cm.terms.items():
            twisted = a_mod.act(h.inv_antipode(h.from_word(w)), an)
            terms.append(tensor([mc.space.from_word(m0), twisted] + rest).scale(cf * cc))
    return _sum(terms, x.prs)


def symbolic_l_action(mc, c_mod, g, n, x):
    """L_g(m ⊗ c̃) = m S(g⁽¹⁾) ⊗ g⁽²⁾c₀ ⊗ … ⊗ g⁽ⁿ⁺²⁾cₙ, with the Sweedler
    tensor recomputed on every call."""
    h = mc.hopf
    c = c_mod.coalg
    d = h.sweedler(g, n + 2)
    terms = []
    for wt, cf in x.terms.items():
        m = mc.space.from_word(wt[0])
        for legs, ch in d.terms.items():
            factors = [mc.act(m, h.antipode(h.from_word(legs[0])))]
            for i in range(n + 1):
                factors.append(c_mod.act(h.from_word(legs[i + 1]), c.from_word(wt[i + 1])))
            terms.append(tensor(factors).scale(cf * ch))
    return _sum(terms, x.prs)


def symbolic_relative_rows(mc, c_mod, n):
    """mh ⊗ c̃ − m ⊗ h⁽¹⁾c₀ ⊗ … ⊗ h⁽ⁿ⁺¹⁾cₙ per basis tensor and h, dense."""
    h = mc.hopf
    c = c_mod.coalg
    basis = TensorBasis((mc.space,) + (c,) * (n + 1))
    rows = []
    for j in range(basis.dim):
        x = symbolic_elt(basis, j)
        for hw in [w for w in h.normal_words(2, 2) if w != EMPTY_WORD]:
            a = h.from_word(hw)
            left = x.leg_apply(1, lambda m: mc.act(m, a))
            dn = h.sweedler(a, n + 1)
            terms = []
            for wt, cf in x.terms.items():
                m = mc.space.from_word(wt[0])
                for legs, ch in dn.terms.items():
                    fs = [m] + [
                        c_mod.act(h.from_word(legs[i]), c.from_word(wt[i + 1])) for i in range(n + 1)
                    ]
                    terms.append(tensor(fs).scale(cf * ch))
            right = _sum(terms, x.prs)
            rows.append([u - v for u, v in zip(vec(basis, left), vec(basis, right))])
    return rows


def symbolic_diagonal_rows(mc, a_mod, n):
    """(m ⊗ ã)h − ε(h)(m ⊗ ã) per basis tensor and h, dense."""
    h = mc.hopf
    alg = a_mod.alg
    basis = TensorBasis((mc.space,) + (alg,) * (n + 1))
    rows = []
    for j in range(basis.dim):
        x = symbolic_elt(basis, j)
        for a in [h.from_word(w) for w in h.normal_words(2, 2) if w != EMPTY_WORD]:
            d = h.sweedler(a, n + 2)
            terms = []
            for wt, cf in x.terms.items():
                m = mc.space.from_word(wt[0])
                for legs, ch in d.terms.items():
                    fs = [mc.act(m, h.from_word(legs[0]))]
                    fs += [
                        a_mod.act(h.antipode(h.from_word(legs[n + 1 - i])), alg.from_word(wt[i + 1]))
                        for i in range(n + 1)
                    ]
                    terms.append(tensor(fs).scale(cf * ch))
            acted = vec(basis, _sum(terms, x.prs))
            base = vec(basis, x.scale(h.counit(a)))
            rows.append([u - v for u, v in zip(acted, base)])
    return rows


def recorded_relations(monkeypatch, build):
    """The sparse relation rows ``build`` hands to :class:`Quotient`."""
    seen = []
    real = Quotient.__init__

    def recording(self, relations, ambient_dim):
        seen.append([dict(row) for row in relations])
        real(self, relations, ambient_dim)

    monkeypatch.setattr(Quotient, "__init__", recording)
    build()
    monkeypatch.undo()
    (rows,) = seen
    return rows


# -- the instances ---------------------------------------------------------------


def regular_s3(s3, coefficients):
    gs = GroupSetData(
        s3, list(s3.elements), {(a, x): s3.mult[(a, x)] for a in s3.elements for x in s3.elements}
    )
    cmod = group_set_module_coalgebra(gs)
    if coefficients == "graded":
        return mc_graded_group(cmod.hopf, build_group_algebra(s3, name="kS3_g")), cmod
    return mc_conjugation_group(cmod.hopf, build_group_algebra(s3, name="kS3_c"), s3), cmod


@pytest.fixture(scope="module")
def coalgebra_instances(point_cmod, swap_cmod, s3):
    graded = mc_graded_group(swap_cmod.hopf, build_group_algebra(cyclic_group(2), name="kG_g"))
    return {
        "point": (mc_trivial(point_cmod.hopf), point_cmod, 3),
        "swap_trivial": (mc_trivial(swap_cmod.hopf), swap_cmod, 3),
        "swap_graded": (graded, swap_cmod, 3),
        "s3_graded": (*regular_s3(s3, "graded"), 1),
        "s3_conjugation": (*regular_s3(s3, "conjugation"), 1),
    }


def chain_bases(mc, module_carrier, top):
    return [TensorBasis((mc.space,) + (module_carrier,) * (n + 1)) for n in range(top + 1)]


def assert_same(op, oracle, src, tgt):
    assert as_dense(op_matrix(op, src, tgt), tgt.dim) == symbolic_op_matrix(oracle, src, tgt)


# -- the oracle comparisons ----------------------------------------------------------


@pytest.mark.parametrize("name", ["point", "swap_trivial", "swap_graded", "s3_graded", "s3_conjugation"])
def test_coalgebra_operators_match_symbolic_route(coalgebra_instances, name):
    mc, c_mod, top = coalgebra_instances[name]
    ops = CoalgebraOps(mc, c_mod)
    bases = chain_bases(mc, c_mod.coalg, top)
    for n in range(1, top + 1):
        for i in range(n + 1):
            assert_same(
                lambda x: ops.coface(n, i, x),
                lambda x: symbolic_coface(mc, c_mod, n, i, x),
                bases[n - 1],
                bases[n],
            )
    for n in range(top):
        for i in range(n + 1):
            assert_same(
                lambda x: ops.codegeneracy(n, i, x),
                lambda x: symbolic_codegeneracy(mc, c_mod, n, i, x),
                bases[n + 1],
                bases[n],
            )
    for n in range(top + 1):
        assert_same(lambda x: ops.tau(n, x), lambda x: symbolic_tau(mc, c_mod, n, x), bases[n], bases[n])


def test_algebra_side_operators_match_symbolic_route():
    ci = build_group_cup_instance(graded=True)
    mc, a_mod, top = ci.mc, ci.a_mod, 3
    ops = AlgebraChainOps(mc, a_mod)
    bases = chain_bases(mc, a_mod.alg, top)
    for n in range(1, top + 1):
        for i in range(n + 1):
            assert_same(
                lambda x: ops.face(n, i, x),
                lambda x: symbolic_face(mc, a_mod, n, i, x),
                bases[n],
                bases[n - 1],
            )
    for n in range(top):
        for i in range(n + 1):
            assert_same(
                lambda x: ops.degeneracy(n, i, x),
                lambda x: symbolic_degeneracy(mc, a_mod, n, i, x),
                bases[n],
                bases[n + 1],
            )
    for n in range(top + 1):
        assert_same(lambda x: ops.t(n, x), lambda x: symbolic_t(mc, a_mod, n, x), bases[n], bases[n])


def operator_keys(chains, top):
    """Every key of an operator table through ``top``: τ (T), the cofaces
    (faces) and the codegeneracies (degeneracies)."""
    up, down, cyclic = FiniteComplex.NAMES[chains]
    keys = [(cyclic, n) for n in range(top + 1)]
    keys += [(up, n, i) for n in range(1, top + 1) for i in range(n + 1)]
    keys += [(down, n, i) for n in range(top) for i in range(n + 1)]
    return keys


@pytest.mark.parametrize("side", ["coalgebra", "algebra"])
def test_warm_operator_tables_build_no_tensor(monkeypatch, coalgebra_instances, side):
    """Once the leg maps are warm, building an ambient matrix makes no
    TensorElt: each column is read from the leg maps on a basis tuple."""
    top = 3
    if side == "coalgebra":
        mc, c_mod, _ = coalgebra_instances["swap_graded"]
        ops, carrier, chains = CoalgebraOps(mc, c_mod), c_mod.coalg, False
    else:
        ci = build_group_cup_instance(graded=True)
        mc, ops, carrier, chains = ci.mc, AlgebraChainOps(ci.mc, ci.a_mod), ci.a_mod.alg, True
    bases = chain_bases(mc, carrier, top)
    keys = operator_keys(chains, top)
    warm = OperatorTable(ops, bases, chains=chains)
    for key in keys:
        warm[key]
    built = []
    real = TensorElt.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(TensorElt, "__init__", counting)
    table = OperatorTable(ops, bases, chains=chains)
    for key in keys:
        assert table[key] == warm[key]
    monkeypatch.undo()
    assert built == []


@pytest.mark.parametrize(
    "name,top", [("swap_trivial", 3), ("swap_graded", 2), ("s3_graded", 1), ("s3_conjugation", 1)]
)
def test_kaygun_matrices_match_symbolic_route(coalgebra_instances, name, top):
    mc, c_mod, _ = coalgebra_instances[name]
    bridge = KaygunBridge(mc, c_mod, top=top)
    h = mc.hopf
    for n in range(top + 1):
        basis = bridge.bases[n]
        tau = symbolic_op_matrix(lambda x: symbolic_tau(mc, c_mod, n, x), basis, basis)
        assert as_dense(bridge.table["tau", n], basis.dim) == tau
        for gw in bridge.group_words:
            g = h.from_word(gw)
            lg = symbolic_op_matrix(lambda x: symbolic_l_action(mc, c_mod, g, n, x), basis, basis)
            assert as_dense(bridge.l_matrix(n, gw), basis.dim) == lg
            taui = identity(basis.dim)
            for i in range(1, n + 2):
                taui = mat_mul(tau, taui)
                comm = mat_sub(mat_mul(lg, taui), mat_mul(taui, lg))
                assert as_dense(bridge.commutator_matrix(n, gw, i), basis.dim) == comm


def basis_elt(basis, j):
    """Basis tensor j read straight off its tuple, with no normalization."""
    return TensorElt(basis.prs, {basis.tuples[j]: 1}, _normalized=True)


def test_basis_elements_are_the_symbolic_tensors(coalgebra_instances):
    mc, c_mod, _ = coalgebra_instances["swap_graded"]
    basis = TensorBasis((mc.space,) + (c_mod.coalg,) * 3)
    for j in range(basis.dim):
        assert basis_elt(basis, j) == symbolic_elt(basis, j)


def test_basis_word_outside_normal_form_is_refused():
    a, b = Generator("a"), Generator("b")
    pres = Presentation(
        "ab", {"a": False, "b": False}, ("a", "b"), [ConcreteRule((b, a), {(a, b): 1})],
        finite_basis=[(a, b), (b, a)],
    )
    with pytest.raises(StructureError, match="not in normal form"):
        TensorBasis((pres, pres))


# -- the from_word memo ------------------------------------------------------------


def _words(pres, length, index_bound=2):
    letters = pres.letters(index_bound)
    words = [()]
    frontier = [()]
    for _ in range(length):
        frontier = [w + (g,) for w in frontier for g in letters]
        words += frontier
    return words


@pytest.mark.parametrize("which", ["h1cop", "bicrossed", "kS3"])
def test_from_word_memo_matches_fresh_elements(which, bicrossed, s3):
    pres = {
        "h1cop": build_h1cop,
        "bicrossed": lambda: bicrossed.hopf,
        "kS3": lambda: build_group_algebra(s3, name="kS3"),
    }[which]()
    words = _words(pres, 3 if which == "h1cop" else 2)
    assert any(pres.normalize_terms({w: 1}) != {w: 1} for w in words)  # some rewrite
    for w in words:
        memo = pres.from_word(w)
        assert memo == AlgElt(pres, {w: 1})
        assert pres.from_word(w) is memo


@pytest.mark.parametrize("which", ["h1cop", "bicrossed", "kS3"])
def test_coproduct_word_memo_matches_letter_fold(which, bicrossed, s3):
    pres = {
        "h1cop": build_h1cop,
        "bicrossed": lambda: build_bicrossed(bicrossed.mp).hopf,
        "kS3": lambda: build_group_algebra(s3, name="kS3"),
    }[which]()
    words = pres.normal_words(3 if which == "h1cop" else 2, 2)
    for w in words:
        fold = pres.one_tensor()
        for g in w:
            fold = fold.leg_mul(pres.gen_coproduct(g))
        memo = pres.coproduct_word(w)
        assert memo == fold
        assert pres.coproduct_word(w) is memo


@pytest.mark.parametrize("name,top", [("point", 2), ("swap_trivial", 2), ("swap_graded", 2), ("s3_graded", 0)])
def test_relative_relations_match_symbolic_route(monkeypatch, coalgebra_instances, name, top):
    mc, c_mod, _ = coalgebra_instances[name]
    for n in range(top + 1):
        rows = recorded_relations(monkeypatch, lambda: RelativeTensorSpace(CoalgebraOps(mc, c_mod), n))
        assert rows == [sparse(row) for row in symbolic_relative_rows(mc, c_mod, n)]


@pytest.mark.parametrize("graded", [False, True])
def test_diagonal_relations_match_symbolic_route(monkeypatch, graded):
    ci = build_group_cup_instance(graded=graded)
    ops = AlgebraChainOps(ci.mc, ci.a_mod)
    for n in range(3):
        rows = recorded_relations(monkeypatch, lambda: ops.quotient(n))
        assert rows == [sparse(row) for row in symbolic_diagonal_rows(ci.mc, ci.a_mod, n)]


# -- the diagonal actions on H4 ------------------------------------------------------
# Δx = x⊗1 + g⊗x has two terms, so the Sweedler sums have several terms per
# h; from degree 1 on, relation rows have more than two entries and Quotient
# falls back on rref


@pytest.mark.parametrize("n", [0, 1])
def test_h4_relative_relations_match_symbolic_route(monkeypatch, h4, h4_left, n):
    mc = mc_regular(h4)
    rows = recorded_relations(monkeypatch, lambda: RelativeTensorSpace(CoalgebraOps(mc, h4_left), n))
    assert rows == [sparse(row) for row in symbolic_relative_rows(mc, h4_left, n)]
    assert (orbit_rref(rows) is None) == (n == 1)  # rref fallback from n = 1


def test_h4_l_action_matches_symbolic_route(h4, h4_left):
    mc = mc_regular(h4)
    bridge = KaygunBridge(mc, h4_left, top=1)
    assert len(bridge.group_words) == 4
    for n in range(2):
        basis = bridge.bases[n]
        for gw in bridge.group_words:
            g = h4.from_word(gw)
            lg = symbolic_op_matrix(lambda x: symbolic_l_action(mc, h4_left, g, n, x), basis, basis)
            assert as_dense(bridge.l_matrix(n, gw), basis.dim) == lg


@pytest.mark.parametrize("n", [0, 1])
def test_h4_adjoint_diagonal_relations_match_symbolic_route(monkeypatch, h4, h4_adjoint, n):
    mc = mc_regular(h4)
    ops = AlgebraChainOps(mc, h4_adjoint)
    rows = recorded_relations(monkeypatch, lambda: ops.quotient(n))
    assert rows == [sparse(row) for row in symbolic_diagonal_rows(mc, h4_adjoint, n)]
    assert (orbit_rref(rows) is None) == (n == 1)  # rref fallback from n = 1


# -- Kronecker products of leg matrices ----------------------------------------------

nonzero_entries = st.one_of(
    st.integers(-9, 9).filter(bool),
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(2, 6)),
)


@st.composite
def leg_matrices(draw):
    """1 to 4 sparse legs of 1 to 3 rows (one row, as a counit has) and 1 to
    3 columns, each column empty or holding one or more entries."""
    mats, dims = [], []
    for _ in range(draw(st.integers(1, 4))):
        d, ncols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        column = st.dictionaries(st.integers(0, d - 1), nonzero_entries, max_size=d)
        mats.append(draw(st.lists(column, min_size=ncols, max_size=ncols)))
        dims.append(d)
    return mats, dims


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(leg_matrices())
def test_kron_matches_dense_kronecker_product(data):
    mats, dims = data
    out = kron(mats, dims)
    assert as_dense(out, math.prod(dims)) == kronecker([as_dense(m, d) for m, d in zip(mats, dims)])
    assert all(x for col in out for x in col.values())


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=3))
def test_kron_of_unit_legs_indexes_like_tensor_basis(legs):
    # e_{i₀} ⊗ … ⊗ e_{i_k} is the basis tuple of the words at positions
    # i₀, …, i_k, and identity legs give the identity of the tensor basis
    carriers = [
        scalar_space(),
        group_set_module_coalgebra(swap_instance()).coalg,
        build_group_algebra(cyclic_group(3)),
        build_group_algebra(cyclic_group(2)),
    ]
    basis = TensorBasis([carriers[k] for k in legs])
    positions = [{w: i for i, w in enumerate(p.basis_words())} for p in basis.prs]
    for wt, j in basis.index.items():
        units = [[{pos[w]: 1}] for pos, w in zip(positions, wt)]
        assert kron(units, basis.dims) == [{j: 1}]
    ids = [identity_columns(d) for d in basis.dims]
    assert kron(ids, basis.dims) == identity_columns(basis.dim)


def test_images_outside_the_finite_basis_are_refused():
    # the swap set coalgebra cut down to its first point, and Z2 cut down to
    # its unit: g ▹ a = b and S(g)·1 = g leave the bases, so every diagonal
    # action refuses them as the operator columns do
    cmod = group_set_module_coalgebra(swap_instance())
    cmod.coalg.finite_basis = cmod.coalg.finite_basis[:1]
    h = cmod.hopf
    alg = build_group_algebra(cyclic_group(2), name="kG_cut")
    alg.finite_basis = [EMPTY_WORD]
    a_mod = HModuleAlgebra(h, alg, lambda x, a: alg.elt(dict(x.terms)) * a)
    mc = mc_trivial(h)
    bridge = KaygunBridge(mc, cmod, top=0)
    (gw,) = [w for w in bridge.group_words if w]
    # the term is rendered as TensorElt.__str__ renders it, and the message
    # names the carriers of the basis it left
    builds = [
        (lambda: RelativeTensorSpace(CoalgebraOps(mc, cmod), 0), "b", "'CX'"),
        (lambda: bridge.l_matrix(0, gw), "b", "'CX'"),
        (lambda: AlgebraChainOps(mc, a_mod).quotient(0), "g", "'kG_cut'"),
    ]
    for build, term, carriers in builds:
        with pytest.raises(StructureError) as err:
            build()
        assert str(err.value) == f"tensor term {term} outside the finite basis of {carriers}"
    # two legs are joined by ⊗, as in a TensorElt
    (a,) = cmod.coalg.finite_basis
    with pytest.raises(StructureError) as err:
        TensorBasis([cmod.coalg, alg]).coords({(a, EMPTY_WORD): 1, ((Generator("b"),), EMPTY_WORD): 1})
    assert str(err.value) == "tensor term b⊗1 outside the finite basis of 'CX' ⊗ 'kG_cut'"
