"""Coefficient carriers: SAYD checks, modular pairs, the coideal quotient,
and the two compatibility counterexamples."""

from itertools import product as iproduct

from hopfcyc import cocyclic
import pytest

from hopfcyc.coefficients import (
    MAX_STABILITY_CHAINS,
    ModuleComodule,
    ayd_sides,
    build_coideal_quotient_bicrossed,
    check_ah_sayd,
    check_ch_sayd,
    check_mpi,
    check_sayd,
    counterexample_algebra,
    counterexample_coalgebra,
    bicrossed_module_algebra_f,
    bicrossed_module_coalgebra_u,
    inv_antipode_via_twist,
    mc_conjugation_group,
    mc_graded_group,
    mc_regular,
    mc_trivial,
    stability_difference,
)
from hopfcyc.core import AlgElt, Generator, TensorElt, tensor
from hopfcyc.cup import build_group_cup_instance
from hopfcyc.errors import PreconditionError, StructureError
from hopfcyc.hopf import Character, GroupLike
from hopfcyc.instances import build_group_algebra, cyclic_group, modular_character, retag
from hopfcyc.rewrite import Presentation


def test_trivial_carrier_is_sayd(swap_cmod):
    mc = mc_trivial(swap_cmod.hopf)
    assert mc.validate()["ok"]
    assert check_sayd(mc)["ok"]


def test_graded_carrier_is_sayd(swap_cmod):
    h = swap_cmod.hopf
    mc = mc_graded_group(h, build_group_algebra(cyclic_group(2), name="kG_g"))
    assert mc.validate()["ok"]
    assert check_sayd(mc)["ok"]


def test_conjugation_carrier_is_sayd(swap_cmod):
    g = cyclic_group(2)
    mc = mc_conjugation_group(swap_cmod.hopf, build_group_algebra(g, name="kG_c"), g)
    assert check_sayd(mc)["ok"]


def test_s3_conjugation_sayd_s3_graded_not(s3):
    h = build_group_algebra(s3, name="kS3")
    conj = mc_conjugation_group(h, build_group_algebra(s3, name="kS3_c"), s3)
    assert check_sayd(conj)["ok"]
    # grading with trivial action needs S^2-stability, which fails for a
    # noncommutative group
    graded = mc_graded_group(h, build_group_algebra(s3, name="kS3_g"))
    report = check_sayd(graded)
    assert not report["ok"]
    assert report["ayd"]["witnesses"]


def tensor_ayd_yd(m: ModuleComodule, n: ModuleComodule) -> ModuleComodule:
    """M ⊗ N with (m⊗n)h = mh⁽²⁾ ⊗ nh⁽¹⁾ and coaction
    m⊗n ↦ m⟨-1⟩ n⟨-1⟩ ⊗ m⟨0⟩ ⊗ n⟨0⟩, for an anti-Yetter-Drinfeld M and a
    Yetter-Drinfeld N, which makes it anti-Yetter-Drinfeld (Hajac,
    Khalkhali, Rangipour and Sommerhäuser, 2004); finite carriers only."""
    if m.hopf.name != n.hopf.name:
        raise StructureError("carriers over different Hopf presentations")
    if m.space.finite_basis is None or n.space.finite_basis is None:
        raise PreconditionError("tensor product carrier requires finite factors")
    h = m.hopf
    pairs = list(iproduct(m.space.basis_words(), n.space.basis_words()))
    gens = {f"p{i}": False for i in range(len(pairs))}
    space = Presentation(
        "m_tensor_n",
        gens,
        tuple(gens),
        [],
        finite_basis=[(Generator(f"p{i}"),) for i in range(len(pairs))],
    )
    pos = {pair: i for i, pair in enumerate(pairs)}

    def pack(em: AlgElt, en: AlgElt) -> AlgElt:
        terms = {}
        for wm, cm in em.terms.items():
            for wn, cn in en.terms.items():
                w = (Generator(f"p{pos[(wm, wn)]}"),)
                terms[w] = terms.get(w, 0) + cm * cn
        return space.elt(terms)

    def act(e: AlgElt, a: AlgElt) -> AlgElt:
        d = h.coproduct(a)
        out = space.zero()
        for w, c in e.terms.items():
            wm, wn = pairs[int(w[0].name[1:])]
            em, en = m.space.from_word(wm), n.space.from_word(wn)
            for (h1, h2), ch in d.terms.items():
                out = out + pack(
                    m.act(em, h.from_word(h2)), n.act(en, h.from_word(h1))
                ).scale(c * ch)
        return out

    def coact(e: AlgElt) -> TensorElt:
        out = tensor([h.zero()]).outer(tensor([space.zero()]))
        for w, c in e.terms.items():
            wm, wn = pairs[int(w[0].name[1:])]
            cm = m.coact(m.space.from_word(wm))
            cn = n.coact(n.space.from_word(wn))
            for (hm, m0), ccm in cm.terms.items():
                for (hn, n0), ccn in cn.terms.items():
                    out = out + tensor(
                        [
                            h.from_word(hm) * h.from_word(hn),
                            pack(m.space.from_word(m0), n.space.from_word(n0)),
                        ]
                    ).scale(c * ccm * ccn)
        return out

    return ModuleComodule("m_tensor_n", h, space, act, coact)


def test_tensor_of_stable_ayd_and_yd(swap_cmod):
    g = cyclic_group(2)
    h = swap_cmod.hopf
    conj = mc_conjugation_group(h, build_group_algebra(g, name="kG_c"), g)
    graded = mc_graded_group(h, build_group_algebra(g, name="kG_g"))
    assert check_sayd(tensor_ayd_yd(conj, graded))["ok"]


def test_mpi_on_bicrossed_quotient(bicrossed):
    h = bicrossed.hopf
    eps = Character(h, {nm: 0 for nm in h.generators})
    one = GroupLike(h, h.unit(), h.unit())
    report = check_mpi(h, eps, one, bicrossed_module_coalgebra_u(bicrossed))
    assert report["ok"], report


def test_mpi_ah_variant(bicrossed):
    h = bicrossed.hopf
    one = GroupLike(h, h.unit(), h.unit())
    report = check_mpi(
        h, modular_character(h), one, bicrossed_module_algebra_f(bicrossed)
    )
    assert report["ok"], report


def test_coideal_quotient_report(bicrossed):
    report = build_coideal_quotient_bicrossed(bicrossed)
    assert report["ok"], report["checks"]
    names = [c["name"] for c in report["checks"]]
    assert "S²(Xⁿ) − Xⁿ in the kernel" in names


def test_twist_formula_matches_inverse_antipode(h1cop):
    delta = modular_character(h1cop)
    for w in h1cop.normal_words(2, 2):
        e = h1cop.from_word(w)
        assert inv_antipode_via_twist(h1cop, delta, e) == h1cop.inv_antipode(e)


def test_counterexample_coalgebra_exact(bicrossed):
    rep = counterexample_coalgebra(bicrossed)
    assert rep["h"] == "d[1] X"
    assert rep["c"] == "X"
    assert rep["lhs"] == "X⊗d[1] X + Y X⊗d[1] d[1]"
    assert rep["rhs"] == "X⊗d[1] X"
    assert rep["difference"] == "Y X⊗d[1] d[1]"
    assert rep["nonzero"]


def test_counterexample_algebra_exact(bicrossed):
    rep = counterexample_algebra(bicrossed)
    assert rep["h"] == "d[1] X"
    assert rep["a"] == "d[1]"
    assert rep["lhs"] == "d[1]⊗d[1] X - d[1]⊗d[1] d[1]"
    assert rep["rhs"] == "d[1]⊗d[1] X"
    assert rep["difference"] == "-d[1]⊗d[1] d[1]"
    assert rep["nonzero"]


def test_regular_carrier_fails_relative_sayd(bicrossed):
    mc = mc_regular(bicrossed.hopf)
    ch = check_ch_sayd(
        mc, bicrossed_module_coalgebra_u(bicrossed), degree=1, index_bound=1, max_chain=1
    )
    assert not ch["ok"]
    ah = check_ah_sayd(mc, bicrossed_module_algebra_f(bicrossed), degree=1, index_bound=1)
    assert not ah["ok"]


def test_algebra_stability_in_cochain_quotient(s3):
    # the stability differences are nonzero here; they must lie in the
    # degree-0 relation span of the cochain quotient (diagonal action)
    carriers = []
    for g in (cyclic_group(2), cyclic_group(3)):
        ci = build_group_cup_instance(g, graded=True)
        carriers.append((ci.mc, ci.a_mod))
    ci = build_group_cup_instance(s3)
    conj = mc_conjugation_group(ci.c_mod.hopf, build_group_algebra(s3, name="kS3_c"), s3)
    carriers.append((conj, ci.a_mod))
    for mc, a_mod in carriers:
        report = check_ah_sayd(mc, a_mod)
        assert report["stability"]["ok"], report
        assert report["ok"]


def test_coalgebra_stability_finite_branch(swap_cmod, monkeypatch):
    # nonzero stability differences on the swap instance are decided in the
    # relative tensor quotient, built once per chain length; the A side
    # tests chains of one sample, so it builds degree 0 only
    seen = []
    init = cocyclic.RelativeTensorSpace.__init__

    def spy(self, ops, n):
        seen.append(n)
        init(self, ops, n)

    monkeypatch.setattr(cocyclic.RelativeTensorSpace, "__init__", spy)
    g = cyclic_group(2)
    h = swap_cmod.hopf
    for mc in (
        mc_graded_group(h, build_group_algebra(g, name="kG_g")),
        mc_conjugation_group(h, build_group_algebra(g, name="kG_c"), g),
    ):
        seen.clear()
        report = check_ch_sayd(mc, swap_cmod)
        assert report["ok"], report
        assert seen == [0, 1, 2]
    ci = build_group_cup_instance(g, graded=True)
    seen.clear()
    report = check_ah_sayd(ci.mc, ci.a_mod)
    assert report["ok"], report
    assert seen == [0]


def translation_coefficients(h):
    """kZ2 over the group algebra h of Z2, by right translation m·x = mx
    with the grading coaction: not stable, since m⟨0⟩ m⟨-1⟩ = g g = 1 at
    m = g."""
    space = build_group_algebra(cyclic_group(2), name="kG_t")
    return ModuleComodule(
        "translation", h, space, lambda m, x: m * retag(x, space), mc_graded_group(h, space).coact
    )


def test_unstable_coefficients_name_their_chains(swap_cmod):
    # g ⊗ g▹x − g ⊗ x is not a relation on either side; failing chains of
    # one degree tell apart only by the chain they name
    ci = build_group_cup_instance(cyclic_group(2))
    for check, carrier, expected in (
        (
            check_ch_sayd,
            swap_cmod,
            [
                {"n": 0, "m": "g", "c": "a", "difference": "-g⊗a + g⊗b"},
                {"n": 0, "m": "g", "c": "b", "difference": "g⊗a - g⊗b"},
                {"n": 1, "m": "g", "c": "a ⊗ a", "difference": "-g⊗a⊗a + g⊗b⊗b"},
            ],
        ),
        (
            check_ah_sayd,
            ci.a_mod,
            [
                {"n": 0, "m": "g", "a": "e_1", "difference": "-g⊗e_1 + g⊗e_g"},
                {"n": 0, "m": "g", "a": "e_g", "difference": "g⊗e_1 - g⊗e_g"},
            ],
        ),
    ):
        mc = translation_coefficients(carrier.hopf)
        assert not check_sayd(mc)["stability"]["ok"]
        assert check(mc, carrier)["stability"]["witnesses"] == expected


def test_module_carriers_validate(swap_cmod, bicrossed):
    carriers = [
        swap_cmod,
        bicrossed_module_coalgebra_u(bicrossed),
        bicrossed_module_algebra_f(bicrossed),
    ]
    for graded in (False, True):
        ci = build_group_cup_instance(graded=graded)
        assert ci.mc.validate()["ok"]
        carriers += [ci.c_mod, ci.a_mod]
    for carrier in carriers:
        report = carrier.validate()
        assert report["ok"], report
        assert len(report["checks"]) == 2


def test_trivial_coefficients_are_relative_sayd_but_not_sayd(bicrossed):
    # the three categories differ: the trivial pair over F ▷◁ U satisfies
    # both relative conditions (m·h = 0 for h in the augmentation ideal, so
    # both pushed sides vanish) but not the plain one
    mc = mc_trivial(bicrossed.hopf)
    ch = check_ch_sayd(mc, bicrossed_module_coalgebra_u(bicrossed), degree=1, index_bound=1)
    ah = check_ah_sayd(mc, bicrossed_module_algebra_f(bicrossed), degree=1, index_bound=1)
    assert ch["ok"] and ah["ok"], (ch, ah)
    plain = check_sayd(mc, degree=1, index_bound=1)
    assert not plain["ok"]
    assert plain["ayd"]["witnesses"][0] == {"m": "1", "h": "X", "difference": "-d[1]⊗1"}


def test_h4_adjoint_action_tells_s_from_s_inverse(h4, h4_adjoint):
    # a module algebra over H4 can tell S from S⁻¹ in the A-relative condition
    h = h4
    assert len(h.finite_basis) == 4
    x = h.gen("x")
    assert (str(h.antipode(x)), str(h.inv_antipode(x))) == ("-g x", "g x")
    a_mod = h4_adjoint
    assert a_mod.validate()["ok"]
    report = check_ah_sayd(mc_trivial(h), a_mod)
    assert not report["ayd"]["ok"]
    witness = report["ayd"]["witnesses"][0]
    # S in place of S⁻¹ in the push would give +4 g x⊗1
    assert (witness["m"], witness["h"], witness["a"]) == ("1", "x", "g")
    assert witness["difference"] == "-4 g x⊗1"


def oracle_difference(mc, space, m, h, left, right):
    """Σ left((mh)⟨-1⟩) ⊗ (mh)⟨0⟩ − Σ right(h⁽¹⁾, m⟨-1⟩, h⁽³⁾) ⊗ m⟨0⟩ h⁽²⁾
    in ``space`` ⊗ M, written out term by term."""
    hp = mc.hopf
    out = tensor([space.zero(), mc.space.zero()])
    for (w, m0), c in mc.coact(mc.act(m, h)).terms.items():
        out = out + tensor([left(hp.from_word(w)), mc.space.from_word(m0)]).scale(c)
    cm = mc.coact(m)
    for (h1, h2, h3), ch in hp.sweedler(h, 3).terms.items():
        for (w, m0), c in cm.terms.items():
            g = right(hp.from_word(h1), hp.from_word(w), hp.from_word(h3))
            m1 = mc.act(mc.space.from_word(m0), hp.from_word(h2))
            out = out - tensor([g, m1]).scale(ch * c)
    return out


def c_side_oracle(mc, c_mod, m, h, c):
    """(mh)⟨-1⟩ ▹ c ⊗ (mh)⟨0⟩ − Σ S(h⁽³⁾) m⟨-1⟩ h⁽¹⁾ ▹ c ⊗ m⟨0⟩ h⁽²⁾."""
    hp = mc.hopf
    return oracle_difference(
        mc,
        c_mod.coalg,
        m,
        h,
        lambda g: c_mod.act(g, c),
        lambda h1, w, h3: c_mod.act(hp.antipode(h3) * w * h1, c),
    )


def a_side_oracle(mc, a_mod, m, h, a):
    """S⁻¹((mh)⟨-1⟩) ▹ a ⊗ (mh)⟨0⟩ − Σ S⁻¹(m⟨-1⟩ h⁽¹⁾) h⁽³⁾ ▹ a ⊗ m⟨0⟩ h⁽²⁾."""
    hp = mc.hopf
    return oracle_difference(
        mc,
        a_mod.alg,
        m,
        h,
        lambda g: a_mod.act(hp.inv_antipode(g), a),
        lambda h1, w, h3: a_mod.act(hp.inv_antipode(w * h1) * h3, a),
    )


def c_side_stability_oracle(mc, c_mod, m, chain):
    """m⟨0⟩ ⊗ m⟨-1⟩⁽¹⁾ ▹ c₀ ⊗ … ⊗ m⟨-1⟩⁽ⁿ⁺¹⁾ ▹ cₙ − m ⊗ c̃, written out."""
    h, n = mc.hopf, len(chain) - 1
    left = tensor([m]).outer(tensor(chain)).scale(0)
    for (w, m0), cc in mc.coact(m).terms.items():
        # m⟨-1⟩ acts diagonally on the whole chain
        dn = h.sweedler(h.from_word(w), n + 1)
        for legs, ch in dn.terms.items():
            fs = [mc.space.from_word(m0)] + [
                c_mod.act(h.from_word(legs[i]), chain[i]) for i in range(n + 1)
            ]
            left = left + tensor(fs).scale(cc * ch)
    return left - tensor([m]).outer(tensor(chain))


def a_side_stability_oracle(mc, a_mod, m, a):
    """m⟨0⟩ ⊗ S⁻¹(m⟨-1⟩) ▹ a − m ⊗ a, written out."""
    h = mc.hopf
    left = tensor([m, a]).scale(0)
    for (w, m0), c in mc.coact(m).terms.items():
        left = left + tensor(
            [mc.space.from_word(m0), a_mod.act(h.inv_antipode(h.from_word(w)), a)]
        ).scale(c)
    return left - tensor([m, a])


def relative_cases(bicrossed, swap_cmod, s3):
    """(coefficients, carrier, oracle, sample space, degree, index bound):
    the ch-sayd and ah-sayd inputs, the trivial pair over F ▷◁ U, and the
    graded and conjugation carriers over the swap G-set, Z3 and S3."""
    cu = bicrossed_module_coalgebra_u(bicrossed)
    fa = bicrossed_module_algebra_f(bicrossed)
    cases = []
    for mc in (mc_regular(bicrossed.hopf), mc_trivial(bicrossed.hopf)):
        cases.append((mc, cu, c_side_oracle, cu.coalg, 1, 1))
        cases.append((mc, fa, a_side_oracle, fa.alg, 1, 1))
    g = cyclic_group(2)
    for mc in (
        mc_graded_group(swap_cmod.hopf, build_group_algebra(g, name="kG_g")),
        mc_conjugation_group(swap_cmod.hopf, build_group_algebra(g, name="kG_c"), g),
    ):
        cases.append((mc, swap_cmod, c_side_oracle, swap_cmod.coalg, 2, 2))
    for g in (cyclic_group(2), cyclic_group(3), s3):
        ci = build_group_cup_instance(g, graded=True)
        conj = mc_conjugation_group(ci.c_mod.hopf, build_group_algebra(g, name="kG_c"), g)
        for mc in (ci.mc, conj):
            cases.append((mc, ci.c_mod, c_side_oracle, ci.c_mod.coalg, 2, 2))
            cases.append((mc, ci.a_mod, a_side_oracle, ci.a_mod.alg, 2, 2))
    return cases


def test_pushed_ayd_difference_matches_written_out_sides(bicrossed, swap_cmod, s3):
    # the relative conditions push the difference of the plain sides into
    # the carrier; the right sides the checkers once wrote out per carrier
    # must give the same difference on every sample
    for mc, carrier, oracle, space, degree, bound in relative_cases(bicrossed, swap_cmod, s3):
        hp = mc.hopf
        hs = [hp.from_word(w) for w in hp.normal_words(degree, bound)]
        xs = [space.from_word(w) for w in space.normal_words(degree, bound)]
        for m in mc.basis():
            for h in hs:
                lhs, rhs = ayd_sides(mc, m, h)
                for x in xs:
                    pushed = (lhs - rhs).leg_apply(1, carrier.push(x))
                    assert pushed.terms == oracle(mc, carrier, m, h, x).terms, (mc.name, m, h, x)


def test_pushed_stability_difference_matches_written_out_sides(bicrossed, swap_cmod, s3):
    # stability pushes m⟨-1⟩ into the chain as the compatibility half pushes
    # its H leg; the differences the checkers once wrote out per carrier must
    # agree on every chain the checks test: up to n = 2 within the chain
    # bound on C, one sample on A
    for mc, carrier, oracle, space, degree, bound in relative_cases(bicrossed, swap_cmod, s3):
        xs = [space.from_word(w) for w in space.normal_words(degree, bound)]
        if oracle is c_side_oracle:
            fits = max(n for n in range(3) if len(xs) ** (n + 1) <= MAX_STABILITY_CHAINS)
            chains = [ch for n in range(fits + 1) for ch in iproduct(xs, repeat=n + 1)]
            written = c_side_stability_oracle
        else:
            chains = [(x,) for x in xs]
            written = lambda mc, a_mod, m, chain: a_side_stability_oracle(mc, a_mod, m, chain[0])
        for chain in chains:
            for m in mc.basis():
                got = stability_difference(mc, carrier, m, chain)
                assert got.terms == written(mc, carrier, m, chain).terms, (mc.name, m, chain)


def test_sayd_implies_relative_ayd(bicrossed, swap_cmod, s3):
    seen = 0
    for mc, carrier, oracle, space, degree, bound in relative_cases(bicrossed, swap_cmod, s3):
        if not check_sayd(mc, degree=degree, index_bound=bound)["ayd"]["ok"]:
            continue
        seen += 1
        if oracle is c_side_oracle:
            # the longest chains within the bound: n <= 1 on S3's 6 points, else 2
            cs = len(space.normal_words(degree, bound))
            fits = max(n for n in range(3) if cs ** (n + 1) <= MAX_STABILITY_CHAINS)
            report = check_ch_sayd(mc, carrier, degree=degree, index_bound=bound, max_chain=fits)
        else:
            report = check_ah_sayd(mc, carrier, degree=degree, index_bound=bound)
        assert report["ayd"]["ok"], (mc.name, report)
    assert seen


def test_ch_sayd_refuses_chains_over_its_bound(s3):
    # S3 on itself, graded coefficients: 6 points give 6³ = 216 chains at n = 2
    ci = build_group_cup_instance(s3, graded=True)
    with pytest.raises(PreconditionError, match="at n=2 needs 216 chains, over the bound of 64"):
        check_ch_sayd(ci.mc, ci.c_mod)
    assert check_ch_sayd(ci.mc, ci.c_mod, max_chain=1)["stability"]["ok"]
