"""Coefficient data for equivariant cyclic theory and its condition checkers.

A :class:`ModuleComodule` is a right module, left comodule over a Hopf
presentation.  The checkers verify the stable anti-Yetter-Drinfeld
condition and its relaxations relative to a module coalgebra C or a module
algebra A, modular-pair-in-involution identities, and the coideal quotient
of the bicrossed product.

The anti-Yetter-Drinfeld sides are written once, in :func:`ayd_sides`, and
the stability difference once, in :func:`stability_difference`.  One
checker pushes the H legs of both halves into a module coalgebra C or a
module algebra A by the carrier's ``push``, x ↦ x ▹ c or x ↦ S⁻¹(x) ▹ a,
so SAYD coefficients satisfy every relative condition, not conversely; on
a finite C or A it decides stability in the quotients of :mod:`hopfcyc.cocyclic`.

Every failing check reports the exact (normalized) difference tensor, so
results can be compared term-by-term against expected values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from typing import Callable

from .core import AlgElt, EMPTY_WORD, Memo, TensorElt, tensor
from .errors import PreconditionError
from .hopf import Character, GroupLike, HopfPresentation
from .rewrite import Presentation


def scalar_space(name: str = "scalar") -> Presentation:
    """A one-dimensional carrier spanned by the empty word."""
    return Presentation(name, {}, (), [], finite_basis=[EMPTY_WORD])


@dataclass
class ModuleComodule:
    """A right H-module, left H-comodule carrier.

    ``act(m, h)`` returns m·h in the carrier; ``coact(m)`` returns
    m⟨-1⟩ ⊗ m⟨0⟩ with leg 1 in H and leg 2 in the carrier.
    """

    name: str
    hopf: HopfPresentation
    space: Presentation
    act: Callable[[AlgElt, AlgElt], AlgElt]
    coact: Callable[[AlgElt], TensorElt]

    def basis(self):
        """The carrier's normal words of degree at most 1, indices up to 2."""
        return [self.space.from_word(w) for w in self.space.normal_words(1, 2)]

    def validate(self) -> dict:
        """Module associativity/unit and comodule coassociativity/counit on
        basis elements against normal words of degree and index up to 2."""
        h = self.hopf
        ms = self.basis()
        hs = [h.from_word(w) for w in h.normal_words(2, 2)]
        checks = []

        fails = []
        for m in ms:
            if self.act(m, h.unit()) != m:
                fails.append(f"m={m}")
            for a in hs:
                for b in hs:
                    if self.act(self.act(m, a), b) != self.act(m, a * b):
                        fails.append(f"m={m}, h={a}, h'={b}")
        checks.append({"name": "module axioms", "ok": not fails, "witnesses": fails[:3]})

        fails = []
        for m in ms:
            cm = self.coact(m)
            if cm.leg_apply(1, h.coproduct) != cm.leg_apply(2, self.coact):
                fails.append(f"m={m} (coassociativity)")
            if cm.leg_scalar(1, h.counit) != tensor([m]):
                fails.append(f"m={m} (counit)")
        checks.append({"name": "comodule axioms", "ok": not fails, "witnesses": fails[:3]})

        return {"ok": all(c["ok"] for c in checks), "checks": checks}


def mc_trivial(hopf: HopfPresentation) -> ModuleComodule:
    """The carrier with the counit action and the unit coaction."""
    space = scalar_space("trivial")
    return ModuleComodule(
        "trivial",
        hopf,
        space,
        lambda m, h: m.scale(hopf.counit(h)),
        lambda m: tensor([hopf.unit(), m]),
    )


def mc_regular(hopf: HopfPresentation) -> ModuleComodule:
    """M = H with the multiplication action and the trivial coaction."""
    return ModuleComodule(
        "regular", hopf, hopf, lambda m, h: m * h, lambda m: tensor([hopf.unit(), m])
    )


def mc_conjugation_group(hopf: HopfPresentation, space: Presentation, group) -> ModuleComodule:
    """A group-algebra carrier with the conjugation action m·g = g⁻¹mg and
    the grading coaction; stable anti-Yetter-Drinfeld for any finite group,
    commutative or not.  ``group`` supplies labels and the inverse map."""

    def label(w):
        return group.identity if w == EMPTY_WORD else w[0].name

    def from_label(pres, lab):
        return pres.unit() if lab == group.identity else pres.gen(lab)

    def act(m, h):
        out = space.zero()
        for mw, mc in m.terms.items():
            for hw, hc in h.terms.items():
                g = label(hw)
                conj = group.mult[(group.mult[(group.inverse(g), label(mw))], g)]
                out = out + from_label(space, conj).scale(mc * hc)
        return out

    return ModuleComodule("conjugation", hopf, space, act, mc_graded_group(hopf, space).coact)


def mc_graded_group(hopf: HopfPresentation, space: Presentation) -> ModuleComodule:
    """A group-algebra-graded carrier: trivial action, coaction sending a
    basis word to (the same word read in H) ⊗ itself.  ``space`` must carry
    the same letters as the group algebra ``hopf``."""

    def coact(m):
        out = tensor([hopf.zero(), space.zero()])
        for w, c in m.terms.items():
            out = out + tensor([hopf.from_word(w), space.from_word(w)]).scale(c)
        return out

    return ModuleComodule(
        "graded", hopf, space, lambda m, h: m.scale(hopf.counit(h)), coact
    )


# -- module coalgebras and module algebras ------------------------------------


def _module_axioms(act, hopf: HopfPresentation, hs: list, xs: list, key: str) -> dict:
    """The unit and associativity check of a left H-action ``act`` on the
    samples xs, h and g running over hs; a witness names x under ``key``."""
    fails = []
    for x in xs:
        if act(hopf.unit(), x) != x:
            fails.append(f"{key}={x}")
        for a in hs:
            for b in hs:
                if act(a, act(b, x)) != act(a * b, x):
                    fails.append(f"h={a}, g={b}, {key}={x}")
    return {"name": "module axioms", "ok": not fails, "witnesses": fails[:3]}


@dataclass
class HModuleCoalgebra:
    """A coalgebra C with a left H-action under which Δ_C and ε_C are
    H-equivariant."""

    hopf: HopfPresentation
    coalg: HopfPresentation
    act: Callable[[AlgElt, AlgElt], AlgElt]  # (h, c) -> h ▹ c

    @property
    def space(self) -> HopfPresentation:
        """C, whose normal words sample the relative checks."""
        return self.coalg

    def push(self, c: AlgElt) -> Callable[[AlgElt], AlgElt]:
        """x ↦ x ▹ c: the leg map that carries an H leg into C."""
        return lambda x: self.act(x, c)

    def mpi_sides(self, delta: Character, sigma: GroupLike, h: AlgElt) -> tuple:
        """S_δ²(h) and σhσ⁻¹, which act alike on C for a modular pair in involution."""
        return s_delta(self.hopf, delta, s_delta(self.hopf, delta, h)), sigma.conjugate(h)

    def validate(self) -> dict:
        """Module and module-coalgebra axioms on normal words of degree and
        index up to 2."""
        h, c = self.hopf, self.coalg
        hs = [h.from_word(w) for w in h.normal_words(2, 2)]
        cs = [c.from_word(w) for w in c.normal_words(2, 2)]
        checks = [_module_axioms(self.act, h, hs, cs, "c")]

        fails = []
        for a in hs:
            da = h.coproduct(a)
            for cc in cs:
                lhs = c.coproduct(self.act(a, cc))
                dc = c.coproduct(cc)
                rhs = tensor([c.zero(), c.zero()])
                for (h1, h2), ch in da.terms.items():
                    for (c1, c2), ccf in dc.terms.items():
                        rhs = rhs + tensor(
                            [
                                self.act(h.from_word(h1), c.from_word(c1)),
                                self.act(h.from_word(h2), c.from_word(c2)),
                            ]
                        ).scale(ch * ccf)
                if lhs != rhs:
                    fails.append(f"h={a}, c={cc} (coproduct)")
                if c.counit(self.act(a, cc)) != h.counit(a) * c.counit(cc):
                    fails.append(f"h={a}, c={cc} (counit)")
        checks.append({"name": "module-coalgebra axioms", "ok": not fails, "witnesses": fails[:3]})
        return {"ok": all(ch["ok"] for ch in checks), "checks": checks}


@dataclass
class HModuleAlgebra:
    """An algebra A with a left H-action under which multiplication and the
    unit are H-equivariant."""

    hopf: HopfPresentation
    alg: Presentation
    act: Callable[[AlgElt, AlgElt], AlgElt]  # (h, a) -> h ▹ a

    @property
    def space(self) -> Presentation:
        """A, whose normal words sample the relative checks."""
        return self.alg

    def push(self, a: AlgElt) -> Callable[[AlgElt], AlgElt]:
        """x ↦ S⁻¹(x) ▹ a: the leg map that carries an H leg into A."""
        return lambda x: self.act(self.hopf.inv_antipode(x), a)

    def mpi_sides(self, delta: Character, sigma: GroupLike, h: AlgElt) -> tuple:
        """S_δ⁻²(h) and σ⁻¹hσ, which act alike on A for a modular pair in involution."""
        return s_delta_inv(self.hopf, delta, s_delta_inv(self.hopf, delta, h)), sigma.conjugate_inv(h)

    def validate(self) -> dict:
        """Module and module-algebra axioms on normal words of degree and
        index up to 2."""
        h, alg = self.hopf, self.alg
        hs = [h.from_word(w) for w in h.normal_words(2, 2)]
        xs = [alg.from_word(w) for w in alg.normal_words(2, 2)]
        checks = [_module_axioms(self.act, h, hs, xs, "a")]

        fails = []
        for a in hs:
            da = h.coproduct(a)
            if self.act(a, alg.unit()) != alg.unit().scale(h.counit(a)):
                fails.append(f"h={a} (unit)")
            for x in xs:
                for y in xs:
                    lhs = self.act(a, x * y)
                    rhs = alg.zero()
                    for (h1, h2), ch in da.terms.items():
                        rhs = rhs + (
                            self.act(h.from_word(h1), x) * self.act(h.from_word(h2), y)
                        ).scale(ch)
                    if lhs != rhs:
                        fails.append(f"h={a}, a={x}, b={y}")
        checks.append({"name": "module-algebra axioms", "ok": not fails, "witnesses": fails[:3]})
        return {"ok": all(ch["ok"] for ch in checks), "checks": checks}


# -- twisted antipodes and modular pairs --------------------------------------


def s_delta(hopf: HopfPresentation, delta: Character, h: AlgElt) -> AlgElt:
    """S_δ(h) = δ(h⁽¹⁾) S(h⁽²⁾)."""
    d = hopf.coproduct(h)
    out = hopf.zero()
    for (h1, h2), c in d.terms.items():
        out = out + hopf.antipode(hopf.from_word(h2)).scale(c * delta(hopf.from_word(h1)))
    return out


def s_delta_inv(hopf: HopfPresentation, delta: Character, h: AlgElt) -> AlgElt:
    """S_δ⁻¹(h) = S⁻¹(h⁽¹⁾) δ(h⁽²⁾); the convolution inverse of S_δ."""
    d = hopf.coproduct(h)
    out = hopf.zero()
    for (h1, h2), c in d.terms.items():
        out = out + hopf.inv_antipode(hopf.from_word(h1)).scale(c * delta(hopf.from_word(h2)))
    return out


def inv_antipode_via_twist(hopf: HopfPresentation, delta: Character, h: AlgElt) -> AlgElt:
    """S⁻¹(h) = δ(S(h⁽³⁾)) δ(h⁽¹⁾) S(h⁽²⁾), valid when (δ, 1) is a modular
    pair in involution on the relevant carrier; used as a cross-check."""
    d = hopf.sweedler(h, 3)
    out = hopf.zero()
    for (h1, h2, h3), c in d.terms.items():
        s = delta(hopf.antipode(hopf.from_word(h3))) * delta(hopf.from_word(h1))
        if s:
            out = out + hopf.antipode(hopf.from_word(h2)).scale(c * s)
    return out


def check_mpi(hopf: HopfPresentation, delta: Character, sigma: GroupLike, carrier) -> dict:
    """Modular pair in involution relative to a carrier, which gives the
    two sides of its condition (``carrier.mpi_sides``):

    module coalgebra C (:class:`HModuleCoalgebra`): S_δ²(h) ▹ c = (σ h σ⁻¹) ▹ c;
    module algebra A (:class:`HModuleAlgebra`): S_δ⁻²(h) ▹ a = (σ⁻¹ h σ) ▹ a.

    Both h and c (or a, from ``carrier.space``) run over the normal words
    of degree and index up to 2.
    """
    if delta(sigma.elt) != 1:
        return {"ok": False, "witnesses": ["character is not 1 on the group-like"]}
    h, space = hopf, carrier.space
    hs = [h.from_word(w) for w in h.normal_words(2, 2)]
    cs = [space.from_word(w) for w in space.normal_words(2, 2)]
    fails = []
    for a in hs:
        twisted, conj = carrier.mpi_sides(delta, sigma, a)
        for c in cs:
            lhs = carrier.act(twisted, c)
            rhs = carrier.act(conj, c)
            if lhs != rhs:
                fails.append({"h": str(a), "c": str(c), "difference": str(lhs - rhs)})
    return {"ok": not fails, "witnesses": fails[:3]}


# -- SAYD checks ---------------------------------------------------------------


def ayd_sides(mc: ModuleComodule, m: AlgElt, h: AlgElt) -> tuple:
    """The two sides of the anti-Yetter-Drinfeld condition at (m, h), in
    H ⊗ M: the coaction side (mh)⟨-1⟩ ⊗ (mh)⟨0⟩ and the twisted side
    Σ S(h⁽³⁾) m⟨-1⟩ h⁽¹⁾ ⊗ m⟨0⟩ h⁽²⁾."""
    hp = mc.hopf
    twisted = tensor([hp.zero(), mc.space.zero()])
    cm = mc.coact(m)
    for (h1, h2, h3), ch in hp.sweedler(h, 3).terms.items():
        for (w, m0), cmc in cm.terms.items():
            leg1 = hp.antipode(hp.from_word(h3)) * hp.from_word(w) * hp.from_word(h1)
            leg2 = mc.act(mc.space.from_word(m0), hp.from_word(h2))
            twisted = twisted + tensor([leg1, leg2]).scale(ch * cmc)
    return mc.coact(mc.act(m, h)), twisted


def _sayd_report(ayd_fails: list, st_fails: list) -> dict:
    """The report of an SAYD checker: its compatibility and stability
    halves, at most three witnesses each."""
    return {
        "ok": not ayd_fails and not st_fails,
        "ayd": {"ok": not ayd_fails, "witnesses": ayd_fails[:3]},
        "stability": {"ok": not st_fails, "witnesses": st_fails[:3]},
    }


def check_sayd(mc: ModuleComodule, degree: int = 2, index_bound: int = 2) -> dict:
    """Plain stable anti-Yetter-Drinfeld check: the two sides of
    :func:`ayd_sides` agree, and stability m⟨0⟩ m⟨-1⟩ = m."""
    h = mc.hopf
    ms = mc.basis()
    hs = [h.from_word(w) for w in h.normal_words(degree, index_bound)]
    ayd_fails, st_fails = [], []
    for m in ms:
        for a in hs:
            lhs, rhs = ayd_sides(mc, m, a)
            if lhs != rhs:
                ayd_fails.append({"m": str(m), "h": str(a), "difference": str(lhs - rhs)})
        stab = mc.space.zero()
        for (w, m0), c in mc.coact(m).terms.items():
            stab = stab + mc.act(mc.space.from_word(m0), h.from_word(w)).scale(c)
        if stab != m:
            st_fails.append({"m": str(m), "difference": str(stab - m)})
    return _sayd_report(ayd_fails, st_fails)


def stability_difference(mc: ModuleComodule, carrier, m: AlgElt, chain: tuple) -> TensorElt:
    """m⟨0⟩ ⊗ push(x₀)(m⟨-1⟩⁽¹⁾) ⊗ … ⊗ push(xₙ)(m⟨-1⟩⁽ⁿ⁺¹⁾) − m ⊗ x̃ for a
    chain x̃ = (x₀, …, xₙ) of carrier samples, push = ``carrier.push``."""
    h = mc.hopf
    pushes = [carrier.push(x) for x in chain]
    plain = tensor([m]).outer(tensor(chain))
    left = plain.scale(0)
    for (w, m0), cm in mc.coact(m).terms.items():
        # m⟨-1⟩ acts diagonally on the whole chain
        for legs, ch in h.sweedler(h.from_word(w), len(chain)).terms.items():
            fs = [mc.space.from_word(m0)] + [p(h.from_word(g)) for p, g in zip(pushes, legs)]
            left = left + tensor(fs).scale(cm * ch)
    return left - plain


# chains per n that a relative SAYD check tests for stability
MAX_STABILITY_CHAINS = 64


def _relative_sayd(ops, carrier, key: str, degree: int, index_bound: int, max_chain: int) -> dict:
    """SAYD relative to ``carrier``, a module coalgebra or algebra over
    ``carrier.space``, whose chains ``ops`` builds; both halves push their
    H legs into the carrier by ``carrier.push``.

    Compatibility: the difference of :func:`ayd_sides` at each (m, h),
    pushed at each sample x, vanishes; a witness names x under ``key`` and
    shows the pushed coaction side.  Stability: the
    :func:`stability_difference` of each chain of n + 1 samples, n =
    0..``max_chain``, vanishes, or on finite carriers lies in the relations
    of the degree-n :class:`~hopfcyc.cocyclic.RelativeTensorSpace`, which
    the cohomology divides by (h up to degree and index 2); a witness names
    n, m and the chain.  ``degree`` and ``index_bound`` select the samples
    only.  Over ``MAX_STABILITY_CHAINS`` chains of one degree raise
    :class:`PreconditionError`.
    """
    from .cocyclic import RelativeTensorSpace

    mc, h, space = ops.mc, ops.mc.hopf, carrier.space
    ms = mc.basis()
    hs = [h.from_word(w) for w in h.normal_words(degree, index_bound)]
    xs = [space.from_word(w) for w in space.normal_words(degree, index_bound)]

    ayd_fails = []
    for m in ms:
        for a in hs:
            lhs, rhs = ayd_sides(mc, m, a)
            diff = lhs - rhs
            if diff.is_zero:
                continue
            for x in xs:
                push = carrier.push(x)
                pushed = diff.leg_apply(1, push)
                if not pushed.is_zero:
                    ayd_fails.append(
                        {
                            "m": str(m),
                            "h": str(a),
                            key: str(x),
                            "lhs": str(lhs.leg_apply(1, push)),
                            "difference": str(pushed),
                        }
                    )

    st_fails = []
    finite = mc.space.finite_basis is not None and space.finite_basis is not None
    rels = Memo(lambda n: RelativeTensorSpace(ops, n))
    for n in range(max_chain + 1):
        if len(xs) ** (n + 1) > MAX_STABILITY_CHAINS:
            raise PreconditionError(
                f"{key}h-SAYD stability at n={n} needs {len(xs) ** (n + 1)} chains,"
                f" over the bound of {MAX_STABILITY_CHAINS}; sample fewer chains"
            )
        for chain in iproduct(xs, repeat=n + 1):
            for m in ms:
                diff = stability_difference(mc, carrier, m, chain)
                if diff.is_zero or (finite and not rels[n].quot.project(rels[n].basis.coords(diff.terms))):
                    continue
                chain_str = " ⊗ ".join(map(str, chain))
                st_fails.append({"n": n, "m": str(m), key: chain_str, "difference": str(diff)})
    return _sayd_report(ayd_fails, st_fails)


def check_ch_sayd(
    mc: ModuleComodule,
    c_mod: HModuleCoalgebra,
    degree: int = 2,
    index_bound: int = 2,
    max_chain: int = 2,
) -> dict:
    """SAYD relative to a module coalgebra C, by :func:`_relative_sayd`
    with x ↦ x ▹ c: (mh)⟨-1⟩ c ⊗ (mh)⟨0⟩ = S(h⁽³⁾) m⟨-1⟩ h⁽¹⁾ c ⊗ m⟨0⟩ h⁽²⁾
    on samples, and m⟨0⟩ ⊗ m⟨-1⟩ c̃ − m ⊗ c̃ in the ⊗_H relations on the
    chains of n + 1 sampled c's, n = 0..``max_chain``."""
    from .cocyclic import CoalgebraOps

    ops = CoalgebraOps(mc, c_mod)
    return _relative_sayd(ops, c_mod, "c", degree, index_bound, max_chain)


def check_ah_sayd(
    mc: ModuleComodule, a_mod: HModuleAlgebra, degree: int = 2, index_bound: int = 2
) -> dict:
    """SAYD relative to a module algebra A, by :func:`_relative_sayd` with
    x ↦ S⁻¹(x) ▹ a.  Condition i): S⁻¹((mh)⟨-1⟩) a ⊗ (mh)⟨0⟩ =
    S⁻¹(m⟨-1⟩ h⁽¹⁾) h⁽³⁾ a ⊗ m⟨0⟩ h⁽²⁾, since S⁻¹(S(h⁽³⁾) m⟨-1⟩ h⁽¹⁾) =
    S⁻¹(m⟨-1⟩ h⁽¹⁾) h⁽³⁾.  Condition ii) (stability against H-linear
    functionals): m⟨0⟩ ⊗ S⁻¹(m⟨-1⟩) a − m ⊗ a lies in span{vh − ε(h)v},
    for single samples a (n = 0)."""
    from .cocyclic import AlgebraChainOps

    ops = AlgebraChainOps(mc, a_mod)
    return _relative_sayd(ops, a_mod, "a", degree, index_bound, 0)


# -- coideal quotients ---------------------------------------------------------


def build_coideal_quotient_bicrossed(bc) -> dict:
    """The coideal quotient of H = F ▷◁ U by I = ker(ε ▷◁ id).

    The quotient map φ(f ▷◁ u) = ε(f)u identifies H/I with U; the report
    verifies that φ is a coalgebra map on the normal words of degree and
    index up to 3, that the induced action is (f ▷◁ u)·v = ε(f)uv on
    generators, that S²(Xⁿ) − Xⁿ lies in the kernel for n ≤ 4, and that
    (ε, 1) is a modular pair in involution on the quotient.
    """
    h, u = bc.hopf, bc.mp.u
    checks = []

    fails = []
    for w in h.normal_words(3, 3):
        e = h.from_word(w)
        lhs = u.coproduct(bc.project_u(e))
        rhs = h.coproduct(e).leg_apply(1, bc.project_u).leg_apply(2, bc.project_u)
        if lhs != rhs or u.counit(bc.project_u(e)) != h.counit(e):
            fails.append(str(e))
    checks.append({"name": "quotient map is a coalgebra map", "ok": not fails, "witnesses": fails[:3]})

    fails = []
    hgens = [h.gen(nm) if not fam else h.gen(nm, 1) for nm, fam in h.generators.items()]
    ugens = [u.gen(nm) for nm in u.generators]
    for a in hgens:
        for v in ugens:
            lhs = bc.project_u(a * bc.embed_u(v))
            rhs = bc.project_u(a) * v
            if lhs != rhs:
                fails.append(f"h={a}, v={v}")
    checks.append({"name": "induced action on generators", "ok": not fails, "witnesses": fails[:3]})

    fails = []
    x = h.gen("X")
    xn = h.unit()
    for n in range(1, 5):
        xn = xn * x
        img = bc.project_u(h.antipode(h.antipode(xn)) - xn)
        if not img.is_zero:
            fails.append(f"n={n}: {img}")
    checks.append({"name": "S²(Xⁿ) − Xⁿ in the kernel", "ok": not fails, "witnesses": fails})

    eps = Character(h, {nm: ((lambda k: 0) if fam else 0) for nm, fam in h.generators.items()})
    mpi = check_mpi(h, eps, GroupLike(h, h.unit(), h.unit()), bicrossed_module_coalgebra_u(bc))
    checks.append({"name": "modular pair in involution on the quotient", **mpi})

    return {"ok": all(c["ok"] for c in checks), "checks": checks}


def bicrossed_module_coalgebra_u(bc) -> HModuleCoalgebra:
    """C = U as a module coalgebra over the bicrossed product:
    (f ▷◁ u) ▹ v = ε(f) u v, the induced action on the quotient U."""
    return HModuleCoalgebra(bc.hopf, bc.mp.u, lambda a, v: bc.project_u(a) * v)


def bicrossed_module_algebra_f(bc) -> HModuleAlgebra:
    """A = F as a module algebra over the bicrossed product:
    (f ▷◁ u) ▹ g = ε(f)(u ▹ g)."""
    return HModuleAlgebra(bc.hopf, bc.mp.f, lambda a, g: bc.mp.act(bc.project_u(a), g))


def group_set_module_coalgebra(gs) -> HModuleCoalgebra:
    """The set coalgebra on the points of a finite group action, as a module
    coalgebra over the group algebra."""
    from .instances import build_group_algebra, build_set_coalgebra

    h = build_group_algebra(gs.group)
    c = build_set_coalgebra(gs.points)

    def act(a: AlgElt, x: AlgElt) -> AlgElt:
        out = c.zero()
        for hw, hc in a.terms.items():
            for cw, cc in x.terms.items():
                point = cw[0].name
                for g in reversed(hw):
                    point = gs.action[(g.name, point)]
                out = out + c.gen(point).scale(hc * cc)
        return out

    return HModuleCoalgebra(h, c, act)


# -- the two counterexample evaluations ---------------------------------------


def _counterexample(bc, carrier, key: str, x: AlgElt) -> dict:
    """Both sides of :func:`ayd_sides` for M = H (multiplication action,
    trivial coaction) at m = 1, h = d[1] X, pushed into ``carrier`` at the
    sample x: ``lhs`` is the pushed twisted side, ``rhs`` the pushed
    coaction side."""
    h = bc.hopf
    h_elt = h.gen("d", 1) * h.gen("X")
    m_elt = h.unit()
    coaction_side, twisted = ayd_sides(mc_regular(h), m_elt, h_elt)
    lhs = twisted.leg_apply(1, carrier.push(x))
    rhs = coaction_side.leg_apply(1, carrier.push(x))
    return {
        "h": str(h_elt),
        key: str(x),
        "m": str(m_elt),
        "lhs": str(lhs),
        "rhs": str(rhs),
        "difference": str(lhs - rhs),
        "nonzero": not (lhs - rhs).is_zero,
    }


def counterexample_coalgebra(bc) -> dict:
    """M = H (multiplication action, trivial coaction) is not SAYD relative
    to C = U: at h = d[1] X, c = X, m = 1 the compatibility left side
    S(h⁽³⁾) h⁽¹⁾ ▹ c ⊗ h⁽²⁾ picks up an extra Y X ⊗ d[1]² term."""
    return _counterexample(bc, bicrossed_module_coalgebra_u(bc), "c", bc.mp.u.gen("X"))


def counterexample_algebra(bc) -> dict:
    """M = H (multiplication action, trivial coaction) is not SAYD relative
    to A = F: at h = d[1] X, m = 1, a = d[1] the left side of condition i),
    S⁻¹(h⁽¹⁾) h⁽³⁾ ▹ a ⊗ h⁽²⁾, picks up an extra −d[1] ⊗ d[1]² term."""
    return _counterexample(bc, bicrossed_module_algebra_f(bc), "a", bc.mp.f.gen("d", 1))
