"""Cup products through the convolution algebra Hom_H(C, A).

A module coalgebra C acts on a module algebra A compatibly; H-linear maps
C -> A form the convolution algebra B, cochains pull back along the unital
algebra map χ: A -> B, and the pairing Ψ evaluates an equivariant A-side
cochain against convolution values on a C-side chain.  The cup product
lifts a bidegree (p, q) pair to the diagonal with the Alexander-Whitney
map: the A-side cochain climbs with last cofaces, the C-side chain with
zeroth cofaces, then :func:`psi` on χ of each A-basis word lands the
result in ordinary cochains on A.

Every matrix of :class:`CupData` comes from an
:class:`~hopfcyc.cocyclic.OperatorTable`: that of the A-side cochain
complex, that of the relative C-side complex C_H (whose cofaces and τ are
induced on first read by :class:`~hopfcyc.cocyclic.FiniteComplex`, and
whose ambient zeroth cofaces lift the C-side cocycles), and that of the
chains of A with trivial coefficients (:func:`ordinary_chains`), whose
faces give the coboundary that the "cup closed" check applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional

from .core import AlgElt, TensorElt, _merge_term, tensor
from .coefficients import (
    HModuleAlgebra,
    HModuleCoalgebra,
    ModuleComodule,
    group_set_module_coalgebra,
    mc_graded_group,
    mc_trivial,
)
from .errors import PreconditionError, StructureError
from .instances import (
    GroupData,
    GroupSetData,
    build_function_algebra,
    build_group_algebra,
    cyclic_group,
)
from .linalg import add_columns, identity_columns, mat_vec, nullspace, transpose
from .cocyclic import (
    AlgebraCochainInstance,
    AlgebraChainOps,
    OperatorTable,
    TensorBasis,
    alternating_sum,
    build_coalgebra_instance,
    descent_witness,
)


@dataclass
class CupInstance:
    """A finite group instance of the compatible (C, A) pair: C is the set
    coalgebra on the group with left translation, A the function algebra
    with right-translation action, and c·a evaluated pointwise.
    ``c_pos[w]`` is the position of the word w in the C basis."""

    group: GroupData
    mc: ModuleComodule
    c_mod: HModuleCoalgebra
    a_mod: HModuleAlgebra
    c_on_a: Callable[[AlgElt, AlgElt], AlgElt]

    def __post_init__(self):
        self.c_pos = {w: i for i, w in enumerate(self.c_mod.coalg.basis_words())}


def build_group_cup_instance(
    group: Optional[GroupData] = None, graded: bool = False
) -> CupInstance:
    """``graded`` switches the coefficients from the trivial module to the
    group-graded one (coaction w -> w⊗w, trivial action)."""
    if group is None:
        group = cyclic_group(2)
    gs = GroupSetData(
        group, list(group.elements), {(a, x): group.mult[(a, x)] for a in group.elements for x in group.elements}
    )
    c_mod = group_set_module_coalgebra(gs)
    h = c_mod.hopf
    alg = build_function_algebra(group.elements, name="FunG")

    def translation(label: Callable[[tuple], str]):
        """x . e_z = e_{z x^{-1}}, ``label`` naming the x of a word."""

        def act(a: AlgElt, f: AlgElt) -> AlgElt:
            out = alg.zero()
            for aw, ac in a.terms.items():
                xi = group.inverse(label(aw))
                for fw, fc in f.terms.items():
                    z = fw[0].name[2:]
                    out = out + alg.gen(f"e_{group.mult[(z, xi)]}").scale(ac * fc)
            return out

        return act

    # the empty word is the identity of kG; C's words are single letters,
    # the identity included
    a_mod = HModuleAlgebra(h, alg, translation(lambda w: w[0].name if w else group.identity))
    c_on_a = translation(lambda w: w[0].name)

    if graded:
        mc = mc_graded_group(h, build_group_algebra(group, name="kG_coeff"))
    else:
        mc = mc_trivial(h)
    return CupInstance(group, mc, c_mod, a_mod, c_on_a)


def check_compatible_action(ci: CupInstance) -> dict:
    """The three compatibility conditions: (hc)a = h(ca), the coproduct
    rule c(ab) = (c⁽¹⁾a)(c⁽²⁾b), and c1 = ε(c)1, on the full bases."""
    h = ci.c_mod.hopf
    c = ci.c_mod.coalg
    alg = ci.a_mod.alg
    hs = [h.from_word(w) for w in h.basis_words()]
    cs = c.basis_elts()
    xs = alg.basis_elts()
    fails = []
    for cc in cs:
        if ci.c_on_a(cc, alg.unit()) != alg.unit().scale(c.counit(cc)):
            fails.append(f"unit: c={cc}")
        for a in xs:
            for hh in hs:
                if ci.c_on_a(ci.c_mod.act(hh, cc), a) != ci.a_mod.act(hh, ci.c_on_a(cc, a)):
                    fails.append(f"equivariance: h={hh}, c={cc}, a={a}")
            for b in xs:
                lhs = ci.c_on_a(cc, a * b)
                rhs = alg.zero()
                for (c1, c2), k in c.coproduct(cc).terms.items():
                    rhs = rhs + (
                        ci.c_on_a(c.from_word(c1), a) * ci.c_on_a(c.from_word(c2), b)
                    ).scale(k)
                if lhs != rhs:
                    fails.append(f"product rule: c={cc}, a={a}, b={b}")
    return {"ok": not fails, "witnesses": fails[:3]}


class ConvolutionElt:
    """An H-linear map C -> A on a finite instance, stored columnwise as
    images of the C basis."""

    def __init__(self, ci: CupInstance, images: List[AlgElt], check: bool = True):
        self.ci = ci
        c = ci.c_mod.coalg
        if len(images) != len(c.basis_words()):
            raise StructureError("one image per C basis element required")
        self.images = list(images)
        if check and not self.is_h_linear():
            raise StructureError("map is not H-linear")

    def __call__(self, x: AlgElt) -> AlgElt:
        out = self.ci.a_mod.alg.zero()
        for w, k in x.terms.items():
            out = out + self.image(w).scale(k)
        return out

    def image(self, w) -> AlgElt:
        """The image of the C-basis word ``w``."""
        return self.images[self.ci.c_pos[w]]

    def is_h_linear(self) -> bool:
        h = self.ci.c_mod.hopf
        c = self.ci.c_mod.coalg
        for w in h.basis_words():
            hh = h.from_word(w)
            for cw in c.basis_words():
                moved = self(self.ci.c_mod.act(hh, c.from_word(cw)))
                if moved != self.ci.a_mod.act(hh, self.image(cw)):
                    return False
        return True

    def __eq__(self, other):
        return isinstance(other, ConvolutionElt) and self.images == other.images

    def __hash__(self):
        raise TypeError("unhashable")


def unit_convolution(ci: CupInstance) -> ConvolutionElt:
    """η∘ε, the convolution unit."""
    c = ci.c_mod.coalg
    alg = ci.a_mod.alg
    return ConvolutionElt(
        ci, [alg.unit().scale(c.counit(c.from_word(w))) for w in c.basis_words()]
    )


def convolve(f: ConvolutionElt, g: ConvolutionElt) -> ConvolutionElt:
    """(f∗g)(c) = f(c⁽¹⁾) g(c⁽²⁾)."""
    ci = f.ci
    c = ci.c_mod.coalg
    images = []
    for w in c.basis_words():
        d = c.coproduct(c.from_word(w))
        val = ci.a_mod.alg.zero()
        for (c1, c2), k in d.terms.items():
            val = val + (f.image(c1) * g.image(c2)).scale(k)
        images.append(val)
    return ConvolutionElt(ci, images, check=False)


def chi(ci: CupInstance, a: AlgElt) -> ConvolutionElt:
    """χ(a)(c) = c·a; a unital algebra map A -> Hom_H(C, A)."""
    c = ci.c_mod.coalg
    return ConvolutionElt(ci, [ci.c_on_a(c.from_word(w), a) for w in c.basis_words()])


def convolution_basis(ci: CupInstance) -> List[ConvolutionElt]:
    """A basis of the H-linear maps C -> A, from the nullspace of the
    linearity conditions."""
    c = ci.c_mod.coalg
    alg = ci.a_mod.alg
    cb = c.basis_words()
    ab = alg.basis_words()
    ncols = len(cb) * len(ab)
    h = ci.c_mod.hopf
    rows = []
    # unknowns x[j][k]: coefficient of a-basis k in the image of c-basis j
    for w in h.basis_words():
        hh = h.from_word(w)
        for j, cw in enumerate(cb):
            moved = ci.c_mod.act(hh, c.from_word(cw))  # combination of C basis
            for k, aw in enumerate(ab):
                # condition: f(h c_j) - h . f(c_j) = 0, coefficient of a-basis k
                row = {}
                for jj, cw2 in enumerate(cb):
                    mcoef = moved.coeff(cw2)
                    if mcoef:
                        _merge_term(row, jj * len(ab) + k, mcoef)
                for kk, aw2 in enumerate(ab):
                    img = ci.a_mod.act(hh, alg.from_word(aw2))
                    if img.coeff(aw):
                        _merge_term(row, j * len(ab) + kk, -img.coeff(aw))
                if row:
                    rows.append(row)
    basis = []
    for v in nullspace(rows, ncols):
        images = []
        for j in range(len(cb)):
            images.append(
                alg.elt({ab[k]: v[j * len(ab) + k] for k in range(len(ab)) if j * len(ab) + k in v})
            )
        basis.append(ConvolutionElt(ci, images))
    return basis


def psi(ci: CupInstance, phi: Callable[[TensorElt], Fraction], chain: dict, fs) -> Fraction:
    """Ψ(φ ⊗ m⊗c̃)(f₀⊗…⊗fₙ) = φ(m ⊗ f₀(c₀) ⊗ … ⊗ fₙ(cₙ)), for a chain
    given as a ``{basis tuple: coeff}`` dict."""
    out = Fraction(0)
    for wt, k in chain.items():
        if len(fs) != len(wt) - 1:
            raise PreconditionError("one convolution element per C leg required")
        factors = [ci.mc.space.from_word(wt[0])]
        factors += [f.image(c) for f, c in zip(fs, wt[1:])]
        out += k * phi(tensor(factors))
    return out


# -- the cup product at small bidegrees ---------------------------------------


def ordinary_chains(ci: CupInstance, top: int) -> OperatorTable:
    """The chains of A with trivial coefficients in degrees 0..top, as an
    operator table: the ordinary chains the cup product lands on.  The
    alternating sum of the faces is the Hochschild boundary, and T sends
    a₀⊗…⊗aₙ to aₙ⊗a₀⊗…⊗aₙ₋₁."""
    trivial = mc_trivial(ci.mc.hopf)
    alg = ci.a_mod.alg
    bases = [TensorBasis((trivial.space,) + (alg,) * (n + 1)) for n in range(top + 1)]
    return OperatorTable(AlgebraChainOps(trivial, ci.a_mod), bases)


def ordinary_coboundary(chains: OperatorTable, n: int, f) -> list:
    """f∘b for a cochain ``f`` of degree n on ``chains`` (one value per
    basis tensor), b the alternating sum of the faces out of degree n + 1."""
    b = alternating_sum([chains["face", n + 1, i] for i in range(n + 2)])
    return [sum(f[r] * x for r, x in col.items()) for col in b]


@dataclass
class CupData:
    """Everything needed to cup at bidegrees with p + q <= top: the A-side
    cochain complex, whose ambient faces and T lift and constrain φ; the
    relative complex C_H, whose cofaces and τ cut out the C-side cocycles
    and whose ambient zeroth cofaces lift them, both through top + 1, where
    the coboundary out of the top degree lands; the ordinary chains on A;
    and χ of each A-basis word.  Construction checks the descent of what
    the cup reads on each side, the cofaces (faces) through top + 1 and τ
    (T) through top; no (co)degeneracy is built."""

    ci: CupInstance
    top: int

    def __post_init__(self):
        ci, top = self.ci, self.top
        self.a_inst = AlgebraCochainInstance(ci.mc, ci.a_mod, top + 1)
        self.c_side = build_coalgebra_instance(ci.mc, ci.c_mod, top + 1)
        for side in (self.a_inst, self.c_side):
            for n in range(top + 1):
                side.tau[n]
                for i in range(n + 2):
                    side.coface[n + 1, i]
        self.ordinary = ordinary_chains(ci, top + 1)
        alg = ci.a_mod.alg
        self.chis = {w: chi(ci, alg.from_word(w)) for w in alg.basis_words()}

    # A-side equivariant cocycles, as sparse functionals on the ambient
    # chain basis that vanish on the H-relations; cyclic adds the
    # λ-invariance constraint on top of b-closedness.  φ∘b = 0 and φ∘λ = φ
    # ask that φ vanish on each column of b and of λ − 1.
    def a_side_cocycles(self, p: int, cyclic: bool = True):
        inst, dim = self.a_inst, self.a_inst.bases[p].dim
        rows = list(inst.quots[p].rows)
        rows.extend(alternating_sum([inst.table["face", p + 1, i] for i in range(p + 2)]))
        if cyclic:
            sign = (-1) ** p
            lam = [{r: sign * x for r, x in col.items()} for col in inst.table["t", p]]
            rows.extend(add_columns(lam, identity_columns(dim), -1))
        return nullspace(rows, dim)

    # C-side cocycles in the relative quotient.
    def c_side_cocycles(self, q: int, cyclic: bool = True):
        inst, quot = self.c_side, self.c_side.quots[q]
        rows = transpose(inst.b(q), inst.dims[q + 1])
        if cyclic:
            rows.extend(transpose(add_columns(inst.lam(q), identity_columns(quot.dim), -1), quot.dim))
        kers = nullspace(rows, quot.dim)
        return [quot.include(v) for v in kers]

    def cup(self, phi_row, p: int, z_amb, q: int):
        """AW lift and pairing of the sparse cocycles ``phi_row`` and
        ``z_amb`` (as :meth:`a_side_cocycles` and :meth:`c_side_cocycles`
        return them): φ climbs with the transposed last faces of the A-side
        table and z with the zeroth cofaces of the C-side table, and
        :func:`psi` pairs them on χ of each basis tensor of the ordinary
        chains on A^(p+q+1).  Returns the cup cochain as a functional, one
        value per such basis tensor."""
        n = p + q
        inst = self.a_inst
        row = phi_row
        for k in range(p + 1, n + 1):
            row = mat_vec(transpose(inst.table["face", k, k], inst.bases[k - 1].dim), row)
        z = z_amb
        for k in range(q + 1, n + 1):
            z = mat_vec(self.c_side.table["coface", k, 0], z)
        basis = self.c_side.bases[n]
        chain = {basis.tuples[j]: x for j, x in z.items()}
        phi_basis = inst.bases[n]

        def phi(te):
            return sum(row[r] * x for r, x in phi_basis.coords(te.terms).items() if r in row)

        # the first leg of an ordinary chain is the trivial coefficient
        return [
            psi(self.ci, phi, chain, [self.chis[w] for w in awt[1:]])
            for awt in self.ordinary.bases[n].tuples
        ]


def check_cup_suite(group: Optional[GroupData] = None, top: int = 2, graded: bool = True) -> dict:
    """The full cup battery on a group instance: convolution algebra
    axioms, χ as a unital algebra map, and b(cup) = 0 at all bidegrees
    with p + q <= top for cocycle inputs.  Graded coefficients keep the
    degree-one cocycle spaces nonzero.  A failure names its inputs: the
    convolution basis indices, or the bidegree, the indices of the
    cocycle pair and the nonzero count of b(cup); one witness names every
    operator the cup reads that does not descend."""
    ci = build_group_cup_instance(group, graded=graded)
    checks = []

    rep = check_compatible_action(ci)
    checks.append({"name": "compatible action", **rep})

    basis = convolution_basis(ci)
    unit = unit_convolution(ci)
    fails = []
    for i, f in enumerate(basis):
        if convolve(f, unit) != f or convolve(unit, f) != f:
            fails.append(f"unit: basis {i}")
        for j, g in enumerate(basis):
            for k, h in enumerate(basis):
                if convolve(convolve(f, g), h) != convolve(f, convolve(g, h)):
                    fails.append(f"associativity: basis ({i},{j},{k})")
    checks.append({"name": "convolution algebra", "ok": not fails, "witnesses": fails[:3]})

    alg = ci.a_mod.alg
    fails = []
    if chi(ci, alg.unit()) != unit:
        fails.append("chi(1)")
    for x in alg.basis_elts():
        for y in alg.basis_elts():
            if chi(ci, x * y) != convolve(chi(ci, x), chi(ci, y)):
                fails.append(f"chi multiplicative: {x}, {y}")
    checks.append({"name": "chi algebra map", "ok": not fails, "witnesses": fails[:3]})

    data = CupData(ci, top)
    fails = descent_witness(data.a_inst.welldef_failures + data.c_side.welldef_failures)
    used = {}
    for p in range(top + 1):
        for q in range(top + 1 - p):
            # prefer cyclic cocycles; when the λ-constraint empties the
            # space, Hochschild cocycles still must cup to closed cochains
            phis = data.a_side_cocycles(p)
            phi_kind = "cyclic"
            if not phis:
                phis = data.a_side_cocycles(p, cyclic=False)
                phi_kind = "hochschild"
            zs = data.c_side_cocycles(q)
            z_kind = "cyclic"
            if not zs:
                zs = data.c_side_cocycles(q, cyclic=False)
                z_kind = "hochschild"
            used[f"{p},{q}"] = f"{phi_kind}/{z_kind}"
            if not phis or not zs:
                fails.append(f"no cocycles at bidegree ({p},{q})")
                continue
            for i, phi in enumerate(phis):
                for j, z in enumerate(zs):
                    residual = ordinary_coboundary(data.ordinary, p + q, data.cup(phi, p, z, q))
                    nonzero = sum(1 for x in residual if x)
                    if nonzero:
                        fails.append(f"cup not closed at ({p},{q}): phi {i}, z {j}: {nonzero} nonzero")
    checks.append(
        {"name": "cup closed", "ok": not fails, "witnesses": fails[:5], "inputs": used}
    )

    return {"ok": all(c["ok"] for c in checks), "checks": checks}
