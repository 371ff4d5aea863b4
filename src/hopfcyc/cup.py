"""Cup products through the convolution algebra Hom_H(C, A).

A module coalgebra C acts on a module algebra A compatibly; H-linear maps
C -> A form the convolution algebra B, cochains pull back along the unital
algebra map χ: A -> B, and the pairing Ψ evaluates an equivariant A-side
cochain against convolution values on a C-side chain.  The cup product
lifts a bidegree (p, q) pair to the diagonal with the Alexander-Whitney
map: the A-side cochain climbs with last cofaces, the C-side chain with
zeroth cofaces, then Ψ on χ of each A-basis word lands the result in
ordinary cochains on A.

A convolution element f is a sparse C → A matrix
(:data:`~hopfcyc.linalg.Columns`), column j holding the A coordinates of
f(c_j), and every operation is a product of the leg matrices that
:class:`CupInstance` builds once: f∗g = μ∘(f⊗g)∘Δ with unit η∘ε, χ(a) =
(c·-)∘(I_C ⊗ a) for the action matrix c·-: C ⊗ A → A, and Hom_H(C, A) as
the kernel of f ↦ f∘(h▹_C) − (h▹_A)∘f.  Since χ(a)(c) = c·a, Ψ of a chain
tuple (m, c₀, …, cₙ) on χ of every ordinary chain is φ on the columns of
one Kronecker product e_m ⊗ L(c₀) ⊗ … ⊗ L(cₙ), L(c) the block of c·- at c.

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
from typing import Callable, List, Optional

from .core import AlgElt, Memo
from .coefficients import (
    HModuleAlgebra,
    HModuleCoalgebra,
    ModuleComodule,
    group_set_module_coalgebra,
    mc_graded_group,
    mc_trivial,
)
from .errors import StructureError
from .instances import (
    GroupData,
    GroupSetData,
    build_function_algebra,
    build_group_algebra,
    cyclic_group,
)
from .linalg import F0, Columns, SparseRow, columns, combine, compose, identity, kron, mat_mul, mat_vec, nullspace, transpose
from .cocyclic import (
    AlgebraChainOps,
    CoalgebraOps,
    OperatorTable,
    TensorBasis,
    alternating_sum,
    descent_witness,
    leg_columns,
    op_matrix,
    relative_complex,
)


@dataclass
class CupInstance:
    """A finite group instance of the compatible (C, A) pair: C is the set
    coalgebra on the group with left translation, A the function algebra
    with right-translation action, and c·a evaluated pointwise.

    Its ops objects ``c_ops`` and ``a_ops``, which :class:`CupData` reuses,
    and its leg matrices on carrier basis positions: ``cop`` and ``eps`` (Δ
    and ε of C), ``mul`` and ``unit`` (μ and η of A), ``actions`` (the pair
    h▹ on C, h▹ on A for each basis word h of H) and ``ca`` (c·a as one
    C ⊗ A → A matrix, column c·dA + k for c and A-basis k).  ``dims`` is
    (dim C, dim A)."""

    group: GroupData
    mc: ModuleComodule
    c_mod: HModuleCoalgebra
    a_mod: HModuleAlgebra
    c_on_a: Callable[[AlgElt, AlgElt], AlgElt]

    def __post_init__(self):
        h, c, alg = self.c_mod.hopf, self.c_mod.coalg, self.a_mod.alg
        c_ops = self.c_ops = CoalgebraOps(self.mc, self.c_mod)
        a_ops = self.a_ops = AlgebraChainOps(self.mc, self.a_mod)
        self.dims = len(c.basis_words()), len(alg.basis_words())
        self.cop, self.eps = c_ops.cop_leg, c_ops.eps_leg
        self.mul, self.unit = a_ops.mul_leg, a_ops.unit_leg
        act, c_on_a = self.a_mod.act, self.c_on_a
        self.actions = [
            (c_ops.c_cols[w], leg_columns(lambda a: act(h.from_word(w), alg.from_word(a)).terms, alg))
            for w in h.basis_words()
        ]
        self.ca = op_matrix(
            lambda wt: {(v,): x for v, x in c_on_a(c.from_word(wt[0]), alg.from_word(wt[1])).terms.items()},
            TensorBasis((c, alg)),
            TensorBasis((alg,)),
        )


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


def h_linear(ci: CupInstance, f: Columns) -> Columns:
    """``f`` itself, once checked to be an H-linear map C → A: one column
    per C basis element, and f∘(h▹_C) = (h▹_A)∘f for each basis word h
    of H."""
    if len(f) != ci.dims[0]:
        raise StructureError("one image per C basis element required")
    if any(mat_mul(f, hc) != mat_mul(ha, f) for hc, ha in ci.actions):
        raise StructureError("map is not H-linear")
    return f


def unit_convolution(ci: CupInstance) -> Columns:
    """η∘ε, the convolution unit."""
    return h_linear(ci, mat_mul(ci.unit, ci.eps))


def convolve(ci: CupInstance, f: Columns, g: Columns) -> Columns:
    """f∗g = μ∘(f⊗g)∘Δ, that is (f∗g)(c) = f(c⁽¹⁾) g(c⁽²⁾)."""
    d_a = ci.dims[1]
    return compose(ci.mul, compose(kron([f, g], [d_a, d_a]), ci.cop))


def chi(ci: CupInstance, a: SparseRow) -> Columns:
    """χ(a)(c) = c·a for ``a`` in A coordinates; a unital algebra map
    A → Hom_H(C, A)."""
    d_c, d_a = ci.dims
    return h_linear(ci, compose(ci.ca, kron([identity(d_c), [a]], [d_c, d_a])))


def convolution_basis(ci: CupInstance) -> List[Columns]:
    """A basis of the H-linear maps C → A: the kernel of f ↦ f∘(h▹_C) −
    (h▹_A)∘f over the basis words h of H, whose matrix on the coordinates
    j·dA + k of f (the coefficient of A-basis k in f(c_j)) is
    (h▹_C)ᵀ ⊗ I_A − I_C ⊗ h▹_A."""
    d_c, d_a = ci.dims
    n = d_c * d_a
    rows = []
    for hc, ha in ci.actions:
        acted = kron([transpose(hc, d_c), identity(d_a)], [d_c, d_a])
        cond = combine([(1, acted), (-1, kron([identity(d_c), ha], [d_c, d_a]))], n)
        rows.extend(row for row in transpose(cond, n) if row)
    basis = []
    for v in nullspace(rows, n):
        f = [{} for _ in range(d_c)]
        for i, x in v.items():
            j, k = divmod(i, d_a)
            f[j][k] = x
        basis.append(h_linear(ci, f))
    return basis


# -- the cup product at small bidegrees ---------------------------------------


def ordinary_chains(ci: CupInstance) -> OperatorTable:
    """The chains of A with trivial coefficients, as an operator table:
    the ordinary chains the cup product lands on.  The alternating sum of
    the faces is the Hochschild boundary, and T sends a₀⊗…⊗aₙ to
    aₙ⊗a₀⊗…⊗aₙ₋₁."""
    return OperatorTable(AlgebraChainOps(mc_trivial(ci.mc.hopf), ci.a_mod))


def chain_boundary(chains: OperatorTable, n: int) -> Columns:
    """b out of degree n + 1 of a table of chain operators: the
    alternating sum of its faces."""
    return alternating_sum([chains["face", n + 1, i] for i in range(n + 2)])


def ordinary_coboundary(b: Columns, f) -> list:
    """f∘b for a cochain ``f`` of degree n (one value per basis tensor) and
    b the boundary out of degree n + 1 (:func:`chain_boundary`)."""
    return [sum(f[r] * x for r, x in col.items()) for col in b]


@dataclass
class CupData:
    """Everything needed to cup at bidegrees with p + q <= top: the A-side
    cochain complex, whose ambient faces and T lift and constrain φ; the
    relative complex C_H, whose cofaces and τ cut out the C-side cocycles
    and whose ambient zeroth cofaces lift them, both through top + 1, where
    the coboundary out of the top degree lands; and the ordinary chains on
    A, with ``ordinary_b[n]`` their boundary out of degree n + 1, built on
    first read and kept.  Construction checks the descent of what the cup
    reads on each side, the cofaces (faces) through top + 1 and τ
    (T) through top; no (co)degeneracy is built."""

    ci: CupInstance
    top: int

    def __post_init__(self):
        ci, top = self.ci, self.top
        self.a_inst = relative_complex(ci.a_ops, top + 1)
        self.c_side = relative_complex(ci.c_ops, top + 1)
        for side in (self.a_inst, self.c_side):
            for n in range(top + 1):
                side.tau[n]
                for i in range(n + 2):
                    side.coface[n + 1, i]
        ordinary = self.ordinary = ordinary_chains(ci)
        self.ordinary_b = Memo(lambda n: chain_boundary(ordinary, n))

    # A-side equivariant cocycles, as sparse functionals on the ambient
    # chain basis that vanish on the H-relations; cyclic adds the
    # λ-invariance constraint on top of b-closedness.  φ∘b = 0 and φ∘λ = φ
    # ask that φ vanish on each column of b and of λ − 1.
    def a_side_cocycles(self, p: int, cyclic: bool = True):
        inst, dim = self.a_inst, self.a_inst.bases[p].dim
        rows = list(inst.quots[p].rows)
        rows.extend(chain_boundary(inst.table, p))
        if cyclic:
            rows.extend(combine([((-1) ** p, inst.table["t", p]), (-1, identity(dim))], dim))
        return nullspace(rows, dim)

    # C-side cocycles in the relative quotient.
    def c_side_cocycles(self, q: int, cyclic: bool = True):
        inst, quot = self.c_side, self.c_side.quots[q]
        rows = transpose(inst.b(q), inst.dims[q + 1])
        if cyclic:
            rows.extend(transpose(inst.fix[q], quot.dim))
        kers = nullspace(rows, quot.dim)
        return [quot.include(v) for v in kers]

    def cup(self, phi_row, p: int, z_amb, q: int):
        """AW lift and pairing of the sparse cocycles ``phi_row`` and
        ``z_amb`` (as :meth:`a_side_cocycles` and :meth:`c_side_cocycles`
        return them): φ climbs with the transposed last faces of the A-side
        table and z with the zeroth cofaces of the C-side table, and Ψ
        pairs them on χ of each basis tensor a₀⊗…⊗aₙ of the ordinary chains
        on A^(p+q+1): Σ_j z_j · φ(m ⊗ c₀·a₀ ⊗ … ⊗ cₙ·aₙ) over the chain
        tuples j = (m, c₀, …, cₙ), read off the columns of e_m ⊗ L(c₀) ⊗ …
        ⊗ L(cₙ), which run over the ordinary chains in basis order (their
        trivial coefficient has one basis word).  Returns the cup cochain as
        a functional, one value per such basis tensor."""
        n = p + q
        inst = self.a_inst
        row = phi_row
        for k in range(p + 1, n + 1):
            row = mat_vec(transpose(columns(inst.table["face", k, k]), inst.bases[k - 1].dim), row)
        z = z_amb
        for k in range(q + 1, n + 1):
            z = mat_vec(columns(self.c_side.table["coface", k, 0]), z)
        d_a = self.ci.dims[1]
        blocks = [self.ci.ca[o : o + d_a] for o in range(0, len(self.ci.ca), d_a)]
        c_dims = self.c_side.bases[n].dims[::-1]
        out = [F0] * self.ordinary.bases[n].dim
        for j, x in z.items():
            legs = []
            for d in c_dims:
                j, r = divmod(j, d)
                legs.append(r)
            m, *cs = legs[::-1]
            paired = columns(kron([[{m: 1}]] + [blocks[c] for c in cs], inst.bases[n].dims))
            for t, col in enumerate(paired):
                out[t] += x * sum(row[r] * y for r, y in col.items() if r in row)
        return out


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
    products = [[convolve(ci, f, g) for g in basis] for f in basis]
    fails = []
    for i, f in enumerate(basis):
        if convolve(ci, f, unit) != f or convolve(ci, unit, f) != f:
            fails.append(f"unit: basis {i}")
        for j, fg in enumerate(products[i]):
            for k, h in enumerate(basis):
                if convolve(ci, fg, h) != convolve(ci, f, products[j][k]):
                    fails.append(f"associativity: basis ({i},{j},{k})")
    checks.append({"name": "convolution algebra", "ok": not fails, "witnesses": fails[:3]})

    fails = []
    if chi(ci, ci.unit[0]) != unit:
        fails.append("chi(1)")
    # the product of A-basis words i and j is column i·dA + j of μ
    xs = ci.a_mod.alg.basis_elts()
    chis = [chi(ci, {k: 1}) for k in range(len(xs))]
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            if chi(ci, ci.mul[i * len(xs) + j]) != convolve(ci, chis[i], chis[j]):
                fails.append(f"chi multiplicative: {x}, {y}")
    checks.append({"name": "chi algebra map", "ok": not fails, "witnesses": fails[:3]})

    data = CupData(ci, top)
    fails = descent_witness(data.a_inst.welldef_failures + data.c_side.welldef_failures)

    # each degree's cocycles once: cyclic where the λ-constraint leaves
    # some, else Hochschild cocycles, which still must cup to closed cochains
    def cocycles(solve, n):
        found = solve(n)
        return (found, "cyclic") if found else (solve(n, cyclic=False), "hochschild")

    a_side = [cocycles(data.a_side_cocycles, p) for p in range(top + 1)]
    c_side = [cocycles(data.c_side_cocycles, q) for q in range(top + 1)]
    used = {}
    for p in range(top + 1):
        for q in range(top + 1 - p):
            (phis, phi_kind), (zs, z_kind) = a_side[p], c_side[q]
            used[f"{p},{q}"] = f"{phi_kind}/{z_kind}"
            if not phis or not zs:
                fails.append(f"no cocycles at bidegree ({p},{q})")
                continue
            for i, phi in enumerate(phis):
                for j, z in enumerate(zs):
                    residual = ordinary_coboundary(data.ordinary_b[p + q], data.cup(phi, p, z, q))
                    nonzero = sum(1 for x in residual if x)
                    if nonzero:
                        fails.append(f"cup not closed at ({p},{q}): phi {i}, z {j}: {nonzero} nonzero")
    checks.append(
        {"name": "cup closed", "ok": not fails, "witnesses": fails[:5], "inputs": used}
    )

    return {"ok": all(c["ok"] for c in checks), "checks": checks}
