"""The symbolic route the leg matrices of :mod:`hopfcyc.cup` replaced, kept
as an oracle for the tests.

A convolution element here is a list of images, one
:class:`~hopfcyc.core.AlgElt` of A per C basis word, computed by element
arithmetic: f∗g by summing f(c⁽¹⁾) g(c⁽²⁾) over the coproduct, χ(a) by
evaluating c·a, and the basis of Hom_H(C, A) from linearity rows written
out coefficient by coefficient.  Ψ tensors the images of the convolution
elements leg by leg and reads φ on the result.  :func:`images` turns a
matrix of the package into this form, so the two routes compare as lists.
"""

from __future__ import annotations

from fractions import Fraction

from hopfcyc.core import TensorElt, _merge_term, tensor
from hopfcyc.linalg import columns, mat_vec, nullspace, transpose


def permute(te, order) -> TensorElt:
    """The legs of a tensor reordered; ``order[i]`` is the 0-based source
    leg for slot i."""
    assert sorted(order) == list(range(te.legs)), "invalid leg permutation"
    terms = {}
    for wt, c in te.terms.items():
        _merge_term(terms, tuple(wt[j] for j in order), c)
    return TensorElt(tuple(te.prs[j] for j in order), terms, _normalized=True)


def images(ci, f) -> list:
    """The images of the columns of a C → A matrix, as elements of A."""
    alg = ci.a_mod.alg
    words = alg.basis_words()
    return [alg.elt({words[k]: x for k, x in col.items()}) for col in f]


def c_positions(ci) -> dict:
    """The position of each word in the C basis."""
    return {w: i for i, w in enumerate(ci.c_mod.coalg.basis_words())}


def symbolic_unit(ci) -> list:
    """η∘ε: c ↦ ε(c)1."""
    c = ci.c_mod.coalg
    alg = ci.a_mod.alg
    return [alg.unit().scale(c.counit(c.from_word(w))) for w in c.basis_words()]


def symbolic_convolve(ci, f: list, g: list) -> list:
    """(f∗g)(c) = f(c⁽¹⁾) g(c⁽²⁾)."""
    c = ci.c_mod.coalg
    pos = c_positions(ci)
    out = []
    for w in c.basis_words():
        val = ci.a_mod.alg.zero()
        for (c1, c2), k in c.coproduct(c.from_word(w)).terms.items():
            val = val + (f[pos[c1]] * g[pos[c2]]).scale(k)
        out.append(val)
    return out


def symbolic_chi(ci, a) -> list:
    """χ(a)(c) = c·a."""
    c = ci.c_mod.coalg
    return [ci.c_on_a(c.from_word(w), a) for w in c.basis_words()]


def symbolic_is_h_linear(ci, f: list) -> bool:
    """f(h▹c) = h▹f(c) for every basis word h of H and c of C."""
    h = ci.c_mod.hopf
    c = ci.c_mod.coalg
    pos = c_positions(ci)
    for w in h.basis_words():
        hh = h.from_word(w)
        for cw in c.basis_words():
            moved = ci.a_mod.alg.zero()
            for mw, k in ci.c_mod.act(hh, c.from_word(cw)).terms.items():
                moved = moved + f[pos[mw]].scale(k)
            if moved != ci.a_mod.act(hh, f[pos[cw]]):
                return False
    return True


def symbolic_basis(ci) -> list:
    """A basis of the H-linear maps C -> A, from the nullspace of the
    linearity conditions written out coefficient by coefficient."""
    c = ci.c_mod.coalg
    alg = ci.a_mod.alg
    cb = c.basis_words()
    ab = alg.basis_words()
    h = ci.c_mod.hopf
    rows = []
    # unknowns x[j][k]: coefficient of a-basis k in the image of c-basis j
    for w in h.basis_words():
        hh = h.from_word(w)
        for j, cw in enumerate(cb):
            moved = ci.c_mod.act(hh, c.from_word(cw))
            for k, aw in enumerate(ab):
                # f(h c_j) - h . f(c_j) = 0, coefficient of a-basis k
                row = {}
                for jj, cw2 in enumerate(cb):
                    mcoef = moved.terms.get(cw2, 0)
                    if mcoef:
                        _merge_term(row, jj * len(ab) + k, mcoef)
                for kk, aw2 in enumerate(ab):
                    img = ci.a_mod.act(hh, alg.from_word(aw2))
                    icoef = img.terms.get(aw, 0)
                    if icoef:
                        _merge_term(row, j * len(ab) + kk, -icoef)
                if row:
                    rows.append(row)
    return [
        [
            alg.elt({ab[k]: v[j * len(ab) + k] for k in range(len(ab)) if j * len(ab) + k in v})
            for j in range(len(cb))
        ]
        for v in nullspace(rows, len(cb) * len(ab))
    ]


def symbolic_psi(ci, phi, chain: dict, fs) -> Fraction:
    """Ψ(φ ⊗ m⊗c̃)(f₀⊗…⊗fₙ) = φ(m ⊗ f₀(c₀) ⊗ … ⊗ fₙ(cₙ)), for a chain
    given as a ``{basis tuple: coeff}`` dict and convolution elements
    given by their images."""
    pos = c_positions(ci)
    out = Fraction(0)
    for wt, k in chain.items():
        factors = [ci.mc.space.from_word(wt[0])]
        factors += [f[pos[c]] for f, c in zip(fs, wt[1:])]
        out += k * phi(tensor(factors))
    return out


def symbolic_cup(data, phi_row, p: int, z_amb, q: int) -> list:
    """:meth:`hopfcyc.cup.CupData.cup` by :func:`symbolic_psi` on
    :func:`symbolic_chi` of each A-basis word."""
    ci = data.ci
    n = p + q
    inst = data.a_inst
    row = phi_row
    for k in range(p + 1, n + 1):
        row = mat_vec(transpose(columns(inst.table["face", k, k]), inst.bases[k - 1].dim), row)
    z = z_amb
    for k in range(q + 1, n + 1):
        z = mat_vec(columns(data.c_side.table["coface", k, 0]), z)
    basis = data.c_side.bases[n]
    chain = {basis.tuples[j]: x for j, x in z.items()}
    phi_basis = inst.bases[n]

    def phi(te):
        return sum(row[r] * x for r, x in phi_basis.coords(te.terms).items() if r in row)

    alg = ci.a_mod.alg
    chis = {w: symbolic_chi(ci, alg.from_word(w)) for w in alg.basis_words()}
    # the first leg of an ordinary chain is the trivial coefficient
    return [
        symbolic_psi(ci, phi, chain, [chis[w] for w in awt[1:]])
        for awt in data.ordinary.bases[n].tuples
    ]
