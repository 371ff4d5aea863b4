"""Cocyclic structures for module coalgebras and module algebras.

The coalgebra side works on chains m ⊗ c₀ ⊗ … ⊗ cₙ, the algebra side on
m ⊗ a₀ ⊗ … ⊗ aₙ, the coefficient leg first.  Each side's ops object owns
its ambient basis per degree and its H-relation, taken at a generating set
of H (:func:`generating_words`), and :class:`RelativeTensorSpace` divides
one by the other on either side:
Cⁿ_H(C, M) = M ⊗_H C^⊗(n+1), or the H-coinvariants of M ⊗ A^⊗(n+1), on
which algebra-side cochains are dual vectors and cochain operators are
transposes of the induced chain matrices.

A basis tuple holds one carrier word per leg, 0-based: the coefficient
word at position 0 and cᵢ (or aᵢ) at position i+1, last leg fastest.
Every chain operator is a leg matrix L between identities, up to a
rotation of the legs (Loday, *Cyclic Homology*, §2.5), and the ops object
gives it as one factorization (rotation, p, L), L read at source leg p:
Δ, ε, the product or the unit for every (co)face but the last and every
(co)degeneracy; τ₀ or ∂₁ on (m, c₀), then the new last leg moved to the
end (:func:`move_leg`), for τ_n and the last coface; aₙ moved next to m,
or after a₀, then T₀ or D₁, for T_n and the last face.  Only these four
base legs are evaluated per basis tuple (:func:`op_matrix`, on at most
three legs), each by its own formula read from the coproduct, coaction
and actions, evaluated once per word by a :class:`~hopfcyc.core.Memo`;
:meth:`TensorBasis.coords` refuses any image outside the target basis.
This is sound because presentations are immutable once built.

Every finite instance is one :class:`FiniteComplex`: a quotient per
degree over the bases of an :class:`OperatorTable`, whose operators are
induced on first read by :meth:`~hopfcyc.linalg.Quotient.induced`: Q =
P′ ∘ op for the target projection P′, the descent check, and the induced
matrix.  Q is :func:`~hopfcyc.linalg.compose_local` of P′ with its
columns permuted by the rotation (or followed by the source rotation), so
no ambient operator is built to induce it; the table builds one, the
same route read after the identity, only for a caller that reads it (the
Kaygun commutator identities, the cup product's lifts).  On a
group-algebra instance every leg matrix and projection is monomial, so
every operator is a :data:`~hopfcyc.linalg.Signed` map, one ``int`` per
column; any other, such as those of H4, is
:data:`~hopfcyc.linalg.Columns`.  A consumer checks for descent exactly
what it reads: every operator through the top for :func:`check_cocyclic`;
τ and the cofaces on ℂ𝕄 and C_H for :func:`~hopfcyc.kaygun.check_iso`;
the cofaces through top + 1 and τ through top of both sides of
:class:`~hopfcyc.cup.CupData`.

The diagonal actions of H, which give the relations of both quotients and
L_g, are sums over Sweedler terms of Kronecker products of leg matrices
(:func:`sweedler_sum`, :func:`leg_columns`, :func:`~hopfcyc.linalg.kron`).
Every matrix is sparse, and composed, summed and compared in either
encoding by :func:`~hopfcyc.linalg.compose`,
:func:`~hopfcyc.linalg.combine` and list equality; ranks come from
:func:`~hopfcyc.linalg.rank`, and kernels and reduced relations from
:func:`~hopfcyc.linalg.orbit_rref` when every row has at most two
entries, else from :func:`~hopfcyc.linalg.rref`.

Cyclic cohomology is computed two independent ways: on the subcomplex of
signed τ-invariant cochains, the kernels of 1 − λ, and by
:func:`tot_cohomology` of Connes' (b, B) mixed complex, whose B reads the
codegeneracies (Connes 1985; Loday, *Cyclic Homology*, §2.1); agreement
of the two is part of the test surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product as iproduct
from math import prod
from typing import Callable, Mapping, Optional

from .core import EMPTY_WORD, Memo, TensorElt, _merge_term, tensor, word_str
from .coefficients import HModuleAlgebra, HModuleCoalgebra, ModuleComodule
from .errors import PreconditionError, StructureError
from .linalg import (
    Columns,
    Matrix,
    Quotient,
    Signed,
    SparseRow,
    cohomology_dims,
    columns,
    combine,
    compose,
    compose_local,
    identity,
    kron,
    mat_mul,
    mat_vec,
    nullspace,
    residual_nonzeros,
    transpose,
)


class TensorBasis:
    """Deterministic basis of a tensor product of finite carriers.

    Basis tensors are the tuples of carrier basis words, last leg fastest;
    every such word is its own normal form (checked once, by the
    :class:`~hopfcyc.rewrite.Presentation` that owns the basis), so the
    tuple is the basis tensor itself.  ``dims`` are the leg dimensions.
    """

    def __init__(self, prs):
        self.prs = tuple(prs)
        bases = [p.basis_words() for p in self.prs]
        self.dims = [len(b) for b in bases]
        self.tuples = list(iproduct(*bases))
        self.index = {wt: i for i, wt in enumerate(self.tuples)}
        self.dim = len(self.tuples)

    def coords(self, terms: Mapping) -> SparseRow:
        """Sparse coordinates of a combination of basis tuples, such as the
        image of a chain operator or the ``terms`` of a :class:`TensorElt`."""
        out = {}
        for wt, c in terms.items():
            i = self.index.get(wt)
            if i is None:
                names = " ⊗ ".join(repr(p.name) for p in self.prs)
                raise StructureError(
                    f"tensor term {'⊗'.join(map(word_str, wt))} outside the finite basis of {names}"
                )
            out[i] = c
        return out


def op_matrix(op: Callable[[tuple], Mapping], src: TensorBasis, tgt: TensorBasis) -> Columns:
    """A linear map given on basis tuples, such as a twisted chain operator
    or a leg matrix, as sparse columns (:data:`~hopfcyc.linalg.Columns`):
    column j holds the ``tgt`` coordinates of ``op(src.tuples[j])``, the
    image of basis tuple j as a ``{word tuple: coeff}`` dict."""
    return [tgt.coords(op(wt)) for wt in src.tuples]


def alternating_sum(mats) -> Columns:
    """Σ (-1)^i mats[i], for matrices of one shape in either encoding."""
    return combine([((-1) ** i, m) for i, m in enumerate(mats)], len(mats[0]))


def mismatch(a: Matrix, b: Matrix, label: str) -> list:
    """``["<label>: <k> nonzero"]`` if a and b, of one shape and in either
    encoding, differ in k entries, else ``[]``: the witness of a failed
    matrix identity."""
    k = residual_nonzeros(a, b)
    return [f"{label}: {k} nonzero"] if k else []


def descent_witness(labels: list, where: str = "") -> list:
    """``["not well-defined<where>: <label>, …"]`` naming every operator in
    ``labels`` in one witness, so that no cap on witnesses hides one, or
    ``[]`` if there are none."""
    return [f"not well-defined{where}: {', '.join(labels)}"] if labels else []


# -- leg maps -------------------------------------------------------------------


def leg_columns(f: Callable[[tuple], Mapping], carrier) -> Columns:
    """A linear map of a finite carrier as sparse columns over its basis
    positions: column j holds the coordinates of ``f(w)``, a ``word ->
    coeff`` dict, for the j-th basis word w."""
    basis = TensorBasis((carrier,))
    return [basis.coords({(v,): c for v, c in f(w).items()}) for (w,) in basis.tuples]


def move_leg(dims, q: int, r: int) -> Signed:
    """The permutation of a tensor basis with leg dimensions ``dims``, last
    leg fastest, that moves leg q to position r, as a
    :data:`~hopfcyc.linalg.Signed` map: column j holds the index, plus 1,
    of basis tuple j with its leg q moved to r."""
    order = list(range(len(dims)))
    order.insert(r, order.pop(q))
    stride = {leg: prod(dims[k] for k in order[i + 1 :]) for i, leg in enumerate(order)}
    out = [1]
    for leg, d in enumerate(dims):
        out = [o + x * stride[leg] for o in out for x in range(d)]
    return out


def sweedler_sum(terms: Mapping, legs: Callable[[tuple], list], basis: TensorBasis) -> Matrix:
    """Σ c · kron(legs(w)) over the terms {w: c} of a tensor of H words,
    such as a Sweedler tensor, w holding one word per leg of ``basis``:
    one :func:`~hopfcyc.linalg.kron` per term, summed by
    :func:`~hopfcyc.linalg.combine` into Columns.  A single term with
    c = 1, such as L_g for a group-like g, is returned as its product, a
    signed map on a group algebra; there a sum of several terms, such as a
    ⊗_H relation, has at most one entry per term in each column."""
    prods = [(c, kron(legs(w), basis.dims)) for w, c in terms.items()]
    if len(prods) == 1 and prods[0][0] == 1:
        return prods[0][1]
    return combine(prods, basis.dim)


def chain_bases(space, carrier) -> Memo:
    """n ↦ the degree-n chain basis M ⊗ X^⊗(n+1) over ``space`` (M) and a
    finite carrier X: C for :class:`CoalgebraOps`, A for
    :class:`AlgebraChainOps`."""

    def build(n):
        if space.finite_basis is None or carrier.finite_basis is None:
            raise PreconditionError("chain basis needs finite carriers")
        return TensorBasis((space,) + (carrier,) * (n + 1))

    return Memo(build)


def coefficient_legs(mc: ModuleComodule):
    """The leg maps of the coefficients: ``coact[m]`` = m⟨-1⟩ ⊗ m⟨0⟩ on
    words, and ``act[h]`` the columns of m ↦ m·h on the basis of M."""
    h, sp = mc.hopf, mc.space
    coact = Memo(lambda m: mc.coact(sp.from_word(m)).terms)
    act = Memo(lambda hw: leg_columns(lambda m: mc.act(sp.from_word(m), h.from_word(hw)).terms, sp))
    return coact, act


def generating_words(h) -> list:
    """The nonempty normal words of H of degree and index at most 2 (the
    basis of a finite H), in order, minus each that is a nonzero multiple
    of a product of words kept before it; products grow one kept factor at
    a time while they stay a multiple of one word.  The relations of the
    kept words span those of every word: x·(hk) − ε(hk)x =
    ((x·h)·k − ε(k)(x·h)) + ε(k)(x·h − ε(h)x), and likewise for the ⊗_H
    relation and L_g − ε(g)."""
    words = [w for w in h.normal_words(2, 2) if w != EMPTY_WORD]
    kept, reached = [], set()
    for w in words:
        if w in reached:
            continue
        kept.append(w)
        reached, todo = set(kept), list(kept)
        while todo:
            r = h.from_word(todo.pop())
            for k in kept:
                terms = (r * h.from_word(k)).terms
                if len(terms) == 1 and (p := next(iter(terms))) in words and p not in reached:
                    reached.add(p)
                    todo.append(p)
    return kept


# -- coalgebra-side operators -----------------------------------------------------


@dataclass
class CoalgebraOps:
    """The (para)cocyclic operators on chains m ⊗ c₀ ⊗ … ⊗ cₙ.

    Each is a factorization (:meth:`factor`) into leg matrices.  The base
    legs ∂₁ and τ₀ take one basis tuple (m, c₀) of ``basis[0]`` and return
    its image as a ``{word tuple: coeff}`` dict read from the leg maps
    below, so the coproduct, coaction and actions are evaluated once per
    basis word, for every degree.
    """

    mc: ModuleComodule
    c_mod: HModuleCoalgebra
    chains = False

    def __post_init__(self):
        # the fills close over what they read, not over self, so a dropped
        # CoalgebraOps is freed by reference counting, not by a gc pass
        c_mod, h, c = self.c_mod, self.mc.hopf, self.c_mod.coalg
        self.basis = chain_bases(self.mc.space, c)
        self.coact, self.m_cols = coefficient_legs(self.mc)
        c_act = self.c_act = Memo(lambda k: c_mod.act(h.from_word(k[0]), c.from_word(k[1])).terms)
        self.c_cols = Memo(lambda hw: leg_columns(lambda w: c_act[hw, w], c))
        self.c_cop = Memo(lambda w: c.coproduct(c.from_word(w)).terms)

    @cached_property
    def cop_leg(self) -> Columns:
        """Δ: C → C ⊗ C as a leg matrix."""
        c, cop = self.c_mod.coalg, self.c_cop
        return op_matrix(lambda wt: cop[wt[0]], TensorBasis((c,)), TensorBasis((c, c)))

    @cached_property
    def eps_leg(self) -> Columns:
        """ε: C → k as a leg matrix of one row."""
        c = self.c_mod.coalg
        return [{0: e} if e else {} for e in (c.counit(c.from_word(w)) for w in c.basis_words())]

    @cached_property
    def tau_leg(self) -> Columns:
        """τ₀ on M ⊗ C, by :meth:`tau`."""
        return op_matrix(self.tau, self.basis[0], self.basis[0])

    @cached_property
    def coface_leg(self) -> Columns:
        """∂₁: M ⊗ C → M ⊗ C ⊗ C, by :meth:`coface`."""
        return op_matrix(self.coface, self.basis[0], self.basis[1])

    def factor(self, name: str, n: int, i: Optional[int] = None) -> tuple:
        """(rotation, p, L): operator ``name`` of degree n is rotation ∘
        (I ⊗ L ⊗ I), L read at source leg p, the rotation a
        :func:`move_leg` of the target or None.  ∂_i for i < n is Δ on cᵢ
        and σ_i is ε on cᵢ₊₁; τ_n and ∂_n are τ₀ and ∂₁ on (m, c₀), their
        last leg then moved to the end."""
        if name == "codegeneracy":
            return None, i + 2, self.eps_leg
        if name == "coface" and i < n:
            return None, i + 1, self.cop_leg
        leg, q = (self.tau_leg, 1) if name == "tau" else (self.coface_leg, 2)
        return (move_leg(self.basis[n].dims, q, n + 1) if q <= n else None), 0, leg

    def act_legs(self, w: tuple) -> list:
        """Leg matrices of H words h₀ ⊗ … ⊗ hₙ₊₁ acting on m ⊗ c̃: m·h₀, hᵢ₊₁▹cᵢ."""
        return [self.m_cols[w[0]]] + [self.c_cols[g] for g in w[1:]]

    @cached_property
    def relation_words(self) -> list:
        """:func:`generating_words` of H, for the relations of every degree."""
        return generating_words(self.mc.hopf)

    def relation(self, a, n: int) -> TensorElt:
        """a ⊗ 1 ⊗ … ⊗ 1 − 1 ⊗ Δ⁽ⁿ⁺¹⁾a, by :meth:`act_legs` the ⊗_H relation
        ma ⊗ c̃ − m ⊗ a⁽¹⁾c₀ ⊗ … ⊗ a⁽ⁿ⁺¹⁾cₙ of degree n."""
        h, one = self.mc.hopf, self.mc.hopf.unit()
        return tensor([a] + [one] * (n + 1)) - tensor([one]).outer(h.sweedler(a, n + 1))

    def coface(self, wt: tuple) -> dict:
        """∂₁, the last coface from degree 0: m ⊗ c to m⟨0⟩ ⊗ c⁽²⁾ ⊗ m⟨-1⟩ c⁽¹⁾."""
        out = {}
        for (w, m0), cc in self.coact[wt[0]].items():
            for (c1, c2), cd in self.c_cop[wt[1]].items():
                k = cc * cd
                for a, ca in self.c_act[w, c1].items():
                    _merge_term(out, (m0, c2, a), k * ca)
        return out

    def tau(self, wt: tuple) -> dict:
        """τ₀: m ⊗ c to m⟨0⟩ ⊗ m⟨-1⟩ c."""
        out = {}
        for (w, m0), cc in self.coact[wt[0]].items():
            for a, ca in self.c_act[w, wt[1]].items():
                _merge_term(out, (m0, a), cc * ca)
        return out


class RelativeTensorSpace:
    """``ops.basis[n]`` modulo the columns of ``ops.relation(a, n)`` on the
    legs ``ops.act_legs``: M ⊗_H C^⊗(n+1) over a :class:`CoalgebraOps`, the
    H-coinvariants of M ⊗ A^⊗(n+1) over an :class:`AlgebraChainOps`.  a
    runs over ``ops.relation_words`` (:func:`generating_words`), whose
    relations span those of every word of H; rows go tuple-major: every a
    for basis tuple 0, then for tuple 1, …"""

    def __init__(self, ops, n: int):
        h = ops.mc.hopf
        self.basis = basis = ops.basis[n]
        words = ops.relation_words
        mats = [columns(sweedler_sum(ops.relation(h.from_word(w), n).terms, ops.act_legs, basis)) for w in words]
        self.quot = Quotient([col for cols in zip(*mats) for col in cols], basis.dim)


class OperatorTable(Memo):
    """The operators of one (co)simplicial object, by key, each read
    through its factors and, on first read, kept as an ambient matrix.

    ``table[name, n, i]`` is the i-th (co)face or (co)degeneracy of degree
    n and ``table[name, n]`` the cyclic operator of ``ops``: a
    :class:`CoalgebraOps` (cofaces, codegeneracies and τ) or an
    :class:`AlgebraChainOps` (faces, degeneracies and T, which run the
    other way, as ``ops.chains`` says).  ``bases`` is ``ops.basis``, the
    ambient basis per degree.  ``ops.factor`` gives every operator as a
    rotation and I_a ⊗ L ⊗ I_b, and ``after(p, key)`` composes p through
    them, p ∘ ``table[key]`` with no ambient matrix built.  The ambient
    matrix is the same route read after the identity of the target, a
    :data:`~hopfcyc.linalg.Matrix` in either encoding.
    """

    # (source, target) degree of each operator, relative to its n
    SHIFTS = {
        "coface": (-1, 0), "codegeneracy": (1, 0), "tau": (0, 0),
        "face": (0, -1), "degeneracy": (0, 1), "t": (0, 0),
    }

    def __init__(self, ops):
        bases, chains = ops.basis, ops.chains

        # the closure holds ops and bases but not the table, so a table no
        # longer used is freed at once, not held in a cycle until a gc pass
        def after(p: Matrix, key) -> Matrix:
            """p ∘ ``table[key]`` from the factors of ``ops.factor``, by
            :func:`~hopfcyc.linalg.compose_local` and a column permutation;
            [] for an empty source basis, with no leg dims to divide by."""
            src = bases[OperatorTable.degrees(key)[0]]
            if not src.dim:
                return []
            rot, pos, leg = ops.factor(*key)
            a = prod(src.dims[:pos])
            if rot is not None and not chains:
                p = compose(p, rot)
            q = compose_local(p, a, leg, src.dim // (a * len(leg)))
            return compose(q, rot) if rot is not None and chains else q

        super().__init__(lambda key: after(identity(bases[OperatorTable.degrees(key)[1]].dim), key))
        self.bases, self.chains, self.after = bases, chains, after

    @staticmethod
    def degrees(key) -> tuple:
        s, t = OperatorTable.SHIFTS[key[0]]
        return key[1] + s, key[1] + t


class FiniteComplex:
    """The cocyclic object of a finite instance: in each degree 0..top the
    ambient chain basis ``table.bases[n]`` modulo the relations of
    ``quots[n]``.

    ``coface[n, i]`` (∂_i: n-1 -> n), ``codeg[n, i]`` (σ_i: n+1 -> n) and
    ``tau[n]`` induce their operator on first read by
    :meth:`~hopfcyc.linalg.Quotient.induced` through
    :meth:`OperatorTable.after` and keep the result, a
    :data:`~hopfcyc.linalg.Signed` map when the operator and the target
    projection are, else :data:`~hopfcyc.linalg.Columns`; over a table of
    chain operators they hold the transposes of the induced faces,
    degeneracies and T (signed where no two columns share a row), so
    cofaces raise the degree either way.

    The mixed complex is read off these: :meth:`b`, ``fix[n]`` = 1 − λ_n
    for λ_n = (−1)^n τ_n (Columns, built once per degree and kept), and
    Connes' B (:meth:`connes_b`).
    """

    NAMES = {False: ("coface", "codegeneracy", "tau"), True: ("face", "degeneracy", "t")}

    def __init__(self, table: OperatorTable, quots):
        self.bases = table.bases
        self.chains = chains = table.chains
        self.quots = quots = list(quots)
        self.dims = dims = [q.dim for q in quots]
        self.top = len(quots) - 1
        self.verified = False
        # the memos close over this state, not over self, so a dropped
        # complex is freed by reference counting; induce_all empties the
        # table slot
        self._slot = slot = [table]
        self._failures = failures = {}
        names = self.NAMES[chains]

        def induce(*key) -> Matrix:
            """The matrix of operator ``key`` induced on the quotients (its
            transpose over a chain table), recorded by its label, such as
            ``coface(n,i)`` or ``t(n)``, if it does not descend."""
            src, tgt = OperatorTable.degrees(key)
            m, off = quots[src].induced(key, quots[tgt], slot[0].after)
            if off:
                label = f"{key[0]}({','.join(map(str, key[1:]))})"
                failures[(names.index(key[0]),) + key[1:]] = label
            return transpose(m, dims[tgt]) if chains else m

        fc, fd, ft = names
        self.coface = Memo(lambda k: induce(fc, *k))
        self.codeg = Memo(lambda k: induce(fd, *k))
        tau = self.tau = Memo(lambda n: induce(ft, n))
        self.fix = Memo(lambda n: combine([(1, identity(dims[n])), ((-1) ** (n + 1), tau[n])], dims[n]))

    @property
    def table(self) -> Optional[OperatorTable]:
        """The operator table, until :meth:`induce_all` lets go of it."""
        return self._slot[0]

    @property
    def welldef_failures(self) -> list:
        """The operators read so far that do not descend, in an order that
        does not depend on the reads: cofaces (faces), codegeneracies
        (degeneracies), τ (T), each by degree and index."""
        return [self._failures[k] for k in sorted(self._failures)]

    def induce_all(self) -> None:
        """Induce every operator through the top degree, so that
        ``welldef_failures`` is complete, and let go of the table."""
        for n in range(self.top + 1):
            self.tau[n]
            for i in range(n + 1):
                if n:
                    self.coface[n, i]
                if n < self.top:
                    self.codeg[n, i]
        self._slot[0] = None

    def b(self, n: int) -> Columns:
        """Hochschild coboundary C^n -> C^(n+1) (alternating coface sum)."""
        return alternating_sum([self.coface[n + 1, i] for i in range(n + 2)])

    def connes_b(self, q: int) -> Columns:
        """Connes' B = N σ₋₁ (1 − λ): C^(q+1) -> C^q, σ₋₁ = σ_q τ_(q+1) the
        extra codegeneracy and N = Σₖ λᵏ over k ≤ q, each λᵏ = (−1)^(qk) τᵏ
        a signed power of τ_q."""
        tau, powers = self.tau[q], [identity(self.dims[q])]
        for _ in range(q):
            powers.append(compose(tau, powers[-1]))
        norm = combine([((-1) ** (q * k), p) for k, p in enumerate(powers)], self.dims[q])
        return mat_mul(norm, compose(compose(self.codeg[q, q], self.tau[q + 1]), self.fix[q + 1]))


def relative_complex(ops, top: int) -> FiniteComplex:
    """The cocyclic object of ``ops`` (either side) on its relative
    quotients (:class:`RelativeTensorSpace`) through degree ``top``."""
    return FiniteComplex(OperatorTable(ops), [RelativeTensorSpace(ops, n).quot for n in range(top + 1)])


def build_coalgebra_instance(mc: ModuleComodule, c_mod: HModuleCoalgebra, top: int) -> FiniteComplex:
    """The coalgebra-side cocyclic object on the relative quotients
    Cⁿ_H(C, M) through degree ``top``."""
    return relative_complex(CoalgebraOps(mc, c_mod), top)


def check_cocyclic(inst: FiniteComplex, upto: Optional[int] = None) -> dict:
    """Verify the cosimplicial, mixed and cyclic identities as exact matrix
    equations through degree ``upto``, including τⁿ⁺¹ = id and the
    last-coface factorization ∂_n = τ_n ∘ ∂₀.  Every operator through the
    top degree is checked for descent, whatever ``upto``, and those that
    do not descend are named in one witness.  Both sides of an identity
    are composed by :func:`~hopfcyc.linalg.compose`, on signed maps when
    the operators are, against the identity as a signed map.  A failed
    identity is reported with the number of nonzero entries of its
    residual.  Marks the instance verified on success."""
    inst.induce_all()
    top = inst.top
    upto = top if upto is None else min(upto, top)
    fails = descent_witness(inst.welldef_failures)

    def eq(a, b, label):
        fails.extend(mismatch(a, b, label))

    for n in range(1, upto):
        # cofaces from degree n-1 to n+1
        for i in range(n + 1):
            for j in range(i + 1, n + 2):
                eq(
                    compose(inst.coface[(n + 1, j)], inst.coface[(n, i)]),
                    compose(inst.coface[(n + 1, i)], inst.coface[(n, j - 1)]),
                    f"coface identity ({n},{i},{j})",
                )
    for n in range(upto - 1):
        for i in range(n + 1):
            for j in range(i, n + 1):
                eq(
                    compose(inst.codeg[(n, j)], inst.codeg[(n + 1, i)]),
                    compose(inst.codeg[(n, i)], inst.codeg[(n + 1, j + 1)]),
                    f"codegeneracy identity ({n},{i},{j})",
                )
    for n in range(1, upto):
        ident = identity(inst.dims[n])
        for j in range(n):
            for i in range(n + 2):
                lhs = compose(inst.codeg[(n, j)], inst.coface[(n + 1, i)])
                if i < j:
                    eq(lhs, compose(inst.coface[(n, i)], inst.codeg[(n - 1, j - 1)]), f"mixed ({n},{i},{j})")
                elif i in (j, j + 1):
                    eq(lhs, ident, f"mixed identity ({n},{i},{j})")
                else:
                    eq(lhs, compose(inst.coface[(n, i - 1)], inst.codeg[(n - 1, j)]), f"mixed ({n},{i},{j})")

    for n in range(upto + 1):
        power = ident = identity(inst.dims[n])
        for _ in range(n + 1):
            power = compose(inst.tau[n], power)
        eq(power, ident, f"tau^(n+1) at n={n}")
    for n in range(1, upto + 1):
        eq(
            inst.coface[(n, n)],
            compose(inst.tau[n], inst.coface[(n, 0)]),
            f"last coface = tau.coface0 at n={n}",
        )
        for i in range(1, n + 1):
            eq(
                compose(inst.tau[n], inst.coface[(n, i)]),
                compose(inst.coface[(n, i - 1)], inst.tau[n - 1]),
                f"tau-coface ({n},{i})",
            )
    for n in range(upto - 1):
        for i in range(1, n + 1):
            eq(
                compose(inst.tau[n], inst.codeg[(n, i)]),
                compose(inst.codeg[(n, i - 1)], inst.tau[n + 1]),
                f"tau-codegeneracy ({n},{i})",
            )
        eq(
            compose(inst.tau[n], inst.codeg[(n, 0)]),
            compose(inst.codeg[(n, n)], compose(inst.tau[n + 1], inst.tau[n + 1])),
            f"tau-codegeneracy-0 ({n})",
        )

    ok = not fails
    inst.verified = inst.verified or ok
    return {"ok": ok, "witnesses": fails[:5]}


def tot_cohomology(dims: list, b: list, big_b: list, upto: int) -> list:
    """Cohomology dimensions through degree ``upto`` of the total complex
    of a mixed complex (b, B) (Loday, *Cyclic Homology*, §2.1, Thm 2.1.8):
    Totⁿ = Cⁿ ⊕ Cⁿ⁻² ⊕ … with differential b + B, for ``b[q]``: C^q ->
    C^(q+1) through q = upto and ``big_b[q]``: C^(q+1) -> C^q below it, as
    Columns, ``dims[q]`` = dim C^q through upto + 1.  Its d∘d = 0, that is
    b∘b = 0, bB + Bb = 0 and B∘B = 0, is checked."""

    def tot_diff(n):
        # C^q of Totⁿ goes by b to C^(q+1) at row r and by B to C^(q-1) at
        # row s, the next block of Totⁿ⁺¹
        out, r = [], 0
        for q in range(n, -1, -2):
            s = r + dims[q + 1]
            for up, down in zip(b[q], big_b[q - 1] if q else [{}] * dims[q]):
                col = {r + i: x for i, x in up.items()}
                col.update((s + i, x) for i, x in down.items())
                out.append(col)
            r = s
        return out

    diffs = [tot_diff(n) for n in range(upto + 1)]
    for n in range(upto):
        if any(mat_mul(diffs[n + 1], diffs[n])):
            raise StructureError(f"bicomplex total differential fails d*d = 0 at degree {n}")
    return cohomology_dims(diffs, [sum(dims[n::-2]) for n in range(upto + 1)], upto)


def cyclic_cohomology(inst: FiniteComplex, upto: int) -> dict:
    """Cyclic cohomology dimensions by two independent routes.

    Route one restricts the coboundary b to the signed τ-invariant
    subcomplex, the kernels of 1 − λ.  Route two is
    :func:`tot_cohomology` of Connes' (b, B) mixed complex (Connes,
    *Non-commutative differential geometry*, IHÉS 1985), with B
    :meth:`FiniteComplex.connes_b`.  Refuses unverified instances.
    """
    if not inst.verified:
        raise PreconditionError("cyclic cohomology requires a verified cocyclic instance")
    if inst.top < upto + 1:
        raise PreconditionError("instance too shallow for the requested degree")
    dims = inst.dims
    b = [inst.b(q) for q in range(upto + 1)]

    # route one: b on each kernel vector of 1 − λ
    kernels = [nullspace(transpose(inst.fix[n], dims[n]), dims[n]) for n in range(upto + 1)]
    restricted = [[mat_vec(b[n], v) for v in kernels[n]] for n in range(upto + 1)]
    lam_dims = cohomology_dims(restricted, list(map(len, kernels)), upto)

    # route two: the (b, B) total complex
    bic_dims = tot_cohomology(dims, b, [inst.connes_b(q) for q in range(upto)], upto)

    return {
        "lambda_complex": lam_dims,
        "bicomplex": bic_dims,
        "agree": lam_dims == bic_dims,
    }


# -- algebra-side operators ----------------------------------------------------


@dataclass
class AlgebraChainOps:
    """Chain-level operators on M ⊗ A^⊗(n+1); cochain operators arise as
    transposes of the induced quotient matrices.  As in
    :class:`CoalgebraOps`, each is a factorization (:meth:`factor`), and
    the base legs D₁ and T₀ take one basis tuple (m, a₀, a₁) or (m, a₀) and
    return its image read from leg maps evaluated once per basis word."""

    mc: ModuleComodule
    a_mod: HModuleAlgebra
    chains = True

    def __post_init__(self):
        # as in CoalgebraOps, the fills close over what they read, not over self
        a_mod, h, alg = self.a_mod, self.mc.hopf, self.a_mod.alg
        self.basis = chain_bases(self.mc.space, alg)
        self.coact, self.m_cols = coefficient_legs(self.mc)
        self.mul = Memo(lambda k: (alg.from_word(k[0]) * alg.from_word(k[1])).terms)
        # (h, a) -> S⁻¹(h)a
        self.inv_act = Memo(
            lambda k: a_mod.act(h.inv_antipode(h.from_word(k[0])), alg.from_word(k[1])).terms
        )
        self.s_cols = Memo(
            lambda hw: leg_columns(
                lambda a: a_mod.act(h.antipode(h.from_word(hw)), alg.from_word(a)).terms, alg
            )
        )

    @cached_property
    def mul_leg(self) -> Columns:
        """The product A ⊗ A → A as a leg matrix."""
        alg, mul = self.a_mod.alg, self.mul
        return op_matrix(
            lambda wt: {(p,): x for p, x in mul[wt].items()}, TensorBasis((alg, alg)), TensorBasis((alg,))
        )

    @cached_property
    def unit_leg(self) -> Columns:
        """The unit k → A as a leg matrix of one column."""
        alg = self.a_mod.alg
        return [TensorBasis((alg,)).coords({(u,): x for u, x in alg.unit().terms.items()})]

    @cached_property
    def t_leg(self) -> Columns:
        """T₀ on M ⊗ A, by :meth:`t`."""
        return op_matrix(self.t, self.basis[0], self.basis[0])

    @cached_property
    def face_leg(self) -> Columns:
        """D₁: M ⊗ A ⊗ A → M ⊗ A, by :meth:`face`."""
        return op_matrix(self.face, self.basis[1], self.basis[0])

    def factor(self, name: str, n: int, i: Optional[int] = None) -> tuple:
        """(rotation, p, L): operator ``name`` of degree n is (I ⊗ L ⊗ I) ∘
        rotation, L read at source leg p, the rotation a :func:`move_leg` of
        the source or None.  D_i for i < n multiplies aᵢ and aᵢ₊₁ and S_i
        inserts the unit after aᵢ; T_n and D_n move aₙ next to m, or after
        a₀, then apply T₀ or D₁."""
        if name == "degeneracy":
            return None, i + 2, self.unit_leg
        if name == "face" and i < n:
            return None, i + 1, self.mul_leg
        leg, r = (self.t_leg, 1) if name == "t" else (self.face_leg, 2)
        return (move_leg(self.basis[n].dims, n + 1, r) if r <= n else None), 0, leg

    def face(self, wt: tuple) -> dict:
        """D₁, the last face from degree 1: m ⊗ a₀ ⊗ a₁ to
        m⟨0⟩ ⊗ (S⁻¹(m⟨-1⟩)a₁)a₀."""
        out = {}
        for (w, m0), cc in self.coact[wt[0]].items():
            for t, tc in self.inv_act[w, wt[2]].items():
                k = cc * tc
                for p, pc in self.mul[t, wt[1]].items():
                    _merge_term(out, (m0, p), k * pc)
        return out

    def t(self, wt: tuple) -> dict:
        """T₀: m ⊗ a to m⟨0⟩ ⊗ S⁻¹(m⟨-1⟩)a."""
        out = {}
        for (w, m0), cc in self.coact[wt[0]].items():
            for t, tc in self.inv_act[w, wt[1]].items():
                _merge_term(out, (m0, t), cc * tc)
        return out

    def act_legs(self, w: tuple) -> list:
        """Leg matrices of H words h₀ ⊗ … ⊗ hₙ₊₁ acting on m ⊗ ã: m·h₀, S(hₙ₊₁₋ᵢ)aᵢ."""
        return [self.m_cols[w[0]]] + [self.s_cols[g] for g in reversed(w[1:])]

    @cached_property
    def relation_words(self) -> list:
        """:func:`generating_words` of H, for the relations of every degree."""
        return generating_words(self.mc.hopf)

    def relation(self, a, n: int) -> TensorElt:
        """Δ⁽ⁿ⁺²⁾a − ε(a) 1 ⊗ … ⊗ 1, by :meth:`act_legs` the relation
        xa − ε(a)x of degree n for the diagonal action (m ⊗ ã)h = mh⁽¹⁾ ⊗
        S(h⁽ⁿ⁺²⁾)a₀ ⊗ … ⊗ S(h⁽²⁾)aₙ."""
        h = self.mc.hopf
        return h.sweedler(a, n + 2) - tensor([h.unit()] * (n + 2)).scale(h.counit(a))


class AlgebraCochainInstance(FiniteComplex):
    """The cocyclic object on cochains C^n_H(A, M) of a finite instance.

    Chain quotients divide by span{xh − ε(h)x}; cochain operators are
    transposes of the induced chain matrices, so cofaces raise degree.
    """

    def __init__(self, mc: ModuleComodule, a_mod: HModuleAlgebra, top: int):
        inst = relative_complex(AlgebraChainOps(mc, a_mod), top)
        super().__init__(inst.table, inst.quots)
