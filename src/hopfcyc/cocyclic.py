"""Cocyclic structures for module coalgebras and module algebras.

The coalgebra side works on chains m ⊗ c₀ ⊗ … ⊗ cₙ with the coefficient
leg first; the equivariant space Cⁿ_H(C, M) is the quotient of the ambient
tensor space by the ⊗_H relations, built only by :class:`RelativeTensorSpace`.
The algebra side builds the chain-level operators on M ⊗ A^⊗(n+1); cochains
are dual vectors on the H-coinvariant quotient and cochain operators are
transposes of the induced chain matrices.

Every finite instance is one :class:`FiniteComplex`: a quotient per
degree over the bases of an :class:`OperatorTable`, whose operators are
induced on first read by one pipeline (:meth:`FiniteComplex.induce`)
that takes the ambient matrix from the table, checks that it descends to
the quotients and induces it there.  The table builds each ambient matrix
once, on first use, and complexes over the same bases share it.  So a
consumer checks for descent exactly what it reads: every operator through
the top for :func:`check_cocyclic`; τ and the cofaces on ℂ𝕄 and C_H for
:func:`~hopfcyc.kaygun.check_iso`; the cofaces through top + 1 and τ
through top of both sides of :class:`~hopfcyc.cup.CupData`.

Chain operators are evaluated on basis tuples from leg maps: the
coproduct, coaction and actions of the carriers, each evaluated once per
word by a :class:`LegMap` and kept by the operator object.  A basis tuple
holds one carrier word per leg, 0-based: the coefficient word at position
0 and cᵢ (or aᵢ) at position i+1.  An operator takes one tuple and returns
its image as a ``{word tuple: coeff}`` dict, with no
:class:`~hopfcyc.core.TensorElt` in between; :meth:`TensorBasis.coords`
refuses any image outside the target basis.  This is sound because
presentations are immutable once built (their rules are fixed, which is
also why ``Presentation.from_word`` is memoized) and the maps are linear.
:func:`op_matrix` returns an operator as sparse columns
(:data:`~hopfcyc.linalg.Columns`: column j is a ``dict[row] -> entry``
without zero entries).  The diagonal actions of H, which give the
relations of both quotients and L_g, are sums over Sweedler terms of
Kronecker products (:func:`sweedler_sum`, :func:`kron`) of leg matrices
on carrier basis positions (:func:`leg_columns`), with no word tuple built
or hashed.  Every matrix from there on stays in that one format: products
are :func:`~hopfcyc.linalg.mat_mul`, equations are list equality, ranks
and kernels come from :func:`~hopfcyc.linalg.rref`, and the reduced
relations of a quotient from :func:`~hopfcyc.linalg.orbit_rref` when every
relation row has at most two entries (as on every group-algebra instance).

Cyclic cohomology is computed two independent ways: on the subcomplex of
signed τ-invariant cochains, and through a truncated cyclic bicomplex;
agreement of the two is part of the test surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product as iproduct
from typing import Callable, Mapping, Optional

from .core import EMPTY_WORD, ONE, TensorElt, _merge_term, tensor, word_str
from .coefficients import HModuleAlgebra, HModuleCoalgebra, ModuleComodule
from .errors import PreconditionError, StructureError
from .linalg import (
    Columns,
    Quotient,
    SparseRow,
    add_columns,
    add_multiple,
    cohomology_dims,
    identity_columns,
    mat_mul,
    mat_vec,
    nullspace,
    rank,
    transpose,
)


class TensorBasis:
    """Deterministic basis of a tensor product of finite carriers.

    Basis tensors are the tuples of carrier basis words, last leg fastest;
    every such word must be its own normal form (checked once, here), so
    the tuple is the basis tensor itself.  ``dims`` are the leg dimensions.
    """

    def __init__(self, prs):
        self.prs = tuple(prs)
        for p in {id(p): p for p in self.prs}.values():
            for w in p.basis_words():
                if p.normalize_terms({w: ONE}) != {w: ONE}:
                    raise StructureError(
                        f"basis word {word_str(w)} of {p.name!r} is not in normal form"
                    )
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
    """A linear chain operator as sparse columns (:data:`~hopfcyc.linalg.Columns`):
    column j holds the ``tgt`` coordinates of ``op(src.tuples[j])``, the
    image of basis tuple j as a ``{word tuple: coeff}`` dict."""
    return [tgt.coords(op(wt)) for wt in src.tuples]


def alternating_sum(mats) -> Columns:
    """Σ (-1)^i mats[i], for matrices of one shape."""
    out = [{} for _ in mats[0]]
    for i, m in enumerate(mats):
        for acc, col in zip(out, m):
            add_multiple(acc, (-1) ** i, col)
    return out


def mismatch(a: Columns, b: Columns, label: str) -> list:
    """``["<label>: <k> nonzero"]`` if a and b, of one shape, differ in k
    entries, else ``[]``: the witness of a failed matrix identity."""
    return [f"{label}: {sum(map(len, add_columns(a, b, -1)))} nonzero"] if a != b else []


def descent_witness(labels: list, where: str = "") -> list:
    """``["not well-defined<where>: <label>, …"]`` naming every operator in
    ``labels`` in one witness, so that no cap on witnesses hides one, or
    ``[]`` if there are none."""
    return [f"not well-defined{where}: {', '.join(labels)}"] if labels else []


# -- leg maps -------------------------------------------------------------------


class LegMap(dict):
    """A map evaluated once per argument, such as a structure map of one
    carrier, or the induced operators of a :class:`FiniteComplex`.

    ``leg_map[key]`` calls ``f(key)`` on the first lookup and keeps the
    result: a ``word -> coeff`` dict (keyed by word pairs for a coaction or
    coproduct), a scalar for a counit, or a :func:`leg_columns` matrix.  Keys
    are normal words, or tuples of them, of immutable presentations, and the
    maps are linear, so operators built from leg maps equal the symbolic ones.
    """

    __slots__ = ("f",)

    def __init__(self, f: Callable):
        super().__init__()
        self.f = f

    def __missing__(self, key):
        val = self[key] = self.f(key)
        return val


def leg_columns(f: Callable[[tuple], Mapping], carrier) -> Columns:
    """A linear map of a finite carrier as sparse columns over its basis
    positions: column j holds the coordinates of ``f(w)``, a ``word ->
    coeff`` dict, for the j-th basis word w."""
    basis = TensorBasis((carrier,))
    return [basis.coords({(v,): c for v, c in f(w).items()}) for (w,) in basis.tuples]


def kron(mats, dims) -> Columns:
    """A₀ ⊗ … ⊗ A_k as sparse columns, leg i having ``dims[i]`` rows, last
    leg fastest as in :class:`TensorBasis`: row r·d + s pairs row r of the
    legs before with row s of a leg of d rows.  Stores no zero entry."""
    out = [{0: 1}]
    for a, d in zip(mats, dims):
        out = [
            {r * d + s: x * y for r, x in col.items() for s, y in leg.items()}
            for col in out
            for leg in a
        ]
    return out


def sweedler_sum(terms: Mapping, legs: Callable[[tuple], list], basis: TensorBasis) -> Columns:
    """Σ c · kron(legs(w)) over the terms {w: c} of a tensor of H words,
    such as a Sweedler tensor, w holding one word per leg of ``basis``."""
    out = [{} for _ in range(basis.dim)]
    for w, c in terms.items():
        for acc, col in zip(out, kron(legs(w), basis.dims)):
            add_multiple(acc, c, col)
    return out


def diagonal_quotient(basis: TensorBasis, h, relations: Callable) -> Quotient:
    """``basis`` modulo the columns of ``relations(a)``, a over the nonempty
    normal words of H of degree and index at most 2, as rows in tuple-major
    order: every a for basis tuple 0, then every a for tuple 1, …"""
    mats = [relations(h.from_word(w)) for w in h.normal_words(2, 2) if w != EMPTY_WORD]
    return Quotient([col for cols in zip(*mats) for col in cols], basis.dim)


def coefficient_legs(mc: ModuleComodule):
    """The leg maps of the coefficients: ``coact[m]`` = m⟨-1⟩ ⊗ m⟨0⟩ on
    words, and ``act[h]`` the columns of m ↦ m·h on the basis of M."""
    h, sp = mc.hopf, mc.space
    coact = LegMap(lambda m: mc.coact(sp.from_word(m)).terms)
    act = LegMap(lambda hw: leg_columns(lambda m: mc.act(sp.from_word(m), h.from_word(hw)).terms, sp))
    return coact, act


# -- coalgebra-side operators -----------------------------------------------------


@dataclass
class CoalgebraOps:
    """The (para)cocyclic operators on chains m ⊗ c₀ ⊗ … ⊗ cₙ.

    Each operator takes one basis tuple (m, c₀, …, cₙ), with M at position
    0 and cᵢ at position i+1, and returns its image as a ``{word tuple:
    coeff}`` dict read from the leg maps below, so the coproduct, coaction
    and actions are evaluated once per basis word, for every degree.
    """

    mc: ModuleComodule
    c_mod: HModuleCoalgebra

    def __post_init__(self):
        h, c = self.mc.hopf, self.c_mod.coalg
        self.coact, self.m_cols = coefficient_legs(self.mc)
        self.c_act = LegMap(lambda k: self.c_mod.act(h.from_word(k[0]), c.from_word(k[1])).terms)
        self.c_cols = LegMap(lambda hw: leg_columns(lambda w: self.c_act[hw, w], c))
        self.c_cop = LegMap(lambda w: c.coproduct(c.from_word(w)).terms)
        self.c_eps = LegMap(lambda w: c.counit(c.from_word(w)))

    def act_legs(self, w: tuple) -> list:
        """Leg matrices of H words h₀ ⊗ … ⊗ hₙ₊₁ acting on m ⊗ c̃: m·h₀, hᵢ₊₁▹cᵢ."""
        return [self.m_cols[w[0]]] + [self.c_cols[g] for g in w[1:]]

    def coface(self, n: int, i: int, wt: tuple) -> dict:
        """∂_i: degree n-1 chains to degree n chains, 0 <= i <= n."""
        if i < n:
            head, tail = wt[: i + 1], wt[i + 2 :]
            return {head + pair + tail: cd for pair, cd in self.c_cop[wt[i + 1]].items()}
        # last coface: m⟨0⟩ ⊗ c₀⁽²⁾ ⊗ c₁ ⊗ … ⊗ m⟨-1⟩ c₀⁽¹⁾
        out = {}
        mids = wt[2:]
        for (w, m0), cc in self.coact[wt[0]].items():
            for (c1, c2), cd in self.c_cop[wt[1]].items():
                k = cc * cd
                for a, ca in self.c_act[w, c1].items():
                    _merge_term(out, (m0, c2) + mids + (a,), k * ca)
        return out

    def codegeneracy(self, n: int, i: int, wt: tuple) -> dict:
        """σ_i: degree n+1 chains to degree n chains, 0 <= i <= n; applies
        the counit at position i+1, matching the coface insertion index."""
        e = self.c_eps[wt[i + 2]]
        return {wt[: i + 2] + wt[i + 3 :]: e} if e else {}

    def tau(self, n: int, wt: tuple) -> dict:
        """τ_n: m ⊗ c̃ to m⟨0⟩ ⊗ c₁ ⊗ … ⊗ cₙ ⊗ m⟨-1⟩ c₀."""
        out = {}
        mids = wt[2:]
        for (w, m0), cc in self.coact[wt[0]].items():
            for a, ca in self.c_act[w, wt[1]].items():
                _merge_term(out, (m0,) + mids + (a,), cc * ca)
        return out


class RelativeTensorSpace:
    """M ⊗_H C^⊗(n+1) for a finite instance: the quotient of the ambient
    basis by the relations mh ⊗ c̃ − m ⊗ h⁽¹⁾c₀ ⊗ … ⊗ h⁽ⁿ⁺¹⁾cₙ, one per
    basis tensor and h, built per h as (m ↦ mh) ⊗ id ⊗ … ⊗ id −
    Σ id ⊗ h⁽¹⁾▹ ⊗ … ⊗ h⁽ⁿ⁺¹⁾▹ from the leg matrices of ``ops``, the
    instance's one :class:`CoalgebraOps`."""

    def __init__(self, ops: CoalgebraOps, n: int):
        mc, c, h = ops.mc, ops.c_mod.coalg, ops.mc.hopf
        if mc.space.finite_basis is None or c.finite_basis is None:
            raise PreconditionError("relative tensor quotient needs finite carriers")
        self.n = n
        self.basis = TensorBasis((mc.space,) + (c,) * (n + 1))
        one = h.unit()

        def relations(a):  # a ⊗ 1 ⊗ … ⊗ 1 − 1 ⊗ Δ⁽ⁿ⁺¹⁾a, acting on m ⊗ c̃
            rel = tensor([a] + [one] * (n + 1)) - tensor([one]).outer(h.sweedler(a, n + 1))
            return sweedler_sum(rel.terms, ops.act_legs, self.basis)

        self.quot = diagonal_quotient(self.basis, h, relations)

    @property
    def dim(self):
        return self.quot.dim

    def contains(self, te: TensorElt) -> bool:
        return self.quot.contains_in_relations(self.basis.coords(te.terms))


class OperatorTable(dict):
    """The ambient matrices of the operators of one (co)simplicial object,
    built by :func:`op_matrix` on first use and kept.

    ``table[name, n, i]`` is the i-th (co)face or (co)degeneracy of degree
    n and ``table[name, n]`` the cyclic operator, ``name`` being the method
    of ``ops`` that evaluates it: a :class:`CoalgebraOps` (cofaces,
    codegeneracies and τ), or with ``chains`` an :class:`AlgebraChainOps`
    (faces, degeneracies and T, which run the other way).  ``bases[n]`` is
    the ambient basis in degree n.
    """

    # (source, target) degree of each operator, relative to its n
    SHIFTS = {
        "coface": (-1, 0), "codegeneracy": (1, 0), "tau": (0, 0),
        "face": (0, -1), "degeneracy": (0, 1), "t": (0, 0),
    }

    def __init__(self, ops, bases, chains=False):
        super().__init__()
        self.ops = ops
        self.bases = list(bases)
        self.chains = chains

    def degrees(self, key) -> tuple:
        s, t = self.SHIFTS[key[0]]
        return key[1] + s, key[1] + t

    def __missing__(self, key):
        src, tgt = self.degrees(key)
        op = partial(getattr(self.ops, key[0]), *key[1:])
        val = self[key] = op_matrix(op, self.bases[src], self.bases[tgt])
        return val


class FiniteComplex:
    """The cocyclic object of a finite instance: in each degree 0..top the
    ambient chain basis ``table.bases[n]`` modulo the relations of
    ``quots[n]``.

    ``coface[n, i]`` (∂_i: n-1 -> n), ``codeg[n, i]`` (σ_i: n+1 -> n) and
    ``tau[n]`` call :meth:`induce` on first read and keep the result; over
    a table of chain operators they hold the transposes of the induced
    faces, degeneracies and T, so cofaces raise the degree either way.
    """

    NAMES = {False: ("coface", "codegeneracy", "tau"), True: ("face", "degeneracy", "t")}

    def __init__(self, table: OperatorTable, quots):
        self.table = table
        self.bases = table.bases
        self.chains = table.chains
        self.quots = list(quots)
        self.dims = [q.dim for q in self.quots]
        self.top = len(self.quots) - 1
        self.verified = False
        self._failures = {}
        fc, fd, ft = self.names = self.NAMES[self.chains]
        self.coface = LegMap(lambda k: self.induce(fc, *k))
        self.codeg = LegMap(lambda k: self.induce(fd, *k))
        self.tau = LegMap(lambda n: self.induce(ft, n))

    def induce(self, *key) -> Columns:
        """The matrix of ``table[key]`` induced on the quotients (its
        transpose over a chain table), recorded by its label, such as
        ``coface(n,i)`` or ``t(n)``, if it does not descend."""
        src, tgt = self.table.degrees(key)
        amb = self.table[key]
        if not self.quots[src].preserves_relations(amb, self.quots[tgt]):
            label = f"{key[0]}({','.join(map(str, key[1:]))})"
            self._failures[(self.names.index(key[0]),) + key[1:]] = label
        m = self.quots[src].induced_matrix(amb, self.quots[tgt])
        return transpose(m, self.dims[tgt]) if self.chains else m

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
        self.table = None

    def b(self, n: int) -> Columns:
        """Hochschild coboundary C^n -> C^(n+1) (alternating coface sum)."""
        return self._coface_sum(n, n + 2)

    def b_prime(self, n: int) -> Columns:
        """Coboundary without the last coface."""
        return self._coface_sum(n, n + 1)

    def _coface_sum(self, n: int, count: int) -> Columns:
        """Alternating sum of the cofaces ∂_0 … ∂_(count-1) from C^n."""
        return alternating_sum([self.coface[n + 1, i] for i in range(count)])

    def lam(self, n: int) -> Columns:
        """The signed cyclic operator λ_n = (-1)^n τ_n."""
        s = (-1) ** n
        return [{r: s * x for r, x in col.items()} for col in self.tau[n]]

    def norm(self, n: int) -> Columns:
        """N = 1 + λ + … + λⁿ."""
        lam = self.lam(n)
        acc = out = identity_columns(self.dims[n])
        for _ in range(n):
            acc = mat_mul(lam, acc)
            out = add_columns(out, acc)
        return out


def build_coalgebra_instance(mc: ModuleComodule, c_mod: HModuleCoalgebra, top: int) -> FiniteComplex:
    """The coalgebra-side cocyclic object on the relative quotients
    Cⁿ_H(C, M) through degree ``top``."""
    ops = CoalgebraOps(mc, c_mod)
    spaces = [RelativeTensorSpace(ops, n) for n in range(top + 1)]
    table = OperatorTable(ops, [sp.basis for sp in spaces])
    return FiniteComplex(table, [sp.quot for sp in spaces])


def check_cocyclic(inst: FiniteComplex, upto: Optional[int] = None) -> dict:
    """Verify the cosimplicial, mixed and cyclic identities as exact matrix
    equations through degree ``upto``, including τⁿ⁺¹ = id and the
    last-coface factorization ∂_n = τ_n ∘ ∂₀.  Every operator through the
    top degree is checked for descent, whatever ``upto``, and those that
    do not descend are named in one witness.  A failed identity is
    reported with the number of nonzero entries of its residual.  Marks
    the instance verified on success."""
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
                    mat_mul(inst.coface[(n + 1, j)], inst.coface[(n, i)]),
                    mat_mul(inst.coface[(n + 1, i)], inst.coface[(n, j - 1)]),
                    f"coface identity ({n},{i},{j})",
                )
    for n in range(upto - 1):
        for i in range(n + 1):
            for j in range(i, n + 1):
                eq(
                    mat_mul(inst.codeg[(n, j)], inst.codeg[(n + 1, i)]),
                    mat_mul(inst.codeg[(n, i)], inst.codeg[(n + 1, j + 1)]),
                    f"codegeneracy identity ({n},{i},{j})",
                )
    for n in range(1, upto):
        ident = identity_columns(inst.dims[n])
        for j in range(n):
            for i in range(n + 2):
                lhs = mat_mul(inst.codeg[(n, j)], inst.coface[(n + 1, i)])
                if i < j:
                    eq(lhs, mat_mul(inst.coface[(n, i)], inst.codeg[(n - 1, j - 1)]), f"mixed ({n},{i},{j})")
                elif i in (j, j + 1):
                    eq(lhs, ident, f"mixed identity ({n},{i},{j})")
                else:
                    eq(lhs, mat_mul(inst.coface[(n, i - 1)], inst.codeg[(n - 1, j)]), f"mixed ({n},{i},{j})")

    for n in range(upto + 1):
        power = ident = identity_columns(inst.dims[n])
        for _ in range(n + 1):
            power = mat_mul(inst.tau[n], power)
        eq(power, ident, f"tau^(n+1) at n={n}")
    for n in range(1, upto + 1):
        eq(
            inst.coface[(n, n)],
            mat_mul(inst.tau[n], inst.coface[(n, 0)]),
            f"last coface = tau.coface0 at n={n}",
        )
        for i in range(1, n + 1):
            eq(
                mat_mul(inst.tau[n], inst.coface[(n, i)]),
                mat_mul(inst.coface[(n, i - 1)], inst.tau[n - 1]),
                f"tau-coface ({n},{i})",
            )
    for n in range(upto - 1):
        for i in range(1, n + 1):
            eq(
                mat_mul(inst.tau[n], inst.codeg[(n, i)]),
                mat_mul(inst.codeg[(n, i - 1)], inst.tau[n + 1]),
                f"tau-codegeneracy ({n},{i})",
            )
        eq(
            mat_mul(inst.tau[n], inst.codeg[(n, 0)]),
            mat_mul(inst.codeg[(n, n)], mat_mul(inst.tau[n + 1], inst.tau[n + 1])),
            f"tau-codegeneracy-0 ({n})",
        )

    ok = not fails
    inst.verified = inst.verified or ok
    return {"ok": ok, "witnesses": fails[:5]}


def cyclic_cohomology(inst: FiniteComplex, upto: int) -> dict:
    """Cyclic cohomology dimensions by two independent routes.

    Route one restricts the coboundary b to the signed τ-invariant
    subcomplex.  Route two totalizes the first-quadrant cyclic bicomplex
    (columns alternate b and b', rows alternate 1−λ and N with the Koszul
    sign on the horizontals), truncated two columns past the requested
    degree.  Refuses unverified instances.
    """
    if not inst.verified:
        raise PreconditionError("cyclic cohomology requires a verified cocyclic instance")
    if inst.top < upto + 1:
        raise PreconditionError("instance too shallow for the requested degree")

    # route one: the lambda-subcomplex
    kernel_dims = []
    ranks = []
    for n in range(upto + 1):
        d = inst.dims[n]
        fixed = add_columns(identity_columns(d), inst.lam(n), -1)  # 1 − λ
        kernel = nullspace(transpose(fixed, d), d)
        bmat = inst.b(n)
        kernel_dims.append(len(kernel))
        ranks.append(rank([mat_vec(bmat, v) for v in kernel]))  # b on each kernel vector
    lam_dims = [kernel_dims[n] - ranks[n] - (ranks[n - 1] if n > 0 else 0) for n in range(upto + 1)]

    # route two: truncated cyclic bicomplex
    cols = upto + 3  # columns p = 0..upto+2
    def cell_dim(p, q):
        return inst.dims[q] if 0 <= q <= inst.top and 0 <= p < cols else 0

    def tot_cells(n):
        return [(p, n - p) for p in range(cols) if cell_dim(p, n - p) > 0]

    def tot_dim(n):
        return sum(cell_dim(p, q) for p, q in tot_cells(n))

    def tot_diff(n):
        tgt_off = {}
        off = 0
        for cell in tot_cells(n + 1):
            tgt_off[cell] = off
            off += cell_dim(*cell)
        out = []
        for p, q in tot_cells(n):
            # (row offset, sign, block) of each arrow out of the cell
            blocks = []
            # vertical: b on even columns, b' on odd columns; the squares
            # commute, so the Koszul sign sits on the horizontal arrows
            if (p, q + 1) in tgt_off and q + 1 <= inst.top:
                block = inst.b(q) if p % 2 == 0 else inst.b_prime(q)
                blocks.append((tgt_off[(p, q + 1)], 1, block))
            # horizontal: 1-lambda from even columns, N from odd columns
            if (p + 1, q) in tgt_off:
                block = (
                    add_columns(identity_columns(inst.dims[q]), inst.lam(q), -1)
                    if p % 2 == 0
                    else inst.norm(q)
                )
                blocks.append((tgt_off[(p + 1, q)], (-1) ** q, block))
            for j in range(cell_dim(p, q)):
                col = {}
                for r0, sign, block in blocks:
                    for i, x in block[j].items():
                        col[r0 + i] = sign * x
                out.append(col)
        return out

    diffs = [tot_diff(n) for n in range(upto + 1)]
    dims = [tot_dim(n) for n in range(upto + 2)]
    for n in range(upto):
        if any(mat_mul(diffs[n + 1], diffs[n])):
            raise StructureError(f"bicomplex total differential fails d*d = 0 at degree {n}")
    bic_dims = cohomology_dims(diffs, dims, upto)

    return {
        "lambda_complex": lam_dims,
        "bicomplex": bic_dims,
        "agree": lam_dims == bic_dims,
    }


# -- algebra-side operators ----------------------------------------------------


@dataclass
class AlgebraChainOps:
    """Chain-level operators on M ⊗ A^⊗(n+1); cochain operators arise as
    transposes of the induced quotient matrices.  Like
    :class:`CoalgebraOps`, each operator takes one basis tuple (m, a₀, …,
    aₙ), with M at position 0 and aᵢ at position i+1, and returns its image
    as a ``{word tuple: coeff}`` dict read from leg maps evaluated once per
    basis word."""

    mc: ModuleComodule
    a_mod: HModuleAlgebra

    def __post_init__(self):
        h, alg = self.mc.hopf, self.a_mod.alg
        self.coact, self.m_cols = coefficient_legs(self.mc)
        self.mul = LegMap(lambda k: (alg.from_word(k[0]) * alg.from_word(k[1])).terms)
        # (h, a) -> S⁻¹(h)a
        self.inv_act = LegMap(
            lambda k: self.a_mod.act(h.inv_antipode(h.from_word(k[0])), alg.from_word(k[1])).terms
        )
        self.s_cols = LegMap(
            lambda hw: leg_columns(
                lambda a: self.a_mod.act(h.antipode(h.from_word(hw)), alg.from_word(a)).terms, alg
            )
        )

    def face(self, n: int, i: int, wt: tuple) -> dict:
        """D_i: degree n chains to degree n-1 chains, 0 <= i <= n."""
        if i < n:
            # merge A legs i and i+1
            head, tail = wt[: i + 1], wt[i + 3 :]
            return {head + (p,) + tail: pc for p, pc in self.mul[wt[i + 1], wt[i + 2]].items()}
        # last face: m⟨0⟩ ⊗ (S⁻¹(m⟨-1⟩)aₙ)a₀ ⊗ a₁ ⊗ … ⊗ a_{n-1}
        out = {}
        mids = wt[2:-1]
        for (w, m0), cc in self.coact[wt[0]].items():
            for t, tc in self.inv_act[w, wt[-1]].items():
                k = cc * tc
                for p, pc in self.mul[t, wt[1]].items():
                    _merge_term(out, (m0, p) + mids, k * pc)
        return out

    def degeneracy(self, n: int, i: int, wt: tuple) -> dict:
        """S_i: insert the unit after A position i, degree n to n+1."""
        head, tail = wt[: i + 2], wt[i + 2 :]
        return {head + (u,) + tail: uc for u, uc in self.a_mod.alg.unit().terms.items()}

    def t(self, n: int, wt: tuple) -> dict:
        """T_n: m ⊗ ã to m⟨0⟩ ⊗ S⁻¹(m⟨-1⟩)aₙ ⊗ a₀ ⊗ … ⊗ a_{n-1}."""
        out = {}
        rest = wt[1:-1]
        for (w, m0), cc in self.coact[wt[0]].items():
            for t, tc in self.inv_act[w, wt[-1]].items():
                _merge_term(out, (m0, t) + rest, cc * tc)
        return out

    def act_legs(self, w: tuple) -> list:
        """Leg matrices of H words h₀ ⊗ … ⊗ hₙ₊₁ acting on m ⊗ ã: m·h₀, S(hₙ₊₁₋ᵢ)aᵢ."""
        return [self.m_cols[w[0]]] + [self.s_cols[g] for g in reversed(w[1:])]

    def quotient(self, n: int):
        """The degree-n chain basis and its quotient by span{xh − ε(h)x}
        under the diagonal action (m ⊗ ã)h = mh⁽¹⁾ ⊗ S(h⁽ⁿ⁺²⁾)a₀ ⊗ … ⊗
        S(h⁽²⁾)aₙ (see :func:`diagonal_quotient`)."""
        h = self.mc.hopf
        basis = TensorBasis((self.mc.space,) + (self.a_mod.alg,) * (n + 1))

        def relations(a):
            rel = h.sweedler(a, n + 2) - tensor([h.unit()] * (n + 2)).scale(h.counit(a))
            return sweedler_sum(rel.terms, self.act_legs, basis)

        return basis, diagonal_quotient(basis, h, relations)


class AlgebraCochainInstance(FiniteComplex):
    """The cocyclic object on cochains C^n_H(A, M) of a finite instance.

    Chain quotients divide by span{xh − ε(h)x}; cochain operators are
    transposes of the induced chain matrices, so cofaces raise degree.
    """

    def __init__(self, mc: ModuleComodule, a_mod: HModuleAlgebra, top: int):
        self.mc = mc
        self.a_mod = a_mod
        self.ops = AlgebraChainOps(mc, a_mod)
        bases, quots = zip(*(self.ops.quotient(n) for n in range(top + 1)))
        super().__init__(OperatorTable(self.ops, bases, chains=True), quots)
