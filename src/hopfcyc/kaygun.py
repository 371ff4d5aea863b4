"""Bridge to the bialgebra cyclic cohomology built from the L-action.

H acts on ambient chains by L_g; the subspace Wⁿ spanned by commutators
[L_g, τⁱ] is divided out, and the scalars are tensored over H against the
result.  Wⁿ is built from the columns of [L_g, τ] alone, saturated under
τ, and the coinvariance rows from a generating set of H
(:func:`~hopfcyc.cocyclic.generating_words`): both give the same span
from fewer rows.  On finite instances the quotient ℂ𝕄ⁿ is built
explicitly, shown to embed in the relative chain space through mutually
inverse maps Π and Π', and its cyclic cohomology is compared against the
direct computation.

A bridge owns one :class:`~hopfcyc.cocyclic.OperatorTable` of ambient
operator matrices; the commutator identities and the complexes on ℂ𝕄 and
on the relative quotient Cⁿ_H all read it, and every operator on ℂ𝕄 or
Cⁿ_H is induced by a :class:`~hopfcyc.cocyclic.FiniteComplex`, which
checks descent.  Π and Π′ are induced by the ambient identity, a signed
map (:func:`~hopfcyc.linalg.identity`), through the same
:meth:`~hopfcyc.linalg.Quotient.induced`, which also counts how far they
miss descending.  Every matrix here, τ's powers, L_g, the commutators, Π
and Π′, is composed, summed and compared in either encoding, as a signed
map on a group algebra and as Columns on any other instance.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import EMPTY_WORD, Memo, word_str
from .coefficients import HModuleCoalgebra, ModuleComodule
from .errors import UnsolvableError
from .linalg import (
    Columns,
    Matrix,
    Quotient,
    columns,
    combine,
    compose,
    identity,
    mat_vec,
    orbit_rref,
    rref,
)
from .cocyclic import (
    CoalgebraOps,
    FiniteComplex,
    OperatorTable,
    RelativeTensorSpace,
    check_cocyclic,
    cyclic_cohomology,
    descent_witness,
    mismatch,
    sweedler_sum,
)

SATURATION_BOUND = 50


def bracket(a: Matrix, b: Matrix) -> Columns:
    """[a, b] = a∘b − b∘a as Columns, by :func:`~hopfcyc.linalg.combine`:
    each column has at most two entries when a and b are signed maps."""
    return combine([(1, compose(a, b)), (-1, compose(b, a))], len(a))


def saturate(rows, tau: Columns, n: int) -> list:
    """The reduced rows of the span of ``rows`` saturated under ``tau``:
    τ-images are added until the rank stabilizes, within
    ``SATURATION_BOUND`` + n rounds at degree n."""
    span = (orbit_rref(rows) or rref(rows))[0]
    for _ in range(SATURATION_BOUND + n):
        grown = span + [mat_vec(tau, v) for v in span]
        grown = (orbit_rref(grown) or rref(grown))[0]
        if len(grown) == len(span):
            return span
        span = grown
    raise UnsolvableError(f"W saturation did not stabilize at degree {n}")


@dataclass
class KaygunBridge:
    """Ambient matrices of the L-action and the cocyclic operators on a
    finite instance, degree by degree.  The cocyclic operators come from
    one :class:`~hopfcyc.cocyclic.OperatorTable`; L_g is built once per
    degree and g by :func:`~hopfcyc.cocyclic.sweedler_sum`, and τ's powers
    once per degree and exponent, each τ times the one before.  On a group
    algebra τ, L_g and so every power and product are
    :data:`~hopfcyc.linalg.Signed` maps, composed one entry per column,
    and a commutator is the signed sum of its two products
    (:func:`bracket`); any other instance, such as H4, composes
    :data:`~hopfcyc.linalg.Columns`.  One ``ops`` serves the table, L_g and
    the relative quotients, and gives the ambient ``bases``.  Nothing is
    built before it is asked for."""

    mc: ModuleComodule
    c_mod: HModuleCoalgebra
    top: int

    def __post_init__(self):
        # the fills close over what they read, not over self, so a dropped
        # bridge is freed by reference counting, not by a gc pass
        h = self.mc.hopf
        ops = self.ops = CoalgebraOps(self.mc, self.c_mod)
        bases = self.bases = ops.basis
        table = self.table = OperatorTable(ops)
        words = self.group_words = list(h.normal_words(1, 1))
        # τ⁰, τ¹, … per degree, the identity first, as a signed map
        powers = Memo(lambda n: [identity(bases[n].dim)])
        lg = self._l = Memo(
            lambda k: sweedler_sum(
                h.sweedler(h.from_word(k[1]), k[0] + 2).leg_apply(1, h.antipode).terms,
                ops.act_legs,
                bases[k[0]],
            )
        )

        def tau_power(n: int, i: int) -> Matrix:
            """τⁱ as an ambient matrix, built once per degree and exponent:
            τ⁰ is the identity as a signed map and τⁱ = τ∘τⁱ⁻¹."""
            ps = powers[n]
            while len(ps) <= i:
                ps.append(compose(table["tau", n], ps[-1]))
            return ps[i]

        def coinvariance_rows(n: int) -> list:
            """Rows L_g(x) − ε(g)x over the ambient basis, for the scalar
            tensor over H with its trivial action, g over the generating
            words of H (``ops.relation_words``)."""
            ident = identity(bases[n].dim)
            rows = []
            for gw in ops.relation_words:
                eps = h.counit(h.from_word(gw))
                rows.extend(combine([(1, lg[n, gw]), (-eps, ident)], bases[n].dim))
            return rows

        w = self._w = Memo(
            lambda n: saturate(
                [row for gw in words if gw != EMPTY_WORD for row in bracket(lg[n, gw], table["tau", n])],
                columns(table["tau", n]),
                n,
            )
        )
        self._cm = Memo(lambda n: Quotient(w[n] + coinvariance_rows(n), bases[n].dim))
        self._rel = Memo(lambda n: RelativeTensorSpace(ops, n))
        self.tau_power = tau_power
        self._cm_inst = None

    def l_matrix(self, n: int, gw) -> Matrix:
        """L_g(m ⊗ c̃) = m S(g⁽¹⁾) ⊗ g⁽²⁾c₀ ⊗ … ⊗ g⁽ⁿ⁺²⁾cₙ as an ambient matrix,
        built once per degree and g."""
        return self._l[n, gw]

    def commutator_matrix(self, n: int, gw, i: int) -> Columns:
        """[L_g, τⁱ] as an ambient matrix (:func:`bracket`)."""
        return bracket(self._l[n, gw], self.tau_power(n, i))

    def w_rows(self, n: int):
        """Spanning rows of Wⁿ, sparse and in reduced echelon form: the
        columns of the commutators [L_g, τ], saturated under τ until the
        rank stabilizes (:func:`saturate`, τ read once per degree).  W is
        spanned by the commutators [L_g, τⁱ], i = 1…n+1, but [L, τⁱ] =
        Σⱼ τʲ[L, τ]τ^(i−1−j), so [L_g, τ] has the same τ-saturation.
        Computed once per degree.  On a group algebra each commutator
        column has at most two entries, and so has each τ-image of a
        reduced span, so each elimination takes
        :func:`~hopfcyc.linalg.orbit_rref`; :func:`~hopfcyc.linalg.rref` is
        the fallback for other rows."""
        return self._w[n]

    def cm_quotient(self, n: int) -> Quotient:
        """ℂ𝕄ⁿ = Cⁿ / (Wⁿ + span{L_g x − ε(g)x}), built once per degree."""
        return self._cm[n]

    def relative_space(self, n: int) -> RelativeTensorSpace:
        """The relative quotient Cⁿ_H of the same instance, built once per
        degree."""
        return self._rel[n]


def commutator_identities(bridge: KaygunBridge, upto: int = 2) -> dict:
    """The stability identities of W as exact ambient matrix equations:
    σ_j[L_g,τⁱ] = [L_g,τⁱ]σ_{j−1} and ∂_m L_g = L_g ∂_m, composed by
    :func:`~hopfcyc.linalg.compose` on either encoding.  A witness names
    the group element and the nonzero count of the residual.  The
    τ-commutator expansion τ[L_g,τⁱ] = [τ,L_g]τⁱ + [L_g,τⁱ⁺¹] is not
    checked: both sides are τL_gτⁱ − τⁱ⁺¹L_g for any two matrices, so it
    cannot fail."""
    table = bridge.table
    fails = []
    for n in range(min(upto, bridge.top) + 1):
        for gw in bridge.group_words:
            if gw == EMPTY_WORD:
                continue
            g = word_str(gw)
            lg = bridge.l_matrix(n, gw)
            if n < bridge.top:
                for m in range(n + 1):
                    coface = table["coface", n + 1, m]
                    lg_up = bridge.l_matrix(n + 1, gw)
                    label = f"coface commutes with L (n={n}, g={g}, m={m})"
                    fails += mismatch(compose(coface, lg), compose(lg_up, coface), label)
            for j in range(1, n):
                sig, sigp = table["codegeneracy", n - 1, j], table["codegeneracy", n - 1, j - 1]
                for i in range(1, n + 1):
                    comm_hi = bridge.commutator_matrix(n, gw, i)
                    comm_lo = bridge.commutator_matrix(n - 1, gw, i)
                    label = f"codegeneracy commutator shift (n={n}, g={g}, i={i}, j={j})"
                    fails += mismatch(compose(sig, comm_hi), compose(comm_lo, sigp), label)
    return {"ok": not fails, "witnesses": fails[:5]}


def check_w_in_ker_pi(bridge: KaygunBridge, upto: int = 2) -> dict:
    """Every spanning vector of Wⁿ lies in the relation subspace of the
    relative tensor quotient, so the canonical projection kills W.  A
    witness names the generator and the nonzero count of its
    projection."""
    fails = []
    for n in range(min(upto, bridge.top) + 1):
        quot = bridge.relative_space(n).quot
        for k, row in enumerate(bridge.w_rows(n)):
            nonzero = len(quot.project(row))
            if nonzero:
                fails.append(f"W generator {k} at degree {n}: {nonzero} nonzero")
    return {"ok": not fails, "witnesses": fails[:5]}


def check_iso(bridge: KaygunBridge) -> dict:
    """Builds ℂ𝕄ⁿ and the relative quotient Cⁿ_H side by side, realizes Π
    and Π' as matrices induced by the ambient identity, and certifies that
    they are mutually inverse and commute with τ and the cofaces, the only
    operators read on either side; those that do not descend are named
    in one witness per side.  A failed check counts the nonzero entries of its
    residual: for a Π/Π′ that does not descend, those of the source
    relations projected to the target."""
    top = bridge.top
    cm = kaygun_cocyclic_instance(bridge)
    cms = cm.quots
    rels = [bridge.relative_space(n).quot for n in range(top + 1)]
    ch = FiniteComplex(bridge.table, rels)
    fails = []
    pi = []
    for n in range(top + 1):
        ident = identity(bridge.bases[n].dim)
        p, p_off = cms[n].induced(ident, rels[n])
        q, q_off = rels[n].induced(ident, cms[n])
        for name, nonzero in (("Pi", p_off), ("Pi'", q_off)):
            if nonzero:
                fails.append(f"{name} not well-defined at degree {n}: {nonzero} nonzero")
        pi.append(p)
        # Π∘Π′ and Π′∘Π side by side, against the two identities
        both = identity(rels[n].dim) + identity(cms[n].dim)
        label = f"Pi and Pi' not mutually inverse at degree {n}"
        fails += mismatch(compose(p, q) + compose(q, p), both, label)

    crossed = []
    for n in range(top + 1):
        lhs, rhs = compose(pi[n], cm.tau[n]), compose(ch.tau[n], pi[n])
        crossed += mismatch(lhs, rhs, f"Pi does not intertwine tau at degree {n}")
    for n in range(1, top + 1):
        for i in range(n + 1):
            lhs, rhs = compose(pi[n], cm.coface[n, i]), compose(ch.coface[n, i], pi[n - 1])
            crossed += mismatch(lhs, rhs, f"Pi does not intertwine coface ({n},{i})")
    fails += descent_witness(cm.welldef_failures, " on CM")
    fails += descent_witness(ch.welldef_failures, " on C_H")
    fails += crossed
    return {
        "ok": not fails,
        "witnesses": fails[:5],
        "cm_dims": [q.dim for q in cms],
        "relative_dims": [r.dim for r in rels],
        "w_ranks": [len(bridge.w_rows(n)) for n in range(top + 1)],
    }


def kaygun_cocyclic_instance(bridge: KaygunBridge) -> FiniteComplex:
    """The cocyclic object carried by the quotients ℂ𝕄ⁿ, built once per
    bridge; its operators are induced on first read."""
    if bridge._cm_inst is None:
        cms = [bridge.cm_quotient(n) for n in range(bridge.top + 1)]
        bridge._cm_inst = FiniteComplex(bridge.table, cms)
    return bridge._cm_inst


def kaygun_cohomology(bridge: KaygunBridge, upto: int) -> dict:
    """Cyclic cohomology computed through ℂ𝕄*, for comparison against the
    direct relative-quotient computation."""
    inst = kaygun_cocyclic_instance(bridge)
    rep = check_cocyclic(inst)
    if not rep["ok"]:
        return {"ok": False, "witnesses": rep["witnesses"]}
    hc = cyclic_cohomology(inst, upto)
    return {"ok": hc["agree"], "dims": hc["lambda_complex"], "hc": hc}
