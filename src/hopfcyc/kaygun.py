"""Bridge to the bialgebra cyclic cohomology built from the L-action.

H acts on ambient chains by L_g; the subspace Wⁿ spanned by commutators
[L_g, τⁱ] is divided out, and the scalars are tensored over H against the
result.  On finite instances the quotient ℂ𝕄ⁿ is built explicitly, shown
to embed in the relative chain space through mutually inverse maps Π and
Π', and its cyclic cohomology is compared against the direct computation.

A bridge owns one :class:`~hopfcyc.cocyclic.OperatorTable` of ambient
operator matrices; the commutator identities and the complexes on ℂ𝕄 and
on the relative quotient Cⁿ_H all read it, and every operator on ℂ𝕄 or
Cⁿ_H is induced by a :class:`~hopfcyc.cocyclic.FiniteComplex`, which
checks descent.  Π and Π′ are the only maps induced outside it: they are
induced by the ambient identity through the same
:meth:`~hopfcyc.linalg.Quotient.induced`, which also counts how far they
miss descending.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import EMPTY_WORD, Memo, word_str
from .coefficients import HModuleCoalgebra, ModuleComodule
from .errors import UnsolvableError
from .linalg import (
    Quotient,
    add_columns,
    compose,
    identity_columns,
    mat_mul,
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


@dataclass
class KaygunBridge:
    """Ambient matrices of the L-action and the cocyclic operators on a
    finite instance, degree by degree, as sparse columns
    (:data:`~hopfcyc.linalg.Columns`); the cocyclic operators come from one
    :class:`~hopfcyc.cocyclic.OperatorTable`, τ's powers and L_g are built
    once per degree (L_g by :func:`~hopfcyc.cocyclic.sweedler_sum`), and
    commutators are composed on the columns.  One ``ops`` serves the table,
    L_g and the relative quotients, and gives the ambient ``bases``.
    Nothing is built before it is asked for."""

    mc: ModuleComodule
    c_mod: HModuleCoalgebra
    top: int

    def __post_init__(self):
        self.ops = CoalgebraOps(self.mc, self.c_mod)
        self.bases = self.ops.basis
        self.table = OperatorTable(self.ops)
        self.group_words = list(self.mc.hopf.normal_words(1, 1))
        self._tau_pow = Memo(lambda k: self._build_tau_power(*k))
        self._l = Memo(lambda k: self._build_l(*k))
        self._w = Memo(self._saturate)
        self._cm = Memo(
            lambda n: Quotient(self.w_rows(n) + self.l_coinvariance_rows(n), self.bases[n].dim)
        )
        self._rel = Memo(lambda n: RelativeTensorSpace(self.ops, n))
        self._cm_inst = None

    def tau_power(self, n: int, i: int):
        """τⁱ as an ambient matrix, built once per degree and exponent."""
        return self._tau_pow[n, i]

    def _build_tau_power(self, n: int, i: int):
        if i == 0:
            return identity_columns(self.bases[n].dim)
        return mat_mul(self.table["tau", n], self.tau_power(n, i - 1))

    def l_matrix(self, n: int, gw):
        """L_g(m ⊗ c̃) = m S(g⁽¹⁾) ⊗ g⁽²⁾c₀ ⊗ … ⊗ g⁽ⁿ⁺²⁾cₙ as an ambient matrix,
        built once per degree and g."""
        return self._l[n, gw]

    def _build_l(self, n: int, gw):
        h = self.mc.hopf
        d = h.sweedler(h.from_word(gw), n + 2).leg_apply(1, h.antipode)
        return sweedler_sum(d.terms, self.ops.act_legs, self.bases[n])

    def commutator_matrix(self, n: int, gw, i: int):
        """[L_g, τⁱ] as an ambient matrix."""
        taui = self.tau_power(n, i)
        lg = self.l_matrix(n, gw)
        return add_columns(mat_mul(lg, taui), mat_mul(taui, lg), -1)

    def w_rows(self, n: int):
        """Spanning rows of Wⁿ, sparse and in reduced echelon form:
        commutator images of the ambient basis, saturated under τ until the
        rank stabilizes.  Computed once per degree.  L_g and τ have at most
        one nonzero per column on every instance built here, so the commutator
        rows and the τ-images of a reduced span have at most two entries
        and each elimination takes :func:`~hopfcyc.linalg.orbit_rref`;
        :func:`~hopfcyc.linalg.rref` is the fallback for other rows."""
        return self._w[n]

    def _saturate(self, n: int):
        rows = []
        for gw in self.group_words:
            if gw == EMPTY_WORD:
                continue
            for i in range(1, n + 2):
                rows.extend(self.commutator_matrix(n, gw, i))
        tau = self.table["tau", n]
        span = (orbit_rref(rows) or rref(rows))[0]
        for _ in range(SATURATION_BOUND):
            grown = span + [mat_vec(tau, v) for v in span]
            grown = (orbit_rref(grown) or rref(grown))[0]
            if len(grown) == len(span):
                return span
            span = grown
        raise UnsolvableError(f"W saturation did not stabilize at degree {n}")

    def l_coinvariance_rows(self, n: int):
        """Rows L_g(x) − ε(g)x over the ambient basis, for the scalar
        tensor over H with its trivial action."""
        h = self.mc.hopf
        ident = identity_columns(self.bases[n].dim)
        rows = []
        for gw in self.group_words:
            if gw == EMPTY_WORD:
                continue
            eps = h.counit(h.from_word(gw))
            rows.extend(add_columns(self.l_matrix(n, gw), ident, -eps))
        return rows

    def cm_quotient(self, n: int) -> Quotient:
        """ℂ𝕄ⁿ = Cⁿ / (Wⁿ + span{L_g x − ε(g)x}), built once per degree."""
        return self._cm[n]

    def relative_space(self, n: int) -> RelativeTensorSpace:
        """The relative quotient Cⁿ_H of the same instance, built once per
        degree."""
        return self._rel[n]


def commutator_identities(bridge: KaygunBridge, upto: int = 2) -> dict:
    """The stability identities of W as exact ambient matrix equations:
    the τ-commutator expansion, σ_j[L_g,τⁱ] = [L_g,τⁱ]σ_{j−1}, and
    ∂_m L_g = L_g ∂_m.  A witness names the group element and the nonzero
    count of the residual."""
    table = bridge.table
    fails = []
    for n in range(min(upto, bridge.top) + 1):
        tau = table["tau", n]
        for gw in bridge.group_words:
            if gw == EMPTY_WORD:
                continue
            g = word_str(gw)
            lg = bridge.l_matrix(n, gw)
            bracket = add_columns(mat_mul(tau, lg), mat_mul(lg, tau), -1)
            for i in range(1, n + 2):
                comm_i = bridge.commutator_matrix(n, gw, i)
                comm_i1 = bridge.commutator_matrix(n, gw, i + 1)
                taui = bridge.tau_power(n, i)
                lhs = mat_mul(tau, comm_i)
                rhs = add_columns(mat_mul(bracket, taui), comm_i1)
                fails += mismatch(lhs, rhs, f"tau commutator expansion (n={n}, g={g}, i={i})")
            if n < bridge.top:
                for m in range(n + 1):
                    coface = table["coface", n + 1, m]
                    lg_up = bridge.l_matrix(n + 1, gw)
                    label = f"coface commutes with L (n={n}, g={g}, m={m})"
                    fails += mismatch(mat_mul(coface, lg), mat_mul(lg_up, coface), label)
            for j in range(1, n):
                sig, sigp = table["codegeneracy", n - 1, j], table["codegeneracy", n - 1, j - 1]
                for i in range(1, n + 1):
                    comm_hi = bridge.commutator_matrix(n, gw, i)
                    comm_lo = bridge.commutator_matrix(n - 1, gw, i)
                    label = f"codegeneracy commutator shift (n={n}, g={g}, i={i}, j={j})"
                    fails += mismatch(mat_mul(sig, comm_hi), mat_mul(comm_lo, sigp), label)
    return {"ok": not fails, "witnesses": fails[:5]}


def check_w_in_ker_pi(bridge: KaygunBridge, upto: int = 2) -> dict:
    """Every spanning vector of Wⁿ lies in the relation subspace of the
    relative tensor quotient, so the canonical projection kills W."""
    fails = []
    for n in range(min(upto, bridge.top) + 1):
        rel = bridge.relative_space(n)
        for k, row in enumerate(bridge.w_rows(n)):
            if not rel.quot.contains_in_relations(row):
                fails.append(f"W generator {k} at degree {n}")
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
        ident = identity_columns(bridge.bases[n].dim)
        p, p_off = cms[n].induced(ident, rels[n])
        q, q_off = rels[n].induced(ident, cms[n])
        for name, nonzero in (("Pi", p_off), ("Pi'", q_off)):
            if nonzero:
                fails.append(f"{name} not well-defined at degree {n}: {nonzero} nonzero")
        pi.append(p)
        # Π∘Π′ and Π′∘Π side by side, against the two identities
        both = identity_columns(rels[n].dim) + identity_columns(cms[n].dim)
        label = f"Pi and Pi' not mutually inverse at degree {n}"
        fails += mismatch(mat_mul(p, q) + mat_mul(q, p), both, label)

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
