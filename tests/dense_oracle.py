"""The dense list-of-rows route the sparse matrices replaced, kept as an
oracle for the tests.

A dense matrix is a list of equal-length rows of ``Fraction``.  Ranks and
kernels come from :func:`dense_rref`, a plain Gauss–Jordan sweep that shares
no code with :func:`hopfcyc.linalg.rref`.  :func:`check_cocyclic` and
:func:`cyclic_cohomology` are the dense versions of the ones in
:mod:`hopfcyc.cocyclic`, run on :func:`dense_instance` copies of sparse
instances; they must give the same verdicts, witnesses and dimensions.
Route two here is the cyclic bicomplex truncated two columns past the
requested degree (columns b and b′, rows 1 − λ and N), not the (b, B)
mixed complex of the package, so the dimensions it reports under the
``bicomplex`` key come from a second algorithm.

:func:`eliminating_induced` is the elimination route that
:meth:`hopfcyc.linalg.Quotient.induced` replaced, kept as its oracle: it
clears each pivot of an image with that pivot's reduced row, column by
column, and applies the operator to each reduced relation row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from hopfcyc.errors import PreconditionError, StructureError
from hopfcyc.linalg import add_multiple, columns, mat_vec as sparse_mat_vec

F0 = Fraction(0)
F1 = Fraction(1)


# -- dense matrices ----------------------------------------------------------------


def zeros(nrows, ncols):
    return [[F0] * ncols for _ in range(nrows)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = F1
    return m


def sparse(row):
    """The nonzero entries of a dense row."""
    return {j: x for j, x in enumerate(row) if x}


def dense(row, ncols):
    out = [F0] * ncols
    for j, x in row.items():
        out[j] = x
    return out


def as_dense(cols, nrows):
    """A matrix held as sparse columns, or as a signed map (entry j is
    ±(r + 1) for a column ±e_r and 0 for an empty one), with ``nrows``
    rows, as dense rows."""
    out = zeros(nrows, len(cols))
    for j, col in enumerate(cols):
        if isinstance(col, int):
            if col:
                out[abs(col) - 1][j] = F1 if col > 0 else -F1
            continue
        for i, x in col.items():
            out[i][j] = x
    return out


def mat_mul(a, b):
    if not a:
        return []
    nc = len(b[0]) if b else 0
    b_nonzero = [[(j, y) for j, y in enumerate(brow) if y] for brow in b]
    out = []
    for row in a:
        orow = [F0] * nc
        for k, c in enumerate(row):
            if c:
                for j, y in b_nonzero[k]:
                    orow[j] += c * y
        out.append(orow)
    return out


def kronecker(mats):
    """A₀ ⊗ … ⊗ A_k of dense matrices, the last factor fastest: entry
    (r·len(b) + s, j·len(b[0]) + t) of a ⊗ b is a[r][j]·b[s][t]."""
    out = [[F1]]
    for b in mats:
        out = [[x * y for x in ra for y in rb] for ra in out for rb in b]
    return out


def mat_vec(a, v):
    nonzero = [(j, x) for j, x in enumerate(v) if x]
    return [sum((row[j] * x for j, x in nonzero), F0) for row in a]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def is_zero_matrix(a):
    return all(x == 0 for row in a for x in row)


def dense_rref(m):
    """Dense Gauss–Jordan: first row with a nonzero entry is the pivot."""
    m = [list(row) for row in m]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = F1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def rank(m):
    return len(dense_rref(m)[0])


def nullspace(m, ncols):
    """Basis of the right kernel (rows are kernel vectors): one vector per
    free column fc, with pivot entries −R[r][fc]."""
    rows, pivots = dense_rref(m)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [F0] * ncols
        v[fc] = F1
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


def cohomology_dims(diffs, dims, upto):
    out = []
    for n in range(upto + 1):
        ker = dims[n] - (rank(diffs[n]) if dims[n] else 0)
        im = rank(diffs[n - 1]) if n > 0 else 0
        out.append(ker - im)
    return out


# -- the elimination route of quotients ---------------------------------------------


def eliminating_reduce(q, v):
    """v minus its part in the relation span of ``q``, by elimination, the
    route :class:`Quotient` took before it held its projection as a
    matrix: each entry at a pivot is cleared with that pivot's reduced row,
    which is zero at every other pivot, so one pass leaves free entries
    only."""
    row_of = dict(zip(q.pivots, q.rows))
    v = dict(v)
    for pc in [pc for pc in v if pc in row_of]:
        add_multiple(v, -v[pc], row_of[pc])
    return v


def eliminating_project(q, v):
    pos = {c: k for k, c in enumerate(q.free)}
    return {pos[c]: x for c, x in eliminating_reduce(q, v).items()}


def eliminating_induced(src, op, tgt):
    """(induced matrix, nonzero count of the reduced relations' images
    projected to the target) by elimination, column by column and row by
    row, for an op in either encoding; the matrix comes as Columns."""
    op = columns(op)
    induced = [eliminating_project(tgt, op[c]) for c in src.free]
    return induced, sum(len(eliminating_project(tgt, sparse_mat_vec(op, row))) for row in src.rows)


# -- dense cocyclic instances --------------------------------------------------------


@dataclass
class DenseInstance:
    dims: list
    coface: dict
    codeg: dict
    tau: dict
    welldef_failures: list = field(default_factory=list)
    verified: bool = False

    @property
    def top(self):
        return len(self.dims) - 1

    def b(self, n):
        return self._coface_sum(n, n + 2)

    def b_prime(self, n):
        return self._coface_sum(n, n + 1)

    def _coface_sum(self, n, count):
        out = zeros(self.dims[n + 1], self.dims[n])
        sign = F1
        for i in range(count):
            m = self.coface[(n + 1, i)]
            for r in range(len(out)):
                row, mrow = out[r], m[r]
                for c in range(len(row)):
                    if mrow[c]:
                        row[c] += sign * mrow[c]
            sign = -sign
        return out

    def lam(self, n):
        s = F1 if n % 2 == 0 else -F1
        return [[s * x for x in row] for row in self.tau[n]]

    def norm(self, n):
        lam = self.lam(n)
        acc = identity(self.dims[n])
        out = identity(self.dims[n])
        for _ in range(n):
            acc = mat_mul(lam, acc)
            out = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(out, acc)]
        return out


def dense_instance(inst):
    """A dense copy of a :class:`hopfcyc.cocyclic.FiniteComplex`, read
    degree by degree, so every operator through the top is induced and
    ``welldef_failures`` is complete; every operator lands in degree n, so
    it has ``dims[n]`` rows."""
    dims, top = list(inst.dims), inst.top
    coface = {(n, i): as_dense(inst.coface[n, i], dims[n]) for n in range(1, top + 1) for i in range(n + 1)}
    codeg = {(n, i): as_dense(inst.codeg[n, i], dims[n]) for n in range(top) for i in range(n + 1)}
    tau = {n: as_dense(inst.tau[n], dims[n]) for n in range(top + 1)}
    return DenseInstance(dims, coface, codeg, tau, welldef_failures=list(inst.welldef_failures))


def check_cocyclic(inst, upto=None):
    top = inst.top
    upto = top if upto is None else min(upto, top)
    fails = []

    def eq(a, b, label):
        if a != b:
            nonzero = sum(x != y for ra, rb in zip(a, b) for x, y in zip(ra, rb))
            fails.append(f"{label}: {nonzero} nonzero")

    if inst.welldef_failures:
        fails.append(f"not well-defined: {', '.join(inst.welldef_failures)}")

    for n in range(1, upto):
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
        ident = identity(inst.dims[n])
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
        power = identity(inst.dims[n])
        for _ in range(n + 1):
            power = mat_mul(inst.tau[n], power)
        eq(power, identity(inst.dims[n]), f"tau^(n+1) at n={n}")
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


def cyclic_cohomology(inst, upto):
    if not inst.verified:
        raise PreconditionError("cyclic cohomology requires a verified cocyclic instance")
    if inst.top < upto + 1:
        raise PreconditionError("instance too shallow for the requested degree")

    # route one: the lambda-subcomplex
    kernels = []
    for n in range(upto + 2):
        diff = mat_sub(identity(inst.dims[n]), inst.lam(n))
        kernels.append(nullspace(diff, inst.dims[n]))
    ranks = []
    for n in range(upto + 1):
        bmat = inst.b(n)
        ranks.append(rank([mat_vec(bmat, v) for v in kernels[n]]))
    lam_dims = []
    for n in range(upto + 1):
        ker = len(kernels[n]) - ranks[n]
        im = ranks[n - 1] if n > 0 else 0
        lam_dims.append(ker - im)

    # route two: truncated cyclic bicomplex
    cols = upto + 3

    def cell_dim(p, q):
        return inst.dims[q] if 0 <= q <= inst.top and 0 <= p < cols else 0

    def tot_cells(n):
        return [(p, n - p) for p in range(cols) if cell_dim(p, n - p) > 0]

    def tot_dim(n):
        return sum(cell_dim(p, q) for p, q in tot_cells(n))

    def tot_diff(n):
        src = tot_cells(n)
        tgt = tot_cells(n + 1)
        tgt_off = {}
        off = 0
        for cell in tgt:
            tgt_off[cell] = off
            off += cell_dim(*cell)
        mat = zeros(tot_dim(n + 1), tot_dim(n))
        off = 0
        for p, q in src:
            d = cell_dim(p, q)
            if (p, q + 1) in tgt_off and q + 1 <= inst.top:
                block = inst.b(q) if p % 2 == 0 else inst.b_prime(q)
                r0 = tgt_off[(p, q + 1)]
                for i in range(len(block)):
                    for j in range(d):
                        if block[i][j]:
                            mat[r0 + i][off + j] += block[i][j]
            if (p + 1, q) in tgt_off:
                block = mat_sub(identity(inst.dims[q]), inst.lam(q)) if p % 2 == 0 else inst.norm(q)
                sign = -F1 if q % 2 == 1 else F1
                r0 = tgt_off[(p + 1, q)]
                for i in range(inst.dims[q]):
                    for j in range(d):
                        if block[i][j]:
                            mat[r0 + i][off + j] += sign * block[i][j]
            off += d
        return mat

    diffs = [tot_diff(n) for n in range(upto + 1)]
    dims = [tot_dim(n) for n in range(upto + 2)]
    for n in range(upto):
        if not is_zero_matrix(mat_mul(diffs[n + 1], diffs[n])):
            raise StructureError(f"bicomplex total differential fails d*d = 0 at degree {n}")
    bic_dims = cohomology_dims(diffs, dims, upto)

    return {
        "lambda_complex": lam_dims,
        "bicomplex": bic_dims,
        "agree": lam_dims == bic_dims,
    }
