"""Small exact linear algebra over the rationals, on sparse data only.

A vector is a :data:`SparseRow`, ``dict[index] -> entry`` holding only the
nonzero entries (``int`` or ``Fraction``).  A matrix comes in two
encodings.  :data:`Columns` is a list whose entry j is column j as a
sparse ``row -> entry`` dict; a list of sparse rows is the same data read
the other way.  A monomial matrix, each column empty or one ``int`` ±1,
as every leg matrix, ambient operator and induced operator of a
group-algebra instance is, may also be a :data:`Signed` map: one ``int``
per column, s·(r+1) for a column s·e_r and 0 for an empty one.
:func:`signed` encodes, :func:`columns` decodes with every entry's type
kept, and :func:`identity` is the identity, a signed map that every entry
point reads.  No zero entry is ever stored, so two matrices of one shape
and encoding are equal exactly when their lists are.  The matrices of
this tool are mostly zero: the ⊗_H relation matrix of the regular S3
instance in degree 1 is 1080×216 with under 1% nonzero entries.

Each job has one entry point that takes either encoding, and only this
module reads the encoding (:func:`is_signed`).  :func:`compose` is the
product: one list comprehension for two signed maps, a signed factor read
in place against Columns, else :func:`mat_mul`, which reads a one-entry
column x·e_c of its right factor as a scaled copy of column c of the
left one and sends every other column through :func:`mat_vec`.
:func:`combine` is the sum, Σ c·M into Columns, each entry c times its
own so that ``int`` data stays ``int``;
:func:`residual_nonzeros` counts the entries of a − b through it.
:func:`kron` is the Kronecker product, by index arithmetic on signed
legs when every leg is monomial and entry by entry otherwise;
:func:`compose_local` is P ∘ (I ⊗ L ⊗ I) from slices of P, with no
Kronecker product built; :func:`transpose` reads the columns of a matrix
as rows, and keeps a signed map signed where no two columns share a row.

:func:`rref` is the general elimination, and :func:`solve` runs on it:
it sweeps the columns in order and takes as pivot the first remaining row
with a nonzero entry in the column, as a dense Gauss–Jordan sweep does.
Relation rows of at most two entries, as every ⊗_H, coinvariant, W and
1 − λ row of the finite instances is, say that one basis vector is a
multiple of another; :func:`orbit_rref` reads their reduced form off a
weighted union-find of those classes (Tarjan 1975), in ``int`` entries
where they are integral, and returns None on any other row set.  Its
lookup answers a new column, a root or a child of a root with one or two
dict reads and walks (and compresses) only longer paths, and a row with
a ±1 entry first, as every row of a group-algebra instance has, gives
its ratio without a division.  :class:`Quotient` and :func:`nullspace`
take that route first and fall back on :func:`rref`.  The reduced row
echelon form of a matrix is unique, so results do not depend on the
route or the row format and reports stay byte-identical.  :func:`rank`
needs no reduced form: it counts pivots by fraction-free elimination in
``int`` (Bareiss 1968), shortest row first, with no back-substitution.

A :class:`Quotient` holds its projection as one matrix, ``proj``, and as
a signed map, ``signed_proj``, when every reduced row is e_a or e_a ∓ e_r.
:meth:`Quotient.induced` is the one route from an ambient operator to the
map it induces: Q = P′ ∘ op for the target projection P′, M = the columns
of Q at the free coordinates, and the operator descends exactly when
Q = M ∘ P for the source projection P.  Each projection is read in its
signed form where it has one, so on a group-algebra instance every step
is a signed map.  The callers are the operator memos of
:class:`hopfcyc.cocyclic.FiniteComplex` and the Π/Π′ maps of
:func:`hopfcyc.kaygun.check_iso`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Dict, List, Optional, Union

SparseRow = Dict[int, Fraction]
Columns = List[SparseRow]
Signed = List[int]
Matrix = Union[Columns, Signed]

F0 = Fraction(0)
F1 = Fraction(1)


def identity(n: int) -> Signed:
    """The n×n identity as a :data:`Signed` map."""
    return list(range(1, n + 1))


def add_multiple(acc: SparseRow, f: Fraction, row: SparseRow) -> None:
    """acc += f·row in place, for a nonzero f, dropping the entries that
    cancel."""
    for j, y in row.items():
        x = acc.get(j)
        if x is None:
            acc[j] = f * y
        else:
            x += f * y
            if x:
                acc[j] = x
            else:
                del acc[j]


def mat_vec(a: Columns, v: SparseRow) -> SparseRow:
    """Σ v[c]·a[c]: a matrix held by its columns times a sparse vector,
    dropping the entries that cancel."""
    out: SparseRow = {}
    for c, x in v.items():
        for r, y in a[c].items():
            s = out.get(r, 0) + x * y
            if s:
                out[r] = s
            else:
                del out[r]
    return out


def mat_mul(a: Columns, b: Columns) -> Columns:
    """a∘b: column j is a applied to column j of b.  A column of b with one
    entry x at c is x·a[c], built as a new dict (a copy for an ``int`` 1),
    so no column of the result is a column of a."""
    out = []
    for col in b:
        if len(col) == 1:
            ((c, x),) = col.items()
            out.append(dict(a[c]) if x == 1 and type(x) is int else {r: x * y for r, y in a[c].items()})
        else:
            out.append(mat_vec(a, col))
    return out


def is_signed(a: Matrix) -> bool:
    """Is ``a`` a :data:`Signed` map?  The empty matrix is read as both."""
    return not a or type(a[0]) is int


def signed(a: Columns) -> Optional[Signed]:
    """``a`` as a :data:`Signed` map, or None if some column is neither
    empty nor one ``int`` ±1, so that :func:`columns` gives every entry
    back with its type."""
    out = []
    for col in a:
        if not col:
            out.append(0)
            continue
        if len(col) > 1:
            return None
        ((r, x),) = col.items()
        if type(x) is not int or (x != 1 and x != -1):
            return None
        out.append(r + 1 if x == 1 else -r - 1)
    return out


def columns(a: Matrix) -> Columns:
    """``a`` as :data:`Columns`; a matrix that already is one is returned
    as it is."""
    if not is_signed(a):
        return a
    return [{e - 1: 1} if e > 0 else {-e - 1: -1} if e else {} for e in a]


def compose(a: Matrix, b: Matrix) -> Matrix:
    """a∘b in either encoding, as :func:`mat_mul` of their :func:`columns`
    gives it, entry types too, with no factor decoded: a :data:`Signed`
    map when both are; a signed ``b`` copies or negates columns of ``a``,
    and a signed ``a`` relabels the rows of each column of ``b``."""
    if is_signed(b):
        if is_signed(a):
            return [a[e - 1] if e > 0 else -a[-e - 1] if e else 0 for e in b]
        return [dict(a[e - 1]) if e > 0 else {r: -x for r, x in a[-e - 1].items()} if e else {} for e in b]
    if not is_signed(a):
        return mat_mul(a, b)
    out = []
    for col in b:
        acc = {}
        for c, x in col.items():
            if a[c]:
                add_multiple(acc, x if a[c] > 0 else -x, {abs(a[c]) - 1: 1})
        out.append(acc)
    return out


def compose_local(p: Matrix, a: int, leg: Matrix, b: int) -> Matrix:
    """p ∘ (I_a ⊗ leg ⊗ I_b) in either encoding: for a leg of ℓ rows, the
    b columns (i, j, ·) of the product are Σ_r leg[r, j] · the b columns
    of ``p`` from (i·ℓ + r)·b on.  When ``p`` and ``leg`` are
    :data:`Signed` maps that is one slice of ``p``, negated for a −1
    entry, or b zeros for an empty leg column; else the :func:`combine` of
    the slices."""
    step, leg_sign = len(p) // a, signed(columns(leg))
    blocks, out = [i * step for i in range(a)], []
    if is_signed(p) and leg_sign is not None:
        for o in blocks:
            for e in leg_sign:
                cut = p[o + (abs(e) - 1) * b : o + abs(e) * b] if e else [0] * b
                out += cut if e >= 0 else [-x for x in cut]
        return out
    for o in blocks:
        for col in columns(leg):
            out += combine([(x, p[o + r * b : o + (r + 1) * b]) for r, x in col.items()], b)
    return out


def kron(mats, dims) -> Matrix:
    """A₀ ⊗ … ⊗ A_k of legs in either encoding, leg i having ``dims[i]``
    rows, last leg fastest: row r·d + s pairs row r of the legs before
    with row s of a leg of d rows.  A :data:`Signed` map when every leg is
    monomial, column j·m + c of A ⊗ B, for B of m columns and d rows, being
    s·t·(r·d + q + 1) when column j of A is s·e_r and column c of B is
    t·e_q, and 0 when either is empty; else :data:`Columns`, each entry the
    product of one entry per leg, with no zero entry stored."""
    signs = [a if is_signed(a) else signed(a) for a in mats]
    if None in signs:
        out = [{0: 1}]
        for a, d in zip(mats, dims):
            a = columns(a)
            out = [{r * d + s: x * y for r, x in col.items() for s, y in leg.items()} for col in out for leg in a]
        return out
    out = [1]
    for a, d in zip(signs, dims):
        nxt = []
        for x in out:
            o = (abs(x) - 1) * d
            if x > 0:
                nxt += [y + o if y > 0 else y - o if y else 0 for y in a]
            elif x:
                nxt += [-y - o if y > 0 else o - y if y else 0 for y in a]
            else:
                nxt += [0] * len(a)
        out = nxt
    return out


def combine(terms, ncols: int) -> Columns:
    """Σ c·M over the pairs (c, M) of ``terms``, each M a matrix of
    ``ncols`` columns in either encoding, as :data:`Columns`.  A term with
    c = 0 is skipped and every entry that cancels is dropped.  The first
    term kept gives each column its dict, each entry c times its own (a
    copy for an ``int`` 1), so ``int`` entries under ``int`` factors stay
    ``int``; a later Columns term adds into it by :func:`add_multiple`, and
    a later signed term with one pop and at most one store per column."""
    terms = [(c, m) for c, m in terms if c]
    if not terms:
        return [{} for _ in range(ncols)]
    (c, m), *rest = terms
    if is_signed(m):
        out = [{e - 1: c} if e > 0 else {-e - 1: -c} if e else {} for e in m]
    elif c == 1 and type(c) is int:
        out = [dict(col) for col in m]
    else:
        out = [{r: c * x for r, x in col.items()} for col in m]
    for c, m in rest:
        if not is_signed(m):
            for acc, col in zip(out, m):
                add_multiple(acc, c, col)
            continue
        for acc, e in zip(out, m):
            if e > 0:
                r, x = e - 1, c
            elif e:
                r, x = -e - 1, -c
            else:
                continue
            v = acc.pop(r, 0) + x
            if v:
                acc[r] = v
    return out


def residual_nonzeros(a: Matrix, b: Matrix) -> int:
    """The nonzero count of a − b, for matrices of one shape in either
    encoding; 0 at once when the two are equal lists."""
    return 0 if a == b else sum(map(len, combine([(1, a), (-1, b)], len(a))))


def transpose(a: Matrix, nrows: int) -> Matrix:
    """The transpose of a matrix with ``nrows`` rows, in either encoding:
    entry r of the result is row r of ``a``, the columns of ``a`` read as
    rows.  A :data:`Signed` map when ``a`` is one whose nonzero columns
    hit distinct rows, else :data:`Columns`, row r as a sparse dict, as
    also for a matrix of no columns, which reads as either encoding."""
    if a and is_signed(a):
        out = [0] * nrows
        for j, e in enumerate(a, 1):
            if e:
                r = abs(e) - 1
                if out[r]:
                    return transpose(columns(a), nrows)
                out[r] = j if e > 0 else -j
        return out
    out: Columns = [{} for _ in range(nrows)]
    for j, col in enumerate(a):
        for r, x in col.items():
            out[r][j] = x
    return out


def rref(rows: List[SparseRow]) -> tuple[List[SparseRow], List[int]]:
    """Reduced row echelon form of sparse rows: (nonzero rows, pivot
    columns), row k having its leading 1 in column ``pivots[k]``.

    Columns are swept in increasing order; the pivot of a column is the
    first remaining row with a nonzero entry there, and it is cleared from
    every other row.  The input rows are not modified.
    """
    m = [dict(r) for r in rows if r]
    nrows = len(m)
    pivots: List[int] = []
    r = 0
    for c in sorted({c for row in m for c in row}):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if c in m[i]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = F1 / m[r][c]
        prow = m[r] = {j: x * inv for j, x in m[r].items()}
        for i, row in enumerate(m):
            f = row.get(c)
            if f is not None and i != r:
                add_multiple(row, -f, prow)
        pivots.append(c)
        r += 1
    return m[:r], pivots


def _ratio(x, y):
    """x / y, an ``int`` when integral."""
    if type(x) is int and type(y) is int and not x % y:
        return x // y
    q = Fraction(x) / y
    return q.numerator if q.denominator == 1 else q


def orbit_rref(rows: List[SparseRow]) -> Optional[tuple[List[SparseRow], List[int]]]:
    """:func:`rref` of rows with at most two nonzero entries each, read off
    a weighted union-find; None if some row has more, for the caller to
    fall back on :func:`rref`.

    A row c_a·e_a + c_b·e_b says e_a ≡ (−c_b/c_a)·e_b.  Each class is kept
    as a tree rooted at its largest column r, every column a carrying the
    weight w with e_a ≡ w·e_r.  In a class whose weights agree around every
    cycle, r is the one free column and row a is e_a − w·e_r; a class with
    an inconsistent cycle or a one-entry row spans all of its columns, so
    each of them is a pivot and row a is e_a.  Entries are ``int`` wherever
    they are integral.

    Most lookups are short: a new column, a root or a child of a root is
    answered with one or two dict reads, and only a longer path is walked
    and compressed, each column on it taking the product of the weights
    above it.  No unit needs a division: for c_a = ±1 the ratio k =
    −c_b/c_a is ∓c_b, for k = ±1 its inverse is k, and for w_a = ±1 the
    new weight k·w_b/w_a is ±k·w_b; every other ratio goes through
    ``_ratio``.  The weights are internal, and each output entry is passed
    through ``_ratio``, so an integral ``Fraction`` weight still gives an
    ``int`` entry.
    """
    if max(map(len, rows), default=0) > 2:
        return None
    parent: Dict[int, int] = {}
    weight: Dict[int, Fraction] = {}
    dead = set()  # roots of classes that span all of their columns

    def find(a):
        """(root, w) with e_a ≡ w·e_root, compressing a path of two or
        more hops."""
        p = parent.get(a)
        if p is None:
            parent[a] = a
            return a, 1
        if p == a:
            return a, 1
        r = parent[p]
        if r == p:
            return p, weight[a]
        path = [a, p]
        while parent[r] != r:
            path.append(r)
            r = parent[r]
        for x in reversed(path):
            p = parent[x]
            if p != r:
                weight[x] *= weight[p]
                parent[x] = r
        return r, weight[a]

    for row in rows:
        if len(row) == 1:
            (a,) = row
            dead.add(find(a)[0])
        elif row:
            (a, ca), (b, cb) = row.items()
            # e_a ≡ k·e_b; a unit c_a, as in every group-algebra row, needs no division
            k = -cb if ca == 1 else cb if ca == -1 else _ratio(-cb, ca)
            ra, wa = find(a)
            rb, wb = find(b)
            if ra == rb:
                if wa != k * wb:
                    dead.add(ra)
                continue
            if ra > rb:
                ra, wa, rb, wb = rb, wb, ra, wa
                k = k if k == 1 or k == -1 else _ratio(1, k)
            # wa·e_ra ≡ k·wb·e_rb, and ra < rb becomes a child of rb
            parent[ra] = rb
            weight[ra] = k * wb if wa == 1 else -k * wb if wa == -1 else _ratio(k * wb, wa)
            if ra in dead:
                dead.add(rb)

    out: List[SparseRow] = []
    pivots: List[int] = []
    for a in sorted(parent):
        r, w = find(a)
        if r in dead or a != r:
            out.append({a: 1} if r in dead else {a: 1, r: _ratio(-w, 1)})
            pivots.append(a)
    return out, pivots


def rank(rows: List[SparseRow]) -> int:
    """Rank of the matrix with these rows (or these columns: the rank is
    the same), by fraction-free elimination in ``int`` (Bareiss 1968).

    Each row is scaled to integers by the lcm of its denominators.  The
    shortest remaining row is the pivot, at the first column c it stores,
    with entry p; every other row with an entry f at c becomes
    p·row − f·pivot (both factors divided by gcd(p, f), the sign dropped),
    then divided by the gcd of its entries.  Only the count of pivots is
    kept, so there is no back-substitution.  The input rows are not
    modified.
    """
    m = []
    for row in rows:
        if row:
            den = lcm(*[x.denominator for x in row.values()])
            m.append({j: x.numerator * (den // x.denominator) for j, x in row.items()})
    r = 0
    while m:
        prow = min(m, key=len)
        c, p = next(iter(prow.items()))
        r += 1
        rest = []
        for row in m:
            f = row.get(c)
            if f is None:
                rest.append(row)
            elif row is not prow:
                g = gcd(p, f)
                u, f = p // g, f // g
                if u < 0:
                    u, f = -u, -f
                if u != 1:
                    for j in row:
                        row[j] *= u
                add_multiple(row, -f, prow)
                if row:
                    g = gcd(*row.values())
                    if g != 1:
                        for j in row:
                            row[j] //= g
                    rest.append(row)
        m = rest
    return r


def nullspace(rows: List[SparseRow], ncols: int) -> List[SparseRow]:
    """Basis of the right kernel of the matrix with these rows and
    ``ncols`` columns: one vector per free column fc, with 1 at fc and
    −R[k][fc] at the pivot of row k of the reduced form R, from
    :func:`orbit_rref` when every row has at most two entries (then in
    ``int`` entries where integral) and from :func:`rref` otherwise."""
    reduced, pivots = orbit_rref(rows) or rref(rows)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = {fc: 1}
        for row, pc in zip(reduced, pivots):
            x = row.get(fc)
            if x:
                v[pc] = -x
        basis.append(v)
    return basis


def solve(cols: Columns, b: SparseRow) -> Optional[SparseRow]:
    """One solution x of A·x = b, or None if inconsistent.

    A is given by its columns; free variables are set to 0.
    """
    n = len(cols)
    aug = cols + [b]
    nrows = 1 + max((r for col in aug for r in col), default=-1)
    rows, pivots = rref(transpose(aug, nrows))
    x: SparseRow = {}
    for row, pc in zip(rows, pivots):
        if pc == n:
            return None  # pivot in the augmented column
        if n in row:
            x[pc] = row[n]
    # check (free variables set to 0)
    if mat_vec(cols, x) != b:
        return None
    return x


class Quotient:
    """Quotient of ℚ^n by the span of sparse relation rows.

    Quotient coordinates are the free (non-pivot) coordinates of the
    reduced relations; ``project`` sends an ambient vector to them and
    ``include`` embeds them back as ambient representatives.  ``rows``
    holds the reduced relations, row k with its leading 1 at
    ``pivots[k]``: from :func:`orbit_rref` when every relation has at most
    two entries (then each reduced row is e_a or e_a − w·e_r, in ``int``
    entries where integral, and projecting stays in ``int`` arithmetic),
    from :func:`rref` otherwise.

    ``proj`` is the projection as one matrix: column c is e_c in quotient
    coordinates, {k: 1} for the k-th free c, and for a pivot c minus the
    free entries of its reduced row, which is zero at every other pivot.
    Each quotient coordinate k is one ``int`` object, held by every column
    of ``proj`` that has an entry at k and so by every matrix projected
    through it.
    """

    def __init__(self, relations: List[SparseRow], ambient_dim: int):
        self.ambient_dim = ambient_dim
        self.rows, self.pivots = orbit_rref(relations) or rref(relations)
        row_of = dict(zip(self.pivots, self.rows))
        self.free = [c for c in range(ambient_dim) if c not in row_of]
        self.dim = len(self.free)
        pos = dict(zip(self.free, range(self.dim)))
        self.proj: Columns = [
            {pos[c]: 1} if c in pos else {pos[f]: -x for f, x in row_of[c].items() if f != c}
            for c in range(ambient_dim)
        ]

    def project(self, v: SparseRow) -> SparseRow:
        """Coordinates of v + relations in the quotient basis."""
        return mat_vec(self.proj, v)

    def include(self, q: SparseRow) -> SparseRow:
        """Ambient representative of a quotient vector (section of project)."""
        return {self.free[k]: x for k, x in q.items()}

    @cached_property
    def signed_proj(self) -> Optional[Signed]:
        """``proj`` as a :data:`Signed` map, or None: it is one exactly when
        every reduced row is e_a or e_a − w·e_r with an ``int`` w = ±1, as
        :func:`orbit_rref` gives them on a group-algebra instance."""
        return signed(self.proj)

    def induced(self, ambient_op, target: "Quotient", apply=compose) -> tuple[Matrix, int]:
        """(M, k): M the map that ``ambient_op`` induces on the quotients, k
        the nonzero count of the reduced relations' images projected to the
        target, so that the operator descends exactly when k is 0.  Q =
        ``apply(P′, ambient_op)``, P′ ∘ ambient_op for P′ the target
        projection (an operator held factored comes with its own ``apply``),
        M is the columns of Q at the free coordinates, and k is the nonzero
        count of Q − M ∘ P for P the source projection: column a of Q − M ∘ P
        is Q applied to the reduced row of pivot a.  Each projection is
        read as a :data:`Signed` map where it is one, so M is one when P′
        and the operator are."""
        q = apply(target.signed_proj or target.proj, ambient_op)
        m = [q[c] for c in self.free]
        return m, residual_nonzeros(q, compose(m, self.signed_proj or self.proj))

    def induced_matrix(self, ambient_op: Matrix, target: "Quotient") -> Matrix:
        """The induced map on quotients, as :meth:`induced` gives it."""
        return self.induced(ambient_op, target)[0]

    def preserves_relations(self, ambient_op: Matrix, target: "Quotient") -> bool:
        """Does the ambient operator descend to the quotients?"""
        return not self.induced(ambient_op, target)[1]


def cohomology_dims(diffs: List[Columns], dims: List[int], upto: int) -> List[int]:
    """Cohomology dimensions of a cochain complex.

    ``dims[n]`` is the dimension of the degree-n space, ``diffs[n]`` the
    matrix of d: degree n -> degree n+1 (dims[n] columns).  Returns
    [dim H^0, ..., dim H^upto]; requires data through degree upto+1.
    """
    ranks = [rank(d) for d in diffs[: upto + 1]]
    return [dims[n] - ranks[n] - (ranks[n - 1] if n > 0 else 0) for n in range(upto + 1)]
