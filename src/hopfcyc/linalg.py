"""Small exact linear algebra over the rationals.

Matrices are lists of equal-length rows of `Fraction`.  Elimination runs on
sparse rows, ``dict[column] -> Fraction`` holding only the nonzero entries:
the matrices of this tool are mostly zero (the ⊗_H relation matrix of the
regular S3 instance in degree 1 is 1080×216 with under 1% nonzero entries,
the inverse-antipode ansatz for the U letters of the bicrossed product 88×28
with 6%).

:func:`echelon` is the one elimination kernel; :func:`rref`, :func:`rank`,
:func:`nullspace`, :func:`solve` and :class:`Quotient` all run on it.  It
sweeps the columns in order and takes as pivot the first remaining row with
a nonzero entry in the column, as a dense Gauss–Jordan sweep does.  Every
exact elimination ends in the same reduced row echelon form, since the RREF
of a matrix is unique (its nonzero rows are the one basis of the row space
in reduced echelon shape), so results do not depend on the row format and
reports stay byte-identical.

Chain operators travel by their columns: :data:`Columns` is a matrix held
as a list whose entry j is column j, a sparse ``row -> entry`` dict without
zero entries, so two operators are equal exactly when their lists are.
:func:`hopfcyc.cocyclic.op_matrix` builds operators in this format,
:func:`compose` and :func:`add_columns` combine them, and
:meth:`Quotient.induced_matrix` and :meth:`Quotient.preserves_relations`
take them as they are.  Relation matrices enter :class:`Quotient` as dense
rows, through :func:`rref`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence

Matrix = List[List[Fraction]]
SparseRow = Dict[int, Fraction]
Columns = List[SparseRow]

F0 = Fraction(0)
F1 = Fraction(1)


def zeros(nrows: int, ncols: int) -> Matrix:
    return [[F0] * ncols for _ in range(nrows)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = F1
    return m


def sparse(row: Sequence[Fraction]) -> SparseRow:
    """The nonzero entries of a dense row."""
    return {j: x for j, x in enumerate(row) if x}


def dense(row: SparseRow, ncols: int) -> List[Fraction]:
    out = [F0] * ncols
    for j, x in row.items():
        out[j] = x
    return out


def identity_columns(n: int) -> Columns:
    return [{j: F1} for j in range(n)]


def add_multiple(acc: SparseRow, f: Fraction, row: SparseRow) -> None:
    """acc += f·row in place, dropping the entries that cancel."""
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


def combine(cols: Columns, v: SparseRow) -> SparseRow:
    """Σ v[c]·cols[c]: a matrix held by its sparse columns times a sparse
    vector."""
    out: SparseRow = {}
    for c, x in v.items():
        add_multiple(out, x, cols[c])
    return out


def compose(a: Columns, b: Columns) -> Columns:
    """a∘b on sparse columns: column j is a applied to column j of b."""
    return [combine(a, col) for col in b]


def add_columns(a: Columns, b: Columns, f: Fraction = F1) -> Columns:
    """a + f·b on sparse columns."""
    out = []
    for x, y in zip(a, b):
        s = dict(x)
        add_multiple(s, f, y)
        out.append(s)
    return out


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
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


def mat_vec(a: Matrix, v: Sequence[Fraction]) -> List[Fraction]:
    nonzero = [(j, x) for j, x in enumerate(v) if x]
    return [sum((row[j] * x for j, x in nonzero), F0) for row in a]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y if y else x for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def transpose(a: Matrix) -> Matrix:
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def is_zero_matrix(a: Matrix) -> bool:
    return all(all(x == 0 for x in row) for row in a)


def echelon(rows: Iterable[SparseRow]) -> tuple[List[SparseRow], List[int]]:
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


def rref(m: Matrix) -> tuple[Matrix, List[int]]:
    """Reduced row echelon form; returns (rref rows without zero rows, pivot columns)."""
    ncols = len(m[0]) if m else 0
    rows, pivots = echelon(sparse(row) for row in m)
    return [dense(row, ncols) for row in rows], pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[0]) if m else 0


def nullspace(m: Matrix, ncols: Optional[int] = None) -> Matrix:
    """Basis of the right kernel of ``m`` (rows are kernel vectors)."""
    if not m:
        return identity(ncols) if ncols else []
    ncols = len(m[0])
    rows, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [F0] * ncols
        v[fc] = F1
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


def solve(cols: Sequence[SparseRow], b: SparseRow) -> Optional[List[Fraction]]:
    """One solution x of A·x = b, or None if inconsistent.

    A is given by its columns and b as one more column, each a sparse
    ``row -> entry`` dict; free variables are set to 0.
    """
    n = len(cols)
    aug: Dict[int, SparseRow] = {}
    for j, col in enumerate(cols):
        for r, x in col.items():
            aug.setdefault(r, {})[j] = x
    for r, x in b.items():
        aug.setdefault(r, {})[n] = x
    rows, pivots = echelon(aug[r] for r in sorted(aug))
    x = [F0] * n
    for row, pc in zip(rows, pivots):
        if pc == n:
            return None  # pivot in the augmented column
        x[pc] = row.get(n, F0)
    # check (free variables set to 0)
    image = combine(cols, sparse(x))
    if image != {r: v for r, v in b.items() if v}:
        return None
    return x


class Quotient:
    """Quotient of ℚ^n by the row span of a relation matrix.

    Provides the projection onto quotient coordinates (the non-pivot
    coordinates after full reduction) and the section embedding quotient
    basis vectors back as ambient representatives.  The reduced relations
    are held sparse, by pivot column; ``rel_rref`` has them as dense rows.
    """

    def __init__(self, relations: Matrix, ambient_dim: int):
        self.ambient_dim = ambient_dim
        self.rel_rref, self.pivots = rref(relations)
        self._row_of = {pc: sparse(row) for pc, row in zip(self.pivots, self.rel_rref)}
        self.free = [c for c in range(ambient_dim) if c not in self._row_of]
        self._free_pos = {c: k for k, c in enumerate(self.free)}
        self.dim = len(self.free)

    def _reduce(self, v: SparseRow) -> SparseRow:
        """Subtract from v, in place, its part in the relation span; what is
        left sits at free coordinates only.  Each reduced relation is zero at
        every other pivot, so one pass over v's pivot entries suffices."""
        for pc in [pc for pc in v if pc in self._row_of]:
            add_multiple(v, -v[pc], self._row_of[pc])
        return v

    def project(self, v: Sequence[Fraction]) -> List[Fraction]:
        """Coordinates of v + relations in the quotient basis."""
        out = [F0] * self.dim
        for c, x in self._reduce(sparse(v)).items():
            out[self._free_pos[c]] = x
        return out

    def include(self, q: Sequence[Fraction]) -> List[Fraction]:
        """Ambient representative of a quotient vector (section of project)."""
        v = [F0] * self.ambient_dim
        for c, x in zip(self.free, q):
            v[c] = x
        return v

    def contains_in_relations(self, v: Sequence[Fraction]) -> bool:
        return not self._reduce(sparse(v))

    def induced_matrix(self, ambient_op: Columns, target: "Quotient") -> Matrix:
        """Matrix of the induced map on quotients, columns = images of the
        quotient basis.  Caller is responsible for well-definedness.

        The image of quotient basis vector k is the column of the ambient
        operator at free coordinate k, projected to the target."""
        out = zeros(target.dim, self.dim)
        for k, c in enumerate(self.free):
            for t, x in target._reduce(dict(ambient_op[c])).items():
                out[target._free_pos[t]][k] = x
        return out

    def preserves_relations(self, ambient_op: Columns, target: "Quotient") -> bool:
        """Does the ambient operator map the relation subspace into the
        target relation subspace (i.e. descend to the quotients)?"""
        for pc in self.pivots:
            if target._reduce(combine(ambient_op, self._row_of[pc])):
                return False
        return True


def cohomology_dims(diffs: List[Matrix], dims: List[int], upto: int) -> List[int]:
    """Cohomology dimensions of a cochain complex.

    ``dims[n]`` is the dimension of the degree-n space, ``diffs[n]`` the
    matrix of d: degree n -> degree n+1 (shape dims[n+1] x dims[n]).
    Returns [dim H^0, ..., dim H^upto]; requires data through degree upto+1.
    """
    out = []
    for n in range(upto + 1):
        dn = diffs[n]
        ker = dims[n] - (rank(dn) if dims[n] else 0)
        im = rank(diffs[n - 1]) if n > 0 else 0
        out.append(ker - im)
    return out
