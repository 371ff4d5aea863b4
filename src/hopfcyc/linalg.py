"""Small exact linear algebra over the rationals.

Dense row-echelon based routines.  Most matrices in this tool have
dimensions in the tens, but not all: the ⊗_H relation matrix of the regular
S3 instance in degree 1 is 1080×216 with under 1% nonzero entries.
Matrices are lists of rows of `Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

Matrix = List[List[Fraction]]

F0 = Fraction(0)
F1 = Fraction(1)


def zeros(nrows: int, ncols: int) -> Matrix:
    return [[F0] * ncols for _ in range(nrows)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = F1
    return m


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a:
        return []
    nk = len(b)
    nc = len(b[0]) if b else 0
    out = zeros(len(a), nc)
    for i, row in enumerate(a):
        for k in range(nk):
            c = row[k]
            if c == 0:
                continue
            brow = b[k]
            orow = out[i]
            for j in range(nc):
                if brow[j]:
                    orow[j] += c * brow[j]
    return out


def mat_vec(a: Matrix, v: Sequence[Fraction]) -> List[Fraction]:
    return [sum((row[j] * v[j] for j in range(len(v)) if v[j]), F0) for row in a]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def transpose(a: Matrix) -> Matrix:
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def is_zero_matrix(a: Matrix) -> bool:
    return all(all(x == 0 for x in row) for row in a)


def rref(m: Matrix) -> tuple[Matrix, List[int]]:
    """Reduced row echelon form; returns (rref rows without zero rows, pivot columns)."""
    m = [list(row) for row in m]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: List[int] = []
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


def solve(a: Matrix, b: Sequence[Fraction]) -> Optional[List[Fraction]]:
    """One solution x of a·x = b, or None if inconsistent."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    aug = [list(row) + [b[i]] for i, row in enumerate(a)]
    rows, pivots = rref(aug)
    x = [F0] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None  # pivot in the augmented column
        x[pc] = rows[r][-1]
    # check (free variables set to 0)
    for i in range(nrows):
        if sum(a[i][j] * x[j] for j in range(ncols)) != b[i]:
            return None
    return x


class Quotient:
    """Quotient of ℚ^n by the row span of a relation matrix.

    Provides the projection onto quotient coordinates (the non-pivot
    coordinates after full reduction) and the section embedding quotient
    basis vectors back as ambient representatives.
    """

    def __init__(self, relations: Matrix, ambient_dim: int):
        self.ambient_dim = ambient_dim
        if relations:
            self.rel_rref, self.pivots = rref(relations)
        else:
            self.rel_rref, self.pivots = [], []
        self.free = [c for c in range(ambient_dim) if c not in self.pivots]
        self.dim = len(self.free)

    def project(self, v: Sequence[Fraction]) -> List[Fraction]:
        """Coordinates of v + relations in the quotient basis."""
        v = list(v)
        for r, pc in enumerate(self.pivots):
            if v[pc] != 0:
                f = v[pc]
                row = self.rel_rref[r]
                v = [x - f * y for x, y in zip(v, row)]
        return [v[c] for c in self.free]

    def include(self, q: Sequence[Fraction]) -> List[Fraction]:
        """Ambient representative of a quotient vector (section of project)."""
        v = [F0] * self.ambient_dim
        for c, x in zip(self.free, q):
            v[c] = x
        return v

    def contains_in_relations(self, v: Sequence[Fraction]) -> bool:
        return all(x == 0 for x in self.project(v))

    def induced_matrix(self, ambient_op: Matrix, target: "Quotient") -> Matrix:
        """Matrix of the induced map on quotients, columns = images of the
        quotient basis.  Caller is responsible for well-definedness."""
        cols = []
        for i in range(self.dim):
            e = [F0] * self.dim
            e[i] = F1
            amb = self.include(e)
            img = mat_vec(ambient_op, amb)
            cols.append(target.project(img))
        # columns -> row-major matrix
        return [[cols[j][i] for j in range(self.dim)] for i in range(target.dim)]

    def preserves_relations(self, ambient_op: Matrix, target: "Quotient") -> bool:
        """Does the ambient operator map the relation subspace into the
        target relation subspace (i.e. descend to the quotients)?"""
        for row in self.rel_rref:
            img = mat_vec(ambient_op, row)
            if not target.contains_in_relations(img):
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
