"""The sparse elimination kernel against a second, dense route.

``dense_rref``, ``dense_solve`` and ``dense_project`` are the dense
list-of-rows routines the sparse kernel replaced, kept here as oracles.  The
reduced row echelon form is unique, so the two routes must agree exactly,
rows and pivots, on every input.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcyc import linalg
from hopfcyc.cocyclic import RelativeTensorSpace, build_coalgebra_instance
from hopfcyc.coefficients import (
    group_set_module_coalgebra,
    mc_conjugation_group,
    mc_graded_group,
    mc_trivial,
)
from hopfcyc.instances import GroupSetData, build_group_algebra, cyclic_group
from hopfcyc.linalg import F0, F1, Quotient, mat_vec, nullspace, rank, rref, solve

F = Fraction
# 2^521 − 1 is prime and larger than the Hadamard bound of every minor of
# the integer matrices below, so a rank mod it is the rank over ℚ.
PRIME = 2**521 - 1

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


# -- the dense oracles ---------------------------------------------------------


def sparse_columns(m):
    """A dense matrix as the sparse columns the quotient maps take."""
    return [linalg.sparse(col) for col in zip(*m)]


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


def dense_solve(a, b):
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    rows, pivots = dense_rref([list(row) + [b[i]] for i, row in enumerate(a)])
    x = [F0] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = rows[r][-1]
    for i in range(nrows):
        if sum(a[i][j] * x[j] for j in range(ncols)) != b[i]:
            return None
    return x


def dense_project(q, v):
    v = list(v)
    for r, pc in enumerate(q.pivots):
        if v[pc] != 0:
            f = v[pc]
            v = [x - f * y for x, y in zip(v, q.rel_rref[r])]
    return [v[c] for c in q.free]


def unit_vector_induced(src, op, tgt):
    """The induced matrix through images of unit vectors under ``mat_vec``,
    projected by the dense route."""
    cols = []
    for i in range(src.dim):
        e = [F0] * src.dim
        e[i] = F1
        cols.append(dense_project(tgt, mat_vec(op, src.include(e))))
    return [[cols[j][i] for j in range(src.dim)] for i in range(tgt.dim)]


def rank_mod_prime(m):
    rows = []
    for row in m:
        den = math.lcm(*(x.denominator for x in row))
        rows.append([int(x * den) % PRIME for x in row])
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, PRIME)
        rows[r] = [x * inv % PRIME for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % PRIME for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


# -- random sparse rational matrices -------------------------------------------

entries = st.one_of(
    st.just(F0),
    st.just(F0),
    st.just(F0),
    st.builds(F, st.integers(-9, 9), st.integers(1, 6)),
)


@st.composite
def matrices(draw, max_rows=12, max_cols=12, min_cols=1):
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(min_cols, max_cols))
    m = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    # repeat some rows and sums of rows, as relation matrices do
    for _ in range(draw(st.integers(0, 3)) if m else 0):
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        m.append([x + y for x, y in zip(m[i], m[j])])
    return m


@SETTINGS
@given(matrices())
def test_rref_matches_dense_oracle(m):
    rows, pivots = rref(m)
    assert (rows, pivots) == dense_rref(m)
    assert all(isinstance(x, Fraction) for row in rows for x in row)


# mixed rows, as the relation and operator rows built from integer-first
# coefficients arrive: int entries, and Fraction ones only when not integral
mixed_entries = st.one_of(
    st.integers(-9, 9).filter(bool),
    st.builds(F, st.integers(-9, 9).filter(bool), st.integers(2, 6)).filter(
        lambda x: x.denominator != 1
    ),
)


@st.composite
def mixed_rows(draw, max_rows=10, max_cols=10):
    ncols = draw(st.integers(1, max_cols))
    rows = draw(
        st.lists(
            st.dictionaries(st.integers(0, ncols - 1), mixed_entries, max_size=ncols),
            max_size=max_rows,
        )
    )
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        s = dict(rows[i])
        linalg.add_multiple(s, draw(mixed_entries), rows[j])
        rows.append(s)
    return ncols, rows


@SETTINGS
@given(mixed_rows())
def test_echelon_invariants_on_mixed_rows(data):
    ncols, rows = data
    out, pivots = linalg.echelon(rows)
    # pivots increase, each pivot entry is 1, leads its row and is cleared
    # from every other row
    assert pivots == sorted(set(pivots))
    for k, (row, pc) in enumerate(zip(out, pivots)):
        assert row[pc] == 1 and min(row) == pc
        assert all(pc not in other for i, other in enumerate(out) if i != k)
    assert all(isinstance(x, Fraction) and x for row in out for x in row.values())
    # idempotent
    assert linalg.echelon(out) == (out, pivots)
    # the row space is kept: the input rows lie in the span of the result,
    # and both spans have the same dimension
    assert linalg.echelon(rows + out) == (out, pivots)
    assert len(out) == rank_mod_prime([[F(x) for x in linalg.dense(r, ncols)] for r in rows])
    # the same result as on the rows cast to Fraction
    assert linalg.echelon([{j: F(x) for j, x in r.items()} for r in rows]) == (out, pivots)


@SETTINGS
@given(matrices())
def test_rank_matches_rank_mod_prime(m):
    assert rank(m) == rank_mod_prime(m)


@SETTINGS
@given(matrices(min_cols=0))
def test_nullspace_is_the_kernel(m):
    ncols = len(m[0]) if m else 4
    basis = nullspace(m, ncols)
    assert len(basis) == ncols - rank(m)
    for v in basis:
        assert all(x == 0 for x in mat_vec(m, v))


@SETTINGS
@given(matrices().filter(bool), st.randoms(use_true_random=False))
def test_solve_matches_dense_oracle(a, rnd):
    nrows = len(a)
    ncols = len(a[0])
    x0 = [F(rnd.randint(-3, 3)) for _ in range(ncols)]
    consistent = mat_vec(a, x0)
    perturbed = list(consistent)
    perturbed[rnd.randrange(nrows)] += 1
    cols = [{i: a[i][j] for i in range(nrows) if a[i][j]} for j in range(ncols)]
    for b in (consistent, perturbed):
        x = solve(cols, linalg.sparse(b))
        assert x == dense_solve(a, b)
        if x is not None:
            assert mat_vec(a, x) == b
    assert solve(cols, linalg.sparse(consistent)) is not None


@SETTINGS
@given(matrices(), st.randoms(use_true_random=False))
def test_quotient_maps_match_dense_routes(rel, rnd):
    n = len(rel[0]) if rel else 5
    src = Quotient(rel, n)
    # a target whose relations contain the source's, and an unrelated one
    extra = [[F(rnd.randint(-2, 2)) if rnd.random() < 0.3 else F0 for _ in range(n)]]
    bigger = Quotient(rel + extra, n)
    other = Quotient([[F(rnd.randint(-2, 2)) for _ in range(n)]], n)

    q = [F(rnd.randint(-3, 3), rnd.randint(1, 3)) for _ in range(src.dim)]
    assert src.project(src.include(q)) == q

    v = [F(rnd.randint(-3, 3)) if rnd.random() < 0.5 else F0 for _ in range(n)]
    assert src.project(v) == dense_project(src, v)
    assert src.contains_in_relations(v) == all(x == 0 for x in dense_project(src, v))
    for row in src.rel_rref:
        assert src.contains_in_relations(row)

    ident = linalg.identity(n)
    op = [[F(rnd.randint(-2, 2)) if rnd.random() < 0.25 else F0 for _ in range(n)] for _ in range(n)]
    for amb in (ident, op):
        cols = sparse_columns(amb)
        for tgt in (src, bigger, other):
            assert src.induced_matrix(cols, tgt) == unit_vector_induced(src, amb, tgt)
            assert src.preserves_relations(cols, tgt) == all(
                tgt.contains_in_relations(mat_vec(amb, row)) for row in src.rel_rref
            )
    assert src.preserves_relations(sparse_columns(ident), bigger)


def test_seeded_sparse_matrices_match_dense_oracle():
    rnd = random.Random(7)
    for _ in range(20):
        nrows, ncols = rnd.randint(20, 60), rnd.randint(10, 40)
        m = [
            [F(rnd.randint(-5, 5), rnd.randint(1, 4)) if rnd.random() < 0.05 else F0 for _ in range(ncols)]
            for _ in range(nrows)
        ]
        assert rref(m) == dense_rref(m)
        assert rank(m) == rank_mod_prime(m)


# -- the relation matrices of the finite instances ------------------------------


def relation_matrices(monkeypatch, build):
    """Every matrix ``build`` eliminates through ``rref``."""
    seen = []
    real = linalg.rref

    def recording(m):
        seen.append([list(row) for row in m])
        return real(m)

    monkeypatch.setattr(linalg, "rref", recording)
    build()
    monkeypatch.undo()
    return seen


def assert_kernel_matches_oracle(mats):
    assert mats
    for m in mats:
        assert rref(m) == dense_rref(m)


def test_point_and_swap_relation_matrices(monkeypatch, point_cmod, swap_cmod):
    def build():
        build_coalgebra_instance(mc_trivial(point_cmod.hopf), point_cmod, 3)
        build_coalgebra_instance(mc_trivial(swap_cmod.hopf), swap_cmod, 3)
        graded = build_group_algebra(cyclic_group(2), name="kG_g")
        build_coalgebra_instance(mc_graded_group(swap_cmod.hopf, graded), swap_cmod, 3)

    assert_kernel_matches_oracle(relation_matrices(monkeypatch, build))


@pytest.mark.parametrize("coefficients", ["graded", "conjugation"])
def test_regular_s3_relation_matrices(monkeypatch, s3, coefficients):
    gs = GroupSetData(
        s3, list(s3.elements), {(a, x): s3.mult[(a, x)] for a in s3.elements for x in s3.elements}
    )
    cmod = group_set_module_coalgebra(gs)
    space = build_group_algebra(s3, name="kS3_c")
    if coefficients == "graded":
        mc = mc_graded_group(cmod.hopf, space)
    else:
        mc = mc_conjugation_group(cmod.hopf, space, s3)

    def build():
        for n in (0, 1):
            RelativeTensorSpace(mc, cmod, n)

    mats = relation_matrices(monkeypatch, build)
    assert max(len(m) * len(m[0]) for m in mats) == 1080 * 216
    assert_kernel_matches_oracle(mats)
